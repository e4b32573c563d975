//! Copy-on-write chunk version table for snapshot-isolated scans.
//!
//! Writers mutate chunks in place (`LobStore::overwrite` reuses the old
//! location whenever the re-encoded chunk fits), which would let a long
//! pipelined scan observe half-old/half-new bytes. Instead of blocking
//! readers, a writer opens a ticket ([`VersionTable::begin_write`]) and
//! **pins** the decoded pre-image of every chunk it is about to
//! overwrite ([`VersionTable::pin_provisional`]) before touching the
//! bytes; when the whole batch is applied and durable it **publishes**
//! ([`VersionTable::commit_publish`]), bumping the commit generation. A
//! failed batch instead restores the old bytes and drops its ticket's
//! pins ([`VersionTable::rollback_writer`]).
//!
//! Pins are keyed by *logical chunk identity* — the owning array's
//! persistent uid plus the chunk number ([`VersionKey`]) — never by the
//! chunk's storage location. An overwrite that changes the encoded
//! length moves or relabels the location (shrink rewrites the directory
//! length, growth relocates the object), so a location key would strand
//! the pinned pre-image the moment the directory is updated; the
//! logical key stays resolvable across relocation.
//!
//! In-flight (provisional) pins are tracked per writer ticket,
//! separately from the generation-stamped images of published commits.
//! Publishing moves only the publishing writer's pins into the
//! committed set, so one writer's publish can never unshield another
//! writer's half-applied batch on the same pool.
//!
//! A reader opens a [`ChunkSnapshot`] at generation `g` before its
//! scan. For every chunk it looks up the chunk's [`VersionKey`]: a
//! committed image with `superseded_at > g` means "this chunk was
//! overwritten by a commit newer than the snapshot" and that pre-image
//! is served; otherwise a provisional pin means "an unpublished batch
//! is rewriting these bytes" and its pre-image is served (correct for
//! every live generation: had a published commit also overwritten the
//! chunk since `g`, the committed lookup would have matched first);
//! with neither, the on-disk bytes are current for `g` and are read
//! normally. Because a writer pins *before* its first byte lands, a
//! reader that re-checks the table after decoding (see
//! `ChunkedArray::read_chunk_at`) can never return a torn image.
//!
//! Every chunk read names a snapshot. A multi-chunk scan holds one for
//! its whole length; a one-chunk read (`ChunkedArray::read_chunk`,
//! `get`, `set`) opens its own at the current generation, where no
//! committed image is newer and only in-flight batches' provisional
//! pins shield it.
//!
//! Pinned images are garbage-collected as soon as no live snapshot is
//! old enough to need them (on publish and on snapshot drop), so a
//! write-only or read-only workload keeps the table empty.
//!
//! The table also hosts two pool-wide write-path controls:
//!
//! * [`VersionTable::commit`] — the commit mutex. Every batch commit
//!   (`molap-core`'s write engine and `Database::write_batch`) holds it
//!   across apply → checkpoint → publish, so two writers on the same
//!   pool can never interleave their WAL/flush windows or checkpoint
//!   each other's half-applied pages. Readers never take it.
//! * [`VersionTable::poison`] — set when a failed batch could not
//!   restore its pre-images. New writes are refused, keeping a later
//!   publish or checkpoint from exposing or persisting the torn chunks
//!   (the orphaned pins keep shielding readers).
//!
//! Lock discipline: the `versions` mutex is self-contained — nothing
//! else is ever acquired while it is held, and no I/O happens under it.
//! The `commit` mutex outranks everything a commit touches (DESIGN.md
//! §8).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use molap_storage::util::fib_shard;
use molap_storage::BufferPool;
use parking_lot::{Mutex, MutexGuard};

use crate::chunk::CompressedChunk;

/// Logical identity of a chunk: the owning array's persistent uid plus
/// the chunk number. Stable across relocation, unlike the chunk's
/// storage location.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VersionKey {
    /// The owning array's uid (persisted in the array meta, so every
    /// handle of one array agrees on it).
    pub array: u64,
    /// Chunk number within the array.
    pub chunk_no: u64,
}

/// Stripes of [`VersionTable::pins_taken`]: a pin cancels the cache
/// publish of concurrent readers of the chunks on its stripe only.
const PIN_STRIPES: usize = 64;

/// A superseded chunk image kept alive for older snapshots.
struct PinnedVersion {
    /// The commit generation whose write replaced this image; snapshots
    /// at generations strictly below it still need it.
    superseded_at: u64,
    chunk: Arc<CompressedChunk>,
}

struct VersionState {
    /// Generation of the most recent published commit.
    commit_gen: u64,
    /// Next writer-ticket id.
    next_writer: u64,
    /// Live snapshot count per generation.
    readers: HashMap<u64, usize>,
    /// Published pre-images keyed by logical chunk identity, sorted
    /// ascending by `superseded_at`.
    pinned: HashMap<VersionKey, Vec<PinnedVersion>>,
    /// In-flight pre-images of unpublished batches, tagged with the
    /// writer ticket that pinned them. Kept apart from `pinned` so an
    /// unrelated writer's publish cannot unshield them.
    provisional: HashMap<VersionKey, Vec<(u64, Arc<CompressedChunk>)>>,
}

impl VersionState {
    /// Drops every committed image no live snapshot can still reach (a
    /// version superseded at `s` is needed only by snapshots with
    /// generation `< s`) and returns how many images remain pinned,
    /// provisional ones included.
    fn gc(&mut self) -> usize {
        let min_gen = self
            .readers
            .keys()
            .copied()
            .min()
            .unwrap_or(self.commit_gen);
        self.pinned.retain(|_, versions| {
            versions.retain(|v| v.superseded_at > min_gen);
            !versions.is_empty()
        });
        self.pinned.values().map(Vec::len).sum::<usize>()
            + self.provisional.values().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
type PinHook = Box<dyn Fn(&VersionTable) + Send + Sync>;

/// Pool-wide table of pinned pre-write chunk images (see module docs).
pub struct VersionTable {
    versions: Mutex<VersionState>,
    /// Mirror of the pinned-image count (committed + provisional)
    /// maintained under the mutex: read paths skip the lock entirely
    /// while it is zero, so the table costs one atomic load per chunk
    /// read in workloads with no in-flight or snapshot-visible writes.
    pin_count: AtomicUsize,
    /// Pins ever taken, striped by chunk identity: bumped by every
    /// [`VersionTable::pin_provisional`] once the pin is visible, before
    /// the writer drops the chunk's cached decode and overwrites its
    /// bytes. A reader that sampled it before looking at a chunk and
    /// finds it moved must not publish what it decoded (see
    /// [`VersionTable::pins_taken`]).
    pins_taken: [AtomicU64; PIN_STRIPES],
    /// Test hook: runs inside [`VersionTable::pin_provisional`] between
    /// the pin becoming visible and the `pins_taken` bump.
    #[cfg(test)]
    pub(crate) mid_pin: std::sync::OnceLock<PinHook>,
    /// Set by a failed batch that could not restore its pre-images;
    /// refuses new writes from then on.
    poisoned: AtomicBool,
    /// The pool's commit mutex: one batch at a time runs apply →
    /// checkpoint → publish. The field name `commit` is its workspace
    /// lock-order rank (DESIGN.md §8).
    commit: Mutex<()>,
}

impl Default for VersionTable {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionTable {
    /// An empty table at generation 0.
    pub fn new() -> Self {
        VersionTable {
            versions: Mutex::new(VersionState {
                commit_gen: 0,
                next_writer: 0,
                readers: HashMap::new(),
                pinned: HashMap::new(),
                provisional: HashMap::new(),
            }),
            pin_count: AtomicUsize::new(0),
            pins_taken: std::array::from_fn(|_| AtomicU64::new(0)),
            #[cfg(test)]
            mid_pin: std::sync::OnceLock::new(),
            poisoned: AtomicBool::new(false),
            commit: Mutex::new(()),
        }
    }

    /// Generation of the most recent published commit.
    pub fn commit_gen(&self) -> u64 {
        self.versions.lock().commit_gen
    }

    /// Acquires the pool-wide commit section: callers hold the guard
    /// across apply → checkpoint → publish so concurrent batch commits
    /// on one pool serialize (see module docs).
    pub fn commit_section(&self) -> MutexGuard<'_, ()> {
        self.commit.lock()
    }

    /// Marks the pool's write path as broken: a failed batch left
    /// chunks it could not restore. [`VersionTable::is_poisoned`] makes
    /// later writes and checkpoints refuse, while the batch's orphaned
    /// provisional pins keep shielding readers.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
    }

    /// True once [`VersionTable::poison`] was called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Registers a reader at the current commit generation. The
    /// snapshot keeps every chunk image it may need pinned until it is
    /// dropped.
    pub fn begin_snapshot(self: &Arc<Self>) -> ChunkSnapshot {
        let gen = {
            let mut state = self.versions.lock();
            let gen = state.commit_gen;
            *state.readers.entry(gen).or_insert(0) += 1;
            gen
        };
        ChunkSnapshot {
            table: Arc::clone(self),
            gen,
        }
    }

    /// Opens a writer ticket. Every [`VersionTable::pin_provisional`]
    /// of the batch carries it, and exactly one of
    /// [`VersionTable::commit_publish`] /
    /// [`VersionTable::rollback_writer`] retires it.
    pub fn begin_write(&self) -> u64 {
        let mut state = self.versions.lock();
        state.next_writer += 1;
        state.next_writer
    }

    /// Pins the decoded pre-image of the chunk at `key` ahead of an
    /// overwrite by writer `writer`. Must be called *before* the first
    /// new byte reaches storage. Idempotent per ticket: repeated pins
    /// of the same key under one ticket keep the first (oldest) image,
    /// so a batch touching a chunk through several edits preserves the
    /// true pre-batch state.
    pub fn pin_provisional(&self, writer: u64, key: VersionKey, chunk: Arc<CompressedChunk>) {
        let mut state = self.versions.lock();
        let entries = state.provisional.entry(key).or_default();
        if !entries.iter().any(|(w, _)| *w == writer) {
            entries.push((writer, chunk));
            self.pin_count.fetch_add(1, Ordering::SeqCst);
        }
        #[cfg(test)]
        if let Some(hook) = self.mid_pin.get() {
            hook(self);
        }
        // Last, and still under the lock: a reader that samples the
        // bumped counter cannot then miss the pin (`pin_count` is
        // already raised, so its lookup takes the lock), and one that
        // sampled earlier finds the counter moved when it publishes.
        self.pin_stripe(key).fetch_add(1, Ordering::SeqCst);
    }

    fn pin_stripe(&self, key: VersionKey) -> &AtomicU64 {
        let idx = fib_shard(key.array.wrapping_add(key.chunk_no), PIN_STRIPES);
        // The mask keeps idx < PIN_STRIPES, so this never falls back.
        self.pins_taken.get(idx).unwrap_or(&self.pins_taken[0])
    }

    /// How many pins were ever taken on `key`'s stripe (its own pins
    /// plus those of the chunks that hash beside it). A chunk read
    /// samples it before its first pin check and passes "still the
    /// same" as the condition of its chunk-cache insert, evaluated
    /// under the cache's shard lock. A writer bumps it — after the pin
    /// is visible, so a sample of the bumped value is always followed
    /// by finding the pin — and only *then* removes the chunk's cache
    /// entry under that lock. So either the reader's insert sees the
    /// bump and is skipped, or it lands first and the writer's removal
    /// takes it out: an image decoded from pre-write bytes is not left
    /// in the cache by a reader that stalled across the pin.
    pub fn pins_taken(&self, key: VersionKey) -> u64 {
        self.pin_stripe(key).load(Ordering::SeqCst)
    }

    /// What `resolve`'s lock-free fast path sees: whether any pin is
    /// visible yet.
    #[cfg(test)]
    pub(crate) fn pin_visible_lock_free(&self) -> bool {
        self.pin_count.load(Ordering::SeqCst) > 0
    }

    /// Publishes writer `writer`'s batch: its provisional pins become
    /// committed images superseded at the new generation, so snapshots
    /// opened from here on see the new bytes while older snapshots keep
    /// resolving to the pre-images. Other writers' in-flight pins are
    /// untouched. Collects any image no live snapshot needs. Returns
    /// the new commit generation.
    pub fn commit_publish(&self, writer: u64) -> u64 {
        let mut state = self.versions.lock();
        state.commit_gen += 1;
        let superseded_at = state.commit_gen;
        let keys: Vec<VersionKey> = state
            .provisional
            .iter()
            .filter(|(_, entries)| entries.iter().any(|(w, _)| *w == writer))
            .map(|(key, _)| *key)
            .collect();
        for key in keys {
            let entries = state.provisional.get_mut(&key).expect("key just seen");
            let pos = entries
                .iter()
                .position(|(w, _)| *w == writer)
                .expect("writer just seen");
            let (_, chunk) = entries.remove(pos);
            if entries.is_empty() {
                state.provisional.remove(&key);
            }
            state.pinned.entry(key).or_default().push(PinnedVersion {
                superseded_at,
                chunk,
            });
        }
        let remaining = state.gc();
        self.pin_count.store(remaining, Ordering::SeqCst);
        superseded_at
    }

    /// Abandons writer `writer`'s batch, dropping its provisional pins.
    /// Only correct after the batch's overwritten bytes were restored
    /// to the pinned pre-images (otherwise [`VersionTable::poison`]).
    pub fn rollback_writer(&self, writer: u64) {
        let mut state = self.versions.lock();
        state.provisional.retain(|_, entries| {
            entries.retain(|(w, _)| *w != writer);
            !entries.is_empty()
        });
        let remaining = state.gc();
        self.pin_count.store(remaining, Ordering::SeqCst);
    }

    /// Number of pinned chunk images currently held, provisional ones
    /// included (diagnostics).
    pub fn pinned_versions(&self) -> usize {
        let state = self.versions.lock();
        state.pinned.values().map(Vec::len).sum::<usize>()
            + state.provisional.values().map(Vec::len).sum::<usize>()
    }

    /// Resolves `key` for a snapshot at `gen`: the oldest committed
    /// image superseded *after* `gen`, else the oldest provisional
    /// pre-image of an in-flight batch (see module docs for why that is
    /// correct for every live generation), else `None` — the on-disk
    /// bytes are current for that generation.
    fn resolve(&self, key: VersionKey, gen: u64) -> Option<Arc<CompressedChunk>> {
        if self.pin_count.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let state = self.versions.lock();
        if let Some(found) = state
            .pinned
            .get(&key)
            .and_then(|versions| versions.iter().find(|v| v.superseded_at > gen))
        {
            return Some(Arc::clone(&found.chunk));
        }
        state
            .provisional
            .get(&key)
            .and_then(|entries| entries.first())
            .map(|(_, chunk)| Arc::clone(chunk))
    }

    fn end_snapshot(&self, gen: u64) {
        let mut state = self.versions.lock();
        if let Some(count) = state.readers.get_mut(&gen) {
            *count -= 1;
            if *count == 0 {
                state.readers.remove(&gen);
            }
        }
        let remaining = state.gc();
        self.pin_count.store(remaining, Ordering::SeqCst);
    }
}

/// A reader's registration at a commit generation. While alive, every
/// chunk image the snapshot may need stays pinned in the table.
pub struct ChunkSnapshot {
    table: Arc<VersionTable>,
    gen: u64,
}

impl ChunkSnapshot {
    /// The commit generation this snapshot reads at.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// The pinned pre-image for the chunk with logical identity `key`,
    /// if a newer commit overwrote it or an unpublished batch is
    /// rewriting it; `None` means the on-disk bytes are the right image
    /// for this snapshot.
    pub fn chunk(&self, key: VersionKey) -> Option<Arc<CompressedChunk>> {
        self.table.resolve(key, self.gen)
    }
}

impl Drop for ChunkSnapshot {
    fn drop(&mut self) {
        self.table.end_snapshot(self.gen);
    }
}

/// Returns the pool-wide [`VersionTable`], installing an empty one as a
/// pool extension on first use (see [`BufferPool::extension_or_init`]).
pub fn shared_version_table(pool: &Arc<BufferPool>) -> Arc<VersionTable> {
    pool.extension_or_init(|| Arc::new(VersionTable::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkBuilder;

    fn chunk_with(offset: u32, value: i64) -> Arc<CompressedChunk> {
        let mut b = ChunkBuilder::new(1);
        b.add(offset, &[value]);
        Arc::new(b.build().unwrap())
    }

    fn key(chunk_no: u64) -> VersionKey {
        VersionKey { array: 7, chunk_no }
    }

    #[test]
    fn snapshot_sees_pinned_pre_image_until_drop() {
        let t = Arc::new(VersionTable::new());
        let snap = t.begin_snapshot();
        assert!(snap.chunk(key(1)).is_none(), "nothing pinned yet");
        let w = t.begin_write();
        t.pin_provisional(w, key(1), chunk_with(0, 10));
        // The provisional pin already shadows the (possibly half
        // overwritten) on-disk bytes for the older snapshot.
        let pinned = snap.chunk(key(1)).expect("pinned image resolves");
        assert_eq!(pinned.probe(0), Some(&[10i64][..]));
        t.commit_publish(w);
        assert!(snap.chunk(key(1)).is_some(), "still pinned for snapshot");
        // A snapshot opened after publish reads current bytes.
        let fresh = t.begin_snapshot();
        assert!(fresh.chunk(key(1)).is_none());
        drop(fresh);
        drop(snap);
        assert_eq!(t.pinned_versions(), 0, "gc after last old snapshot");
    }

    #[test]
    fn publish_without_readers_collects_immediately() {
        let t = Arc::new(VersionTable::new());
        let w = t.begin_write();
        t.pin_provisional(w, key(3), chunk_with(0, 1));
        assert_eq!(t.pinned_versions(), 1);
        t.commit_publish(w);
        assert_eq!(t.pinned_versions(), 0);
        assert_eq!(t.commit_gen(), 1);
    }

    #[test]
    fn repeated_pins_in_one_commit_keep_the_first_image() {
        let t = Arc::new(VersionTable::new());
        let snap = t.begin_snapshot();
        let w = t.begin_write();
        t.pin_provisional(w, key(2), chunk_with(0, 7));
        t.pin_provisional(w, key(2), chunk_with(0, 999));
        let seen = snap.chunk(key(2)).unwrap();
        assert_eq!(seen.probe(0), Some(&[7i64][..]), "first pin wins");
    }

    #[test]
    fn multiple_generations_resolve_to_their_own_images() {
        let t = Arc::new(VersionTable::new());
        let s0 = t.begin_snapshot();
        let w = t.begin_write();
        t.pin_provisional(w, key(5), chunk_with(0, 100));
        t.commit_publish(w); // gen 1: chunk now holds something newer
        let s1 = t.begin_snapshot();
        let w = t.begin_write();
        t.pin_provisional(w, key(5), chunk_with(0, 200));
        t.commit_publish(w); // gen 2
                             // s0 (gen 0) sees the original image, s1 (gen 1) the middle one.
        assert_eq!(s0.chunk(key(5)).unwrap().probe(0), Some(&[100i64][..]));
        assert_eq!(s1.chunk(key(5)).unwrap().probe(0), Some(&[200i64][..]));
        let s2 = t.begin_snapshot();
        assert!(s2.chunk(key(5)).is_none(), "gen 2 reads current bytes");
        drop(s0);
        assert_eq!(t.pinned_versions(), 1, "gen-0 image collected");
        drop(s1);
        assert_eq!(t.pinned_versions(), 0);
    }

    #[test]
    fn unrelated_publish_does_not_unshield_inflight_pins() {
        // The regression behind REVIEW finding 3: writer A is mid-batch
        // when writer B (another array, same pool) publishes. A's pins
        // must keep shielding readers until A itself publishes.
        let t = Arc::new(VersionTable::new());
        let a = t.begin_write();
        t.pin_provisional(a, key(1), chunk_with(0, 10));
        let b = t.begin_write();
        let other = VersionKey {
            array: 8,
            chunk_no: 1,
        };
        t.pin_provisional(b, other, chunk_with(0, 20));
        t.commit_publish(b);
        let now = t.begin_snapshot();
        let shielded = now.chunk(key(1)).expect("A still in flight");
        assert_eq!(shielded.probe(0), Some(&[10i64][..]));
        assert!(now.chunk(other).is_none(), "B's publish exposes B's bytes");
        drop(now);
        t.commit_publish(a);
        assert!(t.begin_snapshot().chunk(key(1)).is_none());
        assert_eq!(t.pinned_versions(), 0);
    }

    #[test]
    fn rollback_drops_only_the_writers_pins() {
        let t = Arc::new(VersionTable::new());
        let a = t.begin_write();
        let b = t.begin_write();
        t.pin_provisional(a, key(1), chunk_with(0, 10));
        t.pin_provisional(b, key(2), chunk_with(0, 20));
        t.rollback_writer(a);
        let now = t.begin_snapshot();
        assert!(now.chunk(key(1)).is_none(), "A's pin dropped");
        assert!(now.chunk(key(2)).is_some(), "B's pin survives");
        drop(now);
        t.rollback_writer(b);
        assert_eq!(t.pinned_versions(), 0);
        assert_eq!(t.commit_gen(), 0, "rollbacks publish nothing");
    }

    #[test]
    fn poison_flag_latches() {
        let t = VersionTable::new();
        assert!(!t.is_poisoned());
        t.poison();
        assert!(t.is_poisoned());
    }
}
