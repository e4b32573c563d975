//! Decoded-chunk cache: `Arc<Chunk>` by disk location, bounded by bytes.
//!
//! `ChunkedArray::read_chunk` pays a parse (and for `DenseLzw` a full
//! LZW decompression) on every access, even when the underlying pages
//! are already hot in the buffer pool — so repeated consolidations,
//! point probes, and §4.2 selection binary-searches re-decode the same
//! bytes over and over. This cache keeps recently decoded chunks as
//! shared `Arc<Chunk>`s so hot reads skip both the pool and the codec.
//!
//! One cache is attached *per buffer pool* (via the pool's extension
//! slot, see [`shared_chunk_cache`]) so every `ChunkedArray` opened over
//! the same database file shares it — `Database::sql` reopens arrays per
//! statement, and warmth must survive the reopen.
//!
//! Keys are LOB disk locations (`(start page, byte offset, length)`):
//! pack space is never reclaimed, so a location names at most one live
//! object and is identical across reopens. An in-place overwrite *does*
//! reuse a location, which is why `ChunkedArray::set` removes the key
//! before rewriting the object.
//!
//! The paper's cold-run methodology ("flush the buffer pool before each
//! query", §5.3) is preserved: every entry is stamped with the pool's
//! clear-epoch, and `BufferPool::clear` bumps it, so a cleared pool's
//! decoded chunks read as misses and are lazily dropped.
//!
//! # Locking
//!
//! Internally the cache is sharded like the pool: each shard owns a
//! `chunks` mutex (declared in the workspace lock order) over the
//! authoritative map plus a second-chance clock ring; eviction is by
//! decoded byte footprint. Nothing else is ever locked while a `chunks`
//! mutex is held except the shard's own mirror (below) — decoding
//! happens outside the lock.
//!
//! # Optimistic reads
//!
//! Hot gets never take the shard `chunks` mutex. Each shard keeps a
//! lock-free mirror of up to [`SLOTS_PER_SHARD`] entries: an
//! [`AtomicIndex`] mapping a key hash to a slot, where each slot is a
//! tiny `chunk_slot` mutex over `(key, epoch, Arc<Chunk>)`. A get runs
//! under a [`OptLock`] (`chunks_v`) optimistic guard: probe the index,
//! lock the slot (per-entry, essentially uncontended), compare the
//! *full* key and epoch, clone the `Arc` out, and validate the guard.
//! The full-key compare under the slot mutex makes hits
//! self-validating — a hash collision or a racing remap can only cause
//! a spurious miss, never a wrong chunk — and the version validation
//! classifies misses: a validated miss (or an escalation after
//! [`molap_storage::MAX_RESTARTS`] conflicts) falls back to the
//! `chunks` mutex path, which alone drops stale entries and serves the
//! overflow entries that did not fit a mirror slot. All mutations hold
//! the shard mutex, take `chunks_v` exclusively, and update the slot
//! under its mutex, so optimistic readers see the mirror move
//! atomically. The second-chance bit for mirrored entries is a relaxed
//! per-slot atomic so hits stay write-free on the shard.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use molap_storage::util::fib_shard;
use molap_storage::{AtomicIndex, BufferPool, IoStats, OptLock, OptProbe, OptRead};
use parking_lot::Mutex;

use crate::Chunk;

/// Cache key: the chunk object's disk location.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChunkKey {
    /// First page of the LOB holding the encoded chunk.
    pub start_page: u64,
    /// Byte offset of the object within its first page.
    pub byte_off: u32,
    /// Encoded length in bytes.
    pub len: u64,
}

impl ChunkKey {
    /// Mixed hash used for both shard routing and the mirror index.
    /// The top bit is cleared so the value never collides with the
    /// [`AtomicIndex`] reserved keys.
    fn hash64(&self) -> u64 {
        let h = self
            .start_page
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(self.byte_off))
            .wrapping_add(self.len.rotate_left(32));
        h & (u64::MAX >> 1)
    }
}

struct CacheEntry {
    chunk: Arc<Chunk>,
    bytes: usize,
    epoch: u64,
    referenced: bool,
    /// Mirror slot serving lock-free gets, `None` for overflow entries
    /// (mirror full) — those are served by the mutex path only.
    slot: Option<usize>,
}

/// Mirror slots per shard; entries beyond this many per shard still
/// cache fine, they just miss optimistically and hit via the mutex.
const SLOTS_PER_SHARD: usize = 64;

/// Published copy of one mirrored entry, read by optimistic gets.
struct SlotData {
    key: ChunkKey,
    epoch: u64,
    chunk: Arc<Chunk>,
}

/// One mirror slot. The field name `chunk_slot` is load-bearing: it is
/// the rank the workspace lock order (and molap-lint) knows this mutex
/// by. It nests inside `chunks` and `chunks_v` and guards nothing but
/// its own `SlotData`, so it is held only for a compare-and-clone.
struct ChunkSlot {
    chunk_slot: Mutex<Option<SlotData>>,
    /// Second-chance bit, touched by optimistic hits without any shard
    /// lock; eviction folds it into the entry's own bit.
    referenced: AtomicBool,
}

struct ShardMap {
    map: HashMap<ChunkKey, CacheEntry>,
    /// Second-chance clock ring over the keys; may lag `map` (removed
    /// keys are compacted away as the hand passes them).
    ring: Vec<ChunkKey>,
    hand: usize,
    bytes: usize,
    /// Free mirror slots.
    free: Vec<usize>,
}

/// One cache shard. The field name `chunks` is load-bearing: it is the
/// rank the workspace lock order (and molap-lint) knows this mutex by.
struct CacheShard {
    chunks: Mutex<ShardMap>,
    /// Version word over the mirror; writers hold it exclusively (under
    /// `chunks`) across every index/slot change.
    chunks_v: OptLock,
    /// Key hash → mirror slot, probed without any lock.
    index: AtomicIndex,
    slots: Box<[ChunkSlot]>,
}

impl CacheShard {
    fn new() -> CacheShard {
        CacheShard {
            chunks: Mutex::new(ShardMap {
                map: HashMap::new(),
                ring: Vec::new(),
                hand: 0,
                bytes: 0,
                free: (0..SLOTS_PER_SHARD).collect(),
            }),
            chunks_v: OptLock::new(),
            index: AtomicIndex::with_capacity(SLOTS_PER_SHARD),
            slots: (0..SLOTS_PER_SHARD)
                .map(|_| ChunkSlot {
                    chunk_slot: Mutex::new(None),
                    referenced: AtomicBool::new(false),
                })
                .collect(),
        }
    }

    /// Removes `key` from the map and, if mirrored, retires its slot.
    /// Caller holds the `chunks` mutex.
    fn remove_chunk_entry(&self, m: &mut ShardMap, key: &ChunkKey) {
        if let Some(entry) = m.map.remove(key) {
            m.bytes = m.bytes.saturating_sub(entry.bytes);
            if let Some(idx) = entry.slot {
                let _v = self.chunks_v.lock_exclusive();
                self.index.remove(key.hash64(), idx as u64);
                if let Some(slot) = self.slots.get(idx) {
                    *slot.chunk_slot.lock() = None;
                    slot.referenced.store(false, Ordering::Relaxed);
                }
                m.free.push(idx);
            }
        }
    }

    /// Publishes a freshly inserted entry into mirror slot `idx`.
    /// Caller holds the `chunks` mutex and has already inserted the
    /// entry into the map.
    fn publish_chunk_slot(&self, m: &ShardMap, idx: usize, data: SlotData) {
        let hash = data.key.hash64();
        let _v = self.chunks_v.lock_exclusive();
        if !self.index.insert(hash, idx as u64) {
            // Tombstones from evictions filled the index: rebuild it
            // from the authoritative map, then retry (guaranteed to fit
            // — live mirrored entries never exceed the slot count).
            self.index.clear();
            for (k, e) in &m.map {
                if let Some(i) = e.slot {
                    let _ = self.index.insert(k.hash64(), i as u64);
                }
            }
            let _ = self.index.insert(hash, idx as u64);
        }
        if let Some(slot) = self.slots.get(idx) {
            *slot.chunk_slot.lock() = Some(data);
            slot.referenced.store(true, Ordering::Relaxed);
        }
    }

    /// Evicts one unreferenced entry; returns false if nothing was
    /// evictable (the ring cycled twice clearing reference bits).
    /// Caller holds the `chunks` mutex.
    fn evict_one_chunk(&self, m: &mut ShardMap) -> bool {
        let mut budget = 2 * m.ring.len();
        while budget > 0 && !m.ring.is_empty() {
            budget -= 1;
            if m.hand >= m.ring.len() {
                m.hand = 0;
            }
            let Some(&key) = m.ring.get(m.hand) else {
                break;
            };
            let touched = match m.map.get_mut(&key) {
                // Stale ring slot (entry removed/invalidated): compact.
                None => {
                    m.ring.swap_remove(m.hand);
                    continue;
                }
                Some(entry) => {
                    // Fold the slot's lock-free touch bit into the
                    // entry's; both clear on this clock pass.
                    let slot_touch = entry
                        .slot
                        .and_then(|i| self.slots.get(i))
                        .is_some_and(|s| s.referenced.swap(false, Ordering::Relaxed));
                    let touched = entry.referenced || slot_touch;
                    entry.referenced = false;
                    touched
                }
            };
            if touched {
                m.hand += 1;
            } else {
                self.remove_chunk_entry(m, &key);
                m.ring.swap_remove(m.hand);
                return true;
            }
        }
        false
    }
}

/// A sharded, byte-bounded cache of decoded chunks.
pub struct ChunkCache {
    shards: Vec<CacheShard>,
    /// Byte cap per shard (total cap / shard count).
    shard_capacity: usize,
}

/// Shards; a power of two so the key hash can mask.
const CACHE_SHARDS: usize = 8;

impl ChunkCache {
    /// Creates a cache bounded to roughly `capacity_bytes` of decoded
    /// chunk data. A zero capacity disables caching (inserts no-op).
    pub fn new(capacity_bytes: usize) -> Self {
        ChunkCache {
            shards: (0..CACHE_SHARDS).map(|_| CacheShard::new()).collect(),
            shard_capacity: capacity_bytes / CACHE_SHARDS,
        }
    }

    fn shard(&self, key: &ChunkKey) -> &CacheShard {
        let idx = fib_shard(key.hash64(), CACHE_SHARDS);
        // The mask keeps idx < CACHE_SHARDS, so this never falls back.
        self.shards.get(idx).unwrap_or(&self.shards[0])
    }

    /// Looks up `key`, treating entries stamped with an epoch other
    /// than `epoch` as cold (they are dropped on the spot).
    pub fn get(&self, key: &ChunkKey, epoch: u64) -> Option<Arc<Chunk>> {
        self.get_with(key, epoch, None)
    }

    /// [`ChunkCache::get`], recording the optimistic probe's outcome
    /// (reads / restarts / escalations) into `stats`.
    pub fn get_tracked(&self, key: &ChunkKey, epoch: u64, stats: &IoStats) -> Option<Arc<Chunk>> {
        self.get_with(key, epoch, Some(stats))
    }

    fn get_with(&self, key: &ChunkKey, epoch: u64, stats: Option<&IoStats>) -> Option<Arc<Chunk>> {
        let shard = self.shard(key);
        match Self::get_opt(shard, key, epoch) {
            OptRead::Hit { value, restarts } => {
                if let Some(stats) = stats {
                    stats.opt_chunk(u64::from(restarts), false);
                }
                Some(value)
            }
            OptRead::Miss { restarts } => {
                if let Some(stats) = stats {
                    stats.opt_chunk(u64::from(restarts), false);
                }
                self.get_locked(shard, key, epoch)
            }
            OptRead::Escalated { restarts } => {
                if let Some(stats) = stats {
                    stats.opt_chunk(u64::from(restarts), true);
                }
                self.get_locked(shard, key, epoch)
            }
        }
    }

    /// The lock-free fast path: probe the mirror under an optimistic
    /// guard. Hits are self-validating (full key + epoch compared under
    /// the slot mutex); a miss only means "not answerable without the
    /// shard mutex".
    fn get_opt(shard: &CacheShard, key: &ChunkKey, epoch: u64) -> OptRead<Arc<Chunk>> {
        let hash = key.hash64();
        shard.chunks_v.optimistic_read(|_guard| {
            let Some(idx) = shard.index.probe(hash) else {
                return OptProbe::Miss;
            };
            let Some(slot) = shard.slots.get(idx as usize) else {
                return OptProbe::Conflict;
            };
            let data = slot.chunk_slot.lock();
            match data.as_ref() {
                Some(d) if d.key == *key && d.epoch == epoch => {
                    let chunk = d.chunk.clone();
                    drop(data);
                    slot.referenced.store(true, Ordering::Relaxed);
                    OptProbe::Hit(chunk)
                }
                // Hash collision, remapped slot, or stale epoch: the
                // mutex path decides (and drops stale entries).
                _ => OptProbe::Miss,
            }
        })
    }

    /// The mutex path: authoritative lookup, eager stale-entry drop,
    /// and the only server of overflow (unmirrored) entries.
    fn get_locked(&self, shard: &CacheShard, key: &ChunkKey, epoch: u64) -> Option<Arc<Chunk>> {
        let mut m = shard.chunks.lock();
        match m.map.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                entry.referenced = true;
                Some(entry.chunk.clone())
            }
            Some(_) => {
                shard.remove_chunk_entry(&mut m, key);
                None
            }
            None => None,
        }
    }

    /// Inserts a decoded chunk of `bytes` decoded footprint, evicting
    /// as needed; returns how many entries were evicted. Chunks larger
    /// than a whole shard's budget are not cached.
    ///
    /// `still_current` is asked under the shard lock, the one
    /// [`ChunkCache::remove`] takes: when it answers no, nothing is
    /// inserted. A writer that invalidates the condition and *then*
    /// removes the key therefore never leaves a pre-write image behind
    /// (see `VersionTable::pins_taken`).
    pub fn insert(
        &self,
        key: ChunkKey,
        epoch: u64,
        chunk: Arc<Chunk>,
        bytes: usize,
        still_current: impl FnOnce() -> bool,
    ) -> u64 {
        if bytes == 0 || bytes > self.shard_capacity {
            return 0;
        }
        let mut evicted = 0u64;
        let shard = self.shard(&key);
        let mut m = shard.chunks.lock();
        if !still_current() {
            return 0;
        }
        shard.remove_chunk_entry(&mut m, &key); // replace any stale entry under the same key
        while m.bytes + bytes > self.shard_capacity {
            if !shard.evict_one_chunk(&mut m) {
                return evicted; // nothing evictable; skip caching
            }
            evicted += 1;
        }
        m.bytes += bytes;
        let slot = m.free.pop();
        m.map.insert(
            key,
            CacheEntry {
                chunk: chunk.clone(),
                bytes,
                epoch,
                referenced: true,
                slot,
            },
        );
        m.ring.push(key);
        if let Some(idx) = slot {
            shard.publish_chunk_slot(&m, idx, SlotData { key, epoch, chunk });
        }
        evicted
    }

    /// Drops `key` if cached — called before a chunk object is
    /// overwritten, since an in-place overwrite reuses its location.
    pub fn remove(&self, key: &ChunkKey) {
        let shard = self.shard(key);
        let mut m = shard.chunks.lock();
        shard.remove_chunk_entry(&mut m, key);
    }

    /// Number of live entries (all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.chunks.lock().map.len()).sum()
    }

    /// True if no chunks are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total decoded bytes held (all shards).
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.chunks.lock().bytes).sum()
    }
}

/// The pool-wide shared chunk cache, installed in the pool's extension
/// slot on first use and sized to the pool's own byte budget. Returns
/// `None` only if the slot is occupied by something else.
pub fn shared_chunk_cache(pool: &Arc<BufferPool>) -> Option<Arc<ChunkCache>> {
    let budget = pool.num_frames() * molap_storage::PAGE_SIZE;
    pool.extension_or_init(|| Arc::new(ChunkCache::new(budget)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::CompressedChunk;
    use crate::ChunkBuilder;

    fn chunk(cells: u32) -> (Arc<Chunk>, usize) {
        let mut b = ChunkBuilder::new(1);
        for off in 0..cells {
            b.add(off, &[i64::from(off)]);
        }
        let c: CompressedChunk = b.build().unwrap();
        let bytes = c.byte_size();
        (Arc::new(Chunk::Compressed(c)), bytes)
    }

    fn key(n: u64) -> ChunkKey {
        ChunkKey {
            start_page: n,
            byte_off: 0,
            len: 100,
        }
    }

    #[test]
    fn hit_after_insert_miss_after_remove() {
        let cache = ChunkCache::new(1 << 20);
        let (c, bytes) = chunk(10);
        assert!(cache.get(&key(1), 0).is_none());
        cache.insert(key(1), 0, c, bytes, || true);
        assert_eq!(cache.get(&key(1), 0).unwrap().valid_cells(), 10);
        cache.remove(&key(1));
        assert!(cache.get(&key(1), 0).is_none());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn epoch_mismatch_reads_cold() {
        let cache = ChunkCache::new(1 << 20);
        let (c, bytes) = chunk(10);
        cache.insert(key(1), 0, c, bytes, || true);
        assert!(cache.get(&key(1), 1).is_none(), "cleared pool = cold");
        assert!(
            cache.get(&key(1), 0).is_none(),
            "stale entry dropped eagerly on the mismatching lookup"
        );
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn eviction_keeps_bytes_under_capacity() {
        let (c, bytes) = chunk(64);
        // Capacity for ~3 chunks per shard.
        let cache = ChunkCache::new(bytes * 3 * CACHE_SHARDS);
        let mut evictions = 0;
        for n in 0..200 {
            evictions += cache.insert(key(n), 0, c.clone(), bytes, || true);
        }
        assert!(evictions > 0, "inserting 200 chunks must evict");
        assert!(
            cache.bytes() <= bytes * 3 * CACHE_SHARDS,
            "{} > cap",
            cache.bytes()
        );
        assert!(!cache.is_empty());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ChunkCache::new(0);
        let (c, bytes) = chunk(10);
        cache.insert(key(1), 0, c, bytes, || true);
        assert!(cache.get(&key(1), 0).is_none());
    }

    #[test]
    fn oversized_chunks_are_not_cached() {
        let cache = ChunkCache::new(64); // 8 bytes per shard
        let (c, bytes) = chunk(100);
        assert_eq!(cache.insert(key(1), 0, c, bytes, || true), 0);
        assert!(cache.get(&key(1), 0).is_none());
    }

    #[test]
    fn optimistic_hits_bypass_the_shard_mutex() {
        let cache = ChunkCache::new(1 << 20);
        let (c, bytes) = chunk(10);
        cache.insert(key(1), 0, c, bytes, || true);
        let stats = IoStats::new();
        // Hold the shard's own mutex across the gets: a hit that ever
        // touched `chunks` would deadlock here.
        let _m = cache.shard(&key(1)).chunks.lock();
        for _ in 0..5 {
            assert_eq!(
                cache.get_tracked(&key(1), 0, &stats).unwrap().valid_cells(),
                10
            );
        }
        let snap = stats.snapshot();
        assert_eq!(snap.opt_chunk_reads, 5);
        assert_eq!(snap.opt_chunk_escalations, 0);
    }

    #[test]
    fn overflow_entries_hit_through_the_mutex_path() {
        let cache = ChunkCache::new(1 << 24);
        let (c, bytes) = chunk(10);
        // Overfill every shard's mirror; later entries get no slot but
        // must still hit (via the fallback).
        let n = (SLOTS_PER_SHARD * CACHE_SHARDS * 2) as u64;
        for i in 0..n {
            cache.insert(key(i), 0, c.clone(), bytes, || true);
        }
        assert_eq!(cache.len(), n as usize);
        for i in 0..n {
            assert!(cache.get(&key(i), 0).is_some(), "key {i} must hit");
        }
    }

    #[test]
    fn mirror_slots_are_recycled_through_eviction() {
        let (c, bytes) = chunk(64);
        let cache = ChunkCache::new(bytes * 3 * CACHE_SHARDS);
        // Far more inserts than slots: evictions must hand slots back,
        // and the survivors must still be optimistically readable.
        let stats = IoStats::new();
        for n in 0..(SLOTS_PER_SHARD as u64 * CACHE_SHARDS as u64 * 4) {
            cache.insert(key(n), 0, c.clone(), bytes, || true);
        }
        let mut hits = 0;
        for n in 0..(SLOTS_PER_SHARD as u64 * CACHE_SHARDS as u64 * 4) {
            if cache.get_tracked(&key(n), 0, &stats).is_some() {
                hits += 1;
            }
        }
        assert!(hits > 0, "survivors must hit");
        assert!(stats.snapshot().opt_chunk_reads > 0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(ChunkCache::new(1 << 18));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    let (c, bytes) = chunk(32);
                    for i in 0..500u64 {
                        let k = key((t * 131 + i) % 64);
                        if i % 3 == 0 {
                            cache.insert(k, 0, c.clone(), bytes, || true);
                        } else if i % 7 == 0 {
                            cache.remove(&k);
                        } else if let Some(hit) = cache.get(&k, 0) {
                            assert_eq!(hit.valid_cells(), 32);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
