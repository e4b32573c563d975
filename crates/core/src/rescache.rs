//! Result-cube cache with rollup subsumption.
//!
//! A consolidation's result cube "fits into memory" by the §4.1
//! assumption — and under dashboard-style traffic the *same* rollups
//! and drill-down families recur constantly. This module caches the
//! positional [`ResultCube`]s produced by [`crate::consolidate_auto`]
//! so a repeated query skips chunk I/O, decode, and aggregation
//! entirely, and — the interesting part — answers *coarser* queries
//! from a cached *finer* cube by pure in-memory re-aggregation through
//! the dimension tables' code mappings (the derivability property of
//! the IndexToIndex machinery, §3.4/§4.1).
//!
//! # Keying
//!
//! Entries are keyed by [`CacheKey`]: the array's identity hash (a
//! hash of its serialized metadata, stable across reopens — needed
//! because `Database::sql` reopens the ADT per statement), the
//! per-dimension groupings, and the canonicalized selections
//! (`Pred::In` lists sorted + deduped, so two spellings of one value
//! set share an entry). The *aggregate functions are deliberately not
//! part of the key*: the cube stores raw [`crate::AggState`]s (sum,
//! count, min, max), so one cached cube finalizes any of
//! SUM/COUNT/MIN/MAX — and AVG exactly, from the cached sum + count.
//!
//! # Subsumption
//!
//! On a miss, cached cubes for the same array with identical
//! selections are inspected: the request is derivable when every
//! dimension's cached grouping can be coarsened to the requested one —
//! identical groupings map ranks 1:1, anything coarsens to `Drop`,
//! `Key` coarsens to any `Level(l)` (row → attribute code is a
//! function), and `Level(lf)` coarsens to `Level(lc)` iff the fine
//! code functionally determines the coarse code (verified by one scan
//! of the dimension table; e.g. city → region in a proper hierarchy).
//! The derivation builds per-dimension rank remaps from the dimension
//! tables alone — no LOB or chunk I/O — and re-aggregates with
//! [`ResultCube::rollup`], which is bit-identical to direct
//! consolidation because [`crate::AggState`] merging is associative
//! and commutative.
//!
//! # Invalidation
//!
//! Correctness over two signals, both checked lazily at lookup:
//!
//! * the pool's clear-epoch — `BufferPool::clear` bumps it, so cached
//!   results never leak across the paper's cold-run boundary;
//! * a per-array write generation — the write path bumps it *before*
//!   swapping delta-patched clones in (see [`PatchSession`]), so an
//!   entry inserted from a pre-write computation is stamped stale and
//!   dropped on its next probe instead of shadowing the patch.
//!
//! # Locking
//!
//! Sharded like the decoded-chunk cache: each shard's `results` mutex
//! (see the workspace lock order, DESIGN.md §8) guards the
//! authoritative map plus a second-chance clock ring bounded by
//! approximate cube bytes. While a `results` mutex is held the only
//! things ever acquired are the shard's own mirror locks (below); and
//! shards are only ever locked one at a time — the subsumption scan
//! clones candidate `Arc`s out shard by shard and derives outside the
//! lock.
//!
//! # Optimistic reads
//!
//! Exact-hit lookups never take the shard `results` mutex. Each shard
//! mirrors up to [`SLOTS_PER_SHARD`] entries into an
//! [`AtomicIndex`] (key hash → slot) plus per-entry `result_slot`
//! mutexes holding `(key, stamps, Arc<ResultCube>)`. A get reads the
//! global and per-array write generations *first* (`generations` ranks
//! before `results_v` in the lock order, and the mutex path reads them
//! in this order too — same TOCTOU either way), then probes under a
//! [`OptLock`] (`results_v`) optimistic guard: index probe, slot lock,
//! full key + epoch + generation compare, `Arc` clone out. Hits are
//! self-validating (the compare happens under the slot mutex), touch
//! the second-chance bit via a relaxed per-slot atomic, and never
//! block on the shard. Anything else — hash collision, stale stamps,
//! version conflict after [`molap_storage::MAX_RESTARTS`] retries —
//! falls back to the `results` mutex path, which alone drops stale
//! entries and serves overflow entries the mirror had no slot for.
//! All mutations hold the shard mutex, take `results_v` exclusively,
//! and update slots under their mutexes.

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use molap_storage::util::fib_shard;
use molap_storage::{AtomicIndex, BufferPool, IoStats, OptLock, OptProbe, OptRead};
use parking_lot::Mutex;
use std::sync::atomic::AtomicBool;

use crate::adt::OlapArray;
use crate::error::Result;
use crate::query::{DimGrouping, Query, Selection};
use crate::result::{ConsolidationResult, ResultCube, Rollup};
use crate::util::FxHasher;
use crate::write::CellDelta;

/// Shards; a power of two so the key hash can mask.
const CACHE_SHARDS: usize = 8;

/// Canonical identity of a cacheable consolidation: which array, how
/// grouped, what selected. Aggregate functions are excluded (see the
/// module docs).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    array_id: u64,
    group_by: Vec<DimGrouping>,
    selections: Vec<Vec<Selection>>,
}

impl CacheKey {
    /// Builds the canonical key for `query` against `adt`,
    /// re-canonicalizing `Pred::In` lists defensively (hand-built
    /// `Pred` values may bypass the [`Selection`] constructors).
    pub fn of(adt: &OlapArray, query: &Query) -> CacheKey {
        let mut selections = query.selections.clone();
        for sels in &mut selections {
            for sel in sels.iter_mut() {
                sel.pred.canonicalize();
            }
        }
        CacheKey {
            array_id: adt.identity_hash(),
            group_by: query.group_by.clone(),
            selections,
        }
    }

    /// Mixed hash used for both shard routing and the mirror index.
    /// The top bit is cleared so the value never collides with the
    /// [`AtomicIndex`] reserved keys.
    fn hash64(&self) -> u64 {
        let mut h = FxHasher::default();
        std::hash::Hash::hash(self, &mut h);
        h.finish() & (u64::MAX >> 1)
    }
}

struct CacheEntry {
    cube: Arc<ResultCube>,
    bytes: usize,
    epoch: u64,
    write_gen: u64,
    /// Per-array write generation the entry was computed at (see
    /// [`ResultCache::array_gen`]).
    array_gen: u64,
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
    key: Arc<CacheKey>,
    epoch: u64,
    write_gen: u64,
    array_gen: u64,
    cube: Arc<ResultCube>,
}

/// One mirror slot. The field name `result_slot` is load-bearing: it
/// is the rank the workspace lock order (and molap-lint) knows this
/// mutex by. It nests inside `results` and `results_v` and guards
/// nothing but its own `SlotData`, so it is held only for a
/// compare-and-clone.
struct ResultSlot {
    result_slot: Mutex<Option<SlotData>>,
    /// Second-chance bit, touched by optimistic hits without any shard
    /// lock; eviction folds it into the entry's own bit.
    referenced: AtomicBool,
}

struct ShardMap {
    map: HashMap<Arc<CacheKey>, CacheEntry>,
    /// Second-chance clock ring over the keys; may lag `map` (removed
    /// keys are compacted away as the hand passes them).
    ring: Vec<Arc<CacheKey>>,
    hand: usize,
    bytes: usize,
    /// Free mirror slots.
    free: Vec<usize>,
}

/// One cache shard. The field name `results` is load-bearing: it is
/// the rank the workspace lock order (and molap-lint) knows this mutex
/// by.
struct CacheShard {
    results: Mutex<ShardMap>,
    /// Version word over the mirror; writers hold it exclusively
    /// (under `results`) across every index/slot change.
    results_v: OptLock,
    /// Key hash → mirror slot, probed without any lock.
    index: AtomicIndex,
    slots: Box<[ResultSlot]>,
}

impl CacheShard {
    fn new() -> CacheShard {
        CacheShard {
            results: Mutex::new(ShardMap {
                map: HashMap::new(),
                ring: Vec::new(),
                hand: 0,
                bytes: 0,
                free: (0..SLOTS_PER_SHARD).collect(),
            }),
            results_v: OptLock::new(),
            index: AtomicIndex::with_capacity(SLOTS_PER_SHARD),
            slots: (0..SLOTS_PER_SHARD)
                .map(|_| ResultSlot {
                    result_slot: Mutex::new(None),
                    referenced: AtomicBool::new(false),
                })
                .collect(),
        }
    }

    /// Removes `key` from the map and, if mirrored, retires its slot.
    /// Caller holds the `results` mutex.
    fn remove_entry(&self, m: &mut ShardMap, key: &CacheKey) {
        if let Some(entry) = m.map.remove(key) {
            m.bytes = m.bytes.saturating_sub(entry.bytes);
            if let Some(idx) = entry.slot {
                let _v = self.results_v.lock_exclusive();
                self.index.remove(key.hash64(), idx as u64);
                if let Some(slot) = self.slots.get(idx) {
                    *slot.result_slot.lock() = None;
                    slot.referenced.store(false, Ordering::Relaxed);
                }
                m.free.push(idx);
            }
        }
    }

    /// Publishes a freshly inserted entry into mirror slot `idx`.
    /// Caller holds the `results` mutex and has already inserted the
    /// entry into the map.
    fn publish_slot(&self, m: &ShardMap, idx: usize, data: SlotData) {
        let hash = data.key.hash64();
        let _v = self.results_v.lock_exclusive();
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
            *slot.result_slot.lock() = Some(data);
            slot.referenced.store(true, Ordering::Relaxed);
        }
    }

    /// Evicts one unreferenced entry; returns false if nothing was
    /// evictable (the ring cycled twice clearing reference bits).
    /// Caller holds the `results` mutex.
    fn evict_one(&self, m: &mut ShardMap) -> bool {
        let mut budget = 2 * m.ring.len();
        while budget > 0 && !m.ring.is_empty() {
            budget -= 1;
            if m.hand >= m.ring.len() {
                m.hand = 0;
            }
            let Some(key) = m.ring.get(m.hand).cloned() else {
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
                self.remove_entry(m, &key);
                m.ring.swap_remove(m.hand);
                return true;
            }
        }
        false
    }
}

/// A sharded, byte-bounded cache of consolidation result cubes,
/// installed once per [`BufferPool`] (see [`shared_result_cache`]).
pub struct ResultCache {
    shards: Vec<CacheShard>,
    /// Byte cap per shard (total cap / shard count).
    shard_capacity: usize,
    /// Bumped by every write to any array on the pool; entries stamped
    /// with an older generation read as cold.
    write_gen: AtomicU64,
    /// Per-array write generations (array identity hash → generation).
    /// Delta maintenance bumps *one* array's generation and re-inserts
    /// the patched cubes at the new one, so writes to array A never
    /// cool entries for array B — and any same-array entry the patch
    /// pass missed (inserted concurrently, or dropped to the MIN/MAX
    /// fallback) reads as cold at its next lookup. The field name
    /// `generations` is its workspace lock-order rank (DESIGN.md §8);
    /// nothing else is ever locked while it is held.
    generations: Mutex<HashMap<u64, u64>>,
}

impl ResultCache {
    /// Creates a cache bounded to roughly `capacity_bytes` of result
    /// cubes. A zero capacity disables caching (inserts no-op).
    pub fn new(capacity_bytes: usize) -> Self {
        ResultCache {
            shards: (0..CACHE_SHARDS).map(|_| CacheShard::new()).collect(),
            shard_capacity: capacity_bytes / CACHE_SHARDS,
            write_gen: AtomicU64::new(0),
            generations: Mutex::new(HashMap::new()),
        }
    }

    fn shard(&self, key: &CacheKey) -> &CacheShard {
        let idx = fib_shard(key.hash64(), CACHE_SHARDS);
        // The mask keeps idx < CACHE_SHARDS, so this never falls back.
        self.shards.get(idx).unwrap_or(&self.shards[0])
    }

    /// The current write generation.
    pub fn write_gen(&self) -> u64 {
        self.write_gen.load(Ordering::Acquire)
    }

    /// Invalidates every cached cube (a write happened somewhere on
    /// the pool). Entries are dropped lazily at their next lookup.
    pub fn bump_write_gen(&self) {
        self.write_gen.fetch_add(1, Ordering::AcqRel);
    }

    /// The current write generation of one array (0 until its first
    /// delta-maintained write).
    pub fn array_gen(&self, array_id: u64) -> u64 {
        self.generations.lock().get(&array_id).copied().unwrap_or(0)
    }

    /// Advances one array's write generation, invalidating every entry
    /// for it that is not re-inserted at the new generation.
    pub fn bump_array_gen(&self, array_id: u64) -> u64 {
        let mut gens = self.generations.lock();
        let gen = gens.entry(array_id).or_insert(0);
        *gen += 1;
        *gen
    }

    /// Looks up an exact entry, treating entries stamped with a
    /// different pool epoch or write generation (global or per-array)
    /// as cold (dropped on the spot).
    pub fn get(&self, key: &CacheKey, epoch: u64) -> Option<Arc<ResultCube>> {
        self.get_with(key, epoch, None)
    }

    /// [`ResultCache::get`], recording the optimistic probe's outcome
    /// (reads / restarts / escalations) into `stats`.
    pub fn get_tracked(
        &self,
        key: &CacheKey,
        epoch: u64,
        stats: &IoStats,
    ) -> Option<Arc<ResultCube>> {
        self.get_with(key, epoch, Some(stats))
    }

    fn get_with(
        &self,
        key: &CacheKey,
        epoch: u64,
        stats: Option<&IoStats>,
    ) -> Option<Arc<ResultCube>> {
        // Generations are read *before* the optimistic section:
        // `array_gen` locks `generations`, which ranks ahead of
        // `results_v` in the workspace lock order — and the mutex path
        // reads them in this same order, so the lookup races a
        // concurrent generation bump identically either way.
        let write_gen = self.write_gen();
        let array_gen = self.array_gen(key.array_id);
        let shard = self.shard(key);
        match Self::get_opt(shard, key, epoch, write_gen, array_gen) {
            OptRead::Hit { value, restarts } => {
                if let Some(stats) = stats {
                    stats.opt_result(u64::from(restarts), false);
                }
                Some(value)
            }
            OptRead::Miss { restarts } => {
                if let Some(stats) = stats {
                    stats.opt_result(u64::from(restarts), false);
                }
                self.get_locked(shard, key, epoch, write_gen, array_gen)
            }
            OptRead::Escalated { restarts } => {
                if let Some(stats) = stats {
                    stats.opt_result(u64::from(restarts), true);
                }
                self.get_locked(shard, key, epoch, write_gen, array_gen)
            }
        }
    }

    /// The lock-free fast path: probe the mirror under an optimistic
    /// guard. Hits are self-validating (full key + stamps compared
    /// under the slot mutex); a miss only means "not answerable
    /// without the shard mutex".
    fn get_opt(
        shard: &CacheShard,
        key: &CacheKey,
        epoch: u64,
        write_gen: u64,
        array_gen: u64,
    ) -> OptRead<Arc<ResultCube>> {
        let hash = key.hash64();
        shard.results_v.optimistic_read(|_guard| {
            let Some(idx) = shard.index.probe(hash) else {
                return OptProbe::Miss;
            };
            let Some(slot) = shard.slots.get(idx as usize) else {
                return OptProbe::Conflict;
            };
            let data = slot.result_slot.lock();
            match data.as_ref() {
                Some(d)
                    if *d.key == *key
                        && d.epoch == epoch
                        && d.write_gen == write_gen
                        && d.array_gen == array_gen =>
                {
                    let cube = d.cube.clone();
                    drop(data);
                    slot.referenced.store(true, Ordering::Relaxed);
                    OptProbe::Hit(cube)
                }
                // Hash collision, remapped slot, or stale stamps: the
                // mutex path decides (and drops stale entries).
                _ => OptProbe::Miss,
            }
        })
    }

    /// The mutex path: authoritative lookup, eager stale-entry drop,
    /// and the only server of overflow (unmirrored) entries.
    fn get_locked(
        &self,
        shard: &CacheShard,
        key: &CacheKey,
        epoch: u64,
        write_gen: u64,
        array_gen: u64,
    ) -> Option<Arc<ResultCube>> {
        let mut m = shard.results.lock();
        match m.map.get_mut(key) {
            Some(entry)
                if entry.epoch == epoch
                    && entry.write_gen == write_gen
                    && entry.array_gen == array_gen =>
            {
                entry.referenced = true;
                Some(entry.cube.clone())
            }
            Some(_) => {
                shard.remove_entry(&mut m, key);
                None
            }
            None => None,
        }
    }

    /// Inserts a result cube stamped with the *current* generations
    /// (see [`ResultCache::insert_at`] for the race-safe variant).
    pub fn insert(&self, key: CacheKey, cube: Arc<ResultCube>, epoch: u64) -> u64 {
        let write_gen = self.write_gen();
        let array_gen = self.array_gen(key.array_id);
        self.insert_at(key, cube, epoch, write_gen, array_gen)
    }

    /// Inserts a result cube stamped with generations captured by the
    /// caller *before* it computed the cube, evicting as needed;
    /// returns how many entries were evicted. A write committing
    /// mid-computation advances a generation, so the stale cube goes
    /// in already-cold and can never serve a lookup. Cubes larger than
    /// a whole shard's budget are not cached.
    pub fn insert_at(
        &self,
        key: CacheKey,
        cube: Arc<ResultCube>,
        epoch: u64,
        write_gen: u64,
        array_gen: u64,
    ) -> u64 {
        let bytes = cube.approx_bytes();
        if bytes == 0 || bytes > self.shard_capacity {
            return 0;
        }
        let key = Arc::new(key);
        let mut evicted = 0u64;
        let shard = self.shard(&key);
        let mut m = shard.results.lock();
        shard.remove_entry(&mut m, &key); // replace any stale entry under the same key
        while m.bytes + bytes > self.shard_capacity {
            if !shard.evict_one(&mut m) {
                return evicted; // nothing evictable; skip caching
            }
            evicted += 1;
        }
        m.bytes += bytes;
        let slot = m.free.pop();
        m.map.insert(
            key.clone(),
            CacheEntry {
                cube: cube.clone(),
                bytes,
                epoch,
                write_gen,
                array_gen,
                referenced: true,
                slot,
            },
        );
        m.ring.push(key.clone());
        if let Some(idx) = slot {
            shard.publish_slot(
                &m,
                idx,
                SlotData {
                    key,
                    epoch,
                    write_gen,
                    array_gen,
                    cube,
                },
            );
        }
        evicted
    }

    /// Clones out every live entry for `array_id` — the subsumption
    /// scan's candidate set. Shards are locked strictly one at a time
    /// and stale entries are skipped (their lazy removal happens on
    /// their own lookups), so this never holds two `results` mutexes.
    pub fn candidates(&self, array_id: u64, epoch: u64) -> Vec<(Arc<CacheKey>, Arc<ResultCube>)> {
        let write_gen = self.write_gen();
        let array_gen = self.array_gen(array_id);
        let mut out = Vec::new();
        for shard in &self.shards {
            let guard = shard.results.lock();
            for (key, entry) in &guard.map {
                if key.array_id == array_id
                    && entry.epoch == epoch
                    && entry.write_gen == write_gen
                    && entry.array_gen == array_gen
                {
                    out.push((key.clone(), entry.cube.clone()));
                }
            }
        }
        out
    }

    /// Number of live entries (all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.results.lock().map.len()).sum()
    }

    /// True if no cubes are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total approximate bytes held (all shards).
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.results.lock().bytes).sum()
    }

    /// Removes one entry (delta-maintenance MIN/MAX fallback: the cube
    /// is recomputed lazily at its next lookup).
    fn remove_entry(&self, key: &CacheKey) {
        let shard = self.shard(key);
        let mut m = shard.results.lock();
        shard.remove_entry(&mut m, key);
    }
}

/// The pool-wide shared result cache, installed in a pool extension
/// slot on first use and sized to half the pool's byte budget (result
/// cubes are far smaller than the chunk data they summarize). Returns
/// `None` only if every extension slot is occupied by other types.
pub fn shared_result_cache(pool: &Arc<BufferPool>) -> Option<Arc<ResultCache>> {
    let budget = pool.num_frames() * molap_storage::PAGE_SIZE / 2;
    pool.extension_or_init(|| Arc::new(ResultCache::new(budget)))
}

/// Write-path hook: a cell of some array on `pool` changed, so every
/// cached result on the pool is suspect. Installing the (empty) cache
/// just to bump its generation is harmless.
pub(crate) fn invalidate_writes(pool: &Arc<BufferPool>) {
    if let Some(cache) = shared_result_cache(pool) {
        cache.bump_write_gen();
        pool.stats().result_cache_invalidation();
    }
}

/// A delta-maintenance pass over one array's cached result cubes,
/// opened by the batched write path (`core::write`) *before* the first
/// chunk byte is overwritten and committed after the batch is durable
/// and published. The bracket matters twice over:
///
/// * the candidate set is snapshotted pre-write, so a cube computed
///   from a torn mid-batch read can never be patched — anything
///   inserted while the batch applies was stamped with generations
///   captured before its own compute and goes cold at the commit's
///   generation bump;
/// * the bump-then-swap order in [`PatchSession::commit`] means a
///   concurrent lookup sees either the old generation's entries
///   (pre-batch results — the batch has not logically committed for
///   the cache yet) or the new generation's patched cubes, never a
///   half-maintained mixture.
pub struct PatchSession {
    cache: Arc<ResultCache>,
    array_id: u64,
    epoch: u64,
    entries: Vec<(Arc<CacheKey>, Arc<ResultCube>)>,
}

/// Opens a [`PatchSession`] over the cached cubes of `array_id`. Call
/// before the first chunk overwrite of a write batch. `None` when the
/// pool has no result cache (every extension slot claimed by other
/// types) — the caller then has nothing to maintain.
pub(crate) fn begin_write_patch(pool: &Arc<BufferPool>, array_id: u64) -> Option<PatchSession> {
    let cache = shared_result_cache(pool)?;
    let epoch = pool.epoch();
    let entries = cache.candidates(array_id, epoch);
    Some(PatchSession {
        cache,
        array_id,
        epoch,
        entries,
    })
}

impl PatchSession {
    /// Applies the committed batch's cell `deltas` to every snapshotted
    /// cube and swaps the results in at the array's next write
    /// generation. Returns `(patched, dropped)` entry counts.
    ///
    /// Per entry: each delta's coordinates run through the same
    /// IndexToIndex remaps the consolidation kernels use (key → rank
    /// for `Key` groupings, `load_i2i` for `Level`), the entry's
    /// selections decide membership (writes change measures, never
    /// coordinates, so membership is stable), and the addressed result
    /// cell is patched through [`ResultCube::patch_cell`] on a private
    /// clone. A shrinking MIN/MAX extreme makes the entry unpatchable:
    /// it is dropped and recomputes lazily. Entries no delta reaches
    /// are re-stamped unchanged, keeping them warm.
    ///
    /// Must be called *after* the batch is published to snapshot
    /// readers; until then lookups serve the old generation's
    /// (pre-batch) results, which is the correct serialization order.
    pub(crate) fn commit(self, adt: &OlapArray, deltas: &[CellDelta]) -> Result<(u64, u64)> {
        let write_gen = self.cache.write_gen();
        // Phase B: patch private clones, no cache lock held. `load_i2i`
        // reads LOBs through the pool, which is why this cannot run
        // under a `results` mutex.
        let mut keep: Vec<(Arc<CacheKey>, Arc<ResultCube>, bool)> = Vec::new();
        let mut dropped: Vec<Arc<CacheKey>> = Vec::new();
        let outcome = patch_entries(adt, &self.entries, deltas, &mut keep, &mut dropped);
        // Phase C: advance the array generation first — every entry not
        // re-inserted below (fallbacks, racing inserts) is now cold —
        // then swap the maintained cubes in at the new generation.
        let array_gen = self.cache.bump_array_gen(self.array_id);
        // An error while patching (I/O under load_i2i) leaves all
        // entries cold rather than stale: correct, merely colder.
        outcome?;
        let stats = adt.pool().stats();
        let mut evicted = 0u64;
        let mut n_patched = 0u64;
        for (key, cube, touched) in keep {
            evicted += self
                .cache
                .insert_at((*key).clone(), cube, self.epoch, write_gen, array_gen);
            if touched {
                n_patched += 1;
                stats.result_cache_patch();
            }
        }
        for key in &dropped {
            self.cache.remove_entry(key);
            stats.result_cache_fallback();
        }
        stats.result_cache_evictions_add(evicted);
        Ok((n_patched, dropped.len() as u64))
    }
}

/// Phase B worker for [`PatchSession::commit`]: sorts every entry into
/// `keep` (with its maintained cube and whether any delta touched it)
/// or `dropped` (MIN/MAX fallback / unmappable).
fn patch_entries(
    adt: &OlapArray,
    entries: &[(Arc<CacheKey>, Arc<ResultCube>)],
    deltas: &[CellDelta],
    keep: &mut Vec<(Arc<CacheKey>, Arc<ResultCube>, bool)>,
    dropped: &mut Vec<Arc<CacheKey>>,
) -> Result<()> {
    let n_measures = adt.n_measures();
    'entry: for (key, cube) in entries {
        if key.group_by.len() != adt.dims().len() {
            dropped.push(key.clone());
            continue;
        }
        // Coordinate → rank remap per grouped dimension, exactly as the
        // kernels build them (§3.4 IndexToIndex).
        let mut remaps: Vec<(usize, Vec<u32>)> = Vec::new();
        for (d, g) in key.group_by.iter().enumerate() {
            match g {
                DimGrouping::Drop => {}
                DimGrouping::Key => remaps.push((d, adt.key_i2i(d).0)),
                DimGrouping::Level(l) => remaps.push((d, adt.load_i2i(d, *l)?)),
            }
        }
        let mut clone: Option<ResultCube> = None;
        let mut ranks = vec![0u32; remaps.len()];
        let mut cell_deltas: Vec<(Option<i64>, i64)> = Vec::with_capacity(n_measures);
        for delta in deltas {
            if delta.old.as_deref() == Some(&delta.new[..]) {
                continue; // no-op rewrite
            }
            match delta_selected(adt, key, &delta.coords) {
                Some(true) => {}
                Some(false) => continue, // outside the entry's slice
                None => {
                    dropped.push(key.clone());
                    continue 'entry;
                }
            }
            for (i, (d, map)) in remaps.iter().enumerate() {
                match map.get(delta.coords[*d] as usize) {
                    Some(&r) => ranks[i] = r,
                    None => {
                        dropped.push(key.clone());
                        continue 'entry;
                    }
                }
            }
            let target = clone.get_or_insert_with(|| (**cube).clone());
            let cell = target.linear(&ranks);
            cell_deltas.clear();
            for m in 0..n_measures {
                cell_deltas.push((delta.old.as_ref().map(|o| o[m]), delta.new[m]));
            }
            if !target.patch_cell(cell, &cell_deltas) {
                dropped.push(key.clone());
                continue 'entry;
            }
        }
        match clone {
            Some(patched) => keep.push((key.clone(), Arc::new(patched), true)),
            None => keep.push((key.clone(), cube.clone(), false)),
        }
    }
    Ok(())
}

/// Does the cell at `coords` satisfy every selection of `key`? `None`
/// when a referenced column cannot be resolved (treated as a fallback
/// drop by the caller).
fn delta_selected(adt: &OlapArray, key: &CacheKey, coords: &[u32]) -> Option<bool> {
    for (d, sels) in key.selections.iter().enumerate() {
        let dim = adt.dims().get(d)?;
        let row = *coords.get(d)? as usize;
        for sel in sels {
            let value = match sel.attr {
                crate::query::AttrRef::Key => *dim.keys().get(row)?,
                crate::query::AttrRef::Level(l) => *dim.attr_codes(l).ok()?.get(row)?,
            };
            if !sel.pred.accepts(value) {
                return Some(false);
            }
        }
    }
    Some(true)
}

/// The cached consolidation driver used by [`crate::consolidate_auto`]:
/// answer from an exact cached cube, else derive from a subsuming finer
/// cube, else run `compute` and populate the cache. Every path
/// finalizes through the same [`ResultCube::into_result`] machinery,
/// so cached and computed answers are bit-identical.
pub(crate) fn consolidate_cached<F>(
    adt: &OlapArray,
    query: &Query,
    compute: F,
) -> Result<ConsolidationResult>
where
    F: FnOnce() -> Result<ResultCube>,
{
    let Some(cache) = shared_result_cache(adt.pool()) else {
        return compute()?.into_result(&query.aggs);
    };
    let stats = adt.pool().stats();
    let epoch = adt.pool().epoch();
    let key = CacheKey::of(adt, query);

    if let Some(cube) = cache.get_tracked(&key, epoch, stats) {
        stats.result_cache_hit();
        return cube.to_result(&query.aggs);
    }

    // Capture both write generations *before* deriving or computing:
    // if a write commits mid-computation it advances one of them, so
    // the cube goes in already-cold and can never serve a lookup with
    // possibly torn mid-batch data.
    let write_gen = cache.write_gen();
    let array_gen = cache.array_gen(key.array_id);

    // Rollup subsumption: a finer cached cube for the same array and
    // selections answers a coarser grouping by re-aggregation. The
    // derived cube is inserted under its own key so the family's next
    // repeat is an exact hit.
    for (have_key, have_cube) in cache.candidates(key.array_id, epoch) {
        if *have_key == key {
            continue; // exact entry raced in after our lookup
        }
        let Some(plan) = rollup_plan(adt, &have_key, &have_cube, &key) else {
            continue;
        };
        let derived = Arc::new(have_cube.rollup(&plan)?);
        stats.result_cache_derive();
        let evicted = cache.insert_at(key, derived.clone(), epoch, write_gen, array_gen);
        stats.result_cache_evictions_add(evicted);
        return derived.to_result(&query.aggs);
    }

    stats.result_cache_miss();
    let cube = Arc::new(compute()?);
    let evicted = cache.insert_at(key, cube.clone(), epoch, write_gen, array_gen);
    stats.result_cache_evictions_add(evicted);
    cube.to_result(&query.aggs)
}

/// Decides whether the cached `(have, have_cube)` subsumes `want` and,
/// if so, builds the per-dimension [`Rollup`] plan. `None` means "not
/// derivable from this entry" — never an error.
///
/// All mapping data comes from the in-memory dimension tables; this
/// performs no I/O.
fn rollup_plan(
    adt: &OlapArray,
    have: &CacheKey,
    have_cube: &ResultCube,
    want: &CacheKey,
) -> Option<Vec<Rollup>> {
    let n_dims = adt.dims().len();
    if have.group_by.len() != n_dims || want.group_by.len() != n_dims {
        return None;
    }
    // Selections must match exactly: a differently-filtered cube
    // aggregates a different cell set.
    if have.selections != want.selections {
        return None;
    }
    let mut plan = Vec::with_capacity(have_cube.dims().len());
    let mut cube_pos = 0usize;
    for (d, (&fine, &coarse)) in have.group_by.iter().zip(&want.group_by).enumerate() {
        if matches!(fine, DimGrouping::Drop) {
            // A dropped dimension cannot be resurrected.
            if matches!(coarse, DimGrouping::Drop) {
                continue;
            }
            return None;
        }
        let cube_dim = have_cube.dims().get(cube_pos)?;
        cube_pos += 1;
        let dim = adt.dims().get(d)?;
        let step = match (fine, coarse) {
            (_, DimGrouping::Drop) => Rollup::Drop,
            (f, c) if f == c => Rollup::Map {
                column: cube_dim.column.clone(),
                codes: cube_dim.codes.clone(),
                rank_map: (0..cube_dim.codes.len() as u32).collect(),
            },
            (DimGrouping::Key, DimGrouping::Level(l)) => {
                // Key ranks are sorted keys (`cube_dim.codes`); each
                // key's row carries exactly one code at level `l`.
                let attr = dim.attr_codes(l).ok()?;
                let coarse_codes = dim.distinct_codes(l).ok()?;
                let mut rank_map = Vec::with_capacity(cube_dim.codes.len());
                for &key in &cube_dim.codes {
                    let row = dim.row_of_key(key)?;
                    let code = *attr.get(row as usize)?;
                    let cr = coarse_codes.binary_search(&code).ok()?;
                    rank_map.push(cr as u32);
                }
                Rollup::Map {
                    column: format!("{}.{}", dim.name(), dim.level_name(l).unwrap_or("?")),
                    codes: coarse_codes,
                    rank_map,
                }
            }
            (DimGrouping::Level(lf), DimGrouping::Level(lc)) => {
                // Derivable iff the fine code functionally determines
                // the coarse code — verified by one scan of the rows.
                let fine_codes = &cube_dim.codes; // == distinct_codes(lf)
                let fc = dim.attr_codes(lf).ok()?;
                let cc = dim.attr_codes(lc).ok()?;
                let coarse_codes = dim.distinct_codes(lc).ok()?;
                let mut fine_to_coarse: Vec<Option<i64>> = vec![None; fine_codes.len()];
                for (row, &f) in fc.iter().enumerate() {
                    let fr = fine_codes.binary_search(&f).ok()?;
                    let c = *cc.get(row)?;
                    match fine_to_coarse.get_mut(fr)? {
                        slot @ None => *slot = Some(c),
                        Some(prev) if *prev == c => {}
                        Some(_) => return None, // no functional dependency
                    }
                }
                let mut rank_map = Vec::with_capacity(fine_codes.len());
                for m in fine_to_coarse {
                    let cr = coarse_codes.binary_search(&m?).ok()?;
                    rank_map.push(cr as u32);
                }
                Rollup::Map {
                    column: format!("{}.{}", dim.name(), dim.level_name(lc).unwrap_or("?")),
                    codes: coarse_codes,
                    rank_map,
                }
            }
            // Level → Key would refine, not coarsen.
            _ => return None,
        };
        plan.push(step);
    }
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::dimension::DimensionTable;
    use crate::query::{AttrRef, Selection};
    use molap_array::ChunkFormat;
    use molap_storage::MemDisk;

    fn build() -> OlapArray {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 512));
        let dims = vec![
            DimensionTable::build(
                "store",
                &(0..12i64).collect::<Vec<_>>(),
                vec![
                    ("city", (0..12i64).map(|k| k / 2).collect()),
                    ("region", (0..12i64).map(|k| k / 6).collect()),
                ],
            )
            .unwrap(),
            DimensionTable::build(
                "product",
                &(0..6i64).collect::<Vec<_>>(),
                vec![("ptype", (0..6i64).map(|k| k % 2).collect())],
            )
            .unwrap(),
        ];
        let cells: Vec<(Vec<i64>, Vec<i64>)> = (0..12i64)
            .flat_map(|s| (0..6i64).map(move |p| (vec![s, p], vec![s * 10 + p])))
            .filter(|(k, _)| (k[0] + k[1]) % 3 != 0)
            .collect();
        OlapArray::build(pool, dims, &[4, 3], ChunkFormat::ChunkOffset, cells, 1).unwrap()
    }

    fn cube_for(adt: &OlapArray, q: &Query) -> ResultCube {
        crate::parallel::consolidate_cube_auto(adt, q).unwrap().1
    }

    #[test]
    fn exact_hit_roundtrips() {
        let adt = build();
        let cache = ResultCache::new(1 << 20);
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        let key = CacheKey::of(&adt, &q);
        assert!(cache.get(&key, 0).is_none());
        let cube = Arc::new(cube_for(&adt, &q));
        cache.insert(key.clone(), cube.clone(), 0);
        let hit = cache.get(&key, 0).unwrap();
        assert_eq!(
            hit.to_result(&q.aggs).unwrap(),
            adt.consolidate(&q).unwrap()
        );
        // A different grouping is a different key.
        let other = CacheKey::of(&adt, &Query::new(vec![DimGrouping::Key, DimGrouping::Drop]));
        assert!(cache.get(&other, 0).is_none());
    }

    #[test]
    fn epoch_and_write_gen_invalidate() {
        let adt = build();
        let cache = ResultCache::new(1 << 20);
        let q = Query::new(vec![DimGrouping::Level(1), DimGrouping::Drop]);
        let key = CacheKey::of(&adt, &q);
        cache.insert(key.clone(), Arc::new(cube_for(&adt, &q)), 3);
        assert!(cache.get(&key, 4).is_none(), "cleared pool = cold");
        assert!(cache.get(&key, 3).is_none(), "stale entry dropped eagerly");
        cache.insert(key.clone(), Arc::new(cube_for(&adt, &q)), 3);
        cache.bump_write_gen();
        assert!(cache.get(&key, 3).is_none(), "write invalidates");
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn canonical_in_lists_share_an_entry() {
        let adt = build();
        let q1 = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop])
            .with_selection(0, Selection::in_list(AttrRef::Level(0), vec![2, 0, 2]));
        let q2 = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop])
            .with_selection(0, Selection::in_list(AttrRef::Level(0), vec![0, 2]));
        assert_eq!(CacheKey::of(&adt, &q1), CacheKey::of(&adt, &q2));
        // Different aggregates share the key too (states finalize any).
        let q3 = q2.clone().with_aggs(vec![AggFunc::Avg]);
        assert_eq!(CacheKey::of(&adt, &q2), CacheKey::of(&adt, &q3));
    }

    #[test]
    fn subsumption_derives_bit_identical_results() {
        let adt = build();
        let fine = Query::new(vec![DimGrouping::Key, DimGrouping::Level(0)]);
        let fine_cube = cube_for(&adt, &fine);
        let fine_key = CacheKey::of(&adt, &fine);
        // Key → Level, Level → identity, and dropping a dimension.
        let coarser = [
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]),
            Query::new(vec![DimGrouping::Level(1), DimGrouping::Drop]),
            Query::new(vec![DimGrouping::Drop, DimGrouping::Drop]),
            Query::new(vec![DimGrouping::Key, DimGrouping::Drop]),
        ];
        for want in &coarser {
            let want_key = CacheKey::of(&adt, want);
            let plan = rollup_plan(&adt, &fine_key, &fine_cube, &want_key)
                .unwrap_or_else(|| panic!("{want:?} must be derivable"));
            let derived = fine_cube.rollup(&plan).unwrap();
            assert_eq!(
                derived.to_result(&want.aggs).unwrap(),
                adt.consolidate(want).unwrap(),
                "{want:?}"
            );
        }
        // Level(0) (city) → Level(1) (region): functional dependency
        // holds for k/2 → k/6 on this data.
        let city = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        let city_cube = cube_for(&adt, &city);
        let city_key = CacheKey::of(&adt, &city);
        let region = Query::new(vec![DimGrouping::Level(1), DimGrouping::Drop]);
        let plan = rollup_plan(&adt, &city_key, &city_cube, &CacheKey::of(&adt, &region))
            .expect("city subsumes region");
        assert_eq!(
            city_cube
                .rollup(&plan)
                .unwrap()
                .to_result(&region.aggs)
                .unwrap(),
            adt.consolidate(&region).unwrap()
        );
    }

    #[test]
    fn non_subsumable_pairs_are_rejected() {
        let adt = build();
        let fine = Query::new(vec![DimGrouping::Level(1), DimGrouping::Drop]);
        let fine_cube = cube_for(&adt, &fine);
        let fine_key = CacheKey::of(&adt, &fine);
        let refused = [
            // Region → city refines.
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]),
            // Level → Key refines.
            Query::new(vec![DimGrouping::Key, DimGrouping::Drop]),
            // Dropped dimension cannot come back.
            Query::new(vec![DimGrouping::Level(1), DimGrouping::Level(0)]),
            // Different selections.
            Query::new(vec![DimGrouping::Level(1), DimGrouping::Drop])
                .with_selection(1, Selection::eq(AttrRef::Key, 1)),
        ];
        for want in &refused {
            assert!(
                rollup_plan(&adt, &fine_key, &fine_cube, &CacheKey::of(&adt, want)).is_none(),
                "{want:?} must not be derivable"
            );
        }
    }

    #[test]
    fn eviction_keeps_bytes_under_capacity() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Key, DimGrouping::Key]);
        let cube = Arc::new(cube_for(&adt, &q));
        let bytes = cube.approx_bytes();
        let cache = ResultCache::new(bytes * 3 * CACHE_SHARDS);
        let mut evicted = 0;
        for i in 0..200i64 {
            // Distinct keys via distinct (synthetic) array ids.
            let key = CacheKey {
                array_id: i as u64,
                group_by: q.group_by.clone(),
                selections: q.selections.clone(),
            };
            evicted += cache.insert(key, cube.clone(), 0);
        }
        assert!(evicted > 0, "200 inserts must evict");
        assert!(cache.bytes() <= bytes * 3 * CACHE_SHARDS);
        assert!(!cache.is_empty());
        // Zero capacity disables caching.
        let disabled = ResultCache::new(0);
        disabled.insert(CacheKey::of(&adt, &q), cube, 0);
        assert!(disabled.is_empty());
    }

    #[test]
    fn optimistic_hits_bypass_the_shard_mutex() {
        let adt = build();
        let cache = ResultCache::new(1 << 20);
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        let key = CacheKey::of(&adt, &q);
        cache.insert(key.clone(), Arc::new(cube_for(&adt, &q)), 0);
        let stats = IoStats::new();
        // Hold the shard's own mutex across the gets: a hit that ever
        // touched `results` would deadlock here.
        let _m = cache.shard(&key).results.lock();
        for _ in 0..5 {
            assert!(cache.get_tracked(&key, 0, &stats).is_some());
        }
        let snap = stats.snapshot();
        assert_eq!(snap.opt_result_reads, 5);
        assert_eq!(snap.opt_result_escalations, 0);
    }

    #[test]
    fn optimistic_path_respects_every_invalidation_signal() {
        let adt = build();
        let cache = ResultCache::new(1 << 20);
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        let key = CacheKey::of(&adt, &q);
        let stats = IoStats::new();
        // Global write generation.
        cache.insert(key.clone(), Arc::new(cube_for(&adt, &q)), 0);
        assert!(cache.get_tracked(&key, 0, &stats).is_some());
        cache.bump_write_gen();
        assert!(cache.get_tracked(&key, 0, &stats).is_none());
        // Per-array generation.
        cache.insert(key.clone(), Arc::new(cube_for(&adt, &q)), 0);
        assert!(cache.get_tracked(&key, 0, &stats).is_some());
        cache.bump_array_gen(key.array_id);
        assert!(cache.get_tracked(&key, 0, &stats).is_none());
        // Pool clear epoch.
        cache.insert(key.clone(), Arc::new(cube_for(&adt, &q)), 7);
        assert!(cache.get_tracked(&key, 7, &stats).is_some());
        assert!(cache.get_tracked(&key, 8, &stats).is_none());
        assert_eq!(cache.bytes(), 0, "stale entries dropped eagerly");
        assert_eq!(stats.snapshot().opt_result_reads, 6);
    }

    #[test]
    fn concurrent_gets_race_inserts_and_invalidations() {
        // Readers hammer the optimistic path while writers insert and
        // fire every invalidation signal. Each key always maps to one
        // known cube, so any hit must be exactly that Arc — a torn or
        // stale read would surface as a foreign pointer or a panic.
        let adt = build();
        let cache = Arc::new(ResultCache::new(1 << 20));
        let queries = [
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]),
            Query::new(vec![DimGrouping::Level(1), DimGrouping::Drop]),
            Query::new(vec![DimGrouping::Key, DimGrouping::Drop]),
            Query::new(vec![DimGrouping::Drop, DimGrouping::Level(0)]),
        ];
        let entries: Vec<(CacheKey, Arc<ResultCube>)> = queries
            .iter()
            .map(|q| (CacheKey::of(&adt, q), Arc::new(cube_for(&adt, q))))
            .collect();
        let entries = Arc::new(entries);
        let stats = Arc::new(IoStats::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let readers: Vec<_> = (0..3)
            .map(|t| {
                let cache = cache.clone();
                let entries = entries.clone();
                let stats = stats.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    let mut i = t;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let (key, cube) = &entries[i % entries.len()];
                        if let Some(got) = cache.get_tracked(key, 0, &stats) {
                            assert!(
                                Arc::ptr_eq(&got, cube),
                                "hit returned a cube never inserted for this key"
                            );
                            hits += 1;
                        }
                        i += 1;
                    }
                    hits
                })
            })
            .collect();

        for round in 0..200usize {
            for (key, cube) in entries.iter() {
                cache.insert(key.clone(), cube.clone(), 0);
            }
            match round % 3 {
                0 => {
                    cache.bump_write_gen();
                }
                1 => {
                    cache.bump_array_gen(entries[round % entries.len()].0.array_id);
                }
                _ => {}
            }
            if round % 16 == 0 {
                std::thread::yield_now();
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let hits: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        let snap = stats.snapshot();
        assert!(snap.opt_result_reads >= hits, "every hit was tracked");
    }

    #[test]
    fn shared_cache_is_installed_once_per_pool() {
        let adt = build();
        let a = shared_result_cache(adt.pool()).unwrap();
        let b = shared_result_cache(adt.pool()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Coexists with the chunk cache on the same pool's slots.
        assert!(molap_array::shared_chunk_cache(adt.pool()).is_some());
        assert!(shared_result_cache(adt.pool()).is_some());
    }
}
