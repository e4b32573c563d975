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
//! Entries are keyed by [`CacheKey`]: the array's persistent uid
//! ([`OlapArray::identity_hash`], assigned at build and carried in the
//! array's metadata, so the per-statement reopens of `Database::sql`
//! and the array's own writes all keep it), the
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
//! Each entry carries a [`Stamp`] of three values, all captured before
//! the cube was computed:
//!
//! * the pool's clear-epoch — `BufferPool::clear` bumps it, so cached
//!   results never leak across the paper's cold-run boundary;
//! * the cache-wide write generation — [`ResultCache::bump_write_gen`]
//!   cools every entry on the pool at once;
//! * the commit generation of the [`ChunkSnapshot`] the cube was read
//!   under. [`crate::consolidate_auto`] takes one snapshot per
//!   statement and uses it for the lookup, the compute and the stamp,
//!   so an entry reflects exactly the array state of its generation.
//!
//! A lookup hits only when all three equal the reader's. An insert
//! never replaces an entry stamped with a newer generation, so a slow
//! reader cannot push an old answer over a fresh one. A commit that
//! publishes generation `g + 1` runs [`maintain`] once, inside its
//! commit section: it patches the written array's live entries stamped
//! `g` with the batch's cell deltas and re-stamps every other array's
//! live entries from `g` to `g + 1`. Anything it does not carry
//! forward (a MIN/MAX fallback, an entry inserted at `g` after the
//! pass, an entry already cooled by `bump_write_gen` or a pool clear)
//! stays at `g` and is never served to a later snapshot.
//!
//! # Locking
//!
//! Sharded like the decoded-chunk cache: each shard's `results` mutex
//! (see the workspace lock order, DESIGN.md §8) guards the map plus a
//! second-chance clock ring bounded by approximate cube bytes. Every
//! lookup, insert and removal takes the shard mutex, nothing else is
//! ever acquired while it is held, and shards are only ever locked one
//! at a time — the subsumption scan clones candidate `Arc`s out shard
//! by shard and derives outside the lock.

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use molap_array::ChunkSnapshot;
use molap_storage::util::fib_shard;
use molap_storage::BufferPool;
use parking_lot::Mutex;

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

    /// Mixed hash used for shard routing.
    fn hash64(&self) -> u64 {
        let mut h = FxHasher::default();
        std::hash::Hash::hash(self, &mut h);
        h.finish()
    }
}

/// What a cube was computed under, and what a lookup must match (see
/// the module docs): the pool's clear epoch, the cache's write
/// generation, and the commit generation of the chunk snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Stamp {
    pub epoch: u64,
    pub write_gen: u64,
    pub gen: u64,
}

struct CacheEntry {
    cube: Arc<ResultCube>,
    bytes: usize,
    stamp: Stamp,
    referenced: bool,
}

struct ShardMap {
    map: HashMap<Arc<CacheKey>, CacheEntry>,
    /// Second-chance clock ring over the keys; may lag `map` (removed
    /// keys are compacted away as the hand passes them).
    ring: Vec<Arc<CacheKey>>,
    hand: usize,
    bytes: usize,
}

/// One cache shard. The field name `results` is load-bearing: it is
/// the rank the workspace lock order (and molap-lint) knows this mutex
/// by.
struct CacheShard {
    results: Mutex<ShardMap>,
}

impl ShardMap {
    /// Removes `key` from the map.
    fn remove_entry(&mut self, key: &CacheKey) {
        if let Some(entry) = self.map.remove(key) {
            self.bytes = self.bytes.saturating_sub(entry.bytes);
        }
    }

    /// Evicts one unreferenced entry; returns false if nothing was
    /// evictable (the ring cycled twice clearing reference bits).
    fn evict_one(&mut self) -> bool {
        let mut budget = 2 * self.ring.len();
        while budget > 0 && !self.ring.is_empty() {
            budget -= 1;
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let Some(key) = self.ring.get(self.hand).cloned() else {
                break;
            };
            let touched = match self.map.get_mut(&key) {
                // Stale ring slot (entry removed/invalidated): compact.
                None => {
                    self.ring.swap_remove(self.hand);
                    continue;
                }
                Some(entry) => std::mem::replace(&mut entry.referenced, false),
            };
            if touched {
                self.hand += 1;
            } else {
                self.remove_entry(&key);
                self.ring.swap_remove(self.hand);
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
    /// Bumped to cool every entry on the pool at once; entries stamped
    /// with an older value read as cold.
    write_gen: AtomicU64,
}

impl ResultCache {
    /// Creates a cache bounded to roughly `capacity_bytes` of result
    /// cubes. A zero capacity disables caching (inserts no-op).
    pub fn new(capacity_bytes: usize) -> Self {
        ResultCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| CacheShard {
                    results: Mutex::new(ShardMap {
                        map: HashMap::new(),
                        ring: Vec::new(),
                        hand: 0,
                        bytes: 0,
                    }),
                })
                .collect(),
            shard_capacity: capacity_bytes / CACHE_SHARDS,
            write_gen: AtomicU64::new(0),
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

    /// Looks up the entry for `key` stamped exactly `stamp`. An entry
    /// with another stamp is dropped on the spot, unless its generation
    /// is newer than `stamp`'s: that one serves later snapshots and
    /// stays.
    pub(crate) fn get(&self, key: &CacheKey, stamp: Stamp) -> Option<Arc<ResultCube>> {
        let mut m = self.shard(key).results.lock();
        match m.map.get_mut(key) {
            Some(entry) if entry.stamp == stamp => {
                entry.referenced = true;
                Some(entry.cube.clone())
            }
            Some(entry) if entry.stamp.gen <= stamp.gen => {
                m.remove_entry(key);
                None
            }
            _ => None,
        }
    }

    /// Inserts a result cube stamped with what its computation read
    /// under, captured by the caller *before* it computed the cube, and
    /// evicts as needed; returns how many entries were evicted. An
    /// entry stamped with a newer generation is kept and the insert
    /// skipped. Cubes larger than a whole shard's budget are not
    /// cached.
    pub(crate) fn insert(&self, key: CacheKey, cube: Arc<ResultCube>, stamp: Stamp) -> u64 {
        let bytes = cube.approx_bytes();
        if bytes == 0 || bytes > self.shard_capacity {
            return 0;
        }
        let key = Arc::new(key);
        let mut evicted = 0u64;
        let mut m = self.shard(&key).results.lock();
        if m.map.get(&key).is_some_and(|e| e.stamp.gen > stamp.gen) {
            return 0;
        }
        m.remove_entry(&key); // replace any older entry under the same key
        while m.bytes + bytes > self.shard_capacity {
            if !m.evict_one() {
                return evicted; // nothing evictable; skip caching
            }
            evicted += 1;
        }
        m.bytes += bytes;
        m.map.insert(
            key.clone(),
            CacheEntry {
                cube,
                bytes,
                stamp,
                referenced: true,
            },
        );
        m.ring.push(key);
        evicted
    }

    /// Clones out every entry for `array_id` stamped with `epoch` and
    /// the current write generation, whatever snapshot generation it
    /// was computed at. Shards are locked strictly one at a time, so
    /// this never holds two `results` mutexes.
    pub fn candidates(&self, array_id: u64, epoch: u64) -> Vec<(Arc<CacheKey>, Arc<ResultCube>)> {
        let write_gen = self.write_gen();
        self.entries_where(array_id, |s| s.epoch == epoch && s.write_gen == write_gen)
    }

    /// Clones out `array_id`'s entries whose stamp passes `keep`,
    /// locking one shard at a time.
    fn entries_where(
        &self,
        array_id: u64,
        keep: impl Fn(&Stamp) -> bool,
    ) -> Vec<(Arc<CacheKey>, Arc<ResultCube>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let guard = shard.results.lock();
            for (key, entry) in &guard.map {
                if key.array_id == array_id && keep(&entry.stamp) {
                    out.push((key.clone(), entry.cube.clone()));
                }
            }
        }
        out
    }

    /// The cache's half of a commit to `array_id`: every live entry is
    /// stamped `from`, and the commit published `to`. Every other
    /// array's entry stamped `from` is re-stamped `to` in place, since
    /// the commit did not change its data. `array_id`'s entries stamped
    /// `from` are cloned out for [`maintain`] to patch and re-insert.
    /// Entries with any other stamp are dead and left alone. Shards are
    /// locked one at a time.
    fn advance(
        &self,
        array_id: u64,
        from: Stamp,
        to: Stamp,
    ) -> Vec<(Arc<CacheKey>, Arc<ResultCube>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut m = shard.results.lock();
            for (key, entry) in m.map.iter_mut() {
                if entry.stamp != from {
                    continue;
                }
                if key.array_id == array_id {
                    out.push((key.clone(), entry.cube.clone()));
                    continue;
                }
                entry.stamp = to;
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
    /// is recomputed at its next lookup).
    fn remove_entry(&self, key: &CacheKey) {
        self.shard(key).results.lock().remove_entry(key);
    }
}

/// The pool-wide shared result cache, installed as a pool extension on
/// first use and sized to half the pool's byte budget (result cubes are
/// far smaller than the chunk data they summarize).
pub(crate) fn result_cache(pool: &Arc<BufferPool>) -> Arc<ResultCache> {
    let budget = pool.num_frames() * molap_storage::PAGE_SIZE / 2;
    pool.extension_or_init(|| Arc::new(ResultCache::new(budget)))
}

/// [`result_cache`] for callers outside the engine. Always `Some`: the
/// lookup cannot fail, and the `Option` stays only because existing
/// callers (the benchmark harness) unwrap it.
pub fn shared_result_cache(pool: &Arc<BufferPool>) -> Option<Arc<ResultCache>> {
    Some(result_cache(pool))
}

/// Write-path fallback for a commit that runs no [`maintain`] pass
/// (the [`crate::CubeMaintenance::InvalidateAll`] baseline): every
/// cached result on the pool goes cold. Installing the (empty) cache
/// just to bump its generation is harmless.
pub(crate) fn invalidate_writes(pool: &Arc<BufferPool>) {
    result_cache(pool).bump_write_gen();
    pool.stats().result_cache_invalidations.inc();
}

/// Carries the pool's cached cubes across a commit of `deltas` to `adt`
/// that published generation `gen`, and returns the `(patched,
/// dropped)` entry counts. Runs after the publish and inside the commit
/// section, so no other commit interleaves: every entry stamped
/// `gen - 1` holds exactly the pre-batch state.
///
/// Only live entries are carried: those stamped with the pool's epoch
/// and the cache's write generation. Other arrays' entries are
/// re-stamped unchanged (see [`ResultCache::advance`]). For each of
/// `adt`'s entries, every delta's coordinates run through the same
/// IndexToIndex remaps the consolidation kernels use (key → rank for
/// `Key` groupings, `load_i2i` for `Level`), the entry's selections
/// decide membership (writes change measures, never coordinates, so
/// membership is stable), and the addressed result cell is patched
/// through [`ResultCube::patch_cell`] on a private clone, re-inserted
/// at `gen`.
/// A shrinking MIN/MAX extreme makes the entry unpatchable: it is
/// dropped and recomputed at its next lookup. An error (I/O under
/// `load_i2i`) leaves the remaining entries at `gen - 1`: cold, never
/// stale.
pub(crate) fn maintain(adt: &OlapArray, gen: u64, deltas: &[CellDelta]) -> Result<(u64, u64)> {
    let cache = result_cache(adt.pool());
    let stats = adt.pool().stats();
    let to = Stamp {
        epoch: adt.pool().epoch(),
        write_gen: cache.write_gen(),
        gen,
    };
    let from = Stamp { gen: gen - 1, ..to };
    let (mut patched, mut dropped) = (0u64, 0u64);
    for (key, cube) in cache.advance(adt.identity_hash(), from, to) {
        match patch_cube(adt, &key, &cube, deltas)? {
            Some((cube, touched)) => {
                let evicted = cache.insert((*key).clone(), cube, to);
                stats.result_cache_evictions.add(evicted);
                if touched {
                    patched += 1;
                    stats.result_cache_patched.inc();
                }
            }
            None => {
                cache.remove_entry(&key);
                dropped += 1;
                stats.result_cache_fallbacks.inc();
            }
        }
    }
    Ok((patched, dropped))
}

/// Applies `deltas` to one cached cube: `Some((cube, touched))` with
/// the maintained cube and whether any delta reached it, or `None` when
/// the entry must be dropped (a MIN/MAX fallback or an unmappable
/// coordinate).
fn patch_cube(
    adt: &OlapArray,
    key: &CacheKey,
    cube: &Arc<ResultCube>,
    deltas: &[CellDelta],
) -> Result<Option<(Arc<ResultCube>, bool)>> {
    let n_measures = adt.n_measures();
    if key.group_by.len() != adt.dims().len() {
        return Ok(None);
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
            None => return Ok(None),
        }
        for (i, (d, map)) in remaps.iter().enumerate() {
            match map.get(delta.coords[*d] as usize) {
                Some(&r) => ranks[i] = r,
                None => return Ok(None),
            }
        }
        let target = clone.get_or_insert_with(|| (**cube).clone());
        let cell = target.linear(&ranks);
        cell_deltas.clear();
        for m in 0..n_measures {
            cell_deltas.push((delta.old.as_ref().map(|o| o[m]), delta.new[m]));
        }
        if !target.patch_cell(cell, &cell_deltas) {
            return Ok(None);
        }
    }
    Ok(Some(match clone {
        Some(patched) => (Arc::new(patched), true),
        None => (cube.clone(), false),
    }))
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
/// cube, else run `compute` under `snap` and populate the cache. Every
/// path finalizes through the same [`ResultCube::into_result`]
/// machinery, so cached and computed answers are bit-identical.
pub(crate) fn consolidate_cached<F>(
    adt: &OlapArray,
    query: &Query,
    snap: ChunkSnapshot,
    compute: F,
) -> Result<ConsolidationResult>
where
    F: FnOnce(ChunkSnapshot) -> Result<ResultCube>,
{
    let cache = result_cache(adt.pool());
    let stats = adt.pool().stats();
    // One stamp for the lookup, any derivation and the compute, all
    // captured before any of them: a cube stamped here reflects exactly
    // the snapshot's generation, whatever commits land meanwhile.
    let stamp = Stamp {
        epoch: adt.pool().epoch(),
        write_gen: cache.write_gen(),
        gen: snap.generation(),
    };
    let key = CacheKey::of(adt, query);

    if let Some(cube) = cache.get(&key, stamp) {
        stats.result_cache_hits.inc();
        return cube.to_result(&query.aggs);
    }

    // Rollup subsumption: a finer cached cube for the same array and
    // selections answers a coarser grouping by re-aggregation. The
    // derived cube is inserted under its own key so the family's next
    // repeat is an exact hit.
    for (have_key, have_cube) in cache.entries_where(key.array_id, |s| *s == stamp) {
        if *have_key == key {
            continue; // exact entry raced in after our lookup
        }
        let Some(plan) = rollup_plan(adt, &have_key, &have_cube, &key) else {
            continue;
        };
        let derived = Arc::new(have_cube.rollup(&plan)?);
        stats.result_cache_derived.inc();
        let evicted = cache.insert(key, derived.clone(), stamp);
        stats.result_cache_evictions.add(evicted);
        return derived.to_result(&query.aggs);
    }

    stats.result_cache_misses.inc();
    let cube = Arc::new(compute(snap)?);
    let evicted = cache.insert(key, cube.clone(), stamp);
    stats.result_cache_evictions.add(evicted);
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
        crate::parallel::consolidate_cube_auto(adt, q, adt.array().snapshot())
            .unwrap()
            .1
    }

    /// The stamp of a reader at `epoch` and snapshot generation `gen`,
    /// under the cache's current write generation.
    fn at(cache: &ResultCache, epoch: u64, gen: u64) -> Stamp {
        Stamp {
            epoch,
            write_gen: cache.write_gen(),
            gen,
        }
    }

    #[test]
    fn exact_hit_roundtrips() {
        let adt = build();
        let cache = ResultCache::new(1 << 20);
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        let key = CacheKey::of(&adt, &q);
        assert!(cache.get(&key, at(&cache, 0, 0)).is_none());
        let cube = Arc::new(cube_for(&adt, &q));
        cache.insert(key.clone(), cube.clone(), at(&cache, 0, 0));
        let hit = cache.get(&key, at(&cache, 0, 0)).unwrap();
        assert_eq!(
            hit.to_result(&q.aggs).unwrap(),
            adt.consolidate(&q).unwrap()
        );
        // A different grouping is a different key.
        let other = CacheKey::of(&adt, &Query::new(vec![DimGrouping::Key, DimGrouping::Drop]));
        assert!(cache.get(&other, at(&cache, 0, 0)).is_none());
    }

    #[test]
    fn epoch_and_write_gen_invalidate() {
        let adt = build();
        let cache = ResultCache::new(1 << 20);
        let q = Query::new(vec![DimGrouping::Level(1), DimGrouping::Drop]);
        let key = CacheKey::of(&adt, &q);
        cache.insert(key.clone(), Arc::new(cube_for(&adt, &q)), at(&cache, 3, 0));
        assert!(
            cache.get(&key, at(&cache, 4, 0)).is_none(),
            "cleared pool = cold"
        );
        assert!(
            cache.get(&key, at(&cache, 3, 0)).is_none(),
            "stale entry dropped eagerly"
        );
        cache.insert(key.clone(), Arc::new(cube_for(&adt, &q)), at(&cache, 3, 0));
        assert!(cache.get(&key, at(&cache, 3, 0)).is_some());
        cache.bump_write_gen();
        assert!(
            cache.get(&key, at(&cache, 3, 0)).is_none(),
            "write invalidates"
        );
        // Snapshot generation: a reader at a later generation misses
        // and drops the older entry.
        cache.insert(key.clone(), Arc::new(cube_for(&adt, &q)), at(&cache, 3, 0));
        assert!(cache.get(&key, at(&cache, 3, 0)).is_some());
        assert!(
            cache.get(&key, at(&cache, 3, 1)).is_none(),
            "later snapshot = cold"
        );
        assert_eq!(cache.bytes(), 0, "stale entries dropped eagerly");
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
            evicted += cache.insert(key, cube.clone(), at(&cache, 0, 0));
        }
        assert!(evicted > 0, "200 inserts must evict");
        assert!(cache.bytes() <= bytes * 3 * CACHE_SHARDS);
        assert!(!cache.is_empty());
        // Zero capacity disables caching.
        let disabled = ResultCache::new(0);
        disabled.insert(CacheKey::of(&adt, &q), cube, at(&disabled, 0, 0));
        assert!(disabled.is_empty());
    }

    #[test]
    fn concurrent_gets_race_inserts_and_invalidations() {
        // Readers hammer the lookup path while writers insert and
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
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // The snapshot generation readers look up at and inserts stamp.
        let gen = Arc::new(AtomicU64::new(0));

        let readers: Vec<_> = (0..3)
            .map(|t| {
                let cache = cache.clone();
                let entries = entries.clone();
                let stop = stop.clone();
                let gen = gen.clone();
                std::thread::spawn(move || {
                    let mut i = t;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let (key, cube) = &entries[i % entries.len()];
                        let stamp = at(&cache, 0, gen.load(Ordering::Acquire));
                        if let Some(got) = cache.get(key, stamp) {
                            assert!(
                                Arc::ptr_eq(&got, cube),
                                "hit returned a cube never inserted for this key"
                            );
                        }
                        i += 1;
                    }
                })
            })
            .collect();

        for round in 0..200usize {
            for (key, cube) in entries.iter() {
                let stamp = at(&cache, 0, gen.load(Ordering::Acquire));
                cache.insert(key.clone(), cube.clone(), stamp);
            }
            match round % 3 {
                0 => cache.bump_write_gen(),
                1 => {
                    gen.fetch_add(1, Ordering::AcqRel);
                }
                _ => {}
            }
            if round % 16 == 0 {
                std::thread::yield_now();
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn an_older_generation_never_replaces_a_newer_one() {
        let adt = build();
        let cache = ResultCache::new(1 << 20);
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        let key = CacheKey::of(&adt, &q);
        let newer = Arc::new(cube_for(&adt, &q));
        cache.insert(key.clone(), newer.clone(), at(&cache, 0, 5));
        // A slow reader that computed at generation 4 inserts late.
        let older = Arc::new(cube_for(&adt, &q));
        assert_eq!(cache.insert(key.clone(), older, at(&cache, 0, 4)), 0);
        let hit = cache.get(&key, at(&cache, 0, 5)).expect("kept");
        assert!(Arc::ptr_eq(&hit, &newer));
        // Its lookup misses without dropping the newer entry.
        assert!(cache.get(&key, at(&cache, 0, 4)).is_none());
        assert!(cache.get(&key, at(&cache, 0, 5)).is_some());
        // The same generation replaces; a later one replaces too.
        let same = Arc::new(cube_for(&adt, &q));
        cache.insert(key.clone(), same.clone(), at(&cache, 0, 5));
        let hit = cache.get(&key, at(&cache, 0, 5)).expect("replaced");
        assert!(Arc::ptr_eq(&hit, &same));
        cache.insert(key.clone(), newer, at(&cache, 0, 6));
        assert!(cache.get(&key, at(&cache, 0, 6)).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shared_cache_is_installed_once_per_pool() {
        let adt = build();
        let a = shared_result_cache(adt.pool()).unwrap();
        let b = shared_result_cache(adt.pool()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Coexists with the chunk cache on the same pool.
        molap_array::shared_chunk_cache(adt.pool());
        assert!(Arc::ptr_eq(&a, &shared_result_cache(adt.pool()).unwrap()));
    }
}
