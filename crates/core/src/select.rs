//! The OLAP Array consolidation algorithm with selection (§4.2).
//!
//! 1. For each selected dimension, resolve each predicate to a sorted
//!    index list and merge (union within a predicate's IN-list,
//!    intersection across conjunctive predicates) into one *final
//!    index list* per dimension. A predicate-shape planner picks the
//!    access method per predicate: point lookups and small IN-lists
//!    probe the attribute B-tree; wide ranges and large IN-lists go
//!    through the hierarchical bitmap index
//!    ([`molap_bitmap::StoredHbi`]), which resolves them with
//!    O(fanout · log V) bitmap reads instead of one B-tree descent per
//!    qualifying value.
//! 2. The cross-product of the final lists is generated **on the fly**
//!    (no memory is allocated for cross-product elements), ordered by
//!    chunk number and, within a chunk, by increasing chunk offset:
//!    * chunks that contain no cross-product element are never read;
//!    * chunks are visited in disk-layout order;
//!    * each probe is a binary search over the chunk's sorted offsets,
//!      resumed from the previous probe's position
//!      ([`molap_array::CompressedChunk::probe_from`]) — the paper's
//!      third optimization.
//! 3. Hits are mapped through the IndexToIndex arrays and aggregated
//!    into the result cube, exactly as in the §4.1 phase 2.

use molap_array::{CompressedChunk, Shape};

use crate::adt::OlapArray;
use crate::consolidate::{make_cube, phase1, GroupMap};
use crate::error::Result;
use crate::query::{AttrRef, Pred, Query};
use crate::result::ConsolidationResult;
use crate::util::{intersect_sorted, union_sorted};

/// How the selection planner picks the index per predicate.
///
/// Process-local and not persisted: reopened arrays start on `Auto`.
/// The force modes exist for benchmarking and for pinning a plan when
/// the heuristic misfires on an unusual value distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PlannerMode {
    /// Route by predicate shape (the thresholds below).
    Auto = 0,
    /// Every predicate probes the B-tree (the pre-PR-10 plan).
    ForceBtree = 1,
    /// Every predicate probes the hierarchical bitmap index.
    ForceHbi = 2,
}

impl PlannerMode {
    pub(crate) fn from_u8(v: u8) -> PlannerMode {
        match v {
            1 => PlannerMode::ForceBtree,
            2 => PlannerMode::ForceHbi,
            _ => PlannerMode::Auto,
        }
    }
}

/// `Auto` routes a range to the HBI once it spans at least
/// `max(8, num_values / 8)` distinct attribute values. The B-tree side
/// scans (and sorts) one entry per selected row — cost proportional to
/// selectivity — while the aligned cover reads a near-constant number
/// of whole-dimension bitmaps, so the crossover sits at a *fraction*
/// of the domain (~1/8 measured in BENCH_PR10), with a floor of 8
/// below which a couple of B-tree descents always win.
const HBI_MIN_RANGE_WIDTH: usize = 8;
const HBI_RANGE_FRACTION: usize = 8;
/// `Auto` routes an IN-list to the HBI once it carries at least
/// `max(8, num_values / 64)` values. Each B-tree probe is a separate
/// descent plus an O(list) re-merge (quadratic in total), while the
/// HBI pays one leaf-bitmap read per value — its crossover is far
/// lower than the range one (~1/64 measured in BENCH_PR10).
const HBI_MIN_IN_VALUES: usize = 8;
const HBI_IN_FRACTION: usize = 64;

/// One dimension's selected indices, pre-split by chunk coordinate.
pub(crate) struct DimProbe {
    /// Groups in ascending chunk-coordinate order; each group's indices
    /// ascend (so within-chunk offsets ascend too).
    pub(crate) groups: Vec<ChunkGroup>,
}

pub(crate) struct ChunkGroup {
    /// Chunk-grid coordinate along this dimension.
    pub(crate) chunk_coord: u32,
    /// Selected array indices in this chunk slab, ascending.
    pub(crate) indices: Vec<u32>,
}

/// Computes the merged, sorted final index list for dimension `d`, or
/// `None` when the dimension carries no selection (all indices pass).
pub(crate) fn final_index_list(
    adt: &OlapArray,
    query: &Query,
    d: usize,
) -> Result<Option<Vec<u32>>> {
    let sels = query.selections.get(d).map_or(&[][..], Vec::as_slice);
    if sels.is_empty() {
        return Ok(None);
    }
    let mode = adt.planner_mode();
    let stats = adt.pool().stats();
    let mut acc: Option<Vec<u32>> = None;
    for sel in sels {
        let di = adt.dim_indexes(d);
        let (btree, hbi) = match sel.attr {
            AttrRef::Key => (&di.key_btree, &di.key_hbi),
            AttrRef::Level(l) => (&di.attr_btrees[l], &di.attr_hbis[l]),
        };
        // Predicate-shape routing: point/small-IN stays on the B-tree,
        // wide ranges and large IN-lists resolve through the HBI.
        // `range_width` is a catalog-only estimate (no I/O).
        let use_hbi = match mode {
            PlannerMode::ForceBtree => false,
            PlannerMode::ForceHbi => true,
            PlannerMode::Auto => match &sel.pred {
                Pred::In(values) => {
                    values.len() >= HBI_MIN_IN_VALUES.max(hbi.num_values() / HBI_IN_FRACTION)
                }
                Pred::Range { lo, hi } => {
                    hbi.range_width(*lo, *hi)
                        >= HBI_MIN_RANGE_WIDTH.max(hbi.num_values() / HBI_RANGE_FRACTION)
                }
            },
        };
        let list: Vec<u32> = if use_hbi {
            stats.planner_hbi.inc();
            let bm = match &sel.pred {
                // Pred::In's canonical (sorted, deduped) invariant
                // matches fetch_in's contract.
                Pred::In(values) => hbi.fetch_in(values)?,
                Pred::Range { lo, hi } => hbi.fetch_range(*lo, *hi)?,
            };
            // Leaf bitmaps are keyed by array position, so the set
            // bits come out already in ascending index order.
            let mut list = Vec::new();
            bm.ones_into(&mut list);
            list
        } else {
            stats.planner_btree.inc();
            match &sel.pred {
                // Union of the index lists of the predicate's values;
                // scan_eq returns ascending rows (bulk-loaded in row
                // order).
                Pred::In(values) => {
                    let mut list: Vec<u32> = Vec::new();
                    for &value in values {
                        let rows: Vec<u32> = btree
                            .scan_eq(value)?
                            .into_iter()
                            .map(|r| r as u32)
                            .collect();
                        list = union_sorted(&list, &rows);
                    }
                    list
                }
                // One range scan; rows come back in key order, so
                // re-sort into index order before merging.
                Pred::Range { lo, hi } => {
                    let mut rows: Vec<u32> = btree
                        .scan_range(*lo, *hi)?
                        .into_iter()
                        .map(|(_, r)| r as u32)
                        .collect();
                    rows.sort_unstable();
                    rows.dedup();
                    rows
                }
            }
        };
        acc = Some(match acc {
            None => list,
            Some(prev) => intersect_sorted(&prev, &list),
        });
    }
    Ok(acc.map(|mut v| {
        v.dedup();
        v
    }))
}

fn make_probe(adt: &OlapArray, d: usize, list: Option<Vec<u32>>) -> DimProbe {
    let shape = adt.array().shape();
    let indices: Vec<u32> = match list {
        Some(v) => v,
        None => (0..shape.dims()[d]).collect(),
    };
    let mut groups: Vec<ChunkGroup> = Vec::new();
    for idx in indices {
        let cc = shape.chunk_coord(d, idx);
        match groups.last_mut() {
            Some(g) if g.chunk_coord == cc => g.indices.push(idx),
            _ => groups.push(ChunkGroup {
                chunk_coord: cc,
                indices: vec![idx],
            }),
        }
    }
    DimProbe { groups }
}

/// The §4.2 reference algorithm, chunk by chunk on the calling thread.
/// Like [`crate::consolidate::consolidate_full`] it reads every chunk
/// under one snapshot.
pub(crate) fn consolidate_with_selection(
    adt: &OlapArray,
    query: &Query,
) -> Result<ConsolidationResult> {
    let maps = phase1(adt, query)?;
    let mut cube = make_cube(&maps, adt.n_measures());
    let shape = adt.array().shape();

    // Step 1: final index lists.
    let (probes, any_empty) = build_probes(adt, query)?;

    if !any_empty {
        // Step 2: cross-product in (chunk number, chunk offset) order.
        let mut ranks = vec![0u32; maps.len()];
        let snap = adt.array().snapshot();
        for (chunk_no, chunk_sel) in candidate_chunks(shape, &probes) {
            let chunk = adt.array().read_chunk_at(chunk_no, &snap)?;
            eval_chunk(
                adt, &chunk, &probes, &chunk_sel, &maps, &mut ranks, &mut cube,
            );
        }
    }

    cube.into_result(&query.aggs)
}

/// Step 1 of §4.2 for every dimension: the final index lists, split by
/// chunk coordinate. The flag is true when some dimension selected
/// nothing (the whole query result is empty — no chunk qualifies).
pub(crate) fn build_probes(adt: &OlapArray, query: &Query) -> Result<(Vec<DimProbe>, bool)> {
    let n = adt.array().shape().n_dims();
    let mut probes = Vec::with_capacity(n);
    let mut any_empty = false;
    for d in 0..n {
        let probe = make_probe(adt, d, final_index_list(adt, query, d)?);
        any_empty |= probe.groups.is_empty();
        probes.push(probe);
    }
    Ok((probes, any_empty))
}

/// The qualifying chunks, in ascending chunk-number (= disk) order.
/// Each entry carries the per-dimension group cursor selecting which
/// [`ChunkGroup`] of each probe covers the chunk.
///
/// The list is chunk-granular (bounded by the array's chunk count);
/// the *cell* cross-product is still generated on the fly inside
/// [`probe_chunk`], as §4.2 requires.
pub(crate) fn candidate_chunks(shape: &Shape, probes: &[DimProbe]) -> Vec<(u64, Vec<usize>)> {
    let n = probes.len();
    if probes.iter().any(|p| p.groups.is_empty()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut chunk_sel = vec![0usize; n]; // group cursor per dim
    'chunks: loop {
        let chunk_no: u64 = (0..n)
            .map(|d| probes[d].groups[chunk_sel[d]].chunk_coord as u64 * shape.chunk_stride(d))
            .sum();
        out.push((chunk_no, chunk_sel.clone()));
        // Advance the chunk odometer (row-major: ascending chunk_no).
        let mut d = n;
        loop {
            if d == 0 {
                break 'chunks;
            }
            d -= 1;
            if chunk_sel[d] + 1 < probes[d].groups.len() {
                chunk_sel[d] += 1;
                for x in chunk_sel.iter_mut().skip(d + 1) {
                    *x = 0;
                }
                break;
            }
            chunk_sel[d] = 0;
        }
    }
    out
}

/// Evaluates one qualifying chunk into `cube`, choosing the probe or
/// scan direction adaptively (extension beyond the paper's fixed probe
/// order): when the chunk's cross-product is larger than its valid-cell
/// count, probing every cross-product element costs more than scanning
/// the valid cells and testing membership per dimension.
#[allow(clippy::too_many_arguments)]
fn eval_chunk(
    adt: &OlapArray,
    chunk: &CompressedChunk,
    probes: &[DimProbe],
    chunk_sel: &[usize],
    maps: &[GroupMap],
    ranks: &mut [u32],
    cube: &mut crate::result::ResultCube,
) {
    if chunk.is_empty() {
        return;
    }
    let n = probes.len();
    let cross: u64 = (0..n)
        .map(|d| probes[d].groups[chunk_sel[d]].indices.len() as u64)
        .product();
    if cross > chunk.len() as u64 {
        scan_chunk(adt, chunk, probes, chunk_sel, maps, ranks, cube);
    } else {
        probe_chunk(adt, chunk, probes, chunk_sel, maps, ranks, cube);
    }
}

/// The §4.2 scan-direction membership masks for one qualifying chunk:
/// per dimension, which within-chunk coordinates are selected.
pub(crate) fn chunk_membership(
    shape: &Shape,
    probes: &[DimProbe],
    chunk_sel: &[usize],
) -> Vec<Vec<bool>> {
    (0..probes.len())
        .map(|d| {
            let group = &probes[d].groups[chunk_sel[d]];
            let mut member = vec![false; shape.chunk_dims()[d] as usize];
            for &idx in &group.indices {
                member[shape.within_chunk(d, idx) as usize] = true;
            }
            member
        })
        .collect()
}

/// Probes every cross-product element falling in `chunk`, aggregating
/// hits into `cube`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_chunk(
    adt: &OlapArray,
    chunk: &CompressedChunk,
    probes: &[DimProbe],
    chunk_sel: &[usize],
    maps: &[GroupMap],
    ranks: &mut [u32],
    cube: &mut crate::result::ResultCube,
) {
    let shape = adt.array().shape();
    let n = probes.len();
    let lists: Vec<&[u32]> = (0..n)
        .map(|d| probes[d].groups[chunk_sel[d]].indices.as_slice())
        .collect();

    // Odometer over within-chunk index lists; offsets are generated in
    // increasing order, so the compressed probe cursor only moves
    // forward within the chunk.
    let mut pos = vec![0usize; n];
    // prefix[d] = sum of offset contributions of dims 0..=d.
    let mut prefix = vec![0u64; n];
    let contrib = |d: usize, idx: u32| shape.within_chunk(d, idx) as u64 * shape.cell_stride(d);
    for d in 0..n {
        let c = contrib(d, lists[d][0]);
        prefix[d] = if d == 0 { c } else { prefix[d - 1] + c };
    }

    let mut cursor = 0usize; // probe_from resume point
    loop {
        let (hit, next) = chunk.probe_from(prefix[n - 1] as u32, cursor);
        cursor = next;
        if let Some(values) = hit {
            for (g, map) in maps.iter().enumerate() {
                let idx = lists[map.dim][pos[map.dim]];
                ranks[g] = map.i2i[idx as usize];
            }
            cube.add(ranks, values);
        }
        // Advance odometer.
        let mut d = n;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            if pos[d] + 1 < lists[d].len() {
                pos[d] += 1;
                for p in pos.iter_mut().take(n).skip(d + 1) {
                    *p = 0;
                }
                for dd in d..n {
                    let c = contrib(dd, lists[dd][pos[dd]]);
                    prefix[dd] = if dd == 0 { c } else { prefix[dd - 1] + c };
                }
                break;
            }
            pos[d] = 0;
        }
    }
}

/// Scan-direction evaluation for one chunk: iterate its valid cells and
/// keep those whose every coordinate is selected. Used when the
/// cross-product outnumbers the valid cells.
#[allow(clippy::too_many_arguments)]
fn scan_chunk(
    adt: &OlapArray,
    chunk: &CompressedChunk,
    probes: &[DimProbe],
    chunk_sel: &[usize],
    maps: &[GroupMap],
    ranks: &mut [u32],
    cube: &mut crate::result::ResultCube,
) {
    let shape = adt.array().shape();
    // Per-dimension membership over within-chunk coordinates, plus the
    // chunk's base coordinate for IndexToIndex lookups.
    let selected = chunk_membership(shape, probes, chunk_sel);
    let base: Vec<u32> = (0..probes.len())
        .map(|d| probes[d].groups[chunk_sel[d]].chunk_coord * shape.chunk_dims()[d])
        .collect();
    let within = |d: usize, offset: u32| {
        (offset as u64 / shape.cell_stride(d)) as u32 % shape.chunk_dims()[d]
    };
    for (offset, values) in chunk.iter() {
        if (0..selected.len()).any(|d| !selected[d][within(d, offset) as usize]) {
            continue;
        }
        for (g, map) in maps.iter().enumerate() {
            ranks[g] = map.i2i[(base[map.dim] + within(map.dim, offset)) as usize];
        }
        cube.add(ranks, values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggValue;
    use crate::dimension::DimensionTable;
    use crate::query::{DimGrouping, Selection};
    use crate::result::Row;
    use molap_array::ChunkFormat;
    use molap_storage::{BufferPool, MemDisk};
    use std::sync::Arc;

    fn build() -> OlapArray {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 4096));
        // 6×6 cube, 3×2 chunks; store attr = key % 3, product attr = key % 2.
        let dims = vec![
            DimensionTable::build(
                "store",
                &[0, 1, 2, 3, 4, 5],
                vec![("s1", vec![0, 1, 2, 0, 1, 2])],
            )
            .unwrap(),
            DimensionTable::build(
                "product",
                &[0, 1, 2, 3, 4, 5],
                vec![("p1", vec![0, 1, 0, 1, 0, 1])],
            )
            .unwrap(),
        ];
        // Every cell valid: value = 10*x + y.
        let mut cells = Vec::new();
        for x in 0..6i64 {
            for y in 0..6i64 {
                cells.push((vec![x, y], vec![10 * x + y]));
            }
        }
        OlapArray::build(pool, dims, &[3, 2], ChunkFormat::ChunkOffset, cells, 1).unwrap()
    }

    fn naive(
        sel: impl Fn(i64, i64) -> bool,
        group: impl Fn(i64, i64) -> Vec<i64>,
    ) -> Vec<(Vec<i64>, i64)> {
        let mut map = std::collections::BTreeMap::new();
        for x in 0..6i64 {
            for y in 0..6i64 {
                if sel(x, y) {
                    *map.entry(group(x, y)).or_insert(0) += 10 * x + y;
                }
            }
        }
        map.into_iter().collect()
    }

    fn rows_of(res: &ConsolidationResult) -> Vec<(Vec<i64>, i64)> {
        res.rows()
            .iter()
            .map(|r| (r.keys.clone(), r.values[0].as_int().unwrap()))
            .collect()
    }

    #[test]
    fn selection_on_one_dimension() {
        let adt = build();
        // WHERE s1 = 1 GROUP BY s1, p1.
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)])
            .with_selection(0, Selection::eq(AttrRef::Level(0), 1));
        let res = adt.consolidate(&q).unwrap();
        let expect = naive(|x, _| x % 3 == 1, |x, y| vec![x % 3, y % 2]);
        assert_eq!(rows_of(&res), expect);
    }

    #[test]
    fn selection_on_both_dimensions() {
        let adt = build();
        // WHERE s1 = 2 AND p1 = 0, global sum.
        let q = Query::new(vec![DimGrouping::Drop, DimGrouping::Drop])
            .with_selection(0, Selection::eq(AttrRef::Level(0), 2))
            .with_selection(1, Selection::eq(AttrRef::Level(0), 0));
        let res = adt.consolidate(&q).unwrap();
        let expect: i64 = naive(|x, y| x % 3 == 2 && y % 2 == 0, |_, _| vec![])
            .into_iter()
            .map(|(_, v)| v)
            .sum();
        assert_eq!(
            res.rows(),
            &[Row {
                keys: vec![],
                values: vec![AggValue::Int(expect)]
            }]
        );
    }

    #[test]
    fn in_list_unions_index_lists() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop])
            .with_selection(0, Selection::in_list(AttrRef::Level(0), vec![0, 2]));
        let res = adt.consolidate(&q).unwrap();
        let expect = naive(|x, _| x % 3 != 1, |x, _| vec![x % 3]);
        assert_eq!(rows_of(&res), expect);
    }

    #[test]
    fn conjunction_on_same_dimension_intersects() {
        let adt = build();
        // s1 IN (0,1) AND key IN (0,1,2,3): keys {0,1,3,4} ∩ {0,1,2,3} = {0,1,3}.
        let q = Query::new(vec![DimGrouping::Key, DimGrouping::Drop])
            .with_selection(0, Selection::in_list(AttrRef::Level(0), vec![0, 1]))
            .with_selection(0, Selection::in_list(AttrRef::Key, vec![0, 1, 2, 3]));
        let res = adt.consolidate(&q).unwrap();
        assert_eq!(
            res.rows().iter().map(|r| r.keys[0]).collect::<Vec<_>>(),
            vec![0, 1, 3]
        );
    }

    #[test]
    fn empty_selection_yields_empty_result() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop])
            .with_selection(0, Selection::eq(AttrRef::Level(0), 99));
        let res = adt.consolidate(&q).unwrap();
        assert!(res.rows().is_empty());
    }

    #[test]
    fn selection_by_key() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Key, DimGrouping::Key])
            .with_selection(0, Selection::eq(AttrRef::Key, 4))
            .with_selection(1, Selection::eq(AttrRef::Key, 3));
        let res = adt.consolidate(&q).unwrap();
        assert_eq!(
            res.rows(),
            &[Row {
                keys: vec![4, 3],
                values: vec![AggValue::Int(43)]
            }]
        );
    }

    #[test]
    fn untouched_chunks_are_not_read() {
        let adt = build();
        let pool = adt.pool().clone();
        pool.clear().unwrap();
        let before = pool.stats().snapshot();
        // Selecting store keys 0..2, product keys 0..1 touches only
        // chunk (0,0) of the 2×3 chunk grid.
        let q = Query::new(vec![DimGrouping::Drop, DimGrouping::Drop])
            .with_selection(0, Selection::in_list(AttrRef::Key, vec![0, 1, 2]))
            .with_selection(1, Selection::in_list(AttrRef::Key, vec![0, 1]));
        let res = adt.consolidate(&q).unwrap();
        assert_eq!(res.total(), 1 + 10 + 11 + 20 + 21);
        let delta = pool.stats().snapshot().since(&before);
        // 36 cells * 12B = one page per chunk; 6 chunks total but only
        // 1 may be fetched (plus B-tree + i2i pages).
        assert!(
            delta.physical_reads < 6,
            "expected a small read count, got {delta:?}"
        );
    }

    #[test]
    fn sparse_cells_probe_misses() {
        // Only diagonal cells are valid; selection covers a row.
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2048));
        let dims = vec![
            DimensionTable::build("a", &[0, 1, 2, 3], vec![("h", vec![0, 0, 1, 1])]).unwrap(),
            DimensionTable::build("b", &[0, 1, 2, 3], vec![("h", vec![0, 1, 0, 1])]).unwrap(),
        ];
        let cells: Vec<(Vec<i64>, Vec<i64>)> =
            (0..4i64).map(|i| (vec![i, i], vec![1 << i])).collect();
        let adt =
            OlapArray::build(pool, dims, &[2, 2], ChunkFormat::ChunkOffset, cells, 1).unwrap();
        // WHERE a.h = 0 (keys 0,1): hits diagonal cells (0,0) and (1,1).
        let q = Query::new(vec![DimGrouping::Drop, DimGrouping::Drop])
            .with_selection(0, Selection::eq(AttrRef::Level(0), 0));
        let res = adt.consolidate(&q).unwrap();
        assert_eq!(res.total(), 3);
    }

    #[test]
    fn scan_direction_matches_probe_direction() {
        // Sparse cube (12% dense) with a broad selection: the
        // cross-product per chunk exceeds the valid cells, forcing the
        // scan direction; a narrow selection forces the probe
        // direction. Both must match the naive answer.
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 4096));
        let dims = vec![
            DimensionTable::build(
                "a",
                &(0..12i64).collect::<Vec<_>>(),
                vec![("h", (0..12i64).map(|k| k % 3).collect())],
            )
            .unwrap(),
            DimensionTable::build(
                "b",
                &(0..12i64).collect::<Vec<_>>(),
                vec![("h", (0..12i64).map(|k| k % 4).collect())],
            )
            .unwrap(),
        ];
        let mut cells = Vec::new();
        for x in 0..12i64 {
            for y in 0..12i64 {
                if (x * 7 + y * 5) % 8 == 0 {
                    cells.push((vec![x, y], vec![x * 100 + y]));
                }
            }
        }
        let adt = OlapArray::build(
            pool,
            dims,
            &[6, 6],
            ChunkFormat::ChunkOffset,
            cells.clone(),
            1,
        )
        .unwrap();

        let naive_sum = |f: &dyn Fn(i64, i64) -> bool| -> i64 {
            cells
                .iter()
                .filter(|(k, _)| f(k[0], k[1]))
                .map(|(_, m)| m[0])
                .sum()
        };

        // Broad: a.h IN (0,1) — 8 of 12 indices per chunk slab; the
        // cross product (8×6=48) exceeds any chunk's valid cells.
        let broad = Query::new(vec![DimGrouping::Drop, DimGrouping::Drop])
            .with_selection(0, Selection::in_list(AttrRef::Level(0), vec![0, 1]));
        assert_eq!(
            adt.consolidate(&broad).unwrap().total(),
            naive_sum(&|x, _| x % 3 != 2)
        );

        // Narrow: single keys — probe direction.
        let narrow = Query::new(vec![DimGrouping::Drop, DimGrouping::Drop])
            .with_selection(0, Selection::eq(AttrRef::Key, 7))
            .with_selection(1, Selection::in_list(AttrRef::Key, vec![1, 9]));
        assert_eq!(
            adt.consolidate(&narrow).unwrap().total(),
            naive_sum(&|x, y| x == 7 && (y == 1 || y == 9))
        );
    }

    #[test]
    fn works_on_every_chunk_format() {
        for format in ChunkFormat::ALL {
            let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2048));
            let dims =
                vec![DimensionTable::build("a", &[0, 1, 2], vec![("h", vec![0, 1, 0])]).unwrap()];
            let cells: Vec<(Vec<i64>, Vec<i64>)> =
                (0..3i64).map(|i| (vec![i], vec![i + 1])).collect();
            let adt = OlapArray::build(pool, dims, &[2], format, cells, 1).unwrap();
            let q = Query::new(vec![DimGrouping::Drop])
                .with_selection(0, Selection::eq(AttrRef::Level(0), 0));
            assert_eq!(adt.consolidate(&q).unwrap().total(), 1 + 3, "{format:?}");
        }
    }
}
