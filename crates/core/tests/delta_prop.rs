//! Property test for write-time delta maintenance of cached result
//! cubes: after any batch of cell writes, a query answered from a
//! patched cached cube must be bit-identical to recomputing from
//! scratch — across SUM/COUNT/AVG/MIN/MAX, with and without
//! selections, including the MIN/MAX shrinking-extreme path where the
//! cache entry is dropped and the answer recomputed.

use std::sync::Arc;

use molap_array::ChunkFormat;
use molap_core::{
    apply_batch, consolidate_auto, AggFunc, AttrRef, DimGrouping, DimensionTable, OlapArray, Query,
    Selection, WriteBatch,
};
use molap_storage::{BufferPool, MemDisk};
use proptest::prelude::*;

/// One random cube, a query shape, and two successive write batches
/// (the second patches cubes the first already patched).
#[derive(Debug, Clone)]
struct Case {
    /// Per-dimension: (key count, level-0 block).
    dims: Vec<(i64, i64)>,
    chunk: Vec<u32>,
    format: ChunkFormat,
    group: Vec<DimGrouping>,
    /// Level-0 code for the selection variant of every query.
    sel_value: i64,
    writes: Vec<(Vec<i64>, i64)>,
    writes2: Vec<(Vec<i64>, i64)>,
    seed: u64,
}

/// Deterministic cell hash: drives both validity and measure values.
fn cell_hash(seed: u64, keys: &[i64]) -> i64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &k in keys {
        h = (h ^ k as u64).wrapping_mul(0x0100_0000_01B3);
        h ^= h >> 29;
    }
    (h >> 16) as i64 % 997 - 400
}

fn build_adt(case: &Case) -> OlapArray {
    let dims: Vec<DimensionTable> = case
        .dims
        .iter()
        .enumerate()
        .map(|(d, &(n, b))| {
            let keys: Vec<i64> = (0..n).collect();
            let l0: Vec<i64> = keys.iter().map(|k| k / b).collect();
            DimensionTable::build(&format!("dim{d}"), &keys, vec![("h1", l0)]).unwrap()
        })
        .collect();
    let sizes: Vec<i64> = case.dims.iter().map(|&(n, _)| n).collect();
    let mut cells: Vec<(Vec<i64>, Vec<i64>)> = Vec::new();
    let mut coords = vec![0i64; sizes.len()];
    loop {
        let h = cell_hash(case.seed, &coords);
        if h.rem_euclid(4) != 0 {
            cells.push((coords.clone(), vec![h]));
        }
        let mut d = sizes.len();
        let mut done = true;
        while d > 0 {
            d -= 1;
            if coords[d] + 1 < sizes[d] {
                coords[d] += 1;
                coords.iter_mut().skip(d + 1).for_each(|c| *c = 0);
                done = false;
                break;
            }
        }
        if done {
            break;
        }
    }
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2048));
    OlapArray::build(pool, dims, &case.chunk, case.format, cells, 1).unwrap()
}

/// (size, level block, chunk, grouping selector) per dimension.
type DimSpec = (i64, i64, u32, u8);
type RawWrite = (Vec<u64>, i64);

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec((4i64..12, 2i64..4, 1u32..5, 0u8..3), 2..4),
        0..ChunkFormat::ALL.len(),
        proptest::collection::vec((proptest::collection::vec(0u64..64, 3), -400i64..400), 1..8),
        proptest::collection::vec((proptest::collection::vec(0u64..64, 3), -400i64..400), 1..8),
        any::<u64>(),
        0i64..8,
    )
        .prop_map(
            |(dims, fmt, w1, w2, seed, sel_raw): (
                Vec<DimSpec>,
                usize,
                Vec<RawWrite>,
                Vec<RawWrite>,
                u64,
                i64,
            )| {
                let format = ChunkFormat::ALL[fmt];
                let mut spec = Vec::new();
                let mut chunk = Vec::new();
                let mut group = Vec::new();
                for &(n, b, ch, g) in &dims {
                    spec.push((n, b));
                    chunk.push(ch.min(n as u32));
                    group.push(match g {
                        0 => DimGrouping::Key,
                        1 => DimGrouping::Level(0),
                        _ => DimGrouping::Drop,
                    });
                }
                let sel_value = sel_raw % (spec[0].0 / spec[0].1 + 1);
                let map_writes = |w: Vec<RawWrite>| -> Vec<(Vec<i64>, i64)> {
                    w.into_iter()
                        .map(|(raw, v)| {
                            let keys: Vec<i64> = spec
                                .iter()
                                .enumerate()
                                .map(|(d, &(n, _))| (raw[d] % n as u64) as i64)
                                .collect();
                            (keys, v)
                        })
                        .collect()
                };
                let writes = map_writes(w1);
                let writes2 = map_writes(w2);
                Case {
                    dims: spec,
                    chunk,
                    format,
                    group,
                    sel_value,
                    writes,
                    writes2,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Warm the cache under every aggregate (with and without a
    /// selection), commit two successive random batches, and require
    /// every post-write answer — patched cube or recompute fallback —
    /// to be bit-identical to the sequential, uncached oracle.
    #[test]
    fn delta_maintained_cubes_match_scratch_recompute(case in case_strategy()) {
        let mut adt = build_adt(&case);
        let aggs = [AggFunc::Sum, AggFunc::Count, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
        let queries: Vec<Query> = aggs
            .iter()
            .flat_map(|&agg| {
                let base = Query::new(case.group.clone()).with_aggs(vec![agg]);
                let mut selected = base.clone();
                selected.selections[0] =
                    vec![Selection::eq(AttrRef::Level(0), case.sel_value)];
                [base, selected]
            })
            .collect();
        for q in &queries {
            let got = consolidate_auto(&adt, q).unwrap();
            prop_assert_eq!(&got, &adt.consolidate(q).unwrap(), "warm-up diverged: {:?}", q);
        }
        for rows in [&case.writes, &case.writes2] {
            let mut batch = WriteBatch::new();
            for (keys, v) in rows {
                batch.set(keys, &[*v]);
            }
            apply_batch(&mut adt, &batch).unwrap();
            for q in &queries {
                let cached = consolidate_auto(&adt, q).unwrap();
                let scratch = adt.consolidate(q).unwrap();
                prop_assert_eq!(&cached, &scratch,
                    "delta-maintained answer diverged after {:?}: {:?}", rows, q);
            }
        }
        // The write path kept its books: every batch and cell counted.
        let s = adt.pool().stats().snapshot();
        prop_assert_eq!(s.write_batches, 2);
        prop_assert!(s.write_cells >= 2, "two non-empty batches committed");
    }
}
