//! Property tests for the result-cube cache's rollup subsumption:
//! answers derived from a cached finer cube must be bit-identical to a
//! direct (uncached) consolidation, AVG must be answerable from cached
//! SUM+COUNT states, and non-subsumable query pairs must fall back to
//! computation instead of deriving a wrong answer.

use std::sync::Arc;

use molap_array::ChunkFormat;
use molap_core::{
    consolidate_auto, AggFunc, AttrRef, DimGrouping, DimensionTable, OlapArray, Query, Selection,
};
use molap_storage::{BufferPool, IoSnapshot, MemDisk};
use proptest::prelude::*;

/// One randomly generated cube plus a fine/coarse query pair whose
/// coarse side is derivable from the fine side by construction.
#[derive(Debug, Clone)]
struct Case {
    /// Per-dimension: (key count, level-0 block, level-1 block).
    dims: Vec<(i64, i64, i64)>,
    chunk: Vec<u32>,
    format: ChunkFormat,
    fine: Vec<DimGrouping>,
    coarse: Vec<DimGrouping>,
    selections: Vec<Vec<Selection>>,
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

/// Builds dimension tables whose level 1 is a function of level 0
/// (`h2 = h1 / b1`), so Level(0) → Level(1) rollups are always valid.
fn build_dims(spec: &[(i64, i64, i64)]) -> Vec<DimensionTable> {
    spec.iter()
        .enumerate()
        .map(|(d, &(n, b0, b1))| {
            let keys: Vec<i64> = (0..n).collect();
            let l0: Vec<i64> = keys.iter().map(|k| k / b0).collect();
            let l1: Vec<i64> = l0.iter().map(|c| c / b1).collect();
            DimensionTable::build(&format!("dim{d}"), &keys, vec![("h1", l0), ("h2", l1)]).unwrap()
        })
        .collect()
}

fn build_adt(case: &Case) -> OlapArray {
    let dims = build_dims(&case.dims);
    let sizes: Vec<i64> = case.dims.iter().map(|&(n, _, _)| n).collect();
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

fn snapshot(adt: &OlapArray) -> IoSnapshot {
    adt.pool().stats().snapshot()
}

/// (size, b0, b1, chunk, fine selector, coarsen op, selection kind,
/// selection value) per dimension.
type DimSpec = (i64, i64, i64, u32, u8, u8, u8, i64);

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(
            (
                4i64..14,
                2i64..4,
                2i64..3,
                2u32..6,
                0u8..3,
                0u8..3,
                0u8..4,
                0i64..12,
            ),
            2..4,
        ),
        0..ChunkFormat::ALL.len(),
        any::<u64>(),
    )
        .prop_map(|(dims, fmt, seed): (Vec<DimSpec>, usize, u64)| {
            let format = ChunkFormat::ALL[fmt];
            let mut spec = Vec::new();
            let mut chunk = Vec::new();
            let mut fine = Vec::new();
            let mut coarse = Vec::new();
            let mut selections = Vec::new();
            for (n, b0, b1, ch, f, c, sk, sv) in dims {
                spec.push((n, b0, b1));
                chunk.push(ch.min(n as u32).max(1));
                let fine_g = match f {
                    0 => DimGrouping::Key,
                    1 => DimGrouping::Level(0),
                    _ => DimGrouping::Level(1),
                };
                // Coarsening walks the hierarchy one step (Key → h1,
                // h1 → h2, h2 → Drop) or drops the dimension outright;
                // every step is derivable because h2 = f(h1) = g(key).
                let coarse_g = match (c, fine_g) {
                    (0, g) => g,
                    (1, DimGrouping::Key) => DimGrouping::Level(0),
                    (1, DimGrouping::Level(0)) => DimGrouping::Level(1),
                    _ => DimGrouping::Drop,
                };
                fine.push(fine_g);
                coarse.push(coarse_g);
                let sels = match sk {
                    0 => Vec::new(),
                    1 => vec![Selection::eq(AttrRef::Level(0), sv % (n / b0 + 1))],
                    2 => vec![Selection::in_list(AttrRef::Key, vec![sv, sv + 2, sv % 3])],
                    _ => vec![Selection::range(AttrRef::Key, sv, sv + 5)],
                };
                selections.push(sels);
            }
            Case {
                dims: spec,
                chunk,
                format,
                fine,
                coarse,
                selections,
                seed,
            }
        })
}

fn query(group_by: &[DimGrouping], selections: &[Vec<Selection>], agg: AggFunc) -> Query {
    let mut q = Query::new(group_by.to_vec()).with_aggs(vec![agg]);
    q.selections = selections.to_vec();
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Caching a fine cube, then answering a strictly coarser query
    /// from it by rollup, yields results bit-identical to consolidating
    /// the coarse query directly against the array.
    #[test]
    fn derived_results_match_direct_consolidation(case in case_strategy()) {
        let adt = build_adt(&case);
        let q_fine = query(&case.fine, &case.selections, AggFunc::Sum);
        let q_coarse = query(&case.coarse, &case.selections, AggFunc::Sum);

        let got_fine = consolidate_auto(&adt, &q_fine).unwrap();
        prop_assert_eq!(&got_fine, &adt.consolidate(&q_fine).unwrap());

        let before = snapshot(&adt);
        let got_coarse = consolidate_auto(&adt, &q_coarse).unwrap();
        // Bit-identical to the sequential, uncached oracle.
        prop_assert_eq!(&got_coarse, &adt.consolidate(&q_coarse).unwrap());

        let after = snapshot(&adt);
        if q_coarse == q_fine {
            prop_assert!(after.result_cache_hits > before.result_cache_hits,
                "identical repeat must be an exact cache hit");
        } else {
            prop_assert!(after.result_cache_derived > before.result_cache_derived,
                "a strictly coarser query must be derived from the cached fine cube");
        }
    }

    /// AVG is answerable from the cached SUM+COUNT aggregation states:
    /// caching under SUM and re-querying under AVG is an exact hit and
    /// matches a direct AVG consolidation.
    #[test]
    fn avg_is_answered_from_cached_sum_count(case in case_strategy()) {
        let adt = build_adt(&case);
        let q_sum = query(&case.fine, &case.selections, AggFunc::Sum);
        let q_avg = query(&case.fine, &case.selections, AggFunc::Avg);

        consolidate_auto(&adt, &q_sum).unwrap();
        let before = snapshot(&adt);
        let got = consolidate_auto(&adt, &q_avg).unwrap();
        let after = snapshot(&adt);

        prop_assert_eq!(&got, &adt.consolidate(&q_avg).unwrap());
        prop_assert!(after.result_cache_hits > before.result_cache_hits,
            "AVG over the same grouping must hit the SUM+COUNT states");
    }

    /// A pair that is *not* subsumable — finer grouping than the cached
    /// cube, or different selections — must not be derived: it falls
    /// back to computation and still matches the oracle.
    #[test]
    fn non_subsumable_pairs_are_computed_not_derived(
        case in case_strategy(),
        refine_grouping in any::<bool>(),
    ) {
        let adt = build_adt(&case);
        // Force the cached query's first dimension away from Key so a
        // strictly finer probe exists.
        let mut cached_group = case.fine.clone();
        cached_group[0] = DimGrouping::Level(1);
        let q_cached = query(&cached_group, &case.selections, AggFunc::Sum);

        let q_bad = if refine_grouping {
            // Finer on dimension 0: a coarse cube cannot answer it.
            let mut g = cached_group.clone();
            g[0] = DimGrouping::Key;
            query(&g, &case.selections, AggFunc::Sum)
        } else {
            // Same grouping, different selections.
            let mut sels = case.selections.clone();
            sels[0].push(Selection::range(AttrRef::Key, 0, 2));
            query(&cached_group, &sels, AggFunc::Sum)
        };

        consolidate_auto(&adt, &q_cached).unwrap();
        let before = snapshot(&adt);
        let got = consolidate_auto(&adt, &q_bad).unwrap();
        let after = snapshot(&adt);

        prop_assert_eq!(&got, &adt.consolidate(&q_bad).unwrap());
        prop_assert_eq!(after.result_cache_derived, before.result_cache_derived,
            "a non-subsumable query must not be derived from the cache");
        prop_assert!(after.result_cache_misses > before.result_cache_misses);
    }
}
