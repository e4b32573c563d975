//! Property tests for the PR 10 selection planner: HBI-routed
//! selections must be bit-identical to the B-tree index path and to an
//! independent full-scan oracle over the generated cells, across all
//! five aggregates, all three chunk formats, and both §4.2 evaluation
//! directions (wide selections force the scan direction, narrow ones
//! the probe direction).

use std::collections::BTreeMap;
use std::sync::Arc;

use molap_array::ChunkFormat;
use molap_core::{
    AggFunc, AggValue, AttrRef, DimGrouping, DimensionTable, OlapArray, PlannerMode, Pred, Query,
    Row, Selection,
};
use molap_storage::{BufferPool, MemDisk};
use proptest::prelude::*;

const AGGS: [AggFunc; 5] = [
    AggFunc::Sum,
    AggFunc::Count,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Avg,
];

/// One generated cube plus a selection query. `wide` selections route
/// to the HBI under `Auto` and (cross-product > valid cells) drive the
/// scan direction; narrow ones stay on the B-tree and probe.
#[derive(Debug, Clone)]
struct Case {
    /// Per-dimension: (key count, level-0 block).
    dims: Vec<(i64, i64)>,
    chunk: Vec<u32>,
    format: ChunkFormat,
    group_by: Vec<DimGrouping>,
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

fn build_cells(case: &Case) -> Vec<(Vec<i64>, Vec<i64>)> {
    let sizes: Vec<i64> = case.dims.iter().map(|&(n, _)| n).collect();
    let mut cells = Vec::new();
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
    cells
}

fn build_adt(case: &Case, cells: Vec<(Vec<i64>, Vec<i64>)>) -> OlapArray {
    let dims: Vec<DimensionTable> = case
        .dims
        .iter()
        .enumerate()
        .map(|(d, &(n, b0))| {
            let keys: Vec<i64> = (0..n).collect();
            let l0: Vec<i64> = keys.iter().map(|k| k / b0).collect();
            DimensionTable::build(&format!("dim{d}"), &keys, vec![("h", l0)]).unwrap()
        })
        .collect();
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2048));
    OlapArray::build(pool, dims, &case.chunk, case.format, cells, 1).unwrap()
}

/// Applies the query's selections to one cell, dimension by dimension.
fn accepted(case: &Case, sels: &[Vec<Selection>], keys: &[i64]) -> bool {
    for (d, dim_sels) in sels.iter().enumerate() {
        let (_, b0) = case.dims[d];
        for sel in dim_sels {
            let v = match sel.attr {
                AttrRef::Key => keys[d],
                AttrRef::Level(_) => keys[d] / b0,
            };
            if !sel.pred.accepts(v) {
                return false;
            }
        }
    }
    true
}

/// The full-scan oracle: aggregate the generated cells directly,
/// without touching the array, its indexes, or the planner.
fn oracle(
    case: &Case,
    cells: &[(Vec<i64>, Vec<i64>)],
    group_by: &[DimGrouping],
    sels: &[Vec<Selection>],
    agg: AggFunc,
) -> Vec<Row> {
    let mut groups: BTreeMap<Vec<i64>, (i64, u64, i64, i64)> = BTreeMap::new();
    for (keys, measures) in cells {
        if !accepted(case, sels, keys) {
            continue;
        }
        let mut gk = Vec::new();
        for (d, g) in group_by.iter().enumerate() {
            match g {
                DimGrouping::Key => gk.push(keys[d]),
                DimGrouping::Level(_) => gk.push(keys[d] / case.dims[d].1),
                DimGrouping::Drop => {}
            }
        }
        let m = measures[0];
        let e = groups.entry(gk).or_insert((0, 0, i64::MAX, i64::MIN));
        e.0 += m;
        e.1 += 1;
        e.2 = e.2.min(m);
        e.3 = e.3.max(m);
    }
    groups
        .into_iter()
        .map(|(keys, (sum, count, min, max))| Row {
            keys,
            values: vec![match agg {
                AggFunc::Sum => AggValue::Int(sum),
                AggFunc::Count => AggValue::Int(count as i64),
                AggFunc::Min => AggValue::Int(min),
                AggFunc::Max => AggValue::Int(max),
                AggFunc::Avg => AggValue::Ratio { sum, count },
            }],
        })
        .collect()
}

/// (size, level block, chunk, selection kind, selection value) per dim.
type DimSpec = (i64, i64, u32, u8, i64);

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec((10i64..24, 2i64..4, 2u32..8, 0u8..5, 0i64..20), 2..4),
        0..ChunkFormat::ALL.len(),
        any::<u64>(),
    )
        .prop_map(|(dims, fmt, seed): (Vec<DimSpec>, usize, u64)| {
            let format = ChunkFormat::ALL[fmt];
            let mut spec = Vec::new();
            let mut chunk = Vec::new();
            let mut group_by = Vec::new();
            let mut selections = Vec::new();
            for (n, b0, ch, sk, sv) in dims {
                spec.push((n, b0));
                chunk.push(ch.min(n as u32).max(1));
                group_by.push(if sk % 2 == 0 {
                    DimGrouping::Key
                } else {
                    DimGrouping::Level(0)
                });
                let sv = sv % n;
                let sels = match sk {
                    0 => Vec::new(),
                    // Narrow shapes: the planner keeps them on the
                    // B-tree; small cross-products probe.
                    1 => vec![Selection::eq(AttrRef::Key, sv)],
                    2 => vec![Selection::range(AttrRef::Key, sv, sv + 3)],
                    // Wide shapes: HBI-routed under Auto; large
                    // cross-products force the scan direction.
                    3 => vec![Selection::range(AttrRef::Key, 0, sv + 9)],
                    _ => vec![Selection::in_list(
                        AttrRef::Key,
                        (0..n).filter(|k| (k + sv) % 3 != 0).collect(),
                    )],
                };
                selections.push(sels);
            }
            Case {
                dims: spec,
                chunk,
                format,
                group_by,
                selections,
                seed,
            }
        })
}

fn query(case: &Case, agg: AggFunc) -> Query {
    let mut q = Query::new(case.group_by.clone()).with_aggs(vec![agg]);
    q.selections = case.selections.clone();
    q
}

/// True when some selection is wide enough for `Auto` to route it to
/// the HBI. Mirrors the planner's shape thresholds in the small-
/// dimension regime these cases generate (≤ 24 distinct values, where
/// both fraction-scaled thresholds bottom out at their floor of 8).
fn has_wide_shape(case: &Case) -> bool {
    case.selections.iter().flatten().any(|s| match &s.pred {
        Pred::In(values) => values.len() >= 8,
        Pred::Range { lo, hi } => hi - lo >= 7,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every aggregate, the three planner modes agree with each
    /// other and with the full-scan oracle, bit for bit.
    #[test]
    fn hbi_routing_is_bit_identical_to_btree_and_oracle(case in case_strategy()) {
        let cells = build_cells(&case);
        let adt = build_adt(&case, cells.clone());
        for agg in AGGS {
            let q = query(&case, agg);
            adt.set_planner_mode(PlannerMode::ForceBtree);
            let btree = adt.consolidate(&q).unwrap();
            adt.set_planner_mode(PlannerMode::ForceHbi);
            let hbi = adt.consolidate(&q).unwrap();
            adt.set_planner_mode(PlannerMode::Auto);
            let auto = adt.consolidate(&q).unwrap();
            prop_assert_eq!(&hbi, &btree, "HBI vs B-tree diverged under {:?}", agg);
            prop_assert_eq!(&auto, &btree, "Auto vs B-tree diverged under {:?}", agg);
            prop_assert_eq!(
                btree.rows(),
                &oracle(&case, &cells, &case.group_by, &case.selections, agg)[..],
                "planner paths diverged from the full-scan oracle under {:?}", agg
            );
        }
    }

    /// The final index lists themselves agree between the forced modes,
    /// and `Auto` actually routes wide shapes through the HBI (the
    /// telemetry counters prove which path ran).
    #[test]
    fn planner_routes_by_shape_and_lists_agree(case in case_strategy()) {
        let cells = build_cells(&case);
        let adt = build_adt(&case, cells);
        let q = query(&case, AggFunc::Sum);
        for d in 0..case.dims.len() {
            adt.set_planner_mode(PlannerMode::ForceBtree);
            let via_btree = adt.selection_index_list(&q, d).unwrap();
            adt.set_planner_mode(PlannerMode::ForceHbi);
            let via_hbi = adt.selection_index_list(&q, d).unwrap();
            prop_assert_eq!(via_btree, via_hbi, "index lists diverged on dim {}", d);
        }
        adt.set_planner_mode(PlannerMode::Auto);
        let stats = adt.pool().stats();
        let before = stats.snapshot();
        for d in 0..case.dims.len() {
            adt.selection_index_list(&q, d).unwrap();
        }
        let delta = stats.snapshot().since(&before);
        if has_wide_shape(&case) {
            prop_assert!(delta.planner_hbi > 0, "wide shape never routed to the HBI");
            prop_assert!(delta.hbi_probes > 0, "HBI route must probe the index");
        } else {
            prop_assert_eq!(delta.planner_hbi, 0, "narrow shapes must stay on the B-tree");
        }
    }
}
