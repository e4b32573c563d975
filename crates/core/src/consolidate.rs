//! The OLAP Array consolidation algorithm (§4.1).
//!
//! Phase 1 loads the IndexToIndex arrays of the grouped dimensions.
//! Phase 2 scans the input array once; each valid cell's indices are
//! mapped through the IndexToIndex arrays to the result cell, and the
//! measure is aggregated there — star join and aggregation fused into
//! one position-based pass.

use crate::adt::OlapArray;
use crate::error::Result;
use crate::query::{DimGrouping, Query};
use crate::result::{ConsolidationResult, GroupedDim, ResultCube};

/// Phase-1 output for one grouped dimension.
pub(crate) struct GroupMap {
    /// Source dimension index.
    pub dim: usize,
    /// Array index → group rank.
    pub i2i: Vec<u32>,
    /// Rank → group code (ascending).
    pub codes: Vec<i64>,
    /// Result column header.
    pub column: String,
}

/// Phase 1 (§4.1): for each grouped dimension, load its IndexToIndex
/// array and the group codes its ranks stand for. The paper's phase 1
/// also builds the result object's B-trees; a result that becomes an
/// ADT gets them from [`OlapArray::build`] when
/// [`OlapArray::consolidate_to_array`] materializes it, and a result
/// consumed as rows never reads them.
pub(crate) fn phase1(adt: &OlapArray, query: &Query) -> Result<Vec<GroupMap>> {
    let mut maps = Vec::new();
    for (d, grouping) in query.group_by.iter().enumerate() {
        let dim = &adt.dims()[d];
        let (i2i, codes, column) = match grouping {
            DimGrouping::Drop => continue,
            DimGrouping::Key => {
                let (i2i, codes) = adt.key_i2i(d);
                (i2i, codes, format!("{}.key", dim.name()))
            }
            DimGrouping::Level(l) => {
                let i2i = adt.load_i2i(d, *l)?;
                let codes = adt.dim_indexes(d).level_codes[*l].clone();
                let name = dim.level_name(*l).unwrap_or("?");
                (i2i, codes, format!("{}.{}", dim.name(), name))
            }
        };
        maps.push(GroupMap {
            dim: d,
            i2i,
            codes,
            column,
        });
    }
    Ok(maps)
}

/// Builds the empty result cube for a set of group maps.
pub(crate) fn make_cube(maps: &[GroupMap], n_measures: usize) -> ResultCube {
    let dims = maps
        .iter()
        .map(|m| GroupedDim {
            dim: m.dim,
            column: m.column.clone(),
            codes: m.codes.clone(),
        })
        .collect();
    ResultCube::new(dims, n_measures)
}

/// The §4.1 reference algorithm: full consolidation, no selections,
/// one cell at a time on the calling thread, every chunk read under one
/// snapshot. The engine's scans go through
/// [`crate::consolidate_pipelined`].
pub(crate) fn consolidate_full(adt: &OlapArray, query: &Query) -> Result<ConsolidationResult> {
    let maps = phase1(adt, query)?;
    let mut cube = make_cube(&maps, adt.n_measures());

    // Phase 2: one scan of the input array; position-based aggregation.
    let mut ranks = vec![0u32; maps.len()];
    adt.array().for_each_cell(|coords, values| {
        for (g, map) in maps.iter().enumerate() {
            ranks[g] = map.i2i[coords[map.dim] as usize];
        }
        cube.add(&ranks, values);
    })?;

    cube.into_result(&query.aggs)
}

/// Memory-bounded consolidation — the extension §4.1 sketches for
/// results too large for memory: "our algorithm would need to be
/// extended to compute the result OLAP object chunk by chunk, where
/// each chunk fits in memory".
///
/// The result space is partitioned into bands along the first grouped
/// dimension so that each band's dense cube holds at most
/// `max_result_cells` cells (best effort: a single rank's band may
/// exceed the bound if the remaining dimensions alone do). The input
/// array is scanned once per band, every band under the same snapshot,
/// so a commit landing between bands cannot split the answer across
/// generations; rows are emitted band by band. Results are identical
/// to [`consolidate_full`].
pub(crate) fn consolidate_partitioned(
    adt: &OlapArray,
    query: &Query,
    max_result_cells: usize,
) -> Result<ConsolidationResult> {
    let maps = phase1(adt, query)?;
    let snap = adt.array().snapshot();
    if maps.is_empty() {
        // Global aggregate: nothing to partition.
        let mut cube = make_cube(&maps, adt.n_measures());
        adt.array()
            .for_each_cell_at(&snap, |_, values| cube.add(&[], values))?;
        return cube.into_result(&query.aggs);
    }

    let first_card = maps[0].codes.len();
    let rest: usize = maps[1..].iter().map(|m| m.codes.len()).product();
    let band_width = (max_result_cells / rest.max(1)).clamp(1, first_card);

    let columns: Vec<String> = maps.iter().map(|m| m.column.clone()).collect();
    let mut rows: Vec<crate::result::Row> = Vec::new();
    let mut band_start = 0usize;
    let mut ranks = vec![0u32; maps.len()];
    while band_start < first_card {
        let band_end = (band_start + band_width).min(first_card);
        let band_dims: Vec<crate::result::GroupedDim> = maps
            .iter()
            .enumerate()
            .map(|(i, m)| crate::result::GroupedDim {
                dim: m.dim,
                column: m.column.clone(),
                codes: if i == 0 {
                    m.codes[band_start..band_end].to_vec()
                } else {
                    m.codes.clone()
                },
            })
            .collect();
        let mut cube = crate::result::ResultCube::new(band_dims, adt.n_measures());
        adt.array().for_each_cell_at(&snap, |coords, values| {
            let first_rank = maps[0].i2i[coords[maps[0].dim] as usize] as usize;
            if first_rank < band_start || first_rank >= band_end {
                return;
            }
            ranks[0] = (first_rank - band_start) as u32;
            for (g, map) in maps.iter().enumerate().skip(1) {
                ranks[g] = map.i2i[coords[map.dim] as usize];
            }
            cube.add(&ranks, values);
        })?;
        rows.extend(cube.into_result(&query.aggs)?.rows().iter().cloned());
        band_start = band_end;
    }
    Ok(ConsolidationResult::from_rows(columns, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggFunc, AggValue};
    use crate::dimension::DimensionTable;
    use crate::query::Query;
    use crate::result::Row;
    use molap_array::ChunkFormat;
    use molap_storage::{BufferPool, MemDisk};
    use std::sync::Arc;

    fn build() -> OlapArray {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2048));
        let dims = vec![
            DimensionTable::build(
                "store",
                &[0, 1, 2, 3],
                vec![("city", vec![10, 10, 11, 12]), ("region", vec![5, 5, 5, 6])],
            )
            .unwrap(),
            DimensionTable::build("product", &[0, 1, 2], vec![("type", vec![7, 8, 7])]).unwrap(),
        ];
        let cells = vec![
            (vec![0, 0], vec![1]),
            (vec![0, 1], vec![2]),
            (vec![1, 0], vec![4]),
            (vec![2, 2], vec![8]),
            (vec![3, 1], vec![16]),
            (vec![3, 2], vec![32]),
        ];
        OlapArray::build(pool, dims, &[2, 2], ChunkFormat::ChunkOffset, cells, 1).unwrap()
    }

    #[test]
    fn group_by_one_level() {
        let adt = build();
        // SELECT region, SUM(v) GROUP BY region.
        let q = Query::new(vec![DimGrouping::Level(1), DimGrouping::Drop]);
        let res = adt.consolidate(&q).unwrap();
        assert_eq!(res.columns(), &["store.region".to_string()]);
        assert_eq!(
            res.rows(),
            &[
                Row {
                    keys: vec![5],
                    values: vec![AggValue::Int(1 + 2 + 4 + 8)]
                },
                Row {
                    keys: vec![6],
                    values: vec![AggValue::Int(16 + 32)]
                },
            ]
        );
    }

    #[test]
    fn group_by_two_dimensions() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]);
        let res = adt.consolidate(&q).unwrap();
        assert_eq!(
            res.columns(),
            &["store.city".to_string(), "product.type".to_string()]
        );
        // city 10: cells (0,0)=1 t7, (0,1)=2 t8, (1,0)=4 t7
        // city 11: (2,2)=8 t7 ; city 12: (3,1)=16 t8, (3,2)=32 t7
        assert_eq!(
            res.rows(),
            &[
                Row {
                    keys: vec![10, 7],
                    values: vec![AggValue::Int(5)]
                },
                Row {
                    keys: vec![10, 8],
                    values: vec![AggValue::Int(2)]
                },
                Row {
                    keys: vec![11, 7],
                    values: vec![AggValue::Int(8)]
                },
                Row {
                    keys: vec![12, 7],
                    values: vec![AggValue::Int(32)]
                },
                Row {
                    keys: vec![12, 8],
                    values: vec![AggValue::Int(16)]
                },
            ]
        );
    }

    #[test]
    fn global_aggregate_when_all_dropped() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Drop, DimGrouping::Drop]);
        let res = adt.consolidate(&q).unwrap();
        assert_eq!(res.rows().len(), 1);
        assert_eq!(res.rows()[0].keys, Vec::<i64>::new());
        assert_eq!(res.rows()[0].values, vec![AggValue::Int(63)]);
    }

    #[test]
    fn group_by_key_is_finest() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Key, DimGrouping::Drop]);
        let res = adt.consolidate(&q).unwrap();
        assert_eq!(res.columns(), &["store.key".to_string()]);
        assert_eq!(
            res.rows()
                .iter()
                .map(|r| (r.keys[0], r.values[0]))
                .collect::<Vec<_>>(),
            vec![
                (0, AggValue::Int(3)),
                (1, AggValue::Int(4)),
                (2, AggValue::Int(8)),
                (3, AggValue::Int(48)),
            ]
        );
    }

    #[test]
    fn non_sum_aggregates() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Level(1), DimGrouping::Drop])
            .with_aggs(vec![AggFunc::Max]);
        let res = adt.consolidate(&q).unwrap();
        assert_eq!(
            res.rows().iter().map(|r| r.values[0]).collect::<Vec<_>>(),
            vec![AggValue::Int(8), AggValue::Int(32)]
        );
        let q = Query::new(vec![DimGrouping::Level(1), DimGrouping::Drop])
            .with_aggs(vec![AggFunc::Avg]);
        let res = adt.consolidate(&q).unwrap();
        assert_eq!(
            res.rows()[0].values[0],
            AggValue::Ratio { sum: 15, count: 4 }
        );
    }

    #[test]
    fn partitioned_matches_full_at_every_budget() {
        let adt = build();
        for group_by in [
            vec![DimGrouping::Level(0), DimGrouping::Level(0)],
            vec![DimGrouping::Key, DimGrouping::Level(0)],
            vec![DimGrouping::Drop, DimGrouping::Level(0)],
            vec![DimGrouping::Drop, DimGrouping::Drop],
        ] {
            let q = Query::new(group_by);
            let full = consolidate_full(&adt, &q).unwrap();
            for budget in [1usize, 2, 3, 7, 100, 100_000] {
                let part = consolidate_partitioned(&adt, &q, budget).unwrap();
                assert_eq!(part, full, "budget {budget}, {q:?}");
            }
        }
    }

    #[test]
    fn invalid_queries_rejected() {
        let adt = build();
        assert!(adt
            .consolidate(&Query::new(vec![DimGrouping::Drop]))
            .is_err());
        assert!(adt
            .consolidate(&Query::new(vec![DimGrouping::Level(9), DimGrouping::Drop]))
            .is_err());
    }
}
