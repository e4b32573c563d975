//! The OLAP Array consolidation algorithm (§4.1).
//!
//! Phase 1 scans the dimension tables, probes the key B-trees, loads
//! the IndexToIndex arrays, and builds the result object's B-trees.
//! Phase 2 scans the input array once; each valid cell's indices are
//! mapped through the IndexToIndex arrays to the result cell, and the
//! measure is aggregated there — star join and aggregation fused into
//! one position-based pass.

use molap_btree::BTree;

use crate::adt::OlapArray;
use crate::error::{Error, Result};
use crate::query::{DimGrouping, Query};
use crate::result::{ConsolidationResult, GroupedDim, ResultCube};

/// Whether phase 1 should construct the result object's B-trees.
///
/// The §4.1 algorithm builds them so the result ADT supports further
/// value-based lookups — but a query that only produces rows (the SQL
/// path, parallel workers, partitioned bands) discards them unread, and
/// the dimension-table scan + B-tree inserts are pure overhead there.
/// Materialization passes `Yes`; hot row-producing paths pass `No`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BuildResultBtrees {
    /// Construct result B-trees (result will become an ADT).
    Yes,
    /// Skip them (result is consumed as rows).
    No,
}

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
/// array, and build the result OLAP object's B-tree by scanning the
/// dimension table and probing the key B-tree for each row.
///
/// With [`BuildResultBtrees::Yes`], the result B-trees are genuinely
/// constructed (the dimension scans, key-B-tree probes, and B-tree
/// inserts are real work, as in the paper) and returned so callers may
/// hang them off a result ADT. They are built on an ephemeral in-memory
/// pool: allocating them on the input's pool would grow the database
/// file on every query, and the paper's result object is transient
/// unless explicitly materialized. With [`BuildResultBtrees::No`] that
/// whole phase-1 step is skipped and the returned vec is empty.
pub(crate) fn phase1(
    adt: &OlapArray,
    query: &Query,
    build: BuildResultBtrees,
) -> Result<(Vec<GroupMap>, Vec<BTree>)> {
    use molap_storage::{BufferPool, MemDisk};
    use std::sync::Arc;
    let result_pool = match build {
        BuildResultBtrees::Yes => Some(Arc::new(BufferPool::with_bytes(
            Arc::new(MemDisk::new()),
            4 << 20,
        ))),
        BuildResultBtrees::No => None,
    };
    let mut maps = Vec::new();
    let mut result_btrees = Vec::new();
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
        // Build the result B-tree: scan the dimension table, probe the
        // key B-tree for each tuple's array index, insert its group
        // value with the group's result index.
        if let Some(result_pool) = &result_pool {
            let mut result_btree = BTree::create(result_pool.clone())?;
            let key_btree = &adt.dim_indexes(d).key_btree;
            // Loop-invariant: the grouping dispatch and the code-column
            // borrow are the same for every key — hoist them so the
            // per-key loop is probe → remap → insert.
            let key_grouped = matches!(grouping, DimGrouping::Key);
            let codes = codes.as_slice();
            for &key in dim.keys() {
                let idx = key_btree.get(key)?.ok_or_else(|| {
                    Error::Internal(format!("dimension key {key} missing from its key B-tree"))
                })?;
                let rank = i2i[idx as usize];
                let code = if key_grouped {
                    key
                } else {
                    codes[rank as usize]
                };
                result_btree.insert(code, rank as u64)?;
            }
            result_btrees.push(result_btree);
        }
        maps.push(GroupMap {
            dim: d,
            i2i,
            codes,
            column,
        });
    }
    Ok((maps, result_btrees))
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

/// Prefetch-pipeline consumer for the §4.1 full scan: drains `pipe`
/// (shared with any number of peer consumers) and aggregates each
/// delivered chunk into `cube` through its [`ChunkKernel`]. A delivered
/// error is returned as it is; the caller shuts the pipeline down.
///
/// [`ChunkKernel`]: crate::kernel::ChunkKernel
pub(crate) fn full_scan_consumer(
    adt: &OlapArray,
    remap: &crate::kernel::QueryRemap<'_>,
    pipe: &molap_array::ChunkPipeline<'_>,
    cube: &mut ResultCube,
) -> Result<()> {
    use molap_array::diffseq::DiffSeqCursor;
    use molap_array::ChunkPayload;
    let limit = adt.array().shape().chunk_cells() as u32;
    while let Some(item) = pipe.next_payload() {
        let (chunk_no, payload) = item?;
        match payload {
            ChunkPayload::Chunk(chunk) => {
                if chunk.valid_cells() != 0 {
                    remap.kernel(chunk_no, None).apply(&chunk, cube);
                }
            }
            ChunkPayload::DiffSeq(bytes) => {
                let cursor = DiffSeqCursor::new(&bytes, limit)?;
                if !cursor.is_empty() {
                    remap.kernel(chunk_no, None).apply_stream(cursor, cube)?;
                }
            }
        }
    }
    Ok(())
}

/// The §4.1 algorithm: full consolidation, no selections.
pub(crate) fn consolidate_full(adt: &OlapArray, query: &Query) -> Result<ConsolidationResult> {
    let (_, cube) = consolidate_full_cube(adt, query, BuildResultBtrees::No)?;
    cube.into_result(&query.aggs)
}

/// §4.1 core returning the positional result cube (used by the
/// row-producing wrapper and by result materialization).
pub(crate) fn consolidate_full_cube(
    adt: &OlapArray,
    query: &Query,
    build: BuildResultBtrees,
) -> Result<(Vec<GroupMap>, ResultCube)> {
    let (maps, _result_btrees) = phase1(adt, query, build)?;
    let mut cube = make_cube(&maps, adt.n_measures());

    // Phase 2: one scan of the input array; position-based aggregation.
    let mut ranks = vec![0u32; maps.len()];
    adt.array().for_each_cell(|coords, values| {
        for (g, map) in maps.iter().enumerate() {
            ranks[g] = map.i2i[coords[map.dim] as usize];
        }
        cube.add(&ranks, values);
    })?;

    Ok((maps, cube))
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
/// array is scanned once per band; rows are emitted band by band.
/// Results are identical to [`consolidate_full`].
pub(crate) fn consolidate_partitioned(
    adt: &OlapArray,
    query: &Query,
    max_result_cells: usize,
) -> Result<ConsolidationResult> {
    let (maps, _result_btrees) = phase1(adt, query, BuildResultBtrees::No)?;
    if maps.is_empty() {
        // Global aggregate: nothing to partition.
        let mut cube = make_cube(&maps, adt.n_measures());
        adt.array()
            .for_each_cell(|_, values| cube.add(&[], values))?;
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
        adt.array().for_each_cell(|coords, values| {
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
    fn phase1_builds_result_btrees() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Level(1), DimGrouping::Level(0)]);
        let (maps, btrees) = phase1(&adt, &q, BuildResultBtrees::Yes).unwrap();
        assert_eq!(maps.len(), 2);
        assert_eq!(btrees.len(), 2);
        // store.region result B-tree: one entry per dimension row.
        assert_eq!(btrees[0].len(), 4);
        // Probing a group value yields its result index (rank).
        assert_eq!(btrees[0].get(5).unwrap(), Some(0));
        assert_eq!(btrees[0].get(6).unwrap(), Some(1));
        assert_eq!(btrees[1].get(7).unwrap(), Some(0));
    }

    #[test]
    fn phase1_can_skip_result_btrees() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Level(1), DimGrouping::Level(0)]);
        let (maps, btrees) = phase1(&adt, &q, BuildResultBtrees::No).unwrap();
        assert_eq!(maps.len(), 2, "group maps are unaffected by the opt-out");
        assert!(btrees.is_empty());
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
