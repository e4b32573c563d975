//! Result materialization: consolidations that return OLAP arrays.
//!
//! §4.1: "The result of a consolidation operation on an instance of the
//! OLAP Array ADT is another instance of the OLAP Array ADT." The
//! row-producing [`OlapArray::consolidate`] is what the benchmark
//! harness compares across engines; this module closes the ADT loop:
//! [`OlapArray::consolidate_to_array`] builds a full result *array* —
//! its own dimension tables (one row per group, carrying the source
//! hierarchy's coarser levels), key B-trees, attribute B-trees, and
//! IndexToIndex arrays — so consolidations chain: roll up to cities,
//! then roll the *result* up to regions, and get exactly what a direct
//! region consolidation of the source returns.

use std::sync::Arc;

use molap_array::ChunkFormat;
use molap_storage::BufferPool;

use crate::adt::OlapArray;
use crate::aggregate::{AggFunc, AggValue};
use crate::consolidate::GroupMap;
use crate::dimension::DimensionTable;
use crate::error::{Error, Result};
use crate::parallel::consolidate_cube_auto;
use crate::query::{DimGrouping, Query};

impl OlapArray {
    /// Evaluates `query` and materializes the result as a new
    /// [`OlapArray`] on `pool` — the §4.1 closure property.
    ///
    /// The result's dimensions are the grouped dimensions: each gets a
    /// table whose keys are the group codes, carrying every hierarchy
    /// level *coarser* than the grouped one (a city-level result still
    /// knows each city's region, so it can be consolidated again).
    /// Aggregates must finalize to integers (AVG cannot be a cell
    /// measure; materialize SUM and COUNT instead).
    pub fn consolidate_to_array(&self, query: &Query, pool: Arc<BufferPool>) -> Result<OlapArray> {
        query.validate(self.dims(), self.n_measures())?;
        if query.aggs.iter().any(|a| matches!(a, AggFunc::Avg)) {
            return Err(Error::Query(
                "AVG cannot be materialized as a cell measure; materialize SUM and COUNT".into(),
            ));
        }
        if query.grouped_dims().is_empty() {
            return Err(Error::Query(
                "a result array needs at least one grouped dimension".into(),
            ));
        }
        let (maps, cube) = consolidate_cube_auto(self, query, self.array().snapshot())?;

        let dims: Vec<DimensionTable> = maps
            .iter()
            .map(|m| self.result_dimension(query, m))
            .collect::<Result<_>>()?;

        // Cells: every non-empty group, keyed by its group codes.
        let rows = cube.into_result(&query.aggs)?;
        let cells: Vec<(Vec<i64>, Vec<i64>)> = rows
            .rows()
            .iter()
            .map(|row| {
                let measures = row
                    .values
                    .iter()
                    .map(|v| match v {
                        AggValue::Int(x) => Ok(*x),
                        AggValue::Ratio { .. } => Err(Error::Query(
                            "non-integer aggregate in materialization".into(),
                        )),
                    })
                    .collect::<Result<Vec<i64>>>()?;
                Ok((row.keys.clone(), measures))
            })
            .collect::<Result<_>>()?;

        // Small results: one chunk per ≤64 positions along each axis.
        let chunk_dims: Vec<u32> = dims.iter().map(|d| (d.len() as u32).min(64)).collect();
        OlapArray::build(
            pool,
            dims,
            &chunk_dims,
            ChunkFormat::ChunkOffset,
            cells,
            self.n_measures(),
        )
    }

    /// Builds one result dimension table for a grouped source
    /// dimension: keys are the group codes; attribute columns carry the
    /// source hierarchy's coarser levels (functional over the group, so
    /// any source row of the group supplies them).
    fn result_dimension(&self, query: &Query, map: &GroupMap) -> Result<DimensionTable> {
        let source = self.dims().get(map.dim).ok_or_else(|| {
            Error::Internal(format!("grouped dimension {} out of range", map.dim))
        })?;
        // One representative source row per rank.
        let mut representative: Vec<Option<u32>> = vec![None; map.codes.len()];
        for row in 0..source.len() as u32 {
            let rank = map.i2i[row as usize] as usize;
            representative[rank].get_or_insert(row);
        }

        // Levels coarser than the grouped one (all levels for Key).
        let carry_from = match query.group_by[map.dim] {
            DimGrouping::Key => 0,
            DimGrouping::Level(l) => l + 1,
            DimGrouping::Drop => {
                return Err(Error::Internal(
                    "result_dimension called for a dropped dimension".into(),
                ))
            }
        };
        let mut attrs: Vec<(&str, Vec<i64>)> = Vec::new();
        for level in carry_from..source.num_levels() {
            let codes = representative
                .iter()
                .map(|row| {
                    let row = row.ok_or_else(|| {
                        Error::Internal("a group rank has no representative source row".into())
                    })?;
                    source.attr_at(level, row)
                })
                .collect::<Result<Vec<i64>>>()?;
            attrs.push((source.level_name(level).unwrap_or("?"), codes));
        }

        let mut table = DimensionTable::build(source.name(), &map.codes, attrs)?;
        // Carry label dictionaries for the copied levels verbatim
        // (codes are unchanged, so the dictionaries still apply).
        for (out_level, src_level) in (carry_from..source.num_levels()).enumerate() {
            if let Some(labels) = source.labels(src_level) {
                table.set_labels(out_level, labels.to_vec())?;
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AttrRef, Selection};
    use molap_storage::MemDisk;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2048))
    }

    /// 24 stores → 6 cities → 2 regions, crossed with 9 products → 3 types.
    fn build() -> OlapArray {
        let cities: Vec<i64> = (0..24).map(|s| s / 4).collect();
        let regions: Vec<i64> = cities.iter().map(|c| c / 3).collect();
        let store = DimensionTable::build(
            "store",
            &(0..24i64).collect::<Vec<_>>(),
            vec![("city", cities), ("region", regions)],
        )
        .unwrap();
        let product = DimensionTable::build(
            "product",
            &(0..9i64).collect::<Vec<_>>(),
            vec![("ptype", (0..9i64).map(|p| p / 3).collect())],
        )
        .unwrap();
        let cells: Vec<(Vec<i64>, Vec<i64>)> = (0..24i64)
            .flat_map(|s| (0..9i64).map(move |p| (s, p)))
            .filter(|(s, p)| (s * 3 + p) % 4 != 0)
            .map(|(s, p)| (vec![s, p], vec![s * 100 + p]))
            .collect();
        OlapArray::build(
            pool(),
            vec![store, product],
            &[8, 3],
            ChunkFormat::ChunkOffset,
            cells,
            1,
        )
        .unwrap()
    }

    #[test]
    fn chained_rollup_equals_direct() {
        let adt = build();
        // Hop 1: group by (city, ptype).
        let hop1 = adt
            .consolidate_to_array(
                &Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]),
                pool(),
            )
            .unwrap();
        assert_eq!(hop1.dims()[0].len(), 6, "six cities");
        assert_eq!(hop1.dims()[1].len(), 3, "three types");
        // The city-level result still knows regions (carried level).
        assert_eq!(hop1.dims()[0].num_levels(), 1);
        assert_eq!(hop1.dims()[0].level_name(0), Some("region"));

        // Hop 2: roll the result up to (region).
        let via_chain = hop1
            .consolidate(&Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]))
            .unwrap();
        let direct = adt
            .consolidate(&Query::new(vec![DimGrouping::Level(1), DimGrouping::Drop]))
            .unwrap();
        assert_eq!(via_chain.rows().len(), direct.rows().len());
        for (a, b) in via_chain.rows().iter().zip(direct.rows()) {
            assert_eq!(a.keys, b.keys);
            assert_eq!(a.values, b.values);
        }
    }

    #[test]
    fn materialized_result_matches_row_result() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]);
        let rows = adt.consolidate(&q).unwrap();
        let arr = adt.consolidate_to_array(&q, pool()).unwrap();
        assert_eq!(arr.valid_cells(), rows.rows().len() as u64);
        for row in rows.rows() {
            assert_eq!(
                arr.get_by_keys(&row.keys).unwrap(),
                Some(vec![row.values[0].as_int().unwrap()]),
                "group {:?}",
                row.keys
            );
        }
    }

    #[test]
    fn selection_queries_materialize_too() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop])
            .with_selection(1, Selection::eq(AttrRef::Level(0), 1));
        let rows = adt.consolidate(&q).unwrap();
        let arr = adt.consolidate_to_array(&q, pool()).unwrap();
        assert_eq!(arr.valid_cells(), rows.rows().len() as u64);
        let rerolled = arr
            .consolidate(&Query::new(vec![DimGrouping::Drop]))
            .unwrap();
        assert_eq!(rerolled.total(), rows.total());
    }

    #[test]
    fn key_grouping_carries_all_levels() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Key, DimGrouping::Drop]);
        let arr = adt.consolidate_to_array(&q, pool()).unwrap();
        assert_eq!(arr.dims()[0].len(), 24);
        assert_eq!(arr.dims()[0].num_levels(), 2, "city and region carried");
        // Rolling the key-level result to city matches the direct city rollup.
        let via = arr
            .consolidate(&Query::new(vec![DimGrouping::Level(0)]))
            .unwrap();
        let direct = adt
            .consolidate(&Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]))
            .unwrap();
        assert_eq!(via.rows().len(), direct.rows().len());
        for (a, b) in via.rows().iter().zip(direct.rows()) {
            assert_eq!(
                (a.keys.clone(), a.values.clone()),
                (b.keys.clone(), b.values.clone())
            );
        }
    }

    #[test]
    fn avg_and_dropped_everything_are_rejected() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop])
            .with_aggs(vec![AggFunc::Avg]);
        assert!(adt.consolidate_to_array(&q, pool()).is_err());
        let q = Query::new(vec![DimGrouping::Drop, DimGrouping::Drop]);
        assert!(adt.consolidate_to_array(&q, pool()).is_err());
    }
}
