//! Query results: the positional result cube and the normalized rows.
//!
//! The array engine aggregates *positionally* into a dense in-memory
//! result cube — the paper's "result OLAP Array object", which "fits
//! into memory" by the §4.1 assumption. The relational engines
//! aggregate into hash tables keyed by group values. [`ResultCube`] and
//! the hash tables both normalize into a [`ConsolidationResult`] —
//! rows of (group codes, finalized aggregates) in group-code order — so
//! engines can be compared with `==`.

use crate::aggregate::{AggFunc, AggState, AggValue};
use crate::error::{Error, Result};

/// Metadata of one grouped dimension in a result cube.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupedDim {
    /// Index of the source dimension in the cube.
    pub dim: usize,
    /// Column header, e.g. `"store.region"`.
    pub column: String,
    /// Group code for each rank: `codes[rank]` is the attribute value
    /// the rank stands for. Sorted ascending.
    pub codes: Vec<i64>,
}

/// A dense, memory-resident result array with one [`AggState`] per
/// (group cell, measure).
#[derive(Clone, Debug)]
pub struct ResultCube {
    dims: Vec<GroupedDim>,
    shape: Vec<u32>,
    strides: Vec<usize>,
    n_measures: usize,
    states: Vec<AggState>,
}

impl ResultCube {
    /// Creates an empty cube over the given grouped dimensions.
    pub fn new(dims: Vec<GroupedDim>, n_measures: usize) -> Self {
        let shape: Vec<u32> = dims.iter().map(|d| d.codes.len() as u32).collect();
        let mut strides = vec![1usize; shape.len()];
        for i in (0..shape.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * shape[i + 1] as usize;
        }
        let cells: usize = shape.iter().map(|&s| s as usize).product::<usize>().max(1);
        ResultCube {
            dims,
            shape,
            strides,
            n_measures,
            states: vec![AggState::new(); cells * n_measures],
        }
    }

    /// The grouped dimensions.
    pub fn dims(&self) -> &[GroupedDim] {
        &self.dims
    }

    /// Number of group cells (1 for a global aggregate).
    pub fn num_cells(&self) -> usize {
        self.states.len() / self.n_measures
    }

    /// Row-major strides of the cube's cell space, one per grouped
    /// dimension — exposed so per-chunk kernels can fold the stride
    /// multiply into their remap tables.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Linear cell index for a rank vector.
    #[inline]
    pub fn linear(&self, ranks: &[u32]) -> usize {
        debug_assert_eq!(ranks.len(), self.shape.len());
        let mut idx = 0usize;
        for (d, &r) in ranks.iter().enumerate() {
            debug_assert!(r < self.shape[d]);
            idx += r as usize * self.strides[d];
        }
        idx
    }

    /// Folds one cell's measures into the group at `ranks`.
    #[inline]
    pub fn add(&mut self, ranks: &[u32], values: &[i64]) {
        debug_assert_eq!(values.len(), self.n_measures);
        let base = self.linear(ranks) * self.n_measures;
        for (i, &v) in values.iter().enumerate() {
            self.states[base + i].add(v);
        }
    }

    /// Folds one cell's measures given a precomputed linear index.
    #[inline]
    pub fn add_linear(&mut self, cell: usize, values: &[i64]) {
        let base = cell * self.n_measures;
        for (i, &v) in values.iter().enumerate() {
            self.states[base + i].add(v);
        }
    }

    /// Applies one cell's write delta to the group at linear index
    /// `cell`: per measure, `(None, new)` folds a fresh value (the
    /// array cell was empty before the write) and `(Some(old), new)`
    /// replaces a previously folded one. Returns `false` as soon as a
    /// measure's accumulator cannot be patched exactly (a shrinking
    /// MIN/MAX extreme — see [`AggState::patch_replace`]); the cube may
    /// then be *partially patched* and must be discarded by the caller,
    /// which is why delta maintenance always patches a clone.
    #[inline]
    #[must_use]
    pub(crate) fn patch_cell(&mut self, cell: usize, deltas: &[(Option<i64>, i64)]) -> bool {
        debug_assert_eq!(deltas.len(), self.n_measures);
        let base = cell * self.n_measures;
        for (i, &(old, new)) in deltas.iter().enumerate() {
            match old {
                None => self.states[base + i].patch_insert(new),
                Some(old) => {
                    if !self.states[base + i].patch_replace(old, new) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Merges another cube (same geometry) into this one — used by the
    /// parallel scan extension.
    pub fn merge(&mut self, other: &ResultCube) -> Result<()> {
        if self.shape != other.shape || self.n_measures != other.n_measures {
            return Err(Error::Query("cannot merge differently-shaped cubes".into()));
        }
        for (a, b) in self.states.iter_mut().zip(&other.states) {
            a.merge(b);
        }
        Ok(())
    }

    /// Aggregates away the dimensions where `keep` is false, producing
    /// the coarser cube. [`AggState`]s merge associatively, so a
    /// projection of a finer result equals recomputing from scratch —
    /// the "compute from smallest parent" property the CUBE operator
    /// builds on.
    pub fn project(&self, keep: &[bool]) -> Result<ResultCube> {
        if keep.len() != self.shape.len() {
            return Err(Error::Query(format!(
                "projection mask has {} entries for {} dimensions",
                keep.len(),
                self.shape.len()
            )));
        }
        let kept: Vec<usize> = (0..keep.len()).filter(|&d| keep[d]).collect();
        let mut out = ResultCube::new(
            kept.iter().map(|&d| self.dims[d].clone()).collect(),
            self.n_measures,
        );
        let n = self.shape.len();
        let mut out_ranks = vec![0u32; kept.len()];
        for cell in 0..self.num_cells() {
            let base = cell * self.n_measures;
            if self.states[base].is_empty() {
                continue;
            }
            let mut rem = cell;
            let mut k = 0;
            for (d, &keep_d) in keep.iter().enumerate().take(n) {
                let rank = (rem / self.strides[d]) as u32;
                rem %= self.strides[d];
                if keep_d {
                    out_ranks[k] = rank;
                    k += 1;
                }
            }
            let out_base = out.linear(&out_ranks) * self.n_measures;
            for m in 0..self.n_measures {
                out.states[out_base + m].merge(&self.states[base + m]);
            }
        }
        Ok(out)
    }

    /// Re-aggregates this cube along a rollup `plan` (one entry per
    /// grouped dimension): each kept dimension remaps every fine rank
    /// to a coarse rank, dropped dimensions are aggregated away.
    /// Because [`AggState`] merging is associative and commutative,
    /// the rolled-up cube is bit-identical to consolidating the coarse
    /// query directly — the derivability property the result-cube
    /// cache's subsumption path relies on.
    pub fn rollup(&self, plan: &[Rollup]) -> Result<ResultCube> {
        if plan.len() != self.dims.len() {
            return Err(Error::Query(format!(
                "rollup plan has {} entries for {} dimensions",
                plan.len(),
                self.dims.len()
            )));
        }
        let mut out_dims = Vec::new();
        for (d, step) in plan.iter().enumerate() {
            if let Rollup::Map {
                column,
                codes,
                rank_map,
            } = step
            {
                if rank_map.len() != self.shape[d] as usize {
                    return Err(Error::Query(format!(
                        "rollup map for dimension {d} has {} entries for {} ranks",
                        rank_map.len(),
                        self.shape[d]
                    )));
                }
                if rank_map.iter().any(|&r| r as usize >= codes.len()) {
                    return Err(Error::Query(format!(
                        "rollup map for dimension {d} exceeds its code list"
                    )));
                }
                out_dims.push(GroupedDim {
                    dim: self.dims[d].dim,
                    column: column.clone(),
                    codes: codes.clone(),
                });
            }
        }
        let mut out = ResultCube::new(out_dims, self.n_measures);
        let n = self.shape.len();
        let mut out_ranks = vec![0u32; out.dims.len()];
        for cell in 0..self.num_cells() {
            let base = cell * self.n_measures;
            if self.states[base].is_empty() {
                continue;
            }
            let mut rem = cell;
            let mut k = 0;
            for (d, step) in plan.iter().enumerate().take(n) {
                let rank = (rem / self.strides[d]) as u32;
                rem %= self.strides[d];
                if let Rollup::Map { rank_map, .. } = step {
                    out_ranks[k] = rank_map[rank as usize];
                    k += 1;
                }
            }
            let out_base = out.linear(&out_ranks) * self.n_measures;
            for m in 0..self.n_measures {
                out.states[out_base + m].merge(&self.states[base + m]);
            }
        }
        Ok(out)
    }

    /// Approximate heap footprint in bytes — the result-cube cache's
    /// budget currency.
    pub fn approx_bytes(&self) -> usize {
        let dim_bytes: usize = self
            .dims
            .iter()
            .map(|d| d.column.len() + d.codes.len() * std::mem::size_of::<i64>())
            .sum();
        std::mem::size_of::<Self>()
            + dim_bytes
            + self.states.len() * std::mem::size_of::<AggState>()
            + self.shape.len() * (std::mem::size_of::<u32>() + std::mem::size_of::<usize>())
    }

    /// Finalizes into normalized rows, skipping empty groups.
    pub fn into_result(self, aggs: &[AggFunc]) -> Result<ConsolidationResult> {
        self.to_result(aggs)
    }

    /// Finalizes into normalized rows, skipping empty groups, without
    /// consuming (or copying) the cube — cached cubes are finalized in
    /// place on every hit.
    pub fn to_result(&self, aggs: &[AggFunc]) -> Result<ConsolidationResult> {
        if aggs.len() != self.n_measures {
            return Err(Error::Query(format!(
                "{} aggregates for {} measures",
                aggs.len(),
                self.n_measures
            )));
        }
        let columns: Vec<String> = self.dims.iter().map(|d| d.column.clone()).collect();
        let groups = self.states.chunks(self.n_measures);
        let mut rows = Vec::with_capacity(groups.clone().filter(|g| !g[0].is_empty()).count());
        let n = self.shape.len();
        let mut ranks = vec![0u32; n];
        for (cell, group) in groups.enumerate() {
            if group[0].is_empty() {
                continue;
            }
            // Decode ranks from the linear index.
            let mut rem = cell;
            for (d, rank) in ranks.iter_mut().enumerate().take(n) {
                *rank = (rem / self.strides[d]) as u32;
                rem %= self.strides[d];
            }
            let keys: Vec<i64> = (0..n)
                .map(|d| self.dims[d].codes[ranks[d] as usize])
                .collect();
            let values = group
                .iter()
                .zip(aggs)
                .map(|(s, &f)| {
                    s.finalize(f)
                        .ok_or_else(|| Error::Internal("non-empty group failed to finalize".into()))
                })
                .collect::<Result<Vec<AggValue>>>()?;
            rows.push(Row { keys, values });
        }
        // Linear order over strictly ascending per-dimension codes is
        // key order; sort only a cube whose codes are not (equality
        // must never depend on layout).
        let ascending = |d: &GroupedDim| d.codes.windows(2).all(|w| w[0] < w[1]);
        if !self.dims.iter().all(ascending) {
            rows.sort_unstable_by(|a, b| a.keys.cmp(&b.keys));
        }
        Ok(ConsolidationResult { columns, rows })
    }
}

/// One dimension's role in a [`ResultCube::rollup`] derivation.
#[derive(Clone, Debug)]
pub enum Rollup {
    /// Keep the dimension at a coarser granularity: fine rank `r`
    /// contributes to coarse rank `rank_map[r]`, whose group code is
    /// `codes[rank_map[r]]` under the new `column` header.
    Map {
        /// Output column header, e.g. `"store.region"`.
        column: String,
        /// Sorted group codes of the coarse grouping.
        codes: Vec<i64>,
        /// Fine rank → coarse rank (identity map for an unchanged
        /// grouping).
        rank_map: Vec<u32>,
    },
    /// Aggregate the dimension away.
    Drop,
}

/// One output row: group codes in grouped-dimension order, then one
/// finalized aggregate per measure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Group-by attribute codes.
    pub keys: Vec<i64>,
    /// Finalized aggregates, one per measure.
    pub values: Vec<AggValue>,
}

/// A normalized consolidation result: rows sorted by group codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsolidationResult {
    columns: Vec<String>,
    rows: Vec<Row>,
}

impl ConsolidationResult {
    /// Builds a result from unsorted rows (relational engines).
    pub fn from_rows(columns: Vec<String>, mut rows: Vec<Row>) -> Self {
        rows.sort_unstable_by(|a, b| a.keys.cmp(&b.keys));
        ConsolidationResult { columns, rows }
    }

    /// Group-by column headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows, sorted by group codes.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Sum of first-measure integer values across rows (handy check).
    pub fn total(&self) -> i64 {
        self.rows
            .iter()
            .filter_map(|r| r.values.first().and_then(|v| v.as_int()))
            .sum()
    }

    /// Renders as an aligned text table (for the examples and harness).
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{} | value(s)", self.columns.join(" | "));
        for row in &self.rows {
            let keys: Vec<String> = row.keys.iter().map(|k| k.to_string()).collect();
            let vals: Vec<String> = row.values.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(out, "{} | {}", keys.join(" | "), vals.join(" | "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_dim_cube() -> ResultCube {
        ResultCube::new(
            vec![
                GroupedDim {
                    dim: 0,
                    column: "a.h1".into(),
                    codes: vec![10, 20],
                },
                GroupedDim {
                    dim: 1,
                    column: "b.h1".into(),
                    codes: vec![5, 6, 7],
                },
            ],
            1,
        )
    }

    #[test]
    fn add_and_finalize() {
        let mut cube = two_dim_cube();
        cube.add(&[0, 0], &[3]);
        cube.add(&[0, 0], &[4]);
        cube.add(&[1, 2], &[10]);
        let res = cube.into_result(&[AggFunc::Sum]).unwrap();
        assert_eq!(res.columns(), &["a.h1".to_string(), "b.h1".to_string()]);
        assert_eq!(
            res.rows(),
            &[
                Row {
                    keys: vec![10, 5],
                    values: vec![AggValue::Int(7)]
                },
                Row {
                    keys: vec![20, 7],
                    values: vec![AggValue::Int(10)]
                },
            ]
        );
        assert_eq!(res.total(), 17);
    }

    #[test]
    fn scalar_cube_for_global_aggregate() {
        let mut cube = ResultCube::new(vec![], 2);
        assert_eq!(cube.num_cells(), 1);
        cube.add(&[], &[5, -1]);
        cube.add(&[], &[3, -2]);
        let res = cube.into_result(&[AggFunc::Sum, AggFunc::Min]).unwrap();
        assert_eq!(res.rows().len(), 1);
        assert_eq!(
            res.rows()[0].values,
            vec![AggValue::Int(8), AggValue::Int(-2)]
        );
    }

    #[test]
    fn empty_groups_are_skipped() {
        let cube = two_dim_cube();
        let res = cube.into_result(&[AggFunc::Sum]).unwrap();
        assert!(res.rows().is_empty());
        assert_eq!(res.total(), 0);
    }

    #[test]
    fn merge_matches_sequential() {
        let mut a = two_dim_cube();
        let mut b = two_dim_cube();
        let mut seq = two_dim_cube();
        a.add(&[0, 1], &[2]);
        seq.add(&[0, 1], &[2]);
        b.add(&[0, 1], &[3]);
        seq.add(&[0, 1], &[3]);
        b.add(&[1, 0], &[9]);
        seq.add(&[1, 0], &[9]);
        a.merge(&b).unwrap();
        assert_eq!(
            a.into_result(&[AggFunc::Sum]).unwrap(),
            seq.into_result(&[AggFunc::Sum]).unwrap()
        );
        // Shape mismatch is rejected.
        let mut c = two_dim_cube();
        assert!(c.merge(&ResultCube::new(vec![], 1)).is_err());
    }

    #[test]
    fn rollup_remaps_and_drops() {
        let mut cube = two_dim_cube();
        cube.add(&[0, 0], &[1]);
        cube.add(&[0, 2], &[2]);
        cube.add(&[1, 1], &[4]);
        // Coarsen dim 0: both codes map to one coarse code 99. Drop
        // dim 1.
        let plan = vec![
            Rollup::Map {
                column: "a.h2".into(),
                codes: vec![99],
                rank_map: vec![0, 0],
            },
            Rollup::Drop,
        ];
        let res = cube
            .rollup(&plan)
            .unwrap()
            .into_result(&[AggFunc::Sum])
            .unwrap();
        assert_eq!(res.rows().len(), 1);
        assert_eq!(res.rows()[0].keys, vec![99]);
        assert_eq!(res.rows()[0].values, vec![AggValue::Int(7)]);
        // Identity maps reproduce the cube exactly.
        let identity = vec![
            Rollup::Map {
                column: "a.h1".into(),
                codes: vec![10, 20],
                rank_map: vec![0, 1],
            },
            Rollup::Map {
                column: "b.h1".into(),
                codes: vec![5, 6, 7],
                rank_map: vec![0, 1, 2],
            },
        ];
        assert_eq!(
            cube.rollup(&identity)
                .unwrap()
                .into_result(&[AggFunc::Sum])
                .unwrap(),
            cube.to_result(&[AggFunc::Sum]).unwrap()
        );
        // Arity and range errors are rejected.
        assert!(cube.rollup(&[Rollup::Drop]).is_err());
        assert!(cube
            .rollup(&[
                Rollup::Map {
                    column: "x".into(),
                    codes: vec![0],
                    rank_map: vec![0] // wrong length
                },
                Rollup::Drop
            ])
            .is_err());
        assert!(cube
            .rollup(&[
                Rollup::Map {
                    column: "x".into(),
                    codes: vec![0],
                    rank_map: vec![0, 9] // rank out of range
                },
                Rollup::Drop
            ])
            .is_err());
        assert!(cube.approx_bytes() > 0);
    }

    #[test]
    fn patch_cell_matches_recompute() {
        let mut cube = two_dim_cube();
        cube.add(&[0, 0], &[3]);
        cube.add(&[0, 0], &[4]);
        // Replace the folded 4 with 9 (growing max) and insert a fresh 2.
        let cell = cube.linear(&[0, 0]);
        assert!(cube.patch_cell(cell, &[(Some(4), 9)]));
        assert!(cube.patch_cell(cell, &[(None, 2)]));
        let mut scratch = two_dim_cube();
        scratch.add(&[0, 0], &[3]);
        scratch.add(&[0, 0], &[9]);
        scratch.add(&[0, 0], &[2]);
        assert_eq!(cube.states, scratch.states, "every statistic patched");
        // Shrinking the max is refused: 9 is the max, 1 < 9.
        assert!(!cube.patch_cell(cell, &[(Some(9), 1)]));
    }

    #[test]
    fn from_rows_sorts() {
        let r = ConsolidationResult::from_rows(
            vec!["k".into()],
            vec![
                Row {
                    keys: vec![3],
                    values: vec![AggValue::Int(1)],
                },
                Row {
                    keys: vec![1],
                    values: vec![AggValue::Int(2)],
                },
            ],
        );
        assert_eq!(r.rows()[0].keys, vec![1]);
        assert_eq!(r.rows()[1].keys, vec![3]);
    }

    #[test]
    fn rows_are_in_key_order_even_when_the_codes_are_not() {
        // Ascending codes skip the sort; a cube whose codes are laid
        // out any other way must still finalize in key order, and a
        // borrowed finalize must equal a consuming one.
        let dim = |codes: Vec<i64>| GroupedDim {
            dim: 0,
            column: "k".into(),
            codes,
        };
        for codes in [vec![1, 2, 3], vec![3, 1, 2]] {
            let mut cube = ResultCube::new(vec![dim(codes.clone())], 1);
            for rank in 0..3 {
                cube.add(&[rank], &[codes[rank as usize] * 10]);
            }
            let rows = cube.to_result(&[AggFunc::Sum]).unwrap();
            let keys: Vec<i64> = rows.rows().iter().map(|r| r.keys[0]).collect();
            assert_eq!(keys, vec![1, 2, 3]);
            assert_eq!(rows.rows()[2].values, vec![AggValue::Int(30)]);
            assert_eq!(rows, cube.into_result(&[AggFunc::Sum]).unwrap());
        }
    }

    #[test]
    fn agg_arity_checked() {
        let cube = two_dim_cube();
        assert!(cube.into_result(&[AggFunc::Sum, AggFunc::Sum]).is_err());
    }

    #[test]
    fn table_rendering() {
        let mut cube = two_dim_cube();
        cube.add(&[0, 1], &[5]);
        let res = cube.into_result(&[AggFunc::Sum]).unwrap();
        let table = res.to_table();
        assert!(table.contains("a.h1 | b.h1"));
        assert!(table.contains("10 | 6 | 5"));
    }
}
