//! The correctness gate's reference: answers from the sequential oracle
//! at set-up, kept current under writes by a naive model that shares no
//! code with the engine's delta maintenance.

use std::collections::BTreeMap;

use molap_core::{AggFunc, AggValue, ConsolidationResult, OlapArray};

use crate::workload::{Cells, Shape};

struct ShapeState {
    shape: Shape,
    columns: Vec<String>,
    /// Group codes → SUM or COUNT. Unused for MIN and MAX, which only
    /// occur as grand totals and are read off the value histogram.
    groups: BTreeMap<Vec<i64>, i64>,
}

pub struct Model {
    /// `[dimension][level][row]` → attribute code.
    codes: Vec<Vec<Vec<i64>>>,
    /// Every acknowledged written cell: linear position → value.
    written: BTreeMap<u64, i64>,
    /// Value → number of valid cells holding it.
    histogram: BTreeMap<i64, u64>,
    shapes: Vec<ShapeState>,
}

impl Model {
    /// Computes each shape's answer with `OlapArray::consolidate`, the
    /// sequential §4.1/§4.2 oracle.
    pub fn new(adt: &OlapArray, cells: &Cells, shapes: Vec<Shape>) -> Model {
        let codes = adt
            .dims()
            .iter()
            .map(|dim| {
                (0..dim.num_levels())
                    .map(|l| dim.attr_codes(l).expect("level exists").to_vec())
                    .collect()
            })
            .collect();
        let mut histogram = BTreeMap::new();
        for &v in &cells.values {
            *histogram.entry(v).or_insert(0) += 1;
        }
        let shapes = shapes
            .into_iter()
            .map(|shape| {
                let answer = adt
                    .consolidate(&shape.statement.query)
                    .expect("oracle consolidation");
                ShapeState {
                    columns: answer.columns().to_vec(),
                    groups: answer
                        .rows()
                        .iter()
                        .map(|row| {
                            let v = row.values[0].as_int().expect("integer aggregate");
                            (row.keys.clone(), v)
                        })
                        .collect(),
                    shape,
                }
            })
            .collect();
        Model {
            codes,
            written: BTreeMap::new(),
            histogram,
            shapes,
        }
    }

    pub fn shape(&self, index: usize) -> &Shape {
        &self.shapes[index].shape
    }

    pub fn written(&self) -> &BTreeMap<u64, i64> {
        &self.written
    }

    /// Records an acknowledged batch.
    pub fn apply(&mut self, cells: &Cells, batch: &[(Vec<i64>, Vec<i64>)]) {
        for (keys, values) in batch {
            let pos = cells.position(keys);
            let new = values[0];
            let old = self.written.insert(pos, new).or_else(|| cells.initial(pos));
            if let Some(old) = old {
                let count = self.histogram.get_mut(&old).expect("old value was counted");
                *count -= 1;
                if *count == 0 {
                    self.histogram.remove(&old);
                }
            }
            *self.histogram.entry(new).or_insert(0) += 1;
            for state in &mut self.shapes {
                let delta = match state.shape.agg {
                    AggFunc::Sum => new - old.unwrap_or(0),
                    AggFunc::Count => i64::from(old.is_none()),
                    _ => continue,
                };
                let group: Vec<i64> = (0..4)
                    .filter_map(|d| {
                        state.shape.levels[d].map(|l| self.codes[d][l][keys[d] as usize])
                    })
                    .collect();
                *state.groups.entry(group).or_insert(0) += delta;
            }
        }
    }

    /// True if `result` is the shape's current answer.
    pub fn matches(&self, index: usize, result: &ConsolidationResult) -> bool {
        let state = &self.shapes[index];
        if result.columns() != state.columns {
            return false;
        }
        let extreme = match state.shape.agg {
            AggFunc::Min => self.histogram.keys().next(),
            AggFunc::Max => self.histogram.keys().next_back(),
            _ => None,
        };
        if let Some(&want) = extreme {
            return matches!(result.rows(), [row]
                if row.keys.is_empty() && row.values == [AggValue::Int(want)]);
        }
        result.rows().len() == state.groups.len()
            && result
                .rows()
                .iter()
                .zip(&state.groups)
                .all(|(row, (keys, &v))| row.keys == *keys && row.values == [AggValue::Int(v)])
    }

    /// Sum of every valid cell, for the post-restart check.
    pub fn total(&self) -> i64 {
        self.histogram.iter().map(|(&v, &n)| v * n as i64).sum()
    }
}
