//! The CUBE operator: every GROUP BY subset in one pass.
//!
//! The authors' companion work ([ZDN97], cited in §1) computes all
//! `2ⁿ` group-bys of a cube simultaneously from the array
//! representation. This module implements the array-friendly version of
//! that idea on top of the §4.1 consolidation:
//!
//! 1. one array scan produces the *finest* result cube (all requested
//!    dimensions grouped), positionally;
//! 2. every coarser group-by is then computed by projecting the
//!    **smallest already-computed parent** — never rescanning the
//!    array — exploiting that aggregate states merge associatively.
//!
//! For the paper's SUM (and COUNT/MIN/MAX/AVG) this reproduces exactly
//! what 2ⁿ independent consolidations would return, at a fraction of
//! the cost.

use crate::adt::OlapArray;
use crate::error::{Error, Result};
use crate::parallel::consolidate_cube_auto;
use crate::query::Query;
use crate::result::{ConsolidationResult, ResultCube};

/// Upper bound on grouped dimensions (2ⁿ results must stay sane).
const MAX_CUBE_DIMS: usize = 12;

/// One group-by of the cube: which of the requested grouping
/// dimensions are active, and its rows.
#[derive(Clone, Debug)]
pub struct CubeSlice {
    /// Mask over the *grouped* dimensions of the request (not over all
    /// cube dimensions): `mask[i]` is true if grouped dimension `i`
    /// participates in this slice's GROUP BY.
    pub mask: Vec<bool>,
    /// The slice's result rows.
    pub result: ConsolidationResult,
}

/// Computes every GROUP BY subset of `query.group_by`'s grouped
/// dimensions. `query` must have no selections (combine with the §4.2
/// path by consolidating first if needed).
///
/// Returns `2^g` slices (g = grouped dimensions), finest first.
pub fn compute_cube(adt: &OlapArray, query: &Query) -> Result<Vec<CubeSlice>> {
    query.validate(adt.dims(), adt.n_measures())?;
    if query.has_selection() {
        return Err(Error::Query(
            "compute_cube does not take selections; filter with consolidate() instead".into(),
        ));
    }
    let g = query.grouped_dims().len();
    if g > MAX_CUBE_DIMS {
        return Err(Error::Query(format!(
            "CUBE over {g} dimensions would produce 2^{g} group-bys"
        )));
    }

    // Finest cube: one positional array scan (§4.1 phase 2).
    let (_, finest) = consolidate_cube_auto(adt, query, adt.array().snapshot())?;

    // Lattice walk: for each mask (descending popcount), project from
    // the smallest computed parent differing by exactly one dimension.
    let total = 1usize << g;
    let mut cubes: Vec<Option<ResultCube>> = vec![None; total - 1];
    cubes.push(Some(finest));

    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));

    for &mask in &order {
        if cubes[mask].is_some() {
            continue;
        }
        // Parents: mask with one extra bit set. The descending-popcount
        // walk guarantees at least one is already computed.
        let (parent, parent_cube) = (0..g)
            .filter(|&b| mask & (1 << b) == 0)
            .map(|b| mask | (1 << b))
            .filter_map(|p| cubes.get(p).and_then(|c| c.as_ref()).map(|c| (p, c)))
            .min_by_key(|(_, c)| c.num_cells())
            .ok_or_else(|| {
                Error::Internal(format!(
                    "cube lattice walk found no parent for mask {mask:#b}"
                ))
            })?;
        // Project away the dimensions absent from `mask`, expressed in
        // the parent's dimension order.
        let keep: Vec<bool> = (0..g)
            .filter(|&b| parent & (1 << b) != 0)
            .map(|b| mask & (1 << b) != 0)
            .collect();
        let projected = parent_cube.project(&keep)?;
        match cubes.get_mut(mask) {
            Some(slot) => *slot = Some(projected),
            None => {
                return Err(Error::Internal(format!(
                    "mask {mask:#b} outside cube lattice"
                )))
            }
        }
    }

    let mut slices = Vec::with_capacity(total);
    for &mask in &order {
        let cube = cubes.get_mut(mask).and_then(|c| c.take()).ok_or_else(|| {
            Error::Internal(format!("cube lattice slot {mask:#b} was never computed"))
        })?;
        slices.push(CubeSlice {
            mask: (0..g).map(|b| mask & (1 << b) != 0).collect(),
            result: cube.into_result(&query.aggs)?,
        });
    }
    Ok(slices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::DimensionTable;
    use crate::query::{AttrRef, DimGrouping, Selection};
    use molap_array::ChunkFormat;
    use molap_storage::{BufferPool, MemDisk};
    use std::sync::Arc;

    fn build() -> OlapArray {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 4096));
        let dims = vec![
            DimensionTable::build(
                "a",
                &(0..10i64).collect::<Vec<_>>(),
                vec![("h", (0..10i64).map(|k| k / 4).collect())],
            )
            .unwrap(),
            DimensionTable::build(
                "b",
                &(0..8i64).collect::<Vec<_>>(),
                vec![("h", (0..8i64).map(|k| k % 3).collect())],
            )
            .unwrap(),
            DimensionTable::build(
                "c",
                &(0..6i64).collect::<Vec<_>>(),
                vec![("h", (0..6i64).map(|k| k % 2).collect())],
            )
            .unwrap(),
        ];
        let cells: Vec<(Vec<i64>, Vec<i64>)> = (0..10i64)
            .flat_map(|x| (0..8i64).flat_map(move |y| (0..6i64).map(move |z| (x, y, z))))
            .filter(|(x, y, z)| (x * 5 + y * 3 + z) % 4 == 0)
            .map(|(x, y, z)| (vec![x, y, z], vec![x * 100 + y * 10 + z]))
            .collect();
        OlapArray::build(pool, dims, &[4, 4, 3], ChunkFormat::ChunkOffset, cells, 1).unwrap()
    }

    #[test]
    fn every_slice_matches_direct_consolidation() {
        let adt = build();
        let query = Query::new(vec![
            DimGrouping::Level(0),
            DimGrouping::Level(0),
            DimGrouping::Key,
        ]);
        let slices = compute_cube(&adt, &query).unwrap();
        assert_eq!(slices.len(), 8);

        for slice in &slices {
            // Rebuild the equivalent single group-by query.
            let mut group_by = Vec::new();
            let mut gi = 0;
            for g in &query.group_by {
                group_by.push(if matches!(g, DimGrouping::Drop) {
                    DimGrouping::Drop
                } else {
                    let active = slice.mask[gi];
                    gi += 1;
                    if active {
                        *g
                    } else {
                        DimGrouping::Drop
                    }
                });
            }
            let direct = adt.consolidate(&Query::new(group_by)).unwrap();
            assert_eq!(slice.result, direct, "mask {:?}", slice.mask);
        }
    }

    #[test]
    fn finest_first_and_global_last() {
        let adt = build();
        let query = Query::new(vec![
            DimGrouping::Level(0),
            DimGrouping::Level(0),
            DimGrouping::Drop,
        ]);
        let slices = compute_cube(&adt, &query).unwrap();
        assert_eq!(slices.len(), 4);
        assert_eq!(slices[0].mask, vec![true, true]);
        assert_eq!(slices[3].mask, vec![false, false]);
        // Global aggregate = one row with the total.
        assert_eq!(slices[3].result.rows().len(), 1);
        assert_eq!(
            slices[3].result.total(),
            adt.consolidate(&Query::new(vec![
                DimGrouping::Drop,
                DimGrouping::Drop,
                DimGrouping::Drop
            ]))
            .unwrap()
            .total()
        );
    }

    #[test]
    fn selections_rejected() {
        let adt = build();
        let q = Query::new(vec![
            DimGrouping::Level(0),
            DimGrouping::Drop,
            DimGrouping::Drop,
        ])
        .with_selection(0, Selection::eq(AttrRef::Level(0), 1));
        assert!(compute_cube(&adt, &q).is_err());
    }

    #[test]
    fn no_grouped_dims_yields_single_global_slice() {
        let adt = build();
        let q = Query::new(vec![DimGrouping::Drop; 3]);
        let slices = compute_cube(&adt, &q).unwrap();
        assert_eq!(slices.len(), 1);
        assert!(slices[0].mask.is_empty());
        assert_eq!(slices[0].result.rows().len(), 1);
    }
}
