//! Synthetic star-schema generator for the paper's test databases.
//!
//! The test schema (§5.1) is
//!
//! ```text
//! fact (d0 int, d1 int, d2 int, d3 int, volume int)
//! dimX (dX int, hX1 string, hX2 string)      X = 0..3
//! ```
//!
//! with the `hX1`/`hX2` attributes "uniformly distributed" and
//! "hierarchically structured". Two dataset families drive the
//! evaluation (§5.4):
//!
//! * **Data Set 1** ([`CubeSpec::dataset1`]): 4-d arrays
//!   40×40×40×{50,100,1000} with 640 000 valid cells — densities 20 %,
//!   10 %, 1 %.
//! * **Data Set 2** ([`CubeSpec::dataset2`]): 40×40×40×100 with the
//!   valid-cell count swept so density ranges 0.5 %–20 %.
//!
//! Attribute values are exactly uniform (every value covers
//! `size / cardinality` rows) and the assignment layout is selectable:
//!
//! * [`AttrLayout::Blocked`] (default) — `value = row / (size/card)`:
//!   rows of one group are contiguous, as in a dimension table sorted
//!   by its hierarchy (all Madison stores adjacent). This is the
//!   natural reading of the paper's hierarchical dimensions, and it
//!   means a selection maps to contiguous array-index ranges.
//! * [`AttrLayout::Scattered`] — `value = row % card`: groups
//!   interleave, so selected rows spread uniformly across the array
//!   (the regime behind the paper's low-selectivity observation that
//!   surviving cells are "distributed throughout the array", §5.6).
//!
//! Deeper levels are derived from the level above, so the columns form
//! a real hierarchy; a [`CubeSpec::with_selection_cardinality`]
//! attribute finer than its parent is derived from the key (blocked) or
//! an independent seeded permutation (scattered). Valid cells are
//! sampled uniformly without replacement; all randomness is seeded and
//! reproducible.

#![forbid(unsafe_code)]

use std::collections::HashSet;
use std::sync::Arc;

use molap_core::{ChunkFormat, DimensionTable, OlapArray, Result};
use molap_storage::BufferPool;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How attribute values are laid out over a dimension's rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttrLayout {
    /// Contiguous groups (`row / (size/card)`): the dimension table is
    /// sorted by its hierarchy.
    Blocked,
    /// Interleaved groups (`row % card`): selections scatter across the
    /// array.
    Scattered,
}

/// Specification of a synthetic cube and its dimension tables.
#[derive(Clone, Debug, PartialEq)]
pub struct CubeSpec {
    /// Size of each dimension (number of rows in its table).
    pub dim_sizes: Vec<u32>,
    /// Per dimension, the cardinality of each hierarchy attribute,
    /// top (finest) first — e.g. `[10, 2]` gives `h1` with 10 distinct
    /// values and `h2` (derived from `h1`) with 2.
    pub level_cards: Vec<Vec<u32>>,
    /// Number of valid cells to sample.
    pub valid_cells: u64,
    /// RNG seed; equal specs generate identical data.
    pub seed: u64,
    /// Measures per cell (the paper uses 1: `volume`).
    pub n_measures: usize,
    /// When true, each dimension's *last* level is assigned
    /// independently of the hierarchy (set by
    /// [`CubeSpec::with_selection_cardinality`], since a selection
    /// attribute correlated with the group-by attribute would distort
    /// the Query 2 experiments).
    pub independent_last_level: bool,
    /// Attribute layout (see [`AttrLayout`]).
    pub layout: AttrLayout,
}

impl CubeSpec {
    /// Data Set 1 (§5.4): 40×40×40×`fourth`, 640 000 valid cells.
    /// `fourth ∈ {50, 100, 1000}` gives densities 20 %, 10 %, 1 %.
    pub fn dataset1(fourth: u32) -> Self {
        CubeSpec {
            dim_sizes: vec![40, 40, 40, fourth],
            level_cards: default_levels(&[40, 40, 40, fourth]),
            valid_cells: 640_000,
            seed: 1998,
            n_measures: 1,
            independent_last_level: false,
            layout: AttrLayout::Blocked,
        }
    }

    /// Data Set 2 (§5.4): 40×40×40×100 at the given density (fraction
    /// of the 6.4 M cells that are valid), e.g. `0.005 ..= 0.20`.
    pub fn dataset2(density: f64) -> Self {
        let total = 40u64 * 40 * 40 * 100;
        CubeSpec {
            dim_sizes: vec![40, 40, 40, 100],
            level_cards: default_levels(&[40, 40, 40, 100]),
            valid_cells: (total as f64 * density).round() as u64,
            seed: 1998,
            n_measures: 1,
            independent_last_level: false,
            layout: AttrLayout::Blocked,
        }
    }

    /// The PR 10 crossover-selectivity sweep cube: one big dimension
    /// of `rows` keys whose first attribute carries `distinct` values
    /// in contiguous blocks (so a range predicate maps to a contiguous
    /// index span, the regime hierarchical bitmap indices target),
    /// crossed with a small 64-row dimension; 1 cell in 8 is valid.
    pub fn selection_sweep(rows: u32, distinct: u32) -> Self {
        CubeSpec {
            dim_sizes: vec![rows, 64],
            level_cards: vec![vec![distinct], vec![8]],
            valid_cells: rows as u64 * 64 / 8,
            seed: 2010,
            n_measures: 1,
            independent_last_level: false,
            layout: AttrLayout::Blocked,
        }
    }

    /// Overrides the selection attribute: appends (or replaces) each
    /// dimension's *last* level with cardinality `v`, as Query 2 varies
    /// "the number of distinct values for the second attribute of each
    /// dimension table from 2, 3, 4, 5, 8, to 10" (§5.6).
    pub fn with_selection_cardinality(mut self, v: u32) -> Self {
        for (d, levels) in self.level_cards.iter_mut().enumerate() {
            let v = v.min(self.dim_sizes[d]);
            if levels.len() < 2 {
                levels.push(v);
            } else {
                let last = levels.len() - 1;
                levels[last] = v;
            }
        }
        self.independent_last_level = true;
        self
    }

    /// Fraction of valid cells.
    pub fn density(&self) -> f64 {
        self.valid_cells as f64 / self.total_cells() as f64
    }

    /// Total logical cells.
    pub fn total_cells(&self) -> u64 {
        self.dim_sizes.iter().map(|&s| s as u64).product()
    }
}

/// The paper-style default hierarchy: `h1` with ~size/10 values,
/// `h2` with ~size/100 (both at least 2).
fn default_levels(sizes: &[u32]) -> Vec<Vec<u32>> {
    sizes
        .iter()
        .map(|&s| vec![(s / 10).max(2), (s / 100).max(2)])
        .collect()
}

/// A generated cube: dimension tables plus valid cells.
pub struct GeneratedCube {
    /// Dimension tables `dim0 … dimN`, with string labels attached
    /// (`"AA0"`, `"AA1"`, … per level).
    pub dims: Vec<DimensionTable>,
    /// `(dimension keys, measures)` per valid cell.
    pub cells: Vec<(Vec<i64>, Vec<i64>)>,
    /// The spec this cube was generated from.
    pub spec: CubeSpec,
}

impl GeneratedCube {
    /// Total valid cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the cube has no valid cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Sum of the first measure over all cells (ground truth for the
    /// engines' global aggregate).
    pub fn total_volume(&self) -> i64 {
        self.cells.iter().map(|(_, m)| m[0]).sum()
    }

    /// Builds the OLAP Array ADT for this cube on `pool` in the given
    /// chunk codec — the one-flag format selection every test/bench
    /// harness plumbs through.
    pub fn build_olap(
        &self,
        pool: Arc<BufferPool>,
        chunk_dims: &[u32],
        format: ChunkFormat,
    ) -> Result<OlapArray> {
        OlapArray::build(
            pool,
            self.dims.clone(),
            chunk_dims,
            format,
            self.cells.iter().cloned(),
            self.spec.n_measures,
        )
    }
}

/// Generates dimension tables and cells from a spec.
pub fn generate(spec: &CubeSpec) -> Result<GeneratedCube> {
    assert_eq!(
        spec.dim_sizes.len(),
        spec.level_cards.len(),
        "level_cards arity must match dim_sizes"
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Dimension tables: key = row, attributes round-robin + derived.
    let mut dims = Vec::with_capacity(spec.dim_sizes.len());
    for (d, (&size, cards)) in spec.dim_sizes.iter().zip(&spec.level_cards).enumerate() {
        let keys: Vec<i64> = (0..size as i64).collect();
        let mut columns: Vec<(String, Vec<i64>)> = Vec::with_capacity(cards.len());
        let mut prev_card = i64::MAX;
        for (level, &card) in cards.iter().enumerate() {
            let card = (card.min(size).max(1)) as i64;
            // A level is hierarchical (derived from the level above)
            // only when it is strictly coarser; otherwise — e.g. a
            // Query-2 selection attribute appended after the hierarchy —
            // it cannot be functionally dependent on the level above and
            // is assigned independently: a seeded permutation of the
            // rows, taken mod the cardinality, keeps the distribution
            // exactly uniform while decorrelating it from `h1 = key %
            // card` and from the key order itself.
            let independent = spec.independent_last_level && level + 1 == cards.len() && level > 0;
            let block = (size as i64 / card).max(1);
            let from_key: Vec<i64> = match spec.layout {
                AttrLayout::Blocked => keys.iter().map(|&k| (k / block).min(card - 1)).collect(),
                AttrLayout::Scattered => keys.iter().map(|&k| k % card).collect(),
            };
            let values: Vec<i64> = if level == 0 {
                from_key
            } else if card < prev_card && !independent {
                // Hierarchical: derived from the level above.
                let parent_card = prev_card;
                let group = (parent_card / card).max(1);
                columns[level - 1]
                    .1
                    .iter()
                    .map(|&v| match spec.layout {
                        AttrLayout::Blocked => (v / group).min(card - 1),
                        AttrLayout::Scattered => v % card,
                    })
                    .collect()
            } else if spec.layout == AttrLayout::Blocked {
                // Finer-than-parent level: straight from the key.
                from_key
            } else {
                // Scattered + independent: a seeded permutation keeps
                // the distribution uniform and decorrelated.
                let mut perm: Vec<i64> = (0..size as i64).collect();
                perm.shuffle(&mut rng);
                (0..size as usize).map(|row| perm[row] % card).collect()
            };
            prev_card = card;
            columns.push((format!("h{}{}", d, level + 1), values));
        }
        let named: Vec<(&str, Vec<i64>)> = columns
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        let mut table = DimensionTable::build(&format!("dim{d}"), &keys, named)?;
        for (level, &card) in cards.iter().enumerate() {
            let card = card.min(size).max(1);
            let labels = (0..card).map(|v| format!("A{}{v}", (b'A' + level as u8) as char));
            table.set_labels(level, labels.collect())?;
        }
        dims.push(table);
    }

    // Valid cells: uniform sample without replacement of linear
    // positions, decoded to per-dimension keys.
    let total = spec.total_cells();
    assert!(
        spec.valid_cells <= total,
        "cannot sample {} cells from a {total}-cell cube",
        spec.valid_cells
    );
    let mut chosen: HashSet<u64> = HashSet::with_capacity(spec.valid_cells as usize);
    while (chosen.len() as u64) < spec.valid_cells {
        chosen.insert(rng.random_range(0..total));
    }
    let mut positions: Vec<u64> = chosen.into_iter().collect();
    positions.sort_unstable();

    let n = spec.dim_sizes.len();
    let mut cells = Vec::with_capacity(positions.len());
    for pos in positions {
        let mut keys = vec![0i64; n];
        let mut rem = pos;
        for d in (0..n).rev() {
            keys[d] = (rem % spec.dim_sizes[d] as u64) as i64;
            rem /= spec.dim_sizes[d] as u64;
        }
        let measures: Vec<i64> = (0..spec.n_measures)
            .map(|_| rng.random_range(1..100))
            .collect();
        cells.push((keys, measures));
    }

    Ok(GeneratedCube {
        dims,
        cells,
        spec: spec.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CubeSpec {
        CubeSpec {
            dim_sizes: vec![10, 8, 6],
            level_cards: vec![vec![5, 2], vec![4, 2], vec![3, 2]],
            valid_cells: 100,
            seed: 42,
            n_measures: 1,
            independent_last_level: false,
            layout: AttrLayout::Scattered,
        }
    }

    #[test]
    fn generates_requested_shape() {
        let cube = generate(&small_spec()).unwrap();
        assert_eq!(cube.dims.len(), 3);
        assert_eq!(cube.dims[0].len(), 10);
        assert_eq!(cube.dims[1].len(), 8);
        assert_eq!(cube.len(), 100);
        for (keys, measures) in &cube.cells {
            assert_eq!(keys.len(), 3);
            assert!((0..10).contains(&keys[0]));
            assert!((0..8).contains(&keys[1]));
            assert!((0..6).contains(&keys[2]));
            assert_eq!(measures.len(), 1);
            assert!((1..100).contains(&measures[0]));
        }
    }

    #[test]
    fn cells_are_distinct_positions() {
        let cube = generate(&small_spec()).unwrap();
        let set: HashSet<&Vec<i64>> = cube.cells.iter().map(|(k, _)| k).collect();
        assert_eq!(set.len(), cube.len(), "sampling is without replacement");
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = generate(&small_spec()).unwrap();
        let b = generate(&small_spec()).unwrap();
        assert_eq!(a.cells, b.cells);
        let mut other = small_spec();
        other.seed = 43;
        let c = generate(&other).unwrap();
        assert_ne!(a.cells, c.cells);
    }

    #[test]
    fn attributes_are_exactly_uniform() {
        let cube = generate(&small_spec()).unwrap();
        // dim0 h01: 10 rows round-robin over 5 values -> 2 each.
        let codes = cube.dims[0].attr_codes(0).unwrap();
        for v in 0..5i64 {
            assert_eq!(codes.iter().filter(|&&c| c == v).count(), 2);
        }
    }

    #[test]
    fn hierarchy_is_functional() {
        // Every h1 value must map to exactly one h2 value.
        let cube = generate(&small_spec()).unwrap();
        for dim in &cube.dims {
            let h1 = dim.attr_codes(0).unwrap();
            let h2 = dim.attr_codes(1).unwrap();
            let mut map = std::collections::HashMap::new();
            for (a, b) in h1.iter().zip(h2) {
                assert_eq!(
                    *map.entry(*a).or_insert(*b),
                    *b,
                    "h1 {a} maps to two h2 values"
                );
            }
        }
    }

    #[test]
    fn paper_dataset_parameters() {
        let d1 = CubeSpec::dataset1(1000);
        assert_eq!(d1.total_cells(), 64_000_000);
        assert!((d1.density() - 0.01).abs() < 1e-9);
        assert!((CubeSpec::dataset1(100).density() - 0.10).abs() < 1e-9);
        assert!((CubeSpec::dataset1(50).density() - 0.20).abs() < 1e-9);
        let d2 = CubeSpec::dataset2(0.005);
        assert_eq!(d2.valid_cells, 32_000);
    }

    #[test]
    fn selection_cardinality_override() {
        let spec = CubeSpec::dataset2(0.01).with_selection_cardinality(8);
        for levels in &spec.level_cards {
            assert_eq!(*levels.last().unwrap(), 8);
        }
        let cube = generate(
            &CubeSpec {
                dim_sizes: vec![16, 16],
                level_cards: vec![vec![4], vec![4]],
                valid_cells: 50,
                seed: 7,
                n_measures: 1,
                independent_last_level: false,
                layout: AttrLayout::Scattered,
            }
            .with_selection_cardinality(8),
        )
        .unwrap();
        // Selection level is the last: exactly 2 rows per value (16/8).
        let codes = cube.dims[0].attr_codes(1).unwrap();
        for v in 0..8i64 {
            assert_eq!(codes.iter().filter(|&&c| c == v).count(), 2);
        }
    }

    #[test]
    fn blocked_layout_is_contiguous_and_uniform() {
        let spec = CubeSpec {
            dim_sizes: vec![40],
            level_cards: vec![vec![4, 2]],
            valid_cells: 10,
            seed: 3,
            n_measures: 1,
            independent_last_level: false,
            layout: AttrLayout::Blocked,
        };
        let cube = generate(&spec).unwrap();
        let h1 = cube.dims[0].attr_codes(0).unwrap();
        // Contiguous blocks of 10 rows per value: 0...0 1...1 2...2 3...3.
        for (row, &v) in h1.iter().enumerate() {
            assert_eq!(v, row as i64 / 10, "row {row}");
        }
        // h2 derived hierarchically: 2 h1-values per h2-value.
        let h2 = cube.dims[0].attr_codes(1).unwrap();
        for (a, b) in h1.iter().zip(h2) {
            assert_eq!(*b, a / 2);
        }
    }

    #[test]
    fn blocked_selection_attribute_comes_from_key() {
        // Selection cardinality 8 > h1 cardinality 4: in blocked layout
        // the attribute is key-derived blocks, still exactly uniform.
        let spec = CubeSpec {
            dim_sizes: vec![40],
            level_cards: vec![vec![4]],
            valid_cells: 10,
            seed: 3,
            n_measures: 1,
            independent_last_level: false,
            layout: AttrLayout::Blocked,
        }
        .with_selection_cardinality(8);
        let cube = generate(&spec).unwrap();
        let sel = cube.dims[0].attr_codes(1).unwrap();
        for v in 0..8i64 {
            assert_eq!(sel.iter().filter(|&&c| c == v).count(), 5, "value {v}");
        }
        // Contiguous: rows 0..5 -> 0, 5..10 -> 1, ...
        assert!(sel.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn selection_sweep_shape() {
        let spec = CubeSpec::selection_sweep(640, 64);
        assert_eq!(spec.dim_sizes, vec![640, 64]);
        assert_eq!(spec.valid_cells, 640 * 64 / 8);
        let cube = generate(&spec).unwrap();
        // Blocked layout: 10 contiguous rows per attribute value.
        let codes = cube.dims[0].attr_codes(0).unwrap();
        for (row, &v) in codes.iter().enumerate() {
            assert_eq!(v, row as i64 / 10, "row {row}");
        }
    }

    #[test]
    fn paper_datasets_default_to_blocked() {
        assert_eq!(CubeSpec::dataset1(100).layout, AttrLayout::Blocked);
        assert_eq!(CubeSpec::dataset2(0.01).layout, AttrLayout::Blocked);
    }

    #[test]
    fn labels_attached() {
        let cube = generate(&small_spec()).unwrap();
        assert_eq!(cube.dims[0].label(0, 0), "AA0");
        assert_eq!(cube.dims[0].label(1, 1), "AB1");
        assert_eq!(cube.dims[0].code_of_label(0, "AA3"), Some(3));
    }

    #[test]
    fn build_olap_selects_the_chunk_codec() {
        use molap_storage::MemDisk;
        let cube = generate(&small_spec()).unwrap();
        let q = molap_core::Query::new(vec![
            molap_core::DimGrouping::Level(0),
            molap_core::DimGrouping::Drop,
            molap_core::DimGrouping::Drop,
        ]);
        let mut results = Vec::new();
        for format in ChunkFormat::ALL {
            let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 1024));
            let adt = cube.build_olap(pool, &[5, 4, 3], format).unwrap();
            assert_eq!(adt.array().format(), format);
            results.push(adt.consolidate(&q).unwrap());
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn full_density_cube() {
        let spec = CubeSpec {
            dim_sizes: vec![4, 4],
            level_cards: vec![vec![2], vec![2]],
            valid_cells: 16,
            seed: 1,
            n_measures: 2,
            independent_last_level: false,
            layout: AttrLayout::Scattered,
        };
        let cube = generate(&spec).unwrap();
        assert_eq!(cube.len(), 16);
        assert!(cube.cells.iter().all(|(_, m)| m.len() == 2));
    }
}
