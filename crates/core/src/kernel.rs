//! Per-chunk aggregation kernels — the array analogue of vectorized
//! execution.
//!
//! The per-cell inner loops of the reference (`consolidate`/`select`)
//! pay a full dispatch per valid cell: decode the cell's coordinates, walk the
//! grouped dimensions, bounds-check an IndexToIndex lookup each, then
//! re-derive the result cube's linear cell from the ranks. Everything
//! but the cell offset is invariant per *query*: a [`QueryRemap`] holds,
//! per grouped dimension, one table whose entry `idx` is the
//! dimension's whole contribution to the result cell —
//! `i2i[idx] * cube_stride`. A chunk's [`ChunkKernel`] borrows each
//! table at the chunk's base (only a §4.2 membership mask needs an
//! owned, masked copy), and the hot loop is `(offset, values)` → one
//! reciprocal multiply and one table load per dimension →
//! [`ResultCube::add_linear`].
//!
//! Kernels are used by the pipeline consumer in `parallel`; the per-cell
//! paths are kept as the reference ([`OlapArray::consolidate`]).
//!
//! [`OlapArray::consolidate`]: crate::OlapArray::consolidate

use std::borrow::Cow;

use molap_array::diffseq::DiffSeqCursor;
use molap_array::{Chunk, Shape};

use crate::consolidate::GroupMap;
use crate::error::Result;
use crate::result::ResultCube;

/// Remap-table sentinel: cells at this coordinate are excluded
/// (selection miss or array padding).
const SKIP: u64 = u64::MAX;

/// Cells remapped per pass — matches the diff-seq decoder's block size
/// so one decoded gap block is one kernel batch.
const BATCH: usize = molap_array::diffseq::BLOCK;

/// `n / d` by `magic = ceil(2^64 / d)`, with `0` standing in for
/// `d == 1` (whose magic would overflow u64). Exact for `n < 2^32`,
/// `d < 2^32` (Lemire, Kaser & Kurz, "Faster remainder by direct
/// computation"), which chunk geometry guarantees: offsets and strides
/// both fit in u32 because `Shape::new` caps the per-chunk cell count.
#[inline(always)]
fn fast_div(n: u32, magic: u64) -> u32 {
    if magic == 0 {
        n
    } else {
        ((magic as u128 * n as u128) >> 64) as u32
    }
}

/// One array dimension of a [`QueryRemap`].
struct DimRemap {
    /// Within-chunk stride and its [`fast_div`] magic.
    stride: u32,
    magic: u64,
    /// Grouped dimensions: array index → result-cell contribution, over
    /// `chunks_along × chunk_dim` entries ([`SKIP`] past the dimension's
    /// length). Empty otherwise.
    table: Vec<u64>,
}

impl DimRemap {
    /// One link of the offset decode chain. Offsets are row-major, so
    /// walking the dimensions in stride order and carrying the
    /// remainder yields each within-chunk coordinate (returned; the
    /// rest stays in `rem`) for one multiply, where
    /// `(offset / stride) % extent` costs two hardware divides. `rem`
    /// only shrinks, so it stays inside [`fast_div`]'s exactness bound.
    #[inline(always)]
    fn split(&self, rem: &mut u32) -> u32 {
        let within = fast_div(*rem, self.magic);
        *rem -= within * self.stride;
        within
    }
}

/// The query-scoped half of phase-2 aggregation: built once per query,
/// shared read-only by every consumer.
pub(crate) struct QueryRemap<'q> {
    shape: &'q Shape,
    /// Per array dimension, in stride order.
    dims: Vec<DimRemap>,
}

impl<'q> QueryRemap<'q> {
    pub(crate) fn new(shape: &'q Shape, maps: &[GroupMap], cube: &ResultCube) -> Self {
        let extents = shape.chunk_dims().iter().zip(shape.chunks_along());
        let dims = extents
            .enumerate()
            .map(|(d, (&extent, &along))| {
                let grouped = maps.iter().zip(cube.strides()).find(|(m, _)| m.dim == d);
                let mut table = vec![SKIP; grouped.map_or(0, |_| along as usize * extent as usize)];
                if let Some((map, &cube_stride)) = grouped {
                    for (entry, &rank) in table.iter_mut().zip(&map.i2i) {
                        *entry = rank as u64 * cube_stride as u64;
                    }
                }
                let stride = shape.cell_stride(d);
                DimRemap {
                    stride: stride as u32,
                    // ceil(2^64 / stride); wraps to the `0` sentinel at
                    // stride 1.
                    magic: (u64::MAX / stride).wrapping_add(1),
                    table,
                }
            })
            .collect();
        QueryRemap { shape, dims }
    }

    /// The kernel for `chunk_no`. `membership`, when present, holds the
    /// §4.2 scan-direction membership mask per dimension (indexed by
    /// within-chunk coordinate) and is folded into owned copies of the
    /// chunk's table slices; without it the kernel only borrows.
    pub(crate) fn kernel(
        &self,
        chunk_no: u64,
        membership: Option<&[Vec<bool>]>,
    ) -> ChunkKernel<'_> {
        let mut ch = chunk_no;
        let dims = self.dims.iter().zip(self.shape.chunk_dims());
        let mut steps: Vec<_> = dims
            .enumerate()
            .map(|(d, (dim, &extent))| {
                let base = (ch / self.shape.chunk_stride(d)) as usize * extent as usize;
                ch %= self.shape.chunk_stride(d);
                let slice = dim.table.get(base..base + extent as usize).unwrap_or(&[]);
                let masked = |(w, &member): (usize, &bool)| match member {
                    true => slice.get(w).copied().unwrap_or(0),
                    false => SKIP,
                };
                match membership.and_then(|m| m.get(d)) {
                    None => (dim, Cow::Borrowed(slice)),
                    Some(mask) => (dim, mask.iter().enumerate().map(masked).collect()),
                }
            })
            .collect();
        // Dimensions after the last table contribute nothing and need
        // no decode.
        while steps.last().is_some_and(|(_, remap)| remap.is_empty()) {
            steps.pop();
        }
        ChunkKernel { steps }
    }
}

/// A chunk's view of the [`QueryRemap`]: the decode chain up to the
/// last relevant dimension, each link with its within-chunk coordinate
/// → contribution table (empty for a dimension only decoded past).
pub(crate) struct ChunkKernel<'q> {
    steps: Vec<(&'q DimRemap, Cow<'q, [u64]>)>,
}

impl ChunkKernel<'_> {
    /// The one remap-and-aggregate body: cell `i` sits at `offsets[i]`
    /// and carries `measures(i)`. The remap runs [`BATCH`] cells at a
    /// time, column-wise over fixed-width buffers with no per-cell
    /// branching: excluded cells saturate to [`SKIP`] (`u64::MAX`, so
    /// no later table moves them off it) and are dropped in the final
    /// scatter. Bit-identical to the per-cell rank path:
    /// [`crate::aggregate::AggState`] folds are order-independent.
    fn fold<'v>(
        &self,
        offsets: &[u32],
        measures: impl Fn(usize) -> &'v [i64],
        cube: &mut ResultCube,
    ) {
        let mut rems = [0u32; BATCH];
        for (block, offsets) in offsets.chunks(BATCH).enumerate() {
            let rems = &mut rems[..offsets.len()];
            rems.copy_from_slice(offsets);
            let mut cells = [0u64; BATCH];
            for (dim, remap) in &self.steps {
                // Past a table's end lies an offset beyond the chunk; a
                // dimension without a table is only decoded past.
                let absent = if remap.is_empty() { 0 } else { SKIP };
                for (cell, rem) in cells.iter_mut().zip(rems.iter_mut()) {
                    let v = remap.get(dim.split(rem) as usize);
                    *cell = cell.saturating_add(v.copied().unwrap_or(absent));
                }
            }
            for (i, &cell) in cells.iter().enumerate().take(rems.len()) {
                if cell != SKIP {
                    cube.add_linear(cell as usize, measures(block * BATCH + i));
                }
            }
        }
    }

    /// Aggregates every valid cell of `chunk` into `cube`.
    pub(crate) fn apply(&self, chunk: &Chunk, cube: &mut ResultCube) {
        match chunk {
            Chunk::Compressed(c) => self.fold(c.offsets(), |i| c.values_at(i), cube),
            Chunk::Dense(d) => {
                let (offsets, rows): (Vec<u32>, Vec<&[i64]>) = d.iter_valid().unzip();
                self.fold(&offsets, |i| rows.get(i).copied().unwrap_or(&[]), cube);
            }
        }
    }

    /// Streaming entry point: drains a diff-seq chunk's cursor — gap
    /// unpack → prefix sum → remap — never materializing a [`Chunk`].
    pub(crate) fn apply_stream(
        &self,
        mut cursor: DiffSeqCursor<'_>,
        cube: &mut ResultCube,
    ) -> Result<()> {
        let p = cursor.n_measures();
        while let Some((offsets, values)) = cursor.next_batch()? {
            let row = |i: usize| values.get(i * p..(i + 1) * p).unwrap_or(&[]);
            self.fold(offsets, row, cube);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adt::OlapArray;
    use crate::consolidate::{make_cube, phase1};
    use crate::dimension::DimensionTable;
    use crate::query::{DimGrouping, Query};
    use molap_array::ChunkFormat;
    use molap_storage::{BufferPool, MemDisk};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// 10×8×6 cube in `[4, 3, 4]` chunks: the last chunk along every
    /// dimension is padded.
    fn build(format: ChunkFormat) -> OlapArray {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2048));
        let dim = |name, n: i64, f: fn(i64) -> i64| {
            let keys: Vec<i64> = (0..n).collect();
            DimensionTable::build(
                name,
                &keys,
                vec![("h", keys.iter().map(|&k| f(k)).collect())],
            )
            .unwrap()
        };
        let dims = vec![
            dim("a", 10, |k| k % 3),
            dim("b", 8, |k| k / 4),
            dim("c", 6, |k| k % 2),
        ];
        let cells: Vec<(Vec<i64>, Vec<i64>)> = (0..10i64)
            .flat_map(|x| (0..8i64).flat_map(move |y| (0..6i64).map(move |z| vec![x, y, z])))
            .filter(|k| (k[0] + k[1] + k[2]) % 2 == 0)
            .map(|k| (k.clone(), vec![k[0] * 100 + k[1] * 10 + k[2]]))
            .collect();
        OlapArray::build(pool, dims, &[4, 3, 4], format, cells, 1).unwrap()
    }

    /// Grouping shapes, including a dropped dimension between grouped
    /// ones and grouped dimensions ahead of dropped ones.
    fn groupings() -> Vec<Vec<DimGrouping>> {
        use DimGrouping::{Drop, Key, Level};
        vec![
            vec![Level(0), Level(0), Level(0)],
            vec![Level(0), Drop, Key],
            vec![Drop, Key, Drop],
            vec![Key, Drop, Drop],
            vec![Drop, Drop, Drop],
        ]
    }

    /// Masks dimension 0 (every other coordinate) and dimension 2 (all
    /// but coordinate 1); dimension 1 passes everything.
    fn mask(shape: &Shape) -> Vec<Vec<bool>> {
        (0..3)
            .map(|d| {
                (0..shape.chunk_dims()[d] as usize)
                    .map(|w| [w % 2 == 0, true, w != 1][d])
                    .collect()
            })
            .collect()
    }

    /// The per-cell rank path, with the membership test done by hand.
    fn oracle(adt: &OlapArray, maps: &[GroupMap], mask: Option<&[Vec<bool>]>) -> ResultCube {
        let shape = adt.array().shape();
        let mut expect = make_cube(maps, adt.n_measures());
        let mut ranks = vec![0u32; maps.len()];
        adt.array()
            .for_each_cell(|coords, values| {
                let member =
                    |d: usize| mask.is_none_or(|m| m[d][shape.within_chunk(d, coords[d]) as usize]);
                if (0..coords.len()).all(member) {
                    for (g, map) in maps.iter().enumerate() {
                        ranks[g] = map.i2i[coords[map.dim] as usize];
                    }
                    expect.add(&ranks, values);
                }
            })
            .unwrap();
        expect
    }

    #[test]
    fn kernel_matches_per_cell_aggregation() {
        // Compressed columns (ChunkOffset) and dense chunks (DenseLzw)
        // reach the same body; padded edges, masks and dropped
        // dimensions must not change a single accumulator.
        for format in [ChunkFormat::ChunkOffset, ChunkFormat::DenseLzw] {
            let adt = build(format);
            let shape = adt.array().shape();
            let mask = mask(shape);
            for group_by in groupings() {
                for membership in [None, Some(mask.as_slice())] {
                    let q = Query::new(group_by.clone());
                    let maps = phase1(&adt, &q).unwrap();
                    let mut cube = make_cube(&maps, adt.n_measures());
                    let remap = QueryRemap::new(shape, &maps, &cube);
                    for chunk_no in 0..shape.num_chunks() {
                        let chunk = adt.array().read_chunk(chunk_no).unwrap();
                        remap.kernel(chunk_no, membership).apply(&chunk, &mut cube);
                    }
                    assert_eq!(
                        cube.into_result(&q.aggs).unwrap(),
                        oracle(&adt, &maps, membership)
                            .into_result(&q.aggs)
                            .unwrap(),
                        "{format:?} {group_by:?} masked={}",
                        membership.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn batch_path_matches_apply() {
        // Cell runs of any length — single cells, a ragged tail,
        // exactly BATCH, more than BATCH — must agree with whole-chunk
        // `apply` on every grouping shape, masked or not.
        let adt = build(ChunkFormat::ChunkOffset);
        let shape = adt.array().shape();
        let mask = mask(shape);
        for group_by in groupings() {
            for membership in [None, Some(mask.as_slice())] {
                let q = Query::new(group_by.clone());
                let maps = phase1(&adt, &q).unwrap();
                let mut expect = make_cube(&maps, adt.n_measures());
                let mut cube = make_cube(&maps, adt.n_measures());
                let remap = QueryRemap::new(shape, &maps, &cube);
                for chunk_no in 0..shape.num_chunks() {
                    let chunk = adt.array().read_chunk(chunk_no).unwrap();
                    let Chunk::Compressed(c) = &*chunk else {
                        panic!("ChunkOffset arrays decode to compressed chunks");
                    };
                    if c.is_empty() {
                        continue;
                    }
                    // A chunk holds fewer cells than a batch: repeat
                    // them until the slices below span BATCH and
                    // BATCH + 7, and fold `expect` as many times.
                    let repeats = (2 * BATCH + 16).div_ceil(c.len());
                    let offsets = c.offsets().repeat(repeats);
                    let row = |i: usize| c.values_at(i % c.len());
                    let kernel = remap.kernel(chunk_no, membership);
                    for _ in 0..repeats {
                        kernel.apply(&chunk, &mut expect);
                    }
                    let mut at = 0usize;
                    for step in [1usize, 3, BATCH, BATCH + 7, usize::MAX] {
                        let end = at.saturating_add(step).min(offsets.len());
                        kernel.fold(&offsets[at..end], |i| row(at + i), &mut cube);
                        at = end;
                    }
                }
                assert_eq!(
                    cube.into_result(&q.aggs).unwrap(),
                    expect.into_result(&q.aggs).unwrap(),
                    "{group_by:?} masked={}",
                    membership.is_some()
                );
            }
        }
    }

    /// Decodes `offset` with the kernel's chain and with
    /// [`Shape::decode`], on the shape's first and last (ragged) chunk.
    fn assert_decodes_agree(shape: &Shape, offset: u32) {
        let remap = QueryRemap::new(shape, &[], &ResultCube::new(vec![], 1));
        let n = shape.n_dims();
        let (mut base, mut coords) = (vec![0u32; n], vec![0u32; n]);
        for chunk_no in [0, shape.num_chunks() - 1] {
            shape.chunk_base(chunk_no, &mut base);
            shape.decode(chunk_no, offset, &mut coords);
            let mut rem = offset;
            for d in 0..n {
                let within = remap.dims[d].split(&mut rem);
                assert_eq!(
                    within,
                    coords[d] - base[d],
                    "{shape:?} offset {offset} dim {d}"
                );
            }
            assert_eq!(rem, 0, "{shape:?} offset {offset}");
        }
    }

    #[test]
    fn chained_decode_is_exact_at_the_u32_cap() {
        // 65535 × 65537 = 2^32 − 1 cells: the largest chunk `Shape`
        // admits, so offsets and the leading stride sit at the edge of
        // `fast_div`'s exactness bound.
        let shape = Shape::new(vec![65535, 3 * 65537 + 1], vec![65535, 65537]).unwrap();
        for offset in [0, 1, 65536, 65537, 65538, u32::MAX - 65537, u32::MAX - 1] {
            assert_decodes_agree(&shape, offset);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For every offset of random 1–5-dimensional shapes — extent-1
        /// dimensions, ragged last chunks, chunk volumes from 1 cell to
        /// beyond 2^31 — the chained reciprocal decode equals
        /// `Shape::decode`.
        #[test]
        fn chained_decode_matches_shape_decode(
            dims in proptest::collection::vec(
                (prop_oneof![Just(1u32), 2u32..9, 2u32..9, 200u32..2000], 0u32..3, 0u32..7),
                1..6,
            ),
            probes in proptest::collection::vec(any::<u32>(), 64),
        ) {
            // Keep the chunk volume inside `Shape`'s u32 cap: once it
            // is spent, further dimensions get extent 1.
            let mut volume = 1u64;
            let chunk_dims: Vec<u32> = dims
                .iter()
                .map(|&(c, _, _)| {
                    let c = if volume * c as u64 > u32::MAX as u64 { 1 } else { c };
                    volume *= c as u64;
                    c
                })
                .collect();
            let lens: Vec<u32> = dims
                .iter()
                .zip(&chunk_dims)
                .map(|(&(_, whole, ragged), &c)| c * (whole + 1) + ragged % c)
                .collect();
            let shape = Shape::new(lens, chunk_dims).unwrap();
            let cells = shape.chunk_cells() as u32;
            if cells <= 1 << 12 {
                (0..cells).for_each(|offset| assert_decodes_agree(&shape, offset));
            } else {
                // Too many to enumerate: the ends, every stride's
                // neighbourhood, and random offsets.
                let strides = (0..shape.n_dims()).map(|d| shape.cell_stride(d) as u32);
                let edges = strides.flat_map(|s| [s.saturating_sub(1), s, s + 1, cells - s]);
                for offset in edges.chain([0, cells - 1]).chain(probes.iter().map(|p| p % cells)) {
                    assert_decodes_agree(&shape, offset.min(cells - 1));
                }
            }
        }
    }
}
