//! Chunk representations: chunk-offset compressed and dense.
//!
//! The compressed form is the paper's §3.3 structure verbatim: the valid
//! cells of a chunk as `(offsetInChunk, data)` pairs, "sorted ... in
//! increasing order of array cells' chunk offsets", so that "given a
//! set of array index values we can calculate the chunk number and the
//! chunk offset and use a binary search to find whether there is [a]
//! valid array cell" — the probe at the heart of the selection
//! algorithm (§4.2).
//!
//! The dense form materializes every cell (plus a validity bitmap). No
//! array stores it; it is the ablation baseline, what the generic
//! Paradise array stores, optionally behind LZW (§3.1), and it is only
//! reached through [`CompressedChunk::to_dense`].

use molap_bitmap::Bitmap;
use molap_storage::util::{read_i64, read_u32, read_u64, write_i64, write_u32, write_u64};

use crate::{ArrayError, Result};

/// A chunk holding only its valid cells, sorted by offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedChunk {
    n_measures: usize,
    offsets: Vec<u32>,
    /// `n_measures` values per entry, parallel to `offsets`.
    values: Vec<i64>,
}

impl CompressedChunk {
    /// An empty chunk (no valid cells).
    pub fn empty(n_measures: usize) -> Self {
        assert!(n_measures > 0, "cells must carry at least one measure");
        CompressedChunk {
            n_measures,
            offsets: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of valid cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True if the chunk has no valid cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Measures per cell.
    #[inline]
    pub fn n_measures(&self) -> usize {
        self.n_measures
    }

    /// Binary-searches for a cell at `offset`; returns its measures.
    #[inline]
    pub fn probe(&self, offset: u32) -> Option<&[i64]> {
        let i = self.offsets.binary_search(&offset).ok()?;
        Some(&self.values[i * self.n_measures..(i + 1) * self.n_measures])
    }

    /// Like [`CompressedChunk::probe`], but resumes from entry `from`
    /// and reports where the search ended.
    ///
    /// The §4.2 algorithm generates probe offsets *in increasing order*,
    /// so each search only needs to look at entries past the previous
    /// hit — this turns a sequence of probes over one chunk from
    /// O(k·log n) into O(k·log of the remaining range) with a shrinking
    /// base. Returns `(match, next_from)`.
    #[inline]
    pub fn probe_from(&self, offset: u32, from: usize) -> (Option<&[i64]>, usize) {
        match self.offsets[from..].binary_search(&offset) {
            Ok(i) => {
                let idx = from + i;
                (
                    Some(&self.values[idx * self.n_measures..(idx + 1) * self.n_measures]),
                    idx + 1,
                )
            }
            Err(i) => (None, from + i),
        }
    }

    /// Iterates `(offset, measures)` in offset order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[i64])> {
        self.offsets.iter().enumerate().map(|(i, &off)| {
            (
                off,
                &self.values[i * self.n_measures..(i + 1) * self.n_measures],
            )
        })
    }

    /// Every entry's offset, ascending: the column batch kernels
    /// decode, entry `i` pairing with [`CompressedChunk::values_at`].
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Entry `i`'s offset (entries are offset-sorted).
    #[inline]
    pub fn offset_at(&self, i: usize) -> u32 {
        self.offsets[i]
    }

    /// Entry `i`'s measures.
    #[inline]
    pub fn values_at(&self, i: usize) -> &[i64] {
        &self.values[i * self.n_measures..(i + 1) * self.n_measures]
    }

    /// Serialized byte size without materializing — also the
    /// accounting unit for the decoded-chunk cache's byte cap.
    pub fn byte_size(&self) -> usize {
        8 + self.offsets.len() * 4 + self.values.len() * 8
    }

    /// Serializes as `[count u32][n_measures u32][offsets][values]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.byte_size()];
        write_u32(&mut out, 0, self.offsets.len() as u32);
        write_u32(&mut out, 4, self.n_measures as u32);
        let mut pos = 8;
        for &off in &self.offsets {
            write_u32(&mut out, pos, off);
            pos += 4;
        }
        for &v in &self.values {
            write_i64(&mut out, pos, v);
            pos += 8;
        }
        out
    }

    /// Inverse of [`CompressedChunk::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 8 {
            return Err(ArrayError::Corrupt("chunk header"));
        }
        let n = read_u32(bytes, 0) as usize;
        let p = read_u32(bytes, 4) as usize;
        if p == 0 {
            return Err(ArrayError::Corrupt("chunk has zero measures"));
        }
        let need = 8 + n * 4 + n * p * 8;
        if bytes.len() < need {
            return Err(ArrayError::Corrupt("chunk truncated"));
        }
        let offsets: Vec<u32> = (0..n).map(|i| read_u32(bytes, 8 + i * 4)).collect();
        if offsets.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ArrayError::Corrupt("chunk offsets not strictly sorted"));
        }
        let base = 8 + n * 4;
        let values: Vec<i64> = (0..n * p).map(|i| read_i64(bytes, base + i * 8)).collect();
        Ok(CompressedChunk {
            n_measures: p,
            offsets,
            values,
        })
    }

    /// Assembles a chunk from already-validated parts — the decode
    /// target of the difference-sequence codec, whose reconstruction
    /// is strictly monotone by construction (`diffseq`).
    pub(crate) fn from_parts(n_measures: usize, offsets: Vec<u32>, values: Vec<i64>) -> Self {
        debug_assert!(n_measures > 0);
        debug_assert!(offsets.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(values.len(), offsets.len() * n_measures);
        CompressedChunk {
            n_measures,
            offsets,
            values,
        }
    }

    /// Identity. `ChunkedArray::read_chunk` returns a `CompressedChunk`
    /// in every format; this stays so that code converting a read's
    /// result (the benchmark's codec trace) keeps compiling.
    pub fn into_compressed(self) -> CompressedChunk {
        self
    }

    /// Expands into a dense chunk of `chunk_cells` cells — the input of
    /// the dense and LZW ablation baselines.
    pub fn to_dense(&self, chunk_cells: usize) -> DenseChunk {
        let mut dense = DenseChunk::new(chunk_cells, self.n_measures);
        for (off, vals) in self.iter() {
            dense.set(off, vals);
        }
        dense
    }
}

/// Builder accumulating unsorted `(offset, measures)` cells for one
/// chunk; [`ChunkBuilder::build`] sorts and validates.
#[derive(Debug)]
pub struct ChunkBuilder {
    n_measures: usize,
    entries: Vec<(u32, usize)>, // (offset, index into values)
    values: Vec<i64>,
}

impl ChunkBuilder {
    /// Creates an empty builder for `n_measures`-measure cells.
    pub fn new(n_measures: usize) -> Self {
        assert!(n_measures > 0, "cells must carry at least one measure");
        ChunkBuilder {
            n_measures,
            entries: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of cells added so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds a cell.
    pub fn add(&mut self, offset: u32, values: &[i64]) {
        assert_eq!(values.len(), self.n_measures, "measure arity");
        self.entries.push((offset, self.values.len()));
        self.values.extend_from_slice(values);
    }

    /// Sorts by offset and produces the compressed chunk. Duplicate
    /// offsets are an error (a cell was written twice).
    pub fn build(mut self) -> Result<CompressedChunk> {
        self.entries.sort_unstable_by_key(|&(off, _)| off);
        if self.entries.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(ArrayError::Geometry(
                "duplicate cell offset in chunk".into(),
            ));
        }
        let p = self.n_measures;
        let mut offsets = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len() * p);
        for (off, vi) in self.entries {
            offsets.push(off);
            values.extend_from_slice(&self.values[vi..vi + p]);
        }
        Ok(CompressedChunk {
            n_measures: p,
            offsets,
            values,
        })
    }
}

/// A fully materialized chunk: every cell present, validity tracked by
/// bitmap, invalid cells zero-filled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseChunk {
    n_measures: usize,
    valid: Bitmap,
    values: Vec<i64>,
}

impl DenseChunk {
    /// Creates an all-invalid dense chunk of `cells` cells.
    pub fn new(cells: usize, n_measures: usize) -> Self {
        assert!(n_measures > 0, "cells must carry at least one measure");
        DenseChunk {
            n_measures,
            valid: Bitmap::new(cells),
            values: vec![0; cells * n_measures],
        }
    }

    /// Number of cells (valid or not).
    pub fn cells(&self) -> usize {
        self.valid.nbits()
    }

    /// Writes a cell.
    pub fn set(&mut self, offset: u32, values: &[i64]) {
        assert_eq!(values.len(), self.n_measures, "measure arity");
        let i = offset as usize;
        self.valid.set(i);
        self.values[i * self.n_measures..(i + 1) * self.n_measures].copy_from_slice(values);
    }

    /// Reads a cell's measures if it is valid.
    pub fn probe(&self, offset: u32) -> Option<&[i64]> {
        let i = offset as usize;
        if i < self.cells() && self.valid.get(i) {
            Some(&self.values[i * self.n_measures..(i + 1) * self.n_measures])
        } else {
            None
        }
    }

    /// Iterates valid `(offset, measures)` cells in offset order.
    pub fn iter_valid(&self) -> impl Iterator<Item = (u32, &[i64])> {
        self.valid.iter_ones().map(move |i| {
            (
                i as u32,
                &self.values[i * self.n_measures..(i + 1) * self.n_measures],
            )
        })
    }

    /// Serializes as `[cells u64][n_measures u32][validity][values]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let valid_bytes = self.valid.to_bytes();
        let mut out = vec![0u8; 16 + valid_bytes.len() + self.values.len() * 8];
        write_u64(&mut out, 0, self.cells() as u64);
        write_u32(&mut out, 8, self.n_measures as u32);
        write_u32(&mut out, 12, valid_bytes.len() as u32);
        out[16..16 + valid_bytes.len()].copy_from_slice(&valid_bytes);
        let base = 16 + valid_bytes.len();
        for (i, &v) in self.values.iter().enumerate() {
            write_i64(&mut out, base + i * 8, v);
        }
        out
    }

    /// Inverse of [`DenseChunk::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 16 {
            return Err(ArrayError::Corrupt("dense chunk header"));
        }
        let cells = read_u64(bytes, 0) as usize;
        let p = read_u32(bytes, 8) as usize;
        let vb = read_u32(bytes, 12) as usize;
        if p == 0 {
            return Err(ArrayError::Corrupt("dense chunk zero measures"));
        }
        if bytes.len() < 16 + vb + cells * p * 8 {
            return Err(ArrayError::Corrupt("dense chunk truncated"));
        }
        let valid = Bitmap::from_bytes(&bytes[16..16 + vb])
            .map_err(|_| ArrayError::Corrupt("dense chunk validity bitmap"))?;
        if valid.nbits() != cells {
            return Err(ArrayError::Corrupt("dense chunk validity width"));
        }
        let base = 16 + vb;
        let values = (0..cells * p)
            .map(|i| read_i64(bytes, base + i * 8))
            .collect();
        Ok(DenseChunk {
            n_measures: p,
            valid,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompressedChunk {
        let mut b = ChunkBuilder::new(2);
        b.add(100, &[1, -1]);
        b.add(5, &[2, -2]);
        b.add(50, &[3, -3]);
        b.build().unwrap()
    }

    #[test]
    fn builder_sorts_by_offset() {
        let c = sample();
        assert_eq!(c.len(), 3);
        let entries: Vec<(u32, Vec<i64>)> = c.iter().map(|(o, v)| (o, v.to_vec())).collect();
        assert_eq!(
            entries,
            vec![(5, vec![2, -2]), (50, vec![3, -3]), (100, vec![1, -1])]
        );
    }

    #[test]
    fn duplicate_offsets_rejected() {
        let mut b = ChunkBuilder::new(1);
        b.add(7, &[1]);
        b.add(7, &[2]);
        assert!(matches!(b.build(), Err(ArrayError::Geometry(_))));
    }

    #[test]
    fn probe_hits_and_misses() {
        let c = sample();
        assert_eq!(c.probe(50), Some(&[3i64, -3][..]));
        assert_eq!(c.probe(51), None);
        assert_eq!(c.probe(0), None);
        assert_eq!(c.probe(u32::MAX), None);
        assert_eq!(CompressedChunk::empty(1).probe(0), None);
    }

    #[test]
    fn probe_from_advances_monotonically() {
        let mut b = ChunkBuilder::new(1);
        for off in [2u32, 4, 8, 16, 32] {
            b.add(off, &[off as i64]);
        }
        let c = b.build().unwrap();
        let mut from = 0;
        let mut hits = Vec::new();
        for probe in 0..40u32 {
            let (hit, next) = c.probe_from(probe, from);
            assert!(next >= from);
            from = next;
            if let Some(v) = hit {
                hits.push((probe, v[0]));
            }
        }
        assert_eq!(hits, vec![(2, 2), (4, 4), (8, 8), (16, 16), (32, 32)]);
    }

    #[test]
    fn compressed_bytes_roundtrip() {
        let c = sample();
        let restored = CompressedChunk::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(restored, c);
        assert_eq!(c.to_bytes().len(), c.byte_size());

        let empty = CompressedChunk::empty(3);
        assert_eq!(
            CompressedChunk::from_bytes(&empty.to_bytes()).unwrap(),
            empty
        );
    }

    #[test]
    fn corrupt_compressed_bytes_rejected() {
        let c = sample();
        let bytes = c.to_bytes();
        assert!(CompressedChunk::from_bytes(&bytes[..7]).is_err());
        assert!(CompressedChunk::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        // Unsorted offsets.
        let mut bad = bytes.clone();
        write_u32(&mut bad, 8, 999);
        assert!(CompressedChunk::from_bytes(&bad).is_err());
        // Zero measures.
        let mut bad2 = bytes;
        write_u32(&mut bad2, 4, 0);
        assert!(CompressedChunk::from_bytes(&bad2).is_err());
    }

    #[test]
    fn dense_set_probe_iter() {
        let mut d = DenseChunk::new(100, 1);
        assert_eq!(d.iter_valid().count(), 0);
        d.set(10, &[7]);
        d.set(0, &[1]);
        d.set(99, &[9]);
        assert_eq!(d.probe(10), Some(&[7i64][..]));
        assert_eq!(d.probe(11), None);
        assert_eq!(d.probe(200), None);
        assert_eq!(
            d.iter_valid().map(|(o, v)| (o, v[0])).collect::<Vec<_>>(),
            vec![(0, 1), (10, 7), (99, 9)]
        );
        // Overwrite keeps validity.
        d.set(10, &[70]);
        assert_eq!(d.probe(10), Some(&[70i64][..]));
        assert_eq!(d.iter_valid().count(), 3);
    }

    #[test]
    fn to_dense_keeps_every_valid_cell() {
        let c = sample();
        let d = c.to_dense(128);
        assert_eq!(d.cells(), 128);
        assert!(d.iter_valid().eq(c.iter()));
        assert_eq!(d.probe(51), None);
    }

    #[test]
    fn dense_bytes_roundtrip() {
        let mut d = DenseChunk::new(50, 2);
        d.set(1, &[10, 20]);
        d.set(49, &[-1, -2]);
        let restored = DenseChunk::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(restored, d);
        assert!(DenseChunk::from_bytes(&d.to_bytes()[..10]).is_err());
    }

    #[test]
    fn compression_ratio_on_sparse_chunk() {
        // 1% dense chunk of 80,000 cells: compressed ≪ dense (§3.3).
        let cells = 80_000usize;
        let mut b = ChunkBuilder::new(1);
        for i in (0..cells).step_by(100) {
            b.add(i as u32, &[i as i64]);
        }
        let c = b.build().unwrap();
        let dense_size = c.to_dense(cells).to_bytes().len();
        assert!(
            c.byte_size() * 10 < dense_size,
            "compressed {} vs dense {}",
            c.byte_size(),
            dense_size
        );
    }
}
