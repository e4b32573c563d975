//! Difference-sequence chunk codec (ROADMAP item 3).
//!
//! The second on-disk chunk format, beside chunk-offset (§3.3): the
//! valid cells' chunk offsets are sorted, delta-encoded, and the gaps
//! bit-packed per fixed-size block, with the measures stored as plain
//! columns alongside (Szépkúti,
//! "Difference Sequence Compression of Multidimensional Databases",
//! arXiv:1103.3857). At the paper's sparse densities the packed gaps
//! shrink the 4-byte offset column to one-or-two bits-per-gap-bit
//! widths, and — unlike LZW — decode streams: a block of gaps unpacks
//! into a fixed `[u32; BLOCK]` buffer, one prefix sum reconstructs the
//! offsets, and the batch feeds a per-chunk kernel directly, so the
//! scan path never materializes a [`CompressedChunk`] at all.
//!
//! ## Wire layout
//!
//! ```text
//! [count u32][n_measures u32][off_bytes u32]        -- 12-byte header
//! offset section (off_bytes bytes): per block of up to BLOCK gaps
//!     [width u8]                                    -- bits per gap, 0..=32
//!     [ceil(k*width/8) bytes]                       -- k gaps, LSB-first
//! measure section: n_measures columns of count i64 (little-endian)
//! ```
//!
//! Gaps are `gap[i] = offset[i] - offset[i-1] - 1` with a virtual
//! `offset[-1] = -1`, so every gap is non-negative and reconstruction
//! (`offset[i] = offset[i-1] + gap[i] + 1`) is strictly monotone *by
//! construction* — a corrupt stream cannot produce out-of-order
//! offsets, only offsets past the chunk volume, which the decoders
//! reject with the typed [`ArrayError::Corrupt`]. Each block's width is
//! the bit width of its largest gap; a width-0 block (a consecutive
//! run) has no payload bytes at all.
//!
//! Two decoders, a reference and a fast path:
//!
//! * [`decompress`] — the reference decoder: reads one gap at a time,
//!   bit by bit. Simple enough to trust; the fast paths are asserted
//!   bit-identical against it (`tests/prop.rs`). It has no engine
//!   caller.
//! * [`DiffSeqCursor`] — the streaming fast path: unpacks whole blocks
//!   into a fixed buffer through a 64-bit accumulator, prefix-sums, and
//!   yields `(offsets, row-major measures)` batches without building a
//!   chunk. [`decompress_fast`] materializes a [`CompressedChunk`] from
//!   the same cursor for the paths that genuinely need one
//!   (`apply_chunk_writes`, the decoded-chunk cache, §4.2 probes).
//!
//! Every malformed input — truncated header, width over 32, truncated
//! block or measure column, offset section longer or shorter than its
//! declared length, reconstruction past the chunk volume — returns
//! [`ArrayError::Corrupt`]; nothing in this module panics.

use molap_storage::util::{read_i64, read_u32, write_u32};

use crate::chunk::CompressedChunk;
use crate::{ArrayError, Result};

/// Gaps per bit-packed block; also the streaming batch size. 64 keeps
/// the unpack/prefix-sum loops on fixed-size stack buffers.
pub const BLOCK: usize = 64;

/// Header bytes: count, n_measures, offset-section length.
const HEADER: usize = 12;

/// Bits needed to store `v` (0 for 0).
#[inline]
fn bit_width(v: u32) -> u32 {
    32 - v.leading_zeros()
}

/// Encodes a chunk-offset compressed chunk into difference-sequence
/// bytes. The inverse of [`decompress`] / [`decompress_fast`].
pub fn compress(chunk: &CompressedChunk) -> Vec<u8> {
    let n = chunk.len();
    let p = chunk.n_measures();
    let mut off_sec: Vec<u8> = Vec::new();
    let mut gaps = [0u32; BLOCK];
    let mut prev: i64 = -1;
    let mut i = 0usize;
    while i < n {
        let k = (n - i).min(BLOCK);
        let mut max_gap = 0u32;
        for (j, g) in gaps.iter_mut().take(k).enumerate() {
            let off = chunk.offset_at(i + j) as i64;
            *g = (off - prev - 1) as u32; // offsets strictly sorted
            prev = off;
            max_gap = max_gap.max(*g);
        }
        let w = bit_width(max_gap);
        off_sec.push(w as u8);
        // LSB-first bit packing through a 64-bit accumulator.
        let mut acc = 0u64;
        let mut nbits = 0u32;
        for &g in &gaps[..k] {
            acc |= (g as u64) << nbits;
            nbits += w;
            while nbits >= 8 {
                off_sec.push(acc as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            off_sec.push(acc as u8);
        }
        i += k;
    }
    let mut out = vec![0u8; HEADER];
    write_u32(&mut out, 0, n as u32);
    write_u32(&mut out, 4, p as u32);
    write_u32(&mut out, 8, off_sec.len() as u32);
    out.extend_from_slice(&off_sec);
    // Measures: one column per measure, n values each.
    out.reserve(n * p * 8);
    for m in 0..p {
        for i in 0..n {
            out.extend_from_slice(&chunk.values_at(i)[m].to_le_bytes());
        }
    }
    out
}

/// Parsed header plus the two sections.
struct Sections<'a> {
    n: usize,
    p: usize,
    /// Bit-packed gap blocks.
    offs: &'a [u8],
    /// Columnar measures (`p` columns × `n` i64).
    meas: &'a [u8],
}

fn split_sections(bytes: &[u8], limit: u32) -> Result<Sections<'_>> {
    if bytes.len() < HEADER {
        return Err(ArrayError::Corrupt("diffseq header truncated"));
    }
    let n = read_u32(bytes, 0) as usize;
    let p = read_u32(bytes, 4) as usize;
    let off_bytes = read_u32(bytes, 8) as usize;
    if p == 0 {
        return Err(ArrayError::Corrupt("diffseq chunk has zero measures"));
    }
    // n distinct offsets in [0, limit) cannot outnumber the volume.
    if n as u64 > limit as u64 {
        return Err(ArrayError::Corrupt("diffseq count exceeds chunk volume"));
    }
    let meas_bytes = n
        .checked_mul(p)
        .and_then(|c| c.checked_mul(8))
        .ok_or(ArrayError::Corrupt("diffseq section overflow"))?;
    let need = HEADER
        .checked_add(off_bytes)
        .and_then(|c| c.checked_add(meas_bytes))
        .ok_or(ArrayError::Corrupt("diffseq section overflow"))?;
    if bytes.len() < need {
        return Err(ArrayError::Corrupt("diffseq chunk truncated"));
    }
    Ok(Sections {
        n,
        p,
        offs: &bytes[HEADER..HEADER + off_bytes],
        meas: &bytes[HEADER + off_bytes..need],
    })
}

/// The reference decoder: one gap at a time, bit by bit. `limit` is the
/// chunk's cell count; any reconstructed offset at or past it is
/// corruption. No engine path calls it — every read decodes through
/// [`decompress_fast`] or a [`DiffSeqCursor`], which the proptests hold
/// to this function's output.
pub fn decompress(bytes: &[u8], limit: u32) -> Result<CompressedChunk> {
    let s = split_sections(bytes, limit)?;
    let mut offsets: Vec<u32> = Vec::with_capacity(s.n);
    let mut prev: i64 = -1;
    let mut pos = 0usize;
    while offsets.len() < s.n {
        let w = *s
            .offs
            .get(pos)
            .ok_or(ArrayError::Corrupt("diffseq block header truncated"))? as usize;
        pos += 1;
        if w > 32 {
            return Err(ArrayError::Corrupt("diffseq gap width over 32"));
        }
        let k = (s.n - offsets.len()).min(BLOCK);
        for j in 0..k {
            let mut gap = 0u32;
            for b in 0..w {
                let bit = j * w + b;
                let byte = *s
                    .offs
                    .get(pos + bit / 8)
                    .ok_or(ArrayError::Corrupt("diffseq block truncated"))?;
                gap |= (((byte >> (bit % 8)) & 1) as u32) << b;
            }
            prev = prev + 1 + gap as i64;
            if prev >= limit as i64 {
                return Err(ArrayError::Corrupt("diffseq offset beyond chunk volume"));
            }
            offsets.push(prev as u32);
        }
        pos += (k * w).div_ceil(8);
    }
    if pos != s.offs.len() {
        return Err(ArrayError::Corrupt(
            "diffseq offset section length mismatch",
        ));
    }
    // Columnar wire → row-major cells.
    let mut values = vec![0i64; s.n * s.p];
    for m in 0..s.p {
        for i in 0..s.n {
            values[i * s.p + m] = read_i64(s.meas, (m * s.n + i) * 8);
        }
    }
    Ok(CompressedChunk::from_parts(s.p, offsets, values))
}

/// Structural validation without touching gap payloads: checks the
/// header, section lengths, and every block header (width ≤ 32, payload
/// present), skipping over the packed bits — O(count / BLOCK), not
/// O(count). The chunk loader runs this before handing raw bytes to a
/// streaming consumer, so a torn read is classified where the fallback
/// ladder lives (see `ChunkedArray::read_chunk_stream_at`)
/// without paying a second full unpack on every healthy chunk. One
/// corruption class deliberately passes: gap values whose reconstruction
/// runs past the chunk volume — [`DiffSeqCursor`] rejects those with the
/// same typed [`ArrayError::Corrupt`] at consume time, and the streaming
/// consumers propagate it.
pub fn validate(bytes: &[u8], limit: u32) -> Result<()> {
    let s = split_sections(bytes, limit)?;
    let mut pos = 0usize;
    let mut decoded = 0usize;
    while decoded < s.n {
        let w = *s
            .offs
            .get(pos)
            .ok_or(ArrayError::Corrupt("diffseq block header truncated"))? as usize;
        pos += 1;
        if w > 32 {
            return Err(ArrayError::Corrupt("diffseq gap width over 32"));
        }
        let k = (s.n - decoded).min(BLOCK);
        let plen = (k * w).div_ceil(8);
        if s.offs.len() - pos < plen {
            return Err(ArrayError::Corrupt("diffseq block truncated"));
        }
        pos += plen;
        decoded += k;
    }
    if pos != s.offs.len() {
        return Err(ArrayError::Corrupt(
            "diffseq offset section length mismatch",
        ));
    }
    Ok(())
}

/// Streaming decoder: yields `(offsets, row-major measures)` batches of
/// up to [`BLOCK`] cells straight off the wire bytes. The hot path of
/// pipelined consolidation on DiffSeq arrays — the consumer feeds each
/// batch to a per-chunk kernel and no chunk is ever materialized.
pub struct DiffSeqCursor<'a> {
    sections: Sections<'a>,
    /// Read position in the offset section.
    pos: usize,
    /// Cells decoded so far.
    decoded: usize,
    /// Last reconstructed offset (-1 before the first).
    prev: i64,
    limit: u32,
    /// Unpacked gaps → offsets for the current batch.
    offs: [u32; BLOCK],
    /// Row-major measures for the current batch (`k * p`).
    vals: Vec<i64>,
}

impl<'a> DiffSeqCursor<'a> {
    /// Parses the header and sections; `limit` is the chunk's cell
    /// count (reconstruction must stay under it).
    pub fn new(bytes: &'a [u8], limit: u32) -> Result<Self> {
        let sections = split_sections(bytes, limit)?;
        let vals = vec![0i64; BLOCK * sections.p];
        Ok(DiffSeqCursor {
            sections,
            pos: 0,
            decoded: 0,
            prev: -1,
            limit,
            offs: [0u32; BLOCK],
            vals,
        })
    }

    /// Total valid cells in the chunk.
    pub fn len(&self) -> usize {
        self.sections.n
    }

    /// True if the chunk has no valid cells.
    pub fn is_empty(&self) -> bool {
        self.sections.n == 0
    }

    /// Measures per cell.
    pub fn n_measures(&self) -> usize {
        self.sections.p
    }

    /// Decodes the next batch: up to [`BLOCK`] `(offset, measures)`
    /// cells, offsets ascending, measures row-major (`k * n_measures`
    /// values). Returns `None` after the last batch.
    #[allow(clippy::type_complexity)]
    pub fn next_batch(&mut self) -> Result<Option<(&[u32], &[i64])>> {
        let s = &self.sections;
        if self.decoded == s.n {
            if self.pos != s.offs.len() {
                return Err(ArrayError::Corrupt(
                    "diffseq offset section length mismatch",
                ));
            }
            return Ok(None);
        }
        let w = *s
            .offs
            .get(self.pos)
            .ok_or(ArrayError::Corrupt("diffseq block header truncated"))? as usize;
        if w > 32 {
            return Err(ArrayError::Corrupt("diffseq gap width over 32"));
        }
        let k = (s.n - self.decoded).min(BLOCK);
        let plen = (k * w).div_ceil(8);
        let payload = s
            .offs
            .get(self.pos + 1..self.pos + 1 + plen)
            .ok_or(ArrayError::Corrupt("diffseq block truncated"))?;
        // Unpack the whole block through a 64-bit accumulator, then
        // prefix-sum — no per-cell branching beyond the refill.
        let mask = if w == 32 { u32::MAX } else { (1u32 << w) - 1 };
        let mut acc = 0u64;
        let mut nbits = 0usize;
        let mut it = payload.iter();
        for g in self.offs.iter_mut().take(k) {
            while nbits < w {
                acc |= (*it
                    .next()
                    .ok_or(ArrayError::Corrupt("diffseq block truncated"))?
                    as u64)
                    << nbits;
                nbits += 8;
            }
            *g = acc as u32 & mask;
            acc >>= w;
            nbits -= w;
        }
        let mut carry = self.prev;
        for o in self.offs.iter_mut().take(k) {
            carry += *o as i64 + 1;
            *o = carry as u32;
        }
        if carry >= self.limit as i64 {
            return Err(ArrayError::Corrupt("diffseq offset beyond chunk volume"));
        }
        self.prev = carry;
        // Gather this batch's measures from the columns, row-major.
        let (p, n, base) = (s.p, s.n, self.decoded);
        for m in 0..p {
            let col = (m * n + base) * 8;
            for j in 0..k {
                self.vals[j * p + m] = read_i64(s.meas, col + j * 8);
            }
        }
        self.pos += 1 + plen;
        self.decoded += k;
        Ok(Some((&self.offs[..k], &self.vals[..k * p])))
    }
}

/// Materializes a [`CompressedChunk`] through the streaming cursor —
/// the fast decoder for paths that need a whole chunk (write rebuilds,
/// the decoded-chunk cache, §4.2 probe-direction chunks). The oracle
/// [`decompress`] stays the reference; tests assert the two agree.
pub fn decompress_fast(bytes: &[u8], limit: u32) -> Result<CompressedChunk> {
    let mut cur = DiffSeqCursor::new(bytes, limit)?;
    let (n, p) = (cur.len(), cur.n_measures());
    let mut offsets = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n * p);
    while let Some((offs, vals)) = cur.next_batch()? {
        offsets.extend_from_slice(offs);
        values.extend_from_slice(vals);
    }
    Ok(CompressedChunk::from_parts(p, offsets, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkBuilder;

    fn sample_chunk(offsets: &[u32], p: usize) -> CompressedChunk {
        let mut b = ChunkBuilder::new(p);
        for (i, &off) in offsets.iter().enumerate() {
            let vals: Vec<i64> = (0..p).map(|m| (i * p + m) as i64 * 7 - 3).collect();
            b.add(off, &vals);
        }
        b.build().unwrap()
    }

    fn roundtrip(offsets: &[u32], p: usize, limit: u32) {
        let chunk = sample_chunk(offsets, p);
        let bytes = compress(&chunk);
        let slow = decompress(&bytes, limit).unwrap();
        let fast = decompress_fast(&bytes, limit).unwrap();
        assert_eq!(slow, chunk, "oracle roundtrip");
        assert_eq!(fast, chunk, "fast roundtrip");
        validate(&bytes, limit).unwrap();
    }

    #[test]
    fn roundtrips_sparse_dense_and_edge_occupancies() {
        roundtrip(&[], 1, 100);
        roundtrip(&[0], 1, 1);
        roundtrip(&[99], 3, 100);
        roundtrip(&(0..100).collect::<Vec<_>>(), 2, 100); // full chunk
        roundtrip(&[0, 1, 2, 63, 64, 65, 127, 128, 4000], 1, 4096);
        // More cells than one block, irregular gaps.
        let offsets: Vec<u32> = (0..300u32).map(|i| i * i / 3 + i).collect();
        roundtrip(&offsets, 2, 40_000);
    }

    #[test]
    fn beats_chunk_offset_on_sparse_chunks() {
        // 1 %-dense 40 000-cell chunk: the acceptance regime.
        let offsets: Vec<u32> = (0..400u32).map(|i| i * 100 + (i * 37) % 90).collect();
        let chunk = sample_chunk(&offsets, 1);
        let diff = compress(&chunk).len() as f64;
        let plain = chunk.to_bytes().len() as f64;
        assert!(
            diff / plain <= 0.8,
            "diffseq {diff}B vs chunk-offset {plain}B"
        );
    }

    #[test]
    fn streaming_batches_agree_with_oracle() {
        let offsets: Vec<u32> = (0..777u32).map(|i| i * 13 + (i % 5)).collect();
        let chunk = sample_chunk(&offsets, 2);
        let bytes = compress(&chunk);
        let oracle = decompress(&bytes, 40_000).unwrap();
        let mut cur = DiffSeqCursor::new(&bytes, 40_000).unwrap();
        assert_eq!(cur.len(), 777);
        assert_eq!(cur.n_measures(), 2);
        let mut i = 0usize;
        while let Some((offs, vals)) = cur.next_batch().unwrap() {
            assert!(offs.len() <= BLOCK);
            for (j, &off) in offs.iter().enumerate() {
                assert_eq!(off, oracle.offset_at(i + j));
                assert_eq!(&vals[j * 2..(j + 1) * 2], oracle.values_at(i + j));
            }
            i += offs.len();
        }
        assert_eq!(i, 777);
    }

    /// Mirror of `chunk::tests::corrupt_compressed_bytes_rejected` for
    /// the new codec: every malformed stream must come back as the
    /// typed decode error from *both* decoders plus the validator —
    /// never a panic.
    #[test]
    fn corrupt_diffseq_bytes_rejected() {
        let offsets: Vec<u32> = (0..200u32).map(|i| i * 97).collect();
        let chunk = sample_chunk(&offsets, 2);
        let good = compress(&chunk);
        let limit = 40_000;
        decompress(&good, limit).unwrap();

        let reject = |bytes: &[u8], what: &str| {
            for (name, r) in [
                ("oracle", decompress(bytes, limit).map(|_| ())),
                ("fast", decompress_fast(bytes, limit).map(|_| ())),
                ("validate", validate(bytes, limit)),
            ] {
                assert!(
                    matches!(r, Err(ArrayError::Corrupt(_))),
                    "{name} accepted {what}"
                );
            }
        };

        // Truncations at every layer: header, block payload, measures.
        for cut in [0, 4, HEADER - 1, HEADER, HEADER + 3, good.len() - 1] {
            reject(&good[..cut], "a truncated stream");
        }
        // Gap width over 32 in the first block header.
        let mut bad = good.clone();
        bad[HEADER] = 33;
        reject(&bad, "a 33-bit gap width");
        // A gap overflowing the chunk volume: saturate the first gap
        // of a chunk whose cells sit at the volume's edge. The first
        // block's width is 16 (first gap 39 990), so forcing its low
        // two payload bytes to ones reconstructs offset 65 535 ≥ limit.
        // Structurally the stream is intact, so `validate` passes — the
        // overflow is a consume-time error from both decoders (and the
        // cursor underneath `decompress_fast`).
        let edge = sample_chunk(&(39_990..40_000).collect::<Vec<_>>(), 2);
        let mut bad = compress(&edge);
        bad[HEADER + 1] = 0xff;
        bad[HEADER + 2] = 0xff;
        validate(&bad, limit).unwrap();
        for (name, r) in [
            ("oracle", decompress(&bad, limit).map(|_| ())),
            ("fast", decompress_fast(&bad, limit).map(|_| ())),
        ] {
            assert!(
                matches!(r, Err(ArrayError::Corrupt(_))),
                "{name} accepted a gap past the chunk volume"
            );
        }
        // Monotonicity is structural (gap + 1 ≥ 1), so the non-monotone
        // corruption case surfaces as volume overflow: a forged count
        // forces reconstruction past the last valid offset.
        let mut bad = good.clone();
        write_u32(&mut bad, 0, 201);
        reject(&bad, "a forged cell count");
        // Offset section longer than its blocks claim.
        let mut bad = good.clone();
        write_u32(&mut bad, 8, read_u32(&good, 8) + 1);
        bad.insert(bad.len() - 1, 0);
        reject(&bad, "an over-long offset section");
        // Zero measures.
        let mut bad = good.clone();
        write_u32(&mut bad, 4, 0);
        reject(&bad, "zero measures");
        // Tighter volume than the data was encoded for.
        assert!(matches!(
            decompress(&good, 100),
            Err(ArrayError::Corrupt(_))
        ));
        assert!(matches!(validate(&good, 100), Err(ArrayError::Corrupt(_))));
    }

    #[test]
    fn width_zero_blocks_cover_consecutive_runs() {
        // A fully consecutive chunk needs only block headers: 12-byte
        // header + ceil(n/64) width bytes + measures.
        let offsets: Vec<u32> = (0..256).collect();
        let chunk = sample_chunk(&offsets, 1);
        let bytes = compress(&chunk);
        assert_eq!(bytes.len(), HEADER + 4 + 256 * 8);
        assert_eq!(decompress(&bytes, 256).unwrap(), chunk);
    }
}
