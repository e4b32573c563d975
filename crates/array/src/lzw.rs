//! LZW codec — the generic Paradise array's tile compressor.
//!
//! Paradise's general multi-dimensional array type "implements
//! compression on a tile by tile basis using the LZW algorithm" (§3.1);
//! the OLAP Array ADT deliberately replaces it with chunk-offset
//! compression. This module keeps LZW around so the design choice is an
//! ablation we can measure (size and decode speed of LZW-compressed
//! dense chunks vs. chunk-offset chunks).
//!
//! Implementation notes: classic LZW with *fixed 16-bit codes* and a
//! dictionary reset when the code space (65 536 entries) fills. Fixed
//! width trades a little compression for a codec whose encoder and
//! decoder cannot desynchronize; the ablation compares storage formats,
//! not bit-packing tricks. The stream is
//! `[original length: u64][codes: u16 LE …]`.

use std::collections::HashMap;

use crate::{ArrayError, Result};

const CODE_LIMIT: u32 = 1 << 16;
const FIRST_CODE: u32 = 256;

/// Compresses `data`; empty input yields an 8-byte header only.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + data.len() / 2);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    if data.is_empty() {
        return out;
    }

    let mut dict: HashMap<(u32, u8), u32> = HashMap::new();
    let mut next_code = FIRST_CODE;
    let mut w: u32 = data[0] as u32;

    let emit = |code: u32, out: &mut Vec<u8>| {
        debug_assert!(code < CODE_LIMIT);
        out.extend_from_slice(&(code as u16).to_le_bytes());
    };

    for &k in &data[1..] {
        match dict.get(&(w, k)) {
            Some(&code) => w = code,
            None => {
                emit(w, &mut out);
                dict.insert((w, k), next_code);
                next_code += 1;
                if next_code == CODE_LIMIT {
                    dict.clear();
                    next_code = FIRST_CODE;
                }
                w = k as u32;
            }
        }
    }
    emit(w, &mut out);
    out
}

/// Decompresses a stream produced by [`compress`], walking each code's
/// parent chain. The reference decoder: no engine path calls it — chunk
/// reads use [`decompress_fast_into`], which the proptests hold to this
/// function's output.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    if data.len() < 8 {
        return Err(ArrayError::Corrupt("lzw header"));
    }
    let orig_len = u64::from_le_bytes(data[0..8].try_into().unwrap()) as usize;
    let codes = &data[8..];
    if !codes.len().is_multiple_of(2) {
        return Err(ArrayError::Corrupt("lzw code stream odd length"));
    }
    let mut out = Vec::with_capacity(orig_len);
    if codes.is_empty() {
        return if orig_len == 0 {
            Ok(out)
        } else {
            Err(ArrayError::Corrupt("lzw empty code stream"))
        };
    }

    // table[c - FIRST_CODE] = (previous code, appended byte)
    let mut table: Vec<(u32, u8)> = Vec::new();
    let mut scratch = Vec::new();

    // Appends the expansion of `code` to out and returns its first byte.
    fn expand(
        code: u32,
        table: &[(u32, u8)],
        out: &mut Vec<u8>,
        scratch: &mut Vec<u8>,
    ) -> Result<u8> {
        scratch.clear();
        let mut c = code;
        loop {
            if c < FIRST_CODE {
                scratch.push(c as u8);
                break;
            }
            let idx = (c - FIRST_CODE) as usize;
            let (prev, byte) = *table
                .get(idx)
                .ok_or(ArrayError::Corrupt("lzw code out of range"))?;
            scratch.push(byte);
            c = prev;
        }
        scratch.reverse();
        out.extend_from_slice(scratch);
        Ok(scratch[0])
    }

    let read_code =
        |i: usize| u16::from_le_bytes(codes[i * 2..i * 2 + 2].try_into().unwrap()) as u32;

    let mut prev = read_code(0);
    if prev >= FIRST_CODE {
        return Err(ArrayError::Corrupt("lzw first code not a literal"));
    }
    let mut prev_first = expand(prev, &table, &mut out, &mut scratch)?;

    for i in 1..codes.len() / 2 {
        let code = read_code(i);
        let next_code = FIRST_CODE + table.len() as u32;
        if code < next_code {
            let first = expand(code, &table, &mut out, &mut scratch)?;
            table.push((prev, first));
            prev_first = first;
        } else if code == next_code {
            // KwKwK: the code being defined right now.
            table.push((prev, prev_first));
            prev_first = expand(code, &table, &mut out, &mut scratch)?;
        } else {
            return Err(ArrayError::Corrupt("lzw code out of range"));
        }
        if FIRST_CODE + table.len() as u32 == CODE_LIMIT {
            table.clear();
            // Mirror of the encoder reset: the next code restarts the
            // phrase chain, so the following iteration must treat it as
            // a fresh literal-rooted phrase. `prev` stays valid because
            // the encoder also emitted it before clearing.
        }
        prev = code;
    }
    if out.len() != orig_len {
        return Err(ArrayError::Corrupt("lzw length mismatch"));
    }
    Ok(out)
}

/// Span-based decompressor, the one every chunk read uses.
///
/// Produces output identical to [`decompress`] but represents each
/// dictionary entry as a `(start, len)` span of the output already
/// emitted: an LZW entry is its predecessor phrase plus the first byte
/// of the following phrase, and those bytes are always contiguous in
/// the decoded stream. Expansion is then one `extend_from_within`
/// copy instead of a per-byte parent-chain walk, reverse, and
/// re-copy — on the zero-heavy dense chunks the ablation stores,
/// phrases are long and the memcpy wins by a wide margin. The slower
/// chain-walk decoder stays as the reference.
pub fn decompress_fast(data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decompress_fast_into(data, &mut out)?;
    Ok(out)
}

/// [`decompress_fast`] into a caller-owned buffer (cleared first), so
/// a prefetcher thread reuses one allocation across every chunk it
/// decodes instead of faulting in fresh zeroed pages per chunk.
pub fn decompress_fast_into(data: &[u8], out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    if data.len() < 8 {
        return Err(ArrayError::Corrupt("lzw header"));
    }
    let orig_len = u64::from_le_bytes(data[0..8].try_into().unwrap()) as usize;
    let codes = &data[8..];
    if !codes.len().is_multiple_of(2) {
        return Err(ArrayError::Corrupt("lzw code stream odd length"));
    }
    out.reserve(orig_len);
    if codes.is_empty() {
        return if orig_len == 0 {
            Ok(())
        } else {
            Err(ArrayError::Corrupt("lzw empty code stream"))
        };
    }

    let read_code =
        |i: usize| u16::from_le_bytes(codes[i * 2..i * 2 + 2].try_into().unwrap()) as u32;

    // spans[c - FIRST_CODE] = (start, len) of entry c's expansion in `out`.
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(4096);
    let first = read_code(0);
    if first >= FIRST_CODE {
        return Err(ArrayError::Corrupt("lzw first code not a literal"));
    }
    out.push(first as u8);
    let (mut prev_pos, mut prev_len) = (0usize, 1usize);

    for i in 1..codes.len() / 2 {
        let code = read_code(i);
        let next_code = FIRST_CODE + spans.len() as u32;
        let cur_pos = out.len();
        let cur_len;
        if code < FIRST_CODE {
            out.push(code as u8);
            cur_len = 1;
        } else if code < next_code {
            let (s, l) = spans[(code - FIRST_CODE) as usize];
            out.extend_from_within(s..s + l);
            cur_len = l;
        } else if code == next_code {
            // KwKwK: this code's expansion is the previous phrase plus
            // its own first byte.
            out.extend_from_within(prev_pos..prev_pos + prev_len);
            let b = out[prev_pos];
            out.push(b);
            cur_len = prev_len + 1;
        } else {
            return Err(ArrayError::Corrupt("lzw code out of range"));
        }
        // The entry defined by this step — previous phrase plus this
        // phrase's first byte — is exactly out[prev_pos..][..prev_len+1].
        spans.push((prev_pos, prev_len + 1));
        if FIRST_CODE + spans.len() as u32 == CODE_LIMIT {
            spans.clear(); // mirror of the encoder's dictionary reset
        }
        (prev_pos, prev_len) = (cur_pos, cur_len);
    }
    if out.len() != orig_len {
        return Err(ArrayError::Corrupt("lzw length mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let enc = compress(data);
        let dec = decompress(&enc).unwrap();
        assert_eq!(dec, data, "roundtrip failed for {} bytes", data.len());
        let fast = decompress_fast(&enc).unwrap();
        assert_eq!(fast, data, "fast roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn basic_roundtrips() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaa");
        roundtrip(b"TOBEORNOTTOBEORTOBEORNOT");
        roundtrip(&[0u8; 10_000]);
        let seq: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        roundtrip(&seq);
    }

    #[test]
    fn kwkwk_case() {
        // The classic aba-ababa pattern that triggers code == next_code.
        roundtrip(b"abababababababababab");
        roundtrip(b"aabbbaabbbaabbbaabbb");
    }

    #[test]
    fn compresses_repetitive_data() {
        let data = vec![7u8; 100_000];
        let enc = compress(&data);
        assert!(
            enc.len() < data.len() / 20,
            "got {} for {} input",
            enc.len(),
            data.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn random_data_survives() {
        // LCG noise: incompressible, must still roundtrip.
        let mut x = 0x243F6A88u64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn dictionary_reset_roundtrips() {
        // Enough distinct phrases to overflow 65 536 codes: pairs of
        // bytes from a 256×256 walk create fresh dictionary entries.
        let mut data = Vec::with_capacity(300_000);
        let mut x = 1u32;
        for _ in 0..300_000 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            data.push((x >> 16) as u8);
        }
        roundtrip(&data);
    }

    #[test]
    fn corrupt_streams_rejected() {
        assert!(decompress(&[0, 1]).is_err());
        assert!(decompress_fast(&[0, 1]).is_err());
        let enc = compress(b"hello world");
        // Odd code stream.
        assert!(decompress(&enc[..enc.len() - 1]).is_err());
        assert!(decompress_fast(&enc[..enc.len() - 1]).is_err());
        // Length mismatch.
        let mut bad = enc.clone();
        bad[0] = 99;
        assert!(decompress(&bad).is_err());
        assert!(decompress_fast(&bad).is_err());
        // Out-of-range code.
        let mut bad2 = enc;
        let n = bad2.len();
        bad2[n - 1] = 0xFF;
        bad2[n - 2] = 0xFF;
        assert!(decompress(&bad2).is_err());
        assert!(decompress_fast(&bad2).is_err());
    }

    #[test]
    fn typical_dense_chunk_bytes_compress() {
        // A dense chunk serialization is mostly zero i64s with sparse
        // values — the workload LZW sees in the ablation.
        let mut data = vec![0u8; 64_000];
        for i in (0..64_000).step_by(800) {
            data[i] = (i % 251) as u8;
        }
        let enc = compress(&data);
        assert!(enc.len() < data.len() / 4);
        roundtrip(&data);
    }
}
