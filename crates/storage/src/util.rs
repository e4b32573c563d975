//! Little-endian fixed-width codecs over byte slices, plus the shared
//! Fibonacci shard-selection hash.
//!
//! Every persisted structure in the workspace (B-tree nodes, fact-file
//! tuples, bitmap segments, array chunk directories) lays integers out
//! little-endian at computed offsets; these helpers keep that code free
//! of ad-hoc slicing. Callers own the offset invariant (`off + width
//! <= buf.len()`); debug builds check it with a named assertion so an
//! out-of-bounds access fails at the codec, not deep inside `core`.

/// Golden-ratio multiplier for Fibonacci hashing (⌊2⁶⁴/φ⌋, odd).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Maps an arbitrary `key` onto one of `n` shards (`n` a power of two)
/// by Fibonacci hashing: multiply by ⌊2⁶⁴/φ⌋ and keep high bits, which
/// spreads consecutive keys (page ids, hash codes) across shards far
/// better than a plain mask would. This is the one shard-selection
/// function shared by the buffer pool, the decoded-chunk cache, the
/// result-cube cache, and the version table's pin stripes.
///
/// Callers with composite keys pre-mix the extra components in (e.g.
/// `start_page.wrapping_add(byte_off)`); re-hashing an already-hashed
/// key is harmless.
#[inline]
pub fn fib_shard(key: u64, n: usize) -> usize {
    debug_assert!(n.is_power_of_two(), "shard count must be a power of two");
    (key.wrapping_mul(FIB) >> 33) as usize & (n - 1)
}

/// Reads a `u16` at byte offset `off`.
#[inline]
pub fn read_u16(buf: &[u8], off: usize) -> u16 {
    debug_assert!(off + 2 <= buf.len(), "read_u16 past end of buffer");
    let mut b = [0u8; 2];
    b.copy_from_slice(&buf[off..off + 2]);
    u16::from_le_bytes(b)
}

/// Writes a `u16` at byte offset `off`.
#[inline]
pub fn write_u16(buf: &mut [u8], off: usize, v: u16) {
    debug_assert!(off + 2 <= buf.len(), "write_u16 past end of buffer");
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Reads a `u32` at byte offset `off`.
#[inline]
pub fn read_u32(buf: &[u8], off: usize) -> u32 {
    debug_assert!(off + 4 <= buf.len(), "read_u32 past end of buffer");
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[off..off + 4]);
    u32::from_le_bytes(b)
}

/// Writes a `u32` at byte offset `off`.
#[inline]
pub fn write_u32(buf: &mut [u8], off: usize, v: u32) {
    debug_assert!(off + 4 <= buf.len(), "write_u32 past end of buffer");
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Reads a `u64` at byte offset `off`.
#[inline]
pub fn read_u64(buf: &[u8], off: usize) -> u64 {
    debug_assert!(off + 8 <= buf.len(), "read_u64 past end of buffer");
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Writes a `u64` at byte offset `off`.
#[inline]
pub fn write_u64(buf: &mut [u8], off: usize, v: u64) {
    debug_assert!(off + 8 <= buf.len(), "write_u64 past end of buffer");
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Reads an `i64` at byte offset `off`.
#[inline]
pub fn read_i64(buf: &[u8], off: usize) -> i64 {
    debug_assert!(off + 8 <= buf.len(), "read_i64 past end of buffer");
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    i64::from_le_bytes(b)
}

/// Writes an `i64` at byte offset `off`.
#[inline]
pub fn write_i64(buf: &mut [u8], off: usize, v: i64) {
    debug_assert!(off + 8 <= buf.len(), "write_i64 past end of buffer");
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = [0u8; 32];
        write_u16(&mut buf, 1, 0xBEEF);
        write_u32(&mut buf, 4, 0xDEAD_BEEF);
        write_u64(&mut buf, 8, 0x0123_4567_89AB_CDEF);
        write_i64(&mut buf, 16, -42);
        assert_eq!(read_u16(&buf, 1), 0xBEEF);
        assert_eq!(read_u32(&buf, 4), 0xDEAD_BEEF);
        assert_eq!(read_u64(&buf, 8), 0x0123_4567_89AB_CDEF);
        assert_eq!(read_i64(&buf, 16), -42);
    }

    #[test]
    fn fib_shard_masks_and_spreads() {
        // Always in range, for every power-of-two shard count.
        for n in [1usize, 2, 8, 64] {
            for k in 0..1000u64 {
                assert!(fib_shard(k, n) < n);
            }
        }
        // Consecutive keys do not all land on one shard.
        let hits: std::collections::BTreeSet<usize> = (0..64u64).map(|k| fib_shard(k, 8)).collect();
        assert!(hits.len() > 4, "poor spread: {hits:?}");
        // One shard degenerates to index 0.
        assert_eq!(fib_shard(12345, 1), 0);
    }

    #[test]
    fn writes_do_not_bleed_into_neighbours() {
        let mut buf = [0xAAu8; 8];
        write_u16(&mut buf, 3, 0);
        assert_eq!(buf[2], 0xAA);
        assert_eq!(buf[5], 0xAA);
        assert_eq!(&buf[3..5], &[0, 0]);
    }
}
