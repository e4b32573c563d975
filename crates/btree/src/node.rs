//! On-page node layout.
//!
//! ```text
//! byte 0        : node kind (0 = internal, 1 = leaf)
//! bytes 2..4    : entry count (u16)
//! bytes 8..16   : next-leaf page id (leaves only; u64::MAX = none)
//! bytes 16..    : payload
//! ```
//!
//! Leaf payload: `count` entries of `(key: i64, value: u64)`, 16 bytes
//! each, sorted by key (duplicates adjacent, in insertion order).
//!
//! Internal payload: leftmost child page id (u64) followed by `count`
//! pairs of `(separator key: i64, child page id: u64)`. Child `i+1`
//! holds keys `>= separator[i]` (with duplicates allowed to spill right).

use molap_storage::util::{read_i64, read_u16, read_u64, write_i64, write_u16, write_u64};
use molap_storage::{PageBuf, PageId, PAGE_SIZE};

pub const HEADER: usize = 16;
pub const ENTRY: usize = 16;
/// Hard capacity of a leaf page: 511 entries at 8 KiB.
pub const LEAF_CAP: usize = (PAGE_SIZE - HEADER) / ENTRY;
/// Hard capacity (in separator keys) of an internal page: 510 at 8 KiB.
pub const INTERNAL_CAP: usize = (PAGE_SIZE - HEADER - 8) / ENTRY;

const KIND_INTERNAL: u8 = 0;
const KIND_LEAF: u8 = 1;
const NO_NEXT: u64 = u64::MAX;

/// `Some(true)` for a leaf, `Some(false)` for an internal node, `None`
/// for a kind byte that is neither.
#[inline]
pub fn is_leaf(buf: &PageBuf) -> Option<bool> {
    match buf[0] {
        KIND_LEAF => Some(true),
        KIND_INTERNAL => Some(false),
        _ => None,
    }
}

#[inline]
pub fn count(buf: &PageBuf) -> usize {
    read_u16(buf, 2) as usize
}

#[inline]
pub fn set_count(buf: &mut PageBuf, n: usize) {
    debug_assert!(n <= u16::MAX as usize);
    write_u16(buf, 2, n as u16);
}

pub fn init_leaf(buf: &mut PageBuf) {
    buf[0] = KIND_LEAF;
    set_count(buf, 0);
    write_u64(buf, 8, NO_NEXT);
}

pub fn init_internal(buf: &mut PageBuf) {
    buf[0] = KIND_INTERNAL;
    set_count(buf, 0);
    write_u64(buf, 8, NO_NEXT);
}

#[inline]
pub fn next_leaf(buf: &PageBuf) -> Option<PageId> {
    let v = read_u64(buf, 8);
    (v != NO_NEXT).then_some(PageId(v))
}

#[inline]
pub fn set_next_leaf(buf: &mut PageBuf, next: Option<PageId>) {
    write_u64(buf, 8, next.map_or(NO_NEXT, |p| p.0));
}

// ---------------------------------------------------------------- leaves

#[inline]
pub fn leaf_key(buf: &PageBuf, i: usize) -> i64 {
    read_i64(buf, HEADER + i * ENTRY)
}

#[inline]
pub fn leaf_value(buf: &PageBuf, i: usize) -> u64 {
    read_u64(buf, HEADER + i * ENTRY + 8)
}

#[inline]
pub fn leaf_set(buf: &mut PageBuf, i: usize, key: i64, value: u64) {
    write_i64(buf, HEADER + i * ENTRY, key);
    write_u64(buf, HEADER + i * ENTRY + 8, value);
}

/// First index whose key is `>= key` (lower bound).
pub fn leaf_lower_bound(buf: &PageBuf, key: i64) -> usize {
    let n = count(buf);
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if leaf_key(buf, mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First index whose key is `> key` (upper bound).
pub fn leaf_upper_bound(buf: &PageBuf, key: i64) -> usize {
    let n = count(buf);
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if leaf_key(buf, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Inserts `(key, value)` at position `pos`, shifting later entries right.
pub fn leaf_insert_at(buf: &mut PageBuf, pos: usize, key: i64, value: u64) {
    let n = count(buf);
    debug_assert!(pos <= n && n < LEAF_CAP);
    let src = HEADER + pos * ENTRY;
    buf.copy_within(src..HEADER + n * ENTRY, src + ENTRY);
    leaf_set(buf, pos, key, value);
    set_count(buf, n + 1);
}

/// Removes the entry at `pos`, shifting later entries left.
pub fn leaf_remove_at(buf: &mut PageBuf, pos: usize) {
    let n = count(buf);
    debug_assert!(pos < n);
    let dst = HEADER + pos * ENTRY;
    buf.copy_within(dst + ENTRY..HEADER + n * ENTRY, dst);
    set_count(buf, n - 1);
}

/// Moves entries `[at, count)` of `src` to the front of empty leaf `dst`.
pub fn leaf_split_into(src: &mut PageBuf, dst: &mut PageBuf, at: usize) {
    let n = count(src);
    debug_assert!(at <= n && count(dst) == 0);
    let moved = n - at;
    dst[HEADER..HEADER + moved * ENTRY]
        .copy_from_slice(&src[HEADER + at * ENTRY..HEADER + n * ENTRY]);
    set_count(dst, moved);
    set_count(src, at);
}

// -------------------------------------------------------------- internals

#[inline]
pub fn internal_child(buf: &PageBuf, i: usize) -> PageId {
    // Child 0 sits at HEADER; child i>0 is the pair slot i-1's pointer.
    if i == 0 {
        PageId(read_u64(buf, HEADER))
    } else {
        PageId(read_u64(buf, HEADER + 8 + (i - 1) * ENTRY + 8))
    }
}

#[inline]
pub fn internal_key(buf: &PageBuf, i: usize) -> i64 {
    read_i64(buf, HEADER + 8 + i * ENTRY)
}

#[inline]
pub fn internal_set_child0(buf: &mut PageBuf, child: PageId) {
    write_u64(buf, HEADER, child.0);
}

#[inline]
pub fn internal_set_pair(buf: &mut PageBuf, i: usize, key: i64, child: PageId) {
    write_i64(buf, HEADER + 8 + i * ENTRY, key);
    write_u64(buf, HEADER + 8 + i * ENTRY + 8, child.0);
}

/// Child index to descend into for `key`: the first separator `> key`
/// bounds the search, so equal keys go *right* of their separator and
/// duplicate runs stay reachable from their lower bound... except that a
/// run can span the separator; callers compensate by also checking the
/// preceding leaf chain via [`leaf_lower_bound`] semantics. With
/// separators chosen at split time as the first key of the right node,
/// descending to the first child whose separator is `> key` lands on the
/// leftmost leaf that can contain `key`.
pub fn internal_descend_index(buf: &PageBuf, key: i64) -> usize {
    let n = count(buf);
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if internal_key(buf, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Leftmost child index that can contain `key` (strict lower bound over
/// separators): used by ordered scans so duplicate runs that straddle a
/// separator are not skipped.
pub fn internal_scan_index(buf: &PageBuf, key: i64) -> usize {
    let n = count(buf);
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if internal_key(buf, mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Inserts separator pair `(key, child)` at pair position `pos`.
pub fn internal_insert_pair_at(buf: &mut PageBuf, pos: usize, key: i64, child: PageId) {
    let n = count(buf);
    debug_assert!(pos <= n && n < INTERNAL_CAP);
    let src = HEADER + 8 + pos * ENTRY;
    buf.copy_within(src..HEADER + 8 + n * ENTRY, src + ENTRY);
    internal_set_pair(buf, pos, key, child);
    set_count(buf, n + 1);
}

/// Splits a full internal node: pairs `[at+1, count)` move to `dst`,
/// pair `at`'s key is returned as the separator to push up, and pair
/// `at`'s child becomes `dst`'s leftmost child.
pub fn internal_split_into(src: &mut PageBuf, dst: &mut PageBuf, at: usize) -> i64 {
    let n = count(src);
    debug_assert!(at < n && count(dst) == 0);
    let push_up = internal_key(src, at);
    internal_set_child0(dst, internal_child(src, at + 1));
    let moved = n - at - 1;
    dst[HEADER + 8..HEADER + 8 + moved * ENTRY]
        .copy_from_slice(&src[HEADER + 8 + (at + 1) * ENTRY..HEADER + 8 + n * ENTRY]);
    set_count(dst, moved);
    set_count(src, at);
    push_up
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_with(keys: &[(i64, u64)]) -> Box<PageBuf> {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        init_leaf(&mut buf);
        for (i, &(k, v)) in keys.iter().enumerate() {
            leaf_set(&mut buf, i, k, v);
        }
        set_count(&mut buf, keys.len());
        buf
    }

    #[test]
    fn leaf_bounds_handle_duplicates() {
        let buf = leaf_with(&[(1, 0), (3, 1), (3, 2), (3, 3), (7, 4)]);
        assert_eq!(leaf_lower_bound(&buf, 3), 1);
        assert_eq!(leaf_upper_bound(&buf, 3), 4);
        assert_eq!(leaf_lower_bound(&buf, 0), 0);
        assert_eq!(leaf_upper_bound(&buf, 100), 5);
        assert_eq!(leaf_lower_bound(&buf, 4), 4);
    }

    #[test]
    fn leaf_insert_and_remove_shift_correctly() {
        let mut buf = leaf_with(&[(1, 10), (5, 50)]);
        leaf_insert_at(&mut buf, 1, 3, 30);
        assert_eq!(count(&buf), 3);
        assert_eq!(
            (0..3)
                .map(|i| (leaf_key(&buf, i), leaf_value(&buf, i)))
                .collect::<Vec<_>>(),
            vec![(1, 10), (3, 30), (5, 50)]
        );
        leaf_remove_at(&mut buf, 0);
        assert_eq!(
            (0..2).map(|i| leaf_key(&buf, i)).collect::<Vec<_>>(),
            vec![3, 5]
        );
    }

    #[test]
    fn leaf_split_moves_upper_half() {
        let mut src = leaf_with(&[(1, 1), (2, 2), (3, 3), (4, 4)]);
        let mut dst = Box::new([0u8; PAGE_SIZE]);
        init_leaf(&mut dst);
        leaf_split_into(&mut src, &mut dst, 2);
        assert_eq!(count(&src), 2);
        assert_eq!(count(&dst), 2);
        assert_eq!(leaf_key(&dst, 0), 3);
        assert_eq!(leaf_value(&dst, 1), 4);
    }

    #[test]
    fn internal_layout_roundtrips() {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        init_internal(&mut buf);
        internal_set_child0(&mut buf, PageId(100));
        internal_insert_pair_at(&mut buf, 0, 10, PageId(101));
        internal_insert_pair_at(&mut buf, 1, 30, PageId(103));
        internal_insert_pair_at(&mut buf, 1, 20, PageId(102));
        assert_eq!(count(&buf), 3);
        assert_eq!(internal_child(&buf, 0), PageId(100));
        assert_eq!(internal_key(&buf, 0), 10);
        assert_eq!(internal_child(&buf, 1), PageId(101));
        assert_eq!(internal_key(&buf, 1), 20);
        assert_eq!(internal_child(&buf, 2), PageId(102));
        assert_eq!(internal_child(&buf, 3), PageId(103));
    }

    #[test]
    fn descend_vs_scan_index_on_duplicates() {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        init_internal(&mut buf);
        internal_set_child0(&mut buf, PageId(0));
        internal_insert_pair_at(&mut buf, 0, 10, PageId(1));
        internal_insert_pair_at(&mut buf, 1, 10, PageId(2));
        internal_insert_pair_at(&mut buf, 2, 20, PageId(3));
        // Inserting key 10 goes right of all equal separators.
        assert_eq!(internal_descend_index(&buf, 10), 2);
        // Scanning for key 10 starts at the leftmost possible child.
        assert_eq!(internal_scan_index(&buf, 10), 0);
        assert_eq!(internal_descend_index(&buf, 15), 2);
        assert_eq!(internal_descend_index(&buf, 25), 3);
    }

    #[test]
    fn internal_split_pushes_middle_key_up() {
        let mut src = Box::new([0u8; PAGE_SIZE]);
        init_internal(&mut src);
        internal_set_child0(&mut src, PageId(0));
        for i in 0..5 {
            internal_insert_pair_at(&mut src, i, (i as i64 + 1) * 10, PageId(i as u64 + 1));
        }
        let mut dst = Box::new([0u8; PAGE_SIZE]);
        init_internal(&mut dst);
        let sep = internal_split_into(&mut src, &mut dst, 2);
        assert_eq!(sep, 30);
        assert_eq!(count(&src), 2);
        assert_eq!(count(&dst), 2);
        assert_eq!(internal_child(&dst, 0), PageId(3));
        assert_eq!(internal_key(&dst, 0), 40);
        assert_eq!(internal_child(&dst, 2), PageId(5));
    }

    #[test]
    fn capacities_fit_a_page() {
        assert_eq!(LEAF_CAP, 511);
        assert_eq!(INTERNAL_CAP, 510);
        const { assert!(HEADER + LEAF_CAP * ENTRY <= PAGE_SIZE) };
        const { assert!(HEADER + 8 + INTERNAL_CAP * ENTRY <= PAGE_SIZE) };
    }

    #[test]
    fn next_leaf_chain_encoding() {
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        init_leaf(&mut buf);
        assert_eq!(next_leaf(&buf), None);
        set_next_leaf(&mut buf, Some(PageId(9)));
        assert_eq!(next_leaf(&buf), Some(PageId(9)));
        set_next_leaf(&mut buf, None);
        assert_eq!(next_leaf(&buf), None);
    }
}
