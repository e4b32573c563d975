//! The B+tree proper: descent, insert with splits, scans, lazy delete,
//! and a packed bulk loader.

use std::sync::Arc;

use molap_storage::util::{read_u32, read_u64, write_u32, write_u64};
use molap_storage::{BufferPool, PageId, PageRef, Result, StorageError};

use crate::node;

/// Node capacity configuration.
///
/// Defaults use the full page (`node::LEAF_CAP` / `node::INTERNAL_CAP`);
/// tests shrink them to force deep trees and frequent splits on small
/// data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BTreeConfig {
    /// Maximum entries per leaf (2 ..= `node::LEAF_CAP`).
    pub max_leaf_entries: usize,
    /// Maximum separator keys per internal node (2 ..= `node::INTERNAL_CAP`).
    pub max_internal_keys: usize,
}

impl Default for BTreeConfig {
    fn default() -> Self {
        BTreeConfig {
            max_leaf_entries: node::LEAF_CAP,
            max_internal_keys: node::INTERNAL_CAP,
        }
    }
}

impl BTreeConfig {
    fn validate(&self) {
        assert!(
            (2..=node::LEAF_CAP).contains(&self.max_leaf_entries),
            "max_leaf_entries out of range"
        );
        assert!(
            (2..=node::INTERNAL_CAP).contains(&self.max_internal_keys),
            "max_internal_keys out of range"
        );
    }
}

/// A paged B+tree with `i64` keys, `u64` values, and duplicate keys.
pub struct BTree {
    pool: Arc<BufferPool>,
    root: PageId,
    height: u32, // 0 = root is a leaf
    len: u64,
    config: BTreeConfig,
}

const META_BYTES: usize = 8 + 4 + 8 + 4 + 4;

impl BTree {
    /// Creates an empty tree with default node capacities.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        Self::create_with(pool, BTreeConfig::default())
    }

    /// Creates an empty tree with explicit node capacities.
    pub fn create_with(pool: Arc<BufferPool>, config: BTreeConfig) -> Result<Self> {
        config.validate();
        let root = pool.allocate_pages(1)?;
        {
            let mut page = pool.create_page(root)?;
            node::init_leaf(&mut page);
        }
        Ok(BTree {
            pool,
            root,
            height: 0,
            len: 0,
            config,
        })
    }

    /// Number of entries (including duplicates).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height: 0 when the root is a leaf.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Serializes root/height/len/config so a higher layer can persist
    /// and later [`BTree::from_meta_bytes`] the tree over the same pool.
    pub fn meta_to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; META_BYTES];
        write_u64(&mut out, 0, self.root.0);
        write_u32(&mut out, 8, self.height);
        write_u64(&mut out, 12, self.len);
        write_u32(&mut out, 20, self.config.max_leaf_entries as u32);
        write_u32(&mut out, 24, self.config.max_internal_keys as u32);
        out
    }

    /// Restores a tree from [`BTree::meta_to_bytes`] output.
    pub fn from_meta_bytes(pool: Arc<BufferPool>, bytes: &[u8]) -> Result<Self> {
        if bytes.len() < META_BYTES {
            return Err(StorageError::Corrupt("btree meta truncated"));
        }
        let config = BTreeConfig {
            max_leaf_entries: read_u32(bytes, 20) as usize,
            max_internal_keys: read_u32(bytes, 24) as usize,
        };
        config.validate();
        Ok(BTree {
            pool,
            root: PageId(read_u64(bytes, 0)),
            height: read_u32(bytes, 8),
            len: read_u64(bytes, 12),
            config,
        })
    }

    // ------------------------------------------------------------ lookups

    /// Returns the value of the first entry with `key`, if any.
    pub fn get(&self, key: i64) -> Result<Option<u64>> {
        let (mut pid, mut pos) = self.find_run_start(key)?;
        loop {
            let page = self.fetch_node(pid, 0)?;
            if pos < node::count(&page) {
                return Ok(
                    (node::leaf_key(&page, pos) == key).then(|| node::leaf_value(&page, pos))
                );
            }
            match node::next_leaf(&page) {
                Some(next) => {
                    pid = next;
                    pos = 0;
                }
                None => return Ok(None),
            }
        }
    }

    /// Returns every value stored under `key`, in insertion order.
    ///
    /// This is the §4.2 primitive: a selected attribute value becomes the
    /// list of array index positions that join with it.
    pub fn scan_eq(&self, key: i64) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        self.for_each_in_range(key, key, |_, v| out.push(v))?;
        Ok(out)
    }

    /// Returns all `(key, value)` entries with `lo <= key <= hi`, in key
    /// order.
    pub fn scan_range(&self, lo: i64, hi: i64) -> Result<Vec<(i64, u64)>> {
        let mut out = Vec::new();
        self.for_each_in_range(lo, hi, |k, v| out.push((k, v)))?;
        Ok(out)
    }

    /// Calls `f(key, value)` for every entry with `lo <= key <= hi`.
    pub fn for_each_in_range<F: FnMut(i64, u64)>(&self, lo: i64, hi: i64, mut f: F) -> Result<()> {
        if lo > hi {
            return Ok(());
        }
        let (mut pid, mut pos) = self.find_run_start(lo)?;
        loop {
            let page = self.fetch_node(pid, 0)?;
            let n = node::count(&page);
            while pos < n {
                let k = node::leaf_key(&page, pos);
                if k > hi {
                    return Ok(());
                }
                f(k, node::leaf_value(&page, pos));
                pos += 1;
            }
            match node::next_leaf(&page) {
                Some(next) => {
                    pid = next;
                    pos = 0;
                }
                None => return Ok(()),
            }
        }
    }

    /// Calls `f(key, value)` for every entry, in key order.
    pub fn for_each<F: FnMut(i64, u64)>(&self, f: F) -> Result<()> {
        self.for_each_in_range(i64::MIN, i64::MAX, f)
    }

    /// Descends to the leftmost leaf position that can hold `key` and
    /// returns `(leaf page, lower-bound index)`.
    fn find_run_start(&self, key: i64) -> Result<(PageId, usize)> {
        let mut pid = self.root;
        for level in (1..=self.height).rev() {
            let page = self.fetch_node(pid, level)?;
            let idx = node::internal_scan_index(&page, key);
            pid = node::internal_child(&page, idx);
        }
        let page = self.fetch_node(pid, 0)?;
        Ok((pid, node::leaf_lower_bound(&page, key)))
    }

    /// Fetches node `pid`, which the descent expects at `level` (0 = a
    /// leaf), and checks its header before any entry is read: the kind
    /// byte must name a node kind that matches the level, and the count
    /// must fit that kind's page capacity. Every node read goes through
    /// here, so a corrupt page is a typed error, not an out-of-range
    /// slice.
    fn fetch_node(&self, pid: PageId, level: u32) -> Result<PageRef<'_>> {
        let page = self.pool.fetch(pid)?;
        let cap = match node::is_leaf(&page) {
            None => return Err(StorageError::Corrupt("btree node kind is unknown")),
            Some(leaf) if leaf != (level == 0) => {
                return Err(StorageError::Corrupt(
                    "btree node kind disagrees with its level",
                ))
            }
            Some(true) => node::LEAF_CAP,
            Some(false) => node::INTERNAL_CAP,
        };
        if node::count(&page) > cap {
            return Err(StorageError::Corrupt("btree node count exceeds its page"));
        }
        Ok(page)
    }

    // ------------------------------------------------------------ inserts

    /// Inserts `(key, value)`. Duplicate keys are allowed; equal keys
    /// keep insertion order.
    pub fn insert(&mut self, key: i64, value: u64) -> Result<()> {
        if let Some((sep, right)) = self.insert_rec(self.root, self.height, key, value)? {
            let new_root = self.pool.allocate_pages(1)?;
            {
                let mut page = self.pool.create_page(new_root)?;
                node::init_internal(&mut page);
                node::internal_set_child0(&mut page, self.root);
                node::internal_insert_pair_at(&mut page, 0, sep, right);
            }
            self.root = new_root;
            self.height += 1;
        }
        self.len += 1;
        Ok(())
    }

    fn insert_rec(
        &mut self,
        pid: PageId,
        level: u32,
        key: i64,
        value: u64,
    ) -> Result<Option<(i64, PageId)>> {
        if level == 0 {
            return self.insert_leaf(pid, key, value);
        }
        let (child, idx) = {
            let page = self.fetch_node(pid, level)?;
            let idx = node::internal_descend_index(&page, key);
            (node::internal_child(&page, idx), idx)
        };
        let Some((sep, right)) = self.insert_rec(child, level - 1, key, value)? else {
            return Ok(None);
        };
        // Child split: hang (sep, right) off this node at position idx.
        let full = {
            let page = self.fetch_node(pid, level)?;
            node::count(&page) >= self.config.max_internal_keys
        };
        if !full {
            let mut page = self.pool.fetch_mut(pid)?;
            node::internal_insert_pair_at(&mut page, idx, sep, right);
            return Ok(None);
        }
        // Split this internal node, then place the pending pair
        // immediately to the right of the child that split (child index
        // `idx`). Position must NOT be recomputed by key search: with
        // duplicate separator keys that can land the new child after the
        // wrong sibling and break the separator invariant.
        let new_pid = self.pool.allocate_pages(1)?;
        let push_up = {
            let mut src = self.pool.fetch_mut(pid)?;
            let mut dst = self.pool.create_page(new_pid)?;
            node::init_internal(&mut dst);
            let at = node::count(&src) / 2;
            let push_up = node::internal_split_into(&mut src, &mut dst, at);
            if idx <= at {
                // Child stayed in src (src now holds children 0..=at).
                node::internal_insert_pair_at(&mut src, idx, sep, right);
            } else {
                // Child moved to dst as its child `idx - (at + 1)`.
                node::internal_insert_pair_at(&mut dst, idx - (at + 1), sep, right);
            }
            push_up
        };
        Ok(Some((push_up, new_pid)))
    }

    fn insert_leaf(&mut self, pid: PageId, key: i64, value: u64) -> Result<Option<(i64, PageId)>> {
        let full = {
            let page = self.fetch_node(pid, 0)?;
            node::count(&page) >= self.config.max_leaf_entries
        };
        if !full {
            let mut page = self.pool.fetch_mut(pid)?;
            let pos = node::leaf_upper_bound(&page, key);
            node::leaf_insert_at(&mut page, pos, key, value);
            return Ok(None);
        }
        let new_pid = self.pool.allocate_pages(1)?;
        let sep = {
            let mut src = self.pool.fetch_mut(pid)?;
            let mut dst = self.pool.create_page(new_pid)?;
            node::init_leaf(&mut dst);
            let at = node::count(&src) / 2;
            node::leaf_split_into(&mut src, &mut dst, at);
            node::set_next_leaf(&mut dst, node::next_leaf(&src));
            node::set_next_leaf(&mut src, Some(new_pid));
            let sep = node::leaf_key(&dst, 0);
            if key >= sep {
                let pos = node::leaf_upper_bound(&dst, key);
                node::leaf_insert_at(&mut dst, pos, key, value);
            } else {
                let pos = node::leaf_upper_bound(&src, key);
                node::leaf_insert_at(&mut src, pos, key, value);
            }
            sep
        };
        Ok(Some((sep, new_pid)))
    }

    // ------------------------------------------------------------ deletes

    /// Removes the first entry equal to `(key, value)`; returns whether
    /// one was found. Leaves are never rebalanced (lazy deletion).
    pub fn delete(&mut self, key: i64, value: u64) -> Result<bool> {
        let (mut pid, mut pos) = self.find_run_start(key)?;
        loop {
            let found = {
                let page = self.fetch_node(pid, 0)?;
                let n = node::count(&page);
                let mut hit = None;
                while pos < n {
                    let k = node::leaf_key(&page, pos);
                    if k > key {
                        return Ok(false);
                    }
                    if k == key && node::leaf_value(&page, pos) == value {
                        hit = Some(pos);
                        break;
                    }
                    pos += 1;
                }
                match hit {
                    Some(p) => Some(p),
                    None => match node::next_leaf(&page) {
                        Some(next) => {
                            pid = next;
                            pos = 0;
                            None
                        }
                        None => return Ok(false),
                    },
                }
            };
            if let Some(p) = found {
                let mut page = self.pool.fetch_mut(pid)?;
                node::leaf_remove_at(&mut page, p);
                self.len -= 1;
                return Ok(true);
            }
        }
    }

    // -------------------------------------------------------- diagnostics

    /// Renders the node structure as indented text (for debugging and
    /// invariant checks in tests). Internal nodes print their separator
    /// keys; leaves print `key:value` entries and their next pointer.
    pub fn debug_dump(&self) -> Result<String> {
        let mut out = String::new();
        self.dump_rec(self.root, self.height, 0, &mut out)?;
        Ok(out)
    }

    fn dump_rec(&self, pid: PageId, level: u32, indent: usize, out: &mut String) -> Result<()> {
        use std::fmt::Write;
        let page = self.fetch_node(pid, level)?;
        let pad = "  ".repeat(indent);
        if level == 0 {
            let entries: Vec<String> = (0..node::count(&page))
                .map(|i| {
                    format!(
                        "{}:{}",
                        node::leaf_key(&page, i),
                        node::leaf_value(&page, i)
                    )
                })
                .collect();
            let next = node::next_leaf(&page).map_or("-".to_string(), |p| p.to_string());
            writeln!(out, "{pad}leaf {pid} [{}] -> {next}", entries.join(", ")).unwrap();
        } else {
            let keys: Vec<String> = (0..node::count(&page))
                .map(|i| node::internal_key(&page, i).to_string())
                .collect();
            writeln!(out, "{pad}internal {pid} seps=[{}]", keys.join(", ")).unwrap();
            let n = node::count(&page);
            let children: Vec<PageId> = (0..=n).map(|i| node::internal_child(&page, i)).collect();
            drop(page);
            for child in children {
                self.dump_rec(child, level - 1, indent + 1, out)?;
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------- bulk load

    /// Builds a packed tree from entries that MUST be sorted by key
    /// (duplicates allowed, kept in input order). Roughly an order of
    /// magnitude faster than repeated [`BTree::insert`], and produces
    /// full leaves — this is how the dimension B-trees are built when an
    /// OLAP array is loaded.
    pub fn bulk_load<I>(pool: Arc<BufferPool>, config: BTreeConfig, entries: I) -> Result<Self>
    where
        I: IntoIterator<Item = (i64, u64)>,
    {
        config.validate();
        let mut len = 0u64;
        // Level 0: packed leaves.
        let mut level: Vec<(i64, PageId)> = Vec::new();
        let mut prev_leaf: Option<PageId> = None;
        let mut cur: Vec<(i64, u64)> = Vec::with_capacity(config.max_leaf_entries);
        let mut last_key = i64::MIN;

        let flush_leaf = |cur: &mut Vec<(i64, u64)>,
                          prev_leaf: &mut Option<PageId>,
                          level: &mut Vec<(i64, PageId)>|
         -> Result<()> {
            if cur.is_empty() {
                return Ok(());
            }
            let pid = pool.allocate_pages(1)?;
            {
                let mut page = pool.create_page(pid)?;
                node::init_leaf(&mut page);
                for (i, &(k, v)) in cur.iter().enumerate() {
                    node::leaf_set(&mut page, i, k, v);
                }
                node::set_count(&mut page, cur.len());
            }
            if let Some(prev) = *prev_leaf {
                let mut page = pool.fetch_mut(prev)?;
                node::set_next_leaf(&mut page, Some(pid));
            }
            level.push((cur[0].0, pid));
            *prev_leaf = Some(pid);
            cur.clear();
            Ok(())
        };

        for (k, v) in entries {
            debug_assert!(k >= last_key, "bulk_load input must be sorted by key");
            last_key = k;
            len += 1;
            cur.push((k, v));
            if cur.len() == config.max_leaf_entries {
                flush_leaf(&mut cur, &mut prev_leaf, &mut level)?;
            }
        }
        flush_leaf(&mut cur, &mut prev_leaf, &mut level)?;

        if level.is_empty() {
            // No entries at all: fall back to an empty tree.
            return Self::create_with(pool, config);
        }

        // Upper levels: pack children under internal nodes; the
        // separator for a child is its subtree's first key, matching the
        // invariant split maintains.
        let mut height = 0u32;
        while level.len() > 1 {
            height += 1;
            let mut next_level: Vec<(i64, PageId)> = Vec::new();
            let fanout = config.max_internal_keys + 1;
            for group in level.chunks(fanout) {
                let pid = pool.allocate_pages(1)?;
                let mut page = pool.create_page(pid)?;
                node::init_internal(&mut page);
                node::internal_set_child0(&mut page, group[0].1);
                for (i, &(k, child)) in group[1..].iter().enumerate() {
                    node::internal_insert_pair_at(&mut page, i, k, child);
                }
                next_level.push((group[0].0, pid));
            }
            level = next_level;
        }

        Ok(BTree {
            pool,
            root: level[0].1,
            height,
            len,
            config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use molap_storage::MemDisk;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256))
    }

    fn small_config() -> BTreeConfig {
        BTreeConfig {
            max_leaf_entries: 4,
            max_internal_keys: 3,
        }
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = BTree::create(pool()).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.get(1).unwrap(), None);
        assert_eq!(t.scan_eq(1).unwrap(), Vec::<u64>::new());
        assert_eq!(t.scan_range(0, 100).unwrap(), vec![]);
    }

    #[test]
    fn insert_and_get_without_splits() {
        let mut t = BTree::create(pool()).unwrap();
        for k in [5i64, 1, 9, 3] {
            t.insert(k, (k * 10) as u64).unwrap();
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(3).unwrap(), Some(30));
        assert_eq!(t.get(4).unwrap(), None);
        assert_eq!(t.scan_range(2, 9).unwrap(), vec![(3, 30), (5, 50), (9, 90)]);
    }

    #[test]
    fn splits_produce_correct_ordering() {
        let mut t = BTree::create_with(pool(), small_config()).unwrap();
        let keys: Vec<i64> = (0..200).map(|i| (i * 37) % 200).collect();
        for &k in &keys {
            t.insert(k, k as u64).unwrap();
        }
        assert!(t.height() >= 2, "small fanout must grow a deep tree");
        let all = t.scan_range(i64::MIN, i64::MAX).unwrap();
        assert_eq!(all.len(), 200);
        let mut expect: Vec<i64> = keys.clone();
        expect.sort_unstable();
        assert_eq!(all.iter().map(|e| e.0).collect::<Vec<_>>(), expect);
        for k in 0..200 {
            assert_eq!(t.get(k).unwrap(), Some(k as u64), "key {k}");
        }
    }

    #[test]
    fn duplicates_keep_insertion_order_across_splits() {
        let mut t = BTree::create_with(pool(), small_config()).unwrap();
        // Long duplicate runs that definitely straddle leaves.
        for round in 0..10u64 {
            for key in [7i64, 3, 7, 11] {
                t.insert(key, round * 100 + key as u64).unwrap();
            }
        }
        let sevens = t.scan_eq(7).unwrap();
        assert_eq!(sevens.len(), 20);
        // Values for key 7 were inserted as r*100+7 twice per round.
        let mut expect: Vec<u64> = Vec::new();
        for round in 0..10u64 {
            expect.push(round * 100 + 7);
            expect.push(round * 100 + 7);
        }
        // Insertion order is preserved within the run.
        assert_eq!(sevens, expect);
        assert_eq!(t.scan_eq(3).unwrap().len(), 10);
        assert_eq!(t.scan_eq(5).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn range_scan_boundaries_are_inclusive() {
        let mut t = BTree::create_with(pool(), small_config()).unwrap();
        for k in 0..50 {
            t.insert(k, k as u64).unwrap();
        }
        let r = t.scan_range(10, 12).unwrap();
        assert_eq!(r, vec![(10, 10), (11, 11), (12, 12)]);
        assert_eq!(t.scan_range(12, 10).unwrap(), vec![]);
        assert_eq!(t.scan_range(-5, 0).unwrap(), vec![(0, 0)]);
        assert_eq!(t.scan_range(49, 99).unwrap(), vec![(49, 49)]);
    }

    #[test]
    fn negative_keys_work() {
        let mut t = BTree::create_with(pool(), small_config()).unwrap();
        for k in -20..20 {
            t.insert(k, (k + 100) as u64).unwrap();
        }
        assert_eq!(t.get(-20).unwrap(), Some(80));
        assert_eq!(t.scan_range(-2, 1).unwrap().len(), 4);
    }

    #[test]
    fn delete_removes_exact_pairs_lazily() {
        let mut t = BTree::create_with(pool(), small_config()).unwrap();
        for k in 0..30 {
            t.insert(k, k as u64).unwrap();
            t.insert(k, (k + 1000) as u64).unwrap();
        }
        assert!(t.delete(5, 5).unwrap());
        assert!(!t.delete(5, 5).unwrap(), "already gone");
        assert_eq!(t.scan_eq(5).unwrap(), vec![1005]);
        assert!(t.delete(5, 1005).unwrap());
        assert_eq!(t.scan_eq(5).unwrap(), Vec::<u64>::new());
        assert_eq!(t.len(), 58);
        // Neighbours untouched.
        assert_eq!(t.scan_eq(4).unwrap(), vec![4, 1004]);
        assert_eq!(t.scan_eq(6).unwrap(), vec![6, 1006]);
    }

    #[test]
    fn delete_nonexistent_key_is_noop() {
        let mut t = BTree::create(pool()).unwrap();
        t.insert(1, 1).unwrap();
        assert!(!t.delete(2, 2).unwrap());
        assert!(!t.delete(1, 99).unwrap());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bulk_load_matches_incremental_inserts() {
        let p = pool();
        let entries: Vec<(i64, u64)> = (0..1000).map(|i| (i / 3, i as u64)).collect();
        let bulk = BTree::bulk_load(p.clone(), small_config(), entries.iter().copied()).unwrap();

        let mut incr = BTree::create_with(p, small_config()).unwrap();
        for &(k, v) in &entries {
            incr.insert(k, v).unwrap();
        }
        assert_eq!(bulk.len(), incr.len());
        assert_eq!(
            bulk.scan_range(i64::MIN, i64::MAX).unwrap(),
            incr.scan_range(i64::MIN, i64::MAX).unwrap()
        );
        assert_eq!(bulk.scan_eq(100).unwrap(), incr.scan_eq(100).unwrap());
    }

    #[test]
    fn bulk_load_empty_input() {
        let t = BTree::bulk_load(pool(), BTreeConfig::default(), std::iter::empty()).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.get(0).unwrap(), None);
    }

    #[test]
    fn meta_roundtrip_restores_tree() {
        let p = pool();
        let mut t = BTree::create_with(p.clone(), small_config()).unwrap();
        for k in 0..100 {
            t.insert(k, k as u64 * 2).unwrap();
        }
        let meta = t.meta_to_bytes();
        let restored = BTree::from_meta_bytes(p, &meta).unwrap();
        assert_eq!(restored.len(), 100);
        assert_eq!(restored.height(), t.height());
        assert_eq!(restored.get(42).unwrap(), Some(84));
        assert!(BTree::from_meta_bytes(pool(), &[0u8; 4]).is_err());
    }

    #[test]
    fn corrupt_nodes_are_typed_errors_not_panics() {
        use molap_storage::{DiskManager, PageBuf, PAGE_SIZE};
        let disk = Arc::new(MemDisk::new());
        let p = Arc::new(BufferPool::new(disk.clone(), 256));
        let entries = (0..100).map(|k| (k, k as u64));
        let t = BTree::bulk_load(p.clone(), small_config(), entries).unwrap();
        assert!(t.height() >= 1, "the root must be an internal node");
        p.flush_all().unwrap();
        let meta = t.meta_to_bytes();
        let mut clean = Box::new([0u8; PAGE_SIZE]);
        disk.read_page(t.root, &mut clean).unwrap();

        // A count past the page, an unknown kind byte, a leaf where the
        // height says internal.
        let patches: [fn(&mut PageBuf); 3] = [
            |buf| node::set_count(buf, 0xFFFF),
            |buf| buf[0] = 7,
            |buf| node::init_leaf(buf),
        ];
        for patch in patches {
            let mut page = clean.clone();
            patch(&mut page);
            disk.write_page(t.root, &page).unwrap();
            // A fresh pool, so the reads fault the patched page in.
            let fresh = Arc::new(BufferPool::new(disk.clone(), 256));
            let r = BTree::from_meta_bytes(fresh, &meta).unwrap();
            assert!(matches!(r.get(5), Err(StorageError::Corrupt(_))));
            assert!(matches!(r.scan_eq(5), Err(StorageError::Corrupt(_))));
            assert!(matches!(r.scan_range(0, 50), Err(StorageError::Corrupt(_))));
        }
    }

    #[test]
    fn large_default_fanout_stays_shallow() {
        let mut t = BTree::create(pool()).unwrap();
        for k in 0..2000 {
            t.insert(k, k as u64).unwrap();
        }
        assert!(
            t.height() <= 1,
            "2000 entries fit in two levels at 511 fanout"
        );
        assert_eq!(t.scan_range(0, 1999).unwrap().len(), 2000);
    }
}
