//! Property-based tests: the paged B+tree must behave exactly like a
//! sorted multimap model under arbitrary interleavings of inserts,
//! deletes, point lookups, and range scans, and concurrent readers
//! sharing one `&BTree` must each see that model.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use molap_btree::{BTree, BTreeConfig};
use molap_storage::{BufferPool, MemDisk};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, u64),
    Delete(i64, u64),
    Get(i64),
    ScanEq(i64),
    Range(i64, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Narrow key space to force duplicates and collisions.
    let key = -20i64..20;
    let val = 0u64..8;
    prop_oneof![
        4 => (key.clone(), val.clone()).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => (key.clone(), val).prop_map(|(k, v)| Op::Delete(k, v)),
        2 => key.clone().prop_map(Op::Get),
        2 => key.clone().prop_map(Op::ScanEq),
        1 => (key.clone(), key).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

/// Sorted-multimap reference model. Equal keys keep insertion order,
/// matching the tree's documented duplicate semantics.
#[derive(Default)]
struct Model {
    entries: Vec<(i64, u64)>,
}

impl Model {
    fn insert(&mut self, k: i64, v: u64) {
        let pos = self.entries.partition_point(|&(ek, _)| ek <= k);
        self.entries.insert(pos, (k, v));
    }

    fn delete(&mut self, k: i64, v: u64) -> bool {
        if let Some(i) = self.entries.iter().position(|&e| e == (k, v)) {
            self.entries.remove(i);
            true
        } else {
            false
        }
    }

    fn get(&self, k: i64) -> Option<u64> {
        self.entries.iter().find(|&&(ek, _)| ek == k).map(|e| e.1)
    }

    fn scan_eq(&self, k: i64) -> Vec<u64> {
        self.entries
            .iter()
            .filter(|&&(ek, _)| ek == k)
            .map(|e| e.1)
            .collect()
    }

    fn range(&self, lo: i64, hi: i64) -> Vec<(i64, u64)> {
        self.entries
            .iter()
            .copied()
            .filter(|&(k, _)| lo <= k && k <= hi)
            .collect()
    }
}

fn run_ops(ops: Vec<Op>, config: BTreeConfig) {
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 512));
    let mut tree = BTree::create_with(pool, config).unwrap();
    let mut model = Model::default();

    for op in ops {
        match op {
            Op::Insert(k, v) => {
                tree.insert(k, v).unwrap();
                model.insert(k, v);
            }
            Op::Delete(k, v) => {
                let a = tree.delete(k, v).unwrap();
                let b = model.delete(k, v);
                assert_eq!(a, b, "delete({k},{v})");
            }
            Op::Get(k) => {
                assert_eq!(tree.get(k).unwrap(), model.get(k), "get({k})");
            }
            Op::ScanEq(k) => {
                let mut a = tree.scan_eq(k).unwrap();
                let mut b = model.scan_eq(k);
                // Delete can reorder within a duplicate run relative to
                // the model (lazy deletion keeps physical order), so
                // compare as multisets.
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "scan_eq({k})");
            }
            Op::Range(lo, hi) => {
                let mut a = tree.scan_range(lo, hi).unwrap();
                let mut b = model.range(lo, hi);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "range({lo},{hi})");
            }
        }
        assert_eq!(tree.len(), model.entries.len() as u64);
    }
    // Final full-order check: keys must come out sorted.
    let all = tree.scan_range(i64::MIN, i64::MAX).unwrap();
    let keys: Vec<i64> = all.iter().map(|e| e.0).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tiny_fanout_matches_model(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        run_ops(ops, BTreeConfig { max_leaf_entries: 3, max_internal_keys: 2 });
    }

    #[test]
    fn medium_fanout_matches_model(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        run_ops(ops, BTreeConfig { max_leaf_entries: 8, max_internal_keys: 5 });
    }

    #[test]
    fn bulk_load_equals_scan(mut keys in proptest::collection::vec(-50i64..50, 0..500)) {
        keys.sort_unstable();
        let entries: Vec<(i64, u64)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 512));
        let config = BTreeConfig { max_leaf_entries: 4, max_internal_keys: 3 };
        let tree = BTree::bulk_load(pool, config, entries.iter().copied()).unwrap();
        prop_assert_eq!(tree.scan_range(i64::MIN, i64::MAX).unwrap(), entries.clone());
        // Every key is findable.
        for &(k, _) in &entries {
            prop_assert!(tree.get(k).unwrap().is_some());
        }
    }
}

/// The engine shares one `&BTree` across query sessions and scan
/// threads. Four readers probe a tree four times larger than its pool,
/// so their faults evict each other's pages mid-descent, and every
/// answer must still match the model.
#[test]
fn concurrent_readers_match_the_model() {
    // 2 000 distinct keys, every third integer, ten entries each.
    let entries: Vec<(i64, u64)> = (0..20_000u64).map(|i| ((i / 10) as i64 * 3, i)).collect();
    let mut model: BTreeMap<i64, Vec<u64>> = BTreeMap::new();
    for &(k, v) in &entries {
        model.entry(k).or_default().push(v);
    }
    let disk = Arc::new(MemDisk::new());
    let pool = Arc::new(BufferPool::new(disk, 24));
    let config = BTreeConfig {
        max_leaf_entries: 64,
        max_internal_keys: 16,
    };
    let tree = BTree::bulk_load(pool.clone(), config, entries).unwrap();
    assert!(tree.height() >= 2);
    assert!(
        pool.disk().num_pages() >= 4 * 24,
        "the tree must outgrow the pool"
    );
    let max_key = 3 * 2_000;
    let start = Barrier::new(4);

    std::thread::scope(|s| {
        for seed in 0..4u64 {
            let (tree, model, start) = (&tree, &model, &start);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                start.wait();
                for _ in 0..1_500 {
                    let k = rng.random_range(-5..max_key + 5);
                    let run = model.get(&k).map_or(&[][..], Vec::as_slice);
                    assert_eq!(tree.get(k).unwrap(), run.first().copied(), "get({k})");
                    assert_eq!(tree.scan_eq(k).unwrap(), run, "scan_eq({k})");
                    let hi = k + rng.random_range(0..60i64);
                    let expect: Vec<(i64, u64)> = model
                        .range(k..=hi)
                        .flat_map(|(&k, vs)| vs.iter().map(move |&v| (k, v)))
                        .collect();
                    assert_eq!(tree.scan_range(k, hi).unwrap(), expect, "range({k},{hi})");
                }
            });
        }
    });
    assert!(pool.stats().snapshot().evictions > 0, "probes must evict");
}
