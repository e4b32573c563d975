//! Paged B+tree on the SHORE-lite buffer pool.
//!
//! The OLAP Array ADT "contains ... a set of B-tree indices, one for
//! each dimension" mapping dimension key values to array index positions
//! (§3.1), and the selection algorithm (§4.2) probes per-attribute
//! B-trees to turn a selected value into a *list* of array indices. That
//! dictates the two requirements this tree is built around:
//!
//! * **duplicate keys** — an attribute value maps to many array indices,
//!   so equal keys are stored side by side and [`BTree::scan_eq`]
//!   returns all of them;
//! * **range scans** — leaves are chained, so ordered retrieval of a key
//!   interval is a single leaf walk.
//!
//! Keys are `i64`, values `u64`: the paper's test schema uses integer
//! dimension keys, and string-valued hierarchy attributes (`"AA1"` …)
//! are dictionary-encoded to integers by the data generator before they
//! reach an index.
//!
//! Deletion is implemented *lazily* (entries are removed from leaves
//! without rebalancing), the common practical trade-off for
//! OLAP-style append-mostly workloads; a bulk loader builds packed trees
//! from sorted input in one pass.
//!
//! # Example
//!
//! ```
//! use molap_btree::BTree;
//! use molap_storage::{BufferPool, MemDisk};
//! use std::sync::Arc;
//!
//! let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
//! let mut tree = BTree::create(pool).unwrap();
//! tree.insert(10, 100).unwrap();
//! tree.insert(10, 101).unwrap(); // duplicate key
//! tree.insert(20, 200).unwrap();
//! assert_eq!(tree.scan_eq(10).unwrap(), vec![100, 101]);
//! assert_eq!(tree.get(20).unwrap(), Some(200));
//! ```

#![forbid(unsafe_code)]

mod node;
mod tree;

pub use tree::{BTree, BTreeConfig};
