//! The OLAP Array ADT and the paper's three consolidation engines.
//!
//! This crate is the paper's contribution proper. It ties the substrate
//! crates together into the two competing physical designs and the
//! algorithms that run on them:
//!
//! **The array side** — [`OlapArray`] (§3) bundles
//!
//! * a chunk-offset-compressed [`molap_array::ChunkedArray`] holding the
//!   measures,
//! * one *key B-tree* per dimension mapping dimension key → array index
//!   (§3.1),
//! * one *attribute B-tree* per dimension attribute mapping attribute
//!   value → the list of array indices joining it (the probe structure
//!   of the §4.2 selection algorithm),
//! * the *IndexToIndex arrays* (§3.4): positional maps from a
//!   dimension's array index to its group's index at each hierarchy
//!   level, persisted alongside the array and loaded at query time.
//!
//! Its two algorithms are [`OlapArray::consolidate`] (§4.1: fused
//! star-join + group-by + aggregate over one array scan) and the
//! selection path (§4.2: B-tree index lists → chunk-ordered
//! cross-product probe with binary search inside compressed chunks).
//! `OlapArray::consolidate` is the per-cell, single-threaded reference
//! for a quiesced array; the engine runs both algorithms through one
//! snapshot-pinned chunk pipeline ([`consolidate_auto`],
//! [`consolidate_pipelined`]), which is what [`Database::sql`],
//! [`compute_cube`] and [`OlapArray::consolidate_to_array`] use.
//!
//! **The relational side** — [`StarSchema`] (fact file + dimension
//! tables) evaluated by
//!
//! * [`starjoin_consolidate`] (§4.3): one in-memory hash table per
//!   dimension plus an aggregation hash table, single fact scan;
//! * [`bitmap_consolidate`] (§4.5): pre-built [`JoinBitmapIndexes`]
//!   ANDed into a result bitmap that drives the fact file's positional
//!   fetch.
//!
//! Queries are described by [`Query`] (per-dimension grouping and
//! conjunctive IN-list selections, per-measure aggregates) and every
//! engine returns a [`ConsolidationResult`] — normalized, ordered rows —
//! so the engines can be cross-checked cell for cell, which the
//! integration tests do on randomized cubes.
//!
//! # Example: the same query on both physical designs
//!
//! ```
//! use molap_core::{
//!     starjoin_consolidate, DimGrouping, DimensionTable, OlapArray, Query, StarSchema,
//! };
//! use molap_array::ChunkFormat;
//! use molap_storage::{BufferPool, MemDisk};
//! use std::sync::Arc;
//!
//! // Two tiny dimensions; keys map to hierarchy attribute "region".
//! let dims = vec![
//!     DimensionTable::build("store", &[0, 1, 2, 3], vec![("region", vec![0, 0, 1, 1])]).unwrap(),
//!     DimensionTable::build("product", &[10, 20], vec![("type", vec![5, 5])]).unwrap(),
//! ];
//! // Facts: (store key, product key) -> volume.
//! let cells: Vec<(Vec<i64>, Vec<i64>)> = vec![
//!     (vec![0, 10], vec![7]),
//!     (vec![1, 20], vec![3]),
//!     (vec![3, 10], vec![10]),
//! ];
//!
//! let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 1024));
//! let array = OlapArray::build(
//!     pool.clone(), dims.clone(), &[2, 2], ChunkFormat::ChunkOffset, cells.iter().cloned(), 1,
//! ).unwrap();
//! let schema = StarSchema::build(pool, dims, cells.iter().cloned(), 1).unwrap();
//!
//! // SELECT region, SUM(volume) GROUP BY region.
//! let query = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
//! let a = array.consolidate(&query).unwrap();
//! let b = starjoin_consolidate(&schema, &query).unwrap();
//! assert_eq!(a, b);
//! assert_eq!(a.rows().len(), 2); // regions 0 and 1
//! ```

#![forbid(unsafe_code)]

mod adt;
mod aggregate;
mod bitmapjoin;
mod catalog;
mod consolidate;
mod cube_op;
mod dimension;
mod error;
mod kernel;
mod materialize;
mod parallel;
mod query;
mod rescache;
mod result;
mod select;
pub mod sql;
mod starjoin;
pub mod util;
mod write;

pub use adt::OlapArray;
// Re-exported so downstream crates (datagen, CLI, benches) can select
// the chunk codec without a direct molap-array dependency.
pub use aggregate::{AggFunc, AggState, AggValue};
pub use bitmapjoin::{bitmap_consolidate, JoinBitmapIndexes};
pub use catalog::{Database, ObjectKind, Prepared};
pub use cube_op::{compute_cube, CubeSlice};
pub use dimension::DimensionTable;
pub use error::{Error, Result};
pub use molap_array::ChunkFormat;
pub use parallel::{consolidate_auto, consolidate_pipelined, PrefetchPlan};
pub use query::{AttrRef, DimGrouping, Pred, Query, Selection};
pub use rescache::{shared_result_cache, CacheKey, ResultCache};
pub use result::{ConsolidationResult, GroupedDim, ResultCube, Rollup, Row};
pub use select::PlannerMode;
pub use sql::{parse_query, SqlStatement};
pub use starjoin::{starjoin_consolidate, StarSchema};
pub use write::{apply_batch, apply_batch_with, CubeMaintenance, WriteBatch, WriteReceipt};
