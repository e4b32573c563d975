//! # molap — array-based evaluation of multi-dimensional queries
//!
//! A full reimplementation of the system described in *"Array-Based
//! Evaluation of Multi-Dimensional Queries in Object-Relational
//! Database Systems"* (ICDE 1998): a chunk-offset-compressed
//! multi-dimensional array ADT and its consolidation algorithms,
//! compared against star-join and bitmap-index relational plans, all on
//! one shared paged storage substrate.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`storage`] | `molap-storage` | pages, disk managers, buffer pool, large objects, I/O stats |
//! | [`btree`] | `molap-btree` | paged B+tree with duplicates and range scans |
//! | [`bitmap`] | `molap-bitmap` | bitmaps, RLE codec, bitmap join indices |
//! | [`factfile`] | `molap-factfile` | extent-based fixed-record fact file |
//! | [`array`](mod@array) | `molap-array` | chunked arrays, chunk-offset and diff-seq chunk codecs |
//! | [`core`] | `molap-core` | the OLAP Array ADT and the three query engines |
//! | [`datagen`] | `molap-datagen` | the paper's synthetic datasets |
//! | [`server`] | `molap-server` | concurrent TCP query service + blocking client |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`, or in short:
//!
//! ```
//! use molap::core::{starjoin_consolidate, DimGrouping, OlapArray, Query, StarSchema};
//! use molap::array::ChunkFormat;
//! use molap::datagen::{generate, AttrLayout, CubeSpec};
//! use molap::storage::{BufferPool, MemDisk};
//! use std::sync::Arc;
//!
//! // A small synthetic star schema.
//! let cube = generate(&CubeSpec {
//!     dim_sizes: vec![8, 8],
//!     level_cards: vec![vec![4], vec![2]],
//!     valid_cells: 20,
//!     seed: 7,
//!     n_measures: 1,
//!     independent_last_level: false,
//!     layout: AttrLayout::Scattered,
//! }).unwrap();
//!
//! let pool = Arc::new(BufferPool::with_bytes(Arc::new(MemDisk::new()), 16 << 20));
//! let adt = OlapArray::build(
//!     pool.clone(), cube.dims.clone(), &[4, 4], ChunkFormat::ChunkOffset,
//!     cube.cells.iter().cloned(), 1,
//! ).unwrap();
//! let schema = StarSchema::build(pool, cube.dims.clone(), cube.cells.iter().cloned(), 1).unwrap();
//!
//! let query = Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]);
//! assert_eq!(
//!     adt.consolidate(&query).unwrap(),
//!     starjoin_consolidate(&schema, &query).unwrap(),
//! );
//! ```

#![forbid(unsafe_code)]

pub use molap_array as array;
pub use molap_bitmap as bitmap;
pub use molap_btree as btree;
pub use molap_core as core;
pub use molap_datagen as datagen;
pub use molap_factfile as factfile;
pub use molap_server as server;
pub use molap_storage as storage;
