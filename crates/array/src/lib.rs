//! Chunked multi-dimensional arrays with chunk-offset compression.
//!
//! This crate is the storage half of the paper's OLAP Array ADT (§3):
//!
//! * [`Shape`] — the geometry of an n-dimensional array broken into
//!   n-dimensional *chunks* (tiles). All position arithmetic — cell
//!   coordinates ↔ (chunk number, offset in chunk) — lives here, because
//!   the paper's whole performance argument is that lookups are
//!   *position-based rather than value-based*.
//! * [`CompressedChunk`] — the paper's novel "chunk-offset compression"
//!   (§3.3): a chunk stores only its valid cells as
//!   `(offsetInChunk, data)` pairs sorted by offset, so a point probe is
//!   a binary search and a scan touches exactly the valid cells.
//! * [`diffseq`] — the second chunk codec: the same cells with their
//!   offsets delta-encoded and bit-packed, decodable as a stream.
//!   Chunk-offset and difference-sequence are the two formats an array
//!   stores ([`ChunkFormat`]); both decode to a [`CompressedChunk`].
//! * [`DenseChunk`] and [`lzw`] — the uncompressed representation and
//!   the LZW codec of the generic Paradise array type (§3.1). No array
//!   stores them: they are the measured baselines of the compression
//!   ablation, fed by [`CompressedChunk::to_dense`].
//! * [`ChunkedArray`] — the on-disk array: a chunk directory over a
//!   large-object store, one object per chunk, chunks laid out on disk
//!   in chunk-number order (the property the §4.2 selection algorithm's
//!   chunk-ordered probe generation exploits).
//!
//! Cells carry `p ≥ 1` measures of type `i64`, matching the paper's data
//! model where a cell holds the measure set `M = {m₁ … m_p}` and the
//! storage ratio `(n+p)/p` between a fact table and an array depends on
//! both counts.
//!
//! # Example
//!
//! ```
//! use molap_array::{ArrayBuilder, ChunkFormat, Shape};
//! use molap_storage::{BufferPool, MemDisk};
//! use std::sync::Arc;
//!
//! let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
//! let shape = Shape::new(vec![8, 8], vec![4, 4]).unwrap();
//! let mut builder = ArrayBuilder::new(shape, 1, ChunkFormat::ChunkOffset);
//! builder.add(&[1, 2], &[42]).unwrap();
//! builder.add(&[7, 7], &[7]).unwrap();
//! let array = builder.build(pool).unwrap();
//!
//! assert_eq!(array.get(&[1, 2]).unwrap(), Some(vec![42]));
//! assert_eq!(array.get(&[0, 0]).unwrap(), None);
//! assert_eq!(array.valid_cells(), 2);
//! ```

#![forbid(unsafe_code)]

mod array;
mod cache;
mod chunk;
pub mod diffseq;
mod geometry;
pub mod lzw;
mod prefetch;
mod version;

pub use array::{ArrayBuilder, ChunkFormat, ChunkPayload, ChunkedArray, PrefetchScratch};
pub use cache::{shared_chunk_cache, ChunkCache, ChunkKey};
pub use chunk::{ChunkBuilder, CompressedChunk, DenseChunk};
pub use geometry::Shape;
pub use prefetch::ChunkPipeline;
pub use version::{shared_version_table, ChunkSnapshot, VersionKey, VersionTable};

/// Errors raised by array construction and access.
#[derive(Debug)]
pub enum ArrayError {
    /// Underlying storage failed.
    Storage(molap_storage::StorageError),
    /// Dimension/coordinate arity or bounds violated.
    Geometry(String),
    /// A serialized chunk or directory could not be decoded.
    Corrupt(&'static str),
    /// An array header names a chunk format this build no longer
    /// stores: tag 1 (dense) or 2 (dense-LZW).
    UnsupportedFormat(u32),
    /// A chunk format name that is neither `chunkoffset` nor `diffseq`.
    UnknownFormat(String),
    /// The pool's write path was poisoned by a failed batch whose
    /// pre-images could not be restored (see
    /// [`ChunkedArray::poison_writes`]); further writes are refused.
    Poisoned,
}

impl std::fmt::Display for ArrayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrayError::Storage(e) => write!(f, "array storage error: {e}"),
            ArrayError::Geometry(msg) => write!(f, "array geometry error: {msg}"),
            ArrayError::Corrupt(what) => write!(f, "corrupt array data: {what}"),
            ArrayError::UnsupportedFormat(tag) => {
                write!(f, "array stored in retired chunk format {tag}")
            }
            ArrayError::UnknownFormat(name) => write!(f, "unknown chunk format {name:?}"),
            ArrayError::Poisoned => write!(
                f,
                "array write path poisoned: a failed batch could not be rolled back"
            ),
        }
    }
}

impl std::error::Error for ArrayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArrayError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<molap_storage::StorageError> for ArrayError {
    fn from(e: molap_storage::StorageError) -> Self {
        ArrayError::Storage(e)
    }
}

/// Convenience alias used throughout the array crate.
pub type Result<T> = std::result::Result<T, ArrayError>;
