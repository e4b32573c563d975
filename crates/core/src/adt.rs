//! The OLAP Array ADT (§3).
//!
//! An [`OlapArray`] instance owns:
//!
//! * the chunk-offset-compressed n-dimensional array of measures;
//! * its dimension tables (row `r` of dimension `d`'s table is array
//!   index `r` along dimension `d`);
//! * one *key B-tree* per dimension (key value → array index, §3.1);
//! * one *attribute B-tree* per (dimension, hierarchy level) mapping an
//!   attribute code to the sorted list of array indices whose rows
//!   carry it — the index-list source of the §4.2 selection algorithm;
//! * the *IndexToIndex arrays* (§3.4), one per (dimension, level):
//!   `i2i[array index] = rank`, where ranks number the level's distinct
//!   codes in ascending code order. They are persisted as large objects
//!   and *loaded* during a consolidation's first phase, so their I/O is
//!   part of the measured query cost, as in the paper.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use molap_array::{ArrayBuilder, ChunkFormat, ChunkedArray};
use molap_bitmap::StoredHbi;
use molap_btree::{BTree, BTreeConfig};
use molap_storage::{BufferPool, LobId, LobStore};

use crate::dimension::DimensionTable;
use crate::error::{Error, Result};
use crate::query::Query;
use crate::select::PlannerMode;
use crate::util::FxHashMap;

pub(crate) struct DimIndexes {
    pub key_btree: BTree,
    /// One per hierarchy level.
    pub attr_btrees: Vec<BTree>,
    /// Hierarchical bitmap index on the key attribute (the B-tree's
    /// range/membership complement; see [`crate::select`]).
    pub key_hbi: StoredHbi,
    /// One hierarchical bitmap index per hierarchy level.
    pub attr_hbis: Vec<StoredHbi>,
    /// One serialized IndexToIndex array per hierarchy level.
    pub i2i_lobs: Vec<LobId>,
    /// Rank → code per hierarchy level (ascending codes).
    pub level_codes: Vec<Vec<i64>>,
}

/// The OLAP Array abstract data type.
///
/// A handle is a view of the array as of its open: its chunk directory
/// is read once, from the catalog or the build. Writes made through the
/// handle itself keep it current. A caller that keeps a handle across a
/// commit made through *another* handle, one that relocated a chunk,
/// must reopen it. Otherwise its own answers read the old locations,
/// and so do the cubes it puts in the pool's shared result cache, where
/// other handles find them. `Database::prepare`, behind `Database::sql`
/// and the server alike, opens a fresh handle per statement.
pub struct OlapArray {
    pool: Arc<BufferPool>,
    array: ChunkedArray,
    dims: Vec<DimensionTable>,
    dim_indexes: Vec<DimIndexes>,
    i2i_store: LobStore,
    /// Selection-planner routing override ([`PlannerMode`] as a `u8`).
    /// Process-local and not persisted: reopened handles start on
    /// `Auto`. Atomic because parallel consolidations share `&self`.
    planner_mode: AtomicU8,
}

impl OlapArray {
    /// Loads the data set into a new OLAP Array object.
    ///
    /// * `dims` — the dimension tables; their row counts define the
    ///   array extents.
    /// * `chunk_dims` — chunk shape, one entry per dimension.
    /// * `cells` — `(dimension keys, measures)` pairs; each key must
    ///   exist in its dimension table.
    ///
    /// Builds the array (chunks written in disk order), bulk-loads the
    /// key and attribute B-trees, and materializes + persists the
    /// IndexToIndex arrays.
    pub fn build<I>(
        pool: Arc<BufferPool>,
        dims: Vec<DimensionTable>,
        chunk_dims: &[u32],
        format: ChunkFormat,
        cells: I,
        n_measures: usize,
    ) -> Result<OlapArray>
    where
        I: IntoIterator<Item = (Vec<i64>, Vec<i64>)>,
    {
        if dims.is_empty() {
            return Err(Error::Data("need at least one dimension".into()));
        }
        let extents: Vec<u32> = dims.iter().map(|d| d.len() as u32).collect();
        let shape = molap_array::Shape::new(extents, chunk_dims.to_vec())?;

        // Array contents.
        let mut builder = ArrayBuilder::new(shape, n_measures, format);
        let mut coords = vec![0u32; dims.len()];
        for (keys, measures) in cells {
            if keys.len() != dims.len() {
                return Err(Error::Data(format!(
                    "cell has {} keys for {} dimensions",
                    keys.len(),
                    dims.len()
                )));
            }
            for (d, &k) in keys.iter().enumerate() {
                coords[d] = dims[d].row_of_key(k).ok_or_else(|| {
                    Error::Data(format!("unknown key {k} in dimension {}", dims[d].name()))
                })?;
            }
            builder.add(&coords, &measures)?;
        }
        let array = builder.build(pool.clone())?;

        // Per-dimension index structures.
        let i2i_store = LobStore::new(pool.clone());
        let mut dim_indexes = Vec::with_capacity(dims.len());
        for dim in &dims {
            // Key B-tree: key -> array index (row).
            let mut key_entries: Vec<(i64, u64)> = dim
                .keys()
                .iter()
                .enumerate()
                .map(|(row, &k)| (k, row as u64))
                .collect();
            key_entries.sort_unstable();
            let key_btree = BTree::bulk_load(pool.clone(), BTreeConfig::default(), key_entries)?;
            // Hierarchical bitmap index on the key attribute: leaf
            // bitmaps over array positions, value-ordered, persisted
            // RLE-compressed alongside the B-tree (streaming build —
            // key attributes have one distinct value per row).
            let key_hbi = StoredHbi::build(pool.clone(), dim.keys())?;

            let mut attr_btrees = Vec::with_capacity(dim.num_levels());
            let mut attr_hbis = Vec::with_capacity(dim.num_levels());
            let mut i2i_lobs = Vec::with_capacity(dim.num_levels());
            let mut level_codes = Vec::with_capacity(dim.num_levels());
            for level in 0..dim.num_levels() {
                let codes = dim.attr_codes(level)?;
                attr_hbis.push(StoredHbi::build(pool.clone(), codes)?);
                // Attribute B-tree: code -> array indices carrying it.
                let mut entries: Vec<(i64, u64)> = codes
                    .iter()
                    .enumerate()
                    .map(|(row, &c)| (c, row as u64))
                    .collect();
                entries.sort_unstable();
                attr_btrees.push(BTree::bulk_load(
                    pool.clone(),
                    BTreeConfig::default(),
                    entries,
                )?);

                // IndexToIndex: array index -> rank of its code.
                let distinct = dim.distinct_codes(level)?;
                let rank_of: FxHashMap<i64, u32> = distinct
                    .iter()
                    .enumerate()
                    .map(|(r, &c)| (c, r as u32))
                    .collect();
                let mut i2i_bytes = Vec::with_capacity(codes.len() * 4);
                for &c in codes {
                    i2i_bytes.extend_from_slice(&rank_of[&c].to_le_bytes());
                }
                i2i_lobs.push(i2i_store.append(&i2i_bytes)?);
                level_codes.push(distinct);
            }
            dim_indexes.push(DimIndexes {
                key_btree,
                attr_btrees,
                key_hbi,
                attr_hbis,
                i2i_lobs,
                level_codes,
            });
        }

        Ok(OlapArray {
            pool,
            array,
            dims,
            dim_indexes,
            i2i_store,
            planner_mode: AtomicU8::new(PlannerMode::Auto as u8),
        })
    }

    /// The buffer pool everything is stored on.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The selection planner's current routing mode.
    pub fn planner_mode(&self) -> PlannerMode {
        PlannerMode::from_u8(self.planner_mode.load(Ordering::Relaxed))
    }

    /// Pins (or un-pins, with [`PlannerMode::Auto`]) the selection
    /// planner's index choice. Process-local: not persisted, and
    /// reopened handles start back on `Auto`.
    pub fn set_planner_mode(&self, mode: PlannerMode) {
        self.planner_mode.store(mode as u8, Ordering::Relaxed);
    }

    /// The §4.2 step-1 *final index list* for dimension `d` under
    /// `query` (`None` when the dimension carries no selection), with
    /// the predicate-shape planner applied. Exposed for benchmarking
    /// and EXPLAIN-style tooling; consolidation calls the same routine
    /// internally.
    pub fn selection_index_list(&self, query: &Query, d: usize) -> Result<Option<Vec<u32>>> {
        crate::select::final_index_list(self, query, d)
    }

    /// The underlying chunked array.
    pub fn array(&self) -> &ChunkedArray {
        &self.array
    }

    /// The dimension tables.
    pub fn dims(&self) -> &[DimensionTable] {
        &self.dims
    }

    /// Measures per cell.
    pub fn n_measures(&self) -> usize {
        self.array.n_measures()
    }

    /// Number of valid cells.
    pub fn valid_cells(&self) -> u64 {
        self.array.valid_cells()
    }

    /// On-disk pages of the array proper (chunks only).
    pub fn array_pages(&self) -> u64 {
        self.array.total_pages()
    }

    /// Logical bytes of all chunks.
    pub fn array_bytes(&self) -> u64 {
        self.array.total_bytes()
    }

    /// Reads the measures for a vector of dimension *keys* — the ADT's
    /// Read function (§3.5). Keys go through the key B-trees.
    pub fn get_by_keys(&self, keys: &[i64]) -> Result<Option<Vec<i64>>> {
        let coords = match self.keys_to_coords(keys)? {
            Some(c) => c,
            None => return Ok(None),
        };
        Ok(self.array.get(&coords)?)
    }

    /// Writes the measures for a vector of dimension keys — the ADT's
    /// Write function (§3.5). Routed through the batched write engine
    /// (`core::write`) as a one-cell non-durable batch: concurrent
    /// scans stay consistent via the chunk version table, and cached
    /// result cubes are delta-patched instead of flushed. Durability
    /// still follows the historical contract — the mutation lives in
    /// the pool until the next checkpoint; use
    /// [`crate::apply_batch`] for a WAL-backed durable commit.
    pub fn set_by_keys(&mut self, keys: &[i64], values: &[i64]) -> Result<()> {
        crate::write::apply_cells(
            self,
            &[(keys.to_vec(), values.to_vec())],
            false,
            crate::write::CubeMaintenance::Delta,
        )?;
        Ok(())
    }

    pub(crate) fn keys_to_coords(&self, keys: &[i64]) -> Result<Option<Vec<u32>>> {
        if keys.len() != self.dims.len() {
            return Err(Error::Query(format!(
                "{} keys for {} dimensions",
                keys.len(),
                self.dims.len()
            )));
        }
        let mut coords = vec![0u32; keys.len()];
        for (d, &k) in keys.iter().enumerate() {
            // Through the B-tree, as the ADT does — not the table's map.
            match self.dim_indexes[d].key_btree.get(k)? {
                Some(row) => coords[d] = row as u32,
                None => return Ok(None),
            }
        }
        Ok(Some(coords))
    }

    /// Evaluates a consolidation query, dispatching to the §4.1
    /// algorithm (no selections) or the §4.2 algorithm (with
    /// selections).
    pub fn consolidate(&self, query: &Query) -> Result<crate::ConsolidationResult> {
        query.validate(&self.dims, self.n_measures())?;
        if query.has_selection() {
            crate::select::consolidate_with_selection(self, query)
        } else {
            crate::consolidate::consolidate_full(self, query)
        }
    }

    /// Memory-bounded consolidation: like [`OlapArray::consolidate`]
    /// for selection-free queries, but never materializing more than
    /// `max_result_cells` result cells at once (the §4.1 "chunk by
    /// chunk" extension; the input is rescanned once per result band).
    pub fn consolidate_bounded(
        &self,
        query: &Query,
        max_result_cells: usize,
    ) -> Result<crate::ConsolidationResult> {
        query.validate(&self.dims, self.n_measures())?;
        if query.has_selection() {
            return Err(Error::Query(
                "consolidate_bounded does not support selections".into(),
            ));
        }
        crate::consolidate::consolidate_partitioned(self, query, max_result_cells)
    }

    /// Serializes everything needed to reopen this ADT over the same
    /// pool contents: dimension tables, array metadata, the
    /// IndexToIndex LOB directory, and every B-tree's metadata.
    pub fn meta_to_bytes(&self) -> Vec<u8> {
        use crate::dimension::write_blob;
        let mut out = Vec::new();
        out.extend_from_slice(&(self.dims.len() as u16).to_le_bytes());
        for dim in &self.dims {
            write_blob(&mut out, &dim.to_bytes());
        }
        write_blob(&mut out, &self.array.meta_to_bytes());
        write_blob(&mut out, &self.i2i_store.directory_to_bytes());
        for di in &self.dim_indexes {
            write_blob(&mut out, &di.key_btree.meta_to_bytes());
            write_blob(&mut out, &di.key_hbi.meta_to_bytes());
            out.extend_from_slice(&(di.attr_btrees.len() as u16).to_le_bytes());
            for ((btree, hbi), lob) in di.attr_btrees.iter().zip(&di.attr_hbis).zip(&di.i2i_lobs) {
                write_blob(&mut out, &btree.meta_to_bytes());
                write_blob(&mut out, &hbi.meta_to_bytes());
                out.extend_from_slice(&lob.0.to_le_bytes());
            }
        }
        out
    }

    /// Inverse of [`OlapArray::meta_to_bytes`], over the same pool.
    pub fn from_meta_bytes(pool: Arc<BufferPool>, bytes: &[u8]) -> Result<Self> {
        use crate::dimension::Reader;
        let mut r = Reader::new(bytes);
        let n_dims = r.u16()? as usize;
        let dims: Vec<DimensionTable> = (0..n_dims)
            .map(|_| DimensionTable::from_bytes(r.blob()?))
            .collect::<Result<_>>()?;
        let array = ChunkedArray::from_meta_bytes(pool.clone(), r.blob()?)?;
        let i2i_store = LobStore::from_directory_bytes(pool.clone(), r.blob()?)?;
        let mut dim_indexes = Vec::with_capacity(n_dims);
        for dim in &dims {
            let key_btree = BTree::from_meta_bytes(pool.clone(), r.blob()?)?;
            let key_hbi = StoredHbi::from_meta_bytes(pool.clone(), r.blob()?)?;
            let n_levels = r.u16()? as usize;
            if n_levels != dim.num_levels() {
                return Err(Error::Data(format!(
                    "ADT meta: dimension {} has {} levels, meta has {n_levels}",
                    dim.name(),
                    dim.num_levels()
                )));
            }
            let mut attr_btrees = Vec::with_capacity(n_levels);
            let mut attr_hbis = Vec::with_capacity(n_levels);
            let mut i2i_lobs = Vec::with_capacity(n_levels);
            let mut level_codes = Vec::with_capacity(n_levels);
            for level in 0..n_levels {
                attr_btrees.push(BTree::from_meta_bytes(pool.clone(), r.blob()?)?);
                attr_hbis.push(StoredHbi::from_meta_bytes(pool.clone(), r.blob()?)?);
                i2i_lobs.push(LobId(r.u32()?));
                level_codes.push(dim.distinct_codes(level)?);
            }
            dim_indexes.push(DimIndexes {
                key_btree,
                attr_btrees,
                key_hbi,
                attr_hbis,
                i2i_lobs,
                level_codes,
            });
        }
        Ok(OlapArray {
            pool,
            array,
            dims,
            dim_indexes,
            i2i_store,
            planner_mode: AtomicU8::new(PlannerMode::Auto as u8),
        })
    }

    /// The array's persistent uid ([`ChunkedArray::uid`]): every handle
    /// of one array shares it, across reopens and across writes, and
    /// the result-cube cache keys entries by it.
    pub fn identity_hash(&self) -> u64 {
        self.array.uid()
    }

    // ------------------------------------------------- crate-internal

    /// Mutable access to the chunked array, for the write engine only.
    pub(crate) fn array_mut(&mut self) -> &mut ChunkedArray {
        &mut self.array
    }

    pub(crate) fn dim_indexes(&self, d: usize) -> &DimIndexes {
        debug_assert!(d < self.dim_indexes.len(), "dimension ordinal out of range");
        &self.dim_indexes[d]
    }

    /// Loads the IndexToIndex array for (dimension, level) from disk —
    /// phase 1 of the consolidation algorithms.
    pub(crate) fn load_i2i(&self, d: usize, level: usize) -> Result<Vec<u32>> {
        let lob = self
            .dim_indexes
            .get(d)
            .and_then(|di| di.i2i_lobs.get(level))
            .copied()
            .ok_or_else(|| {
                Error::Internal(format!("no IndexToIndex for dimension {d} level {level}"))
            })?;
        let bytes = self.i2i_store.read(lob)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Identity-style IndexToIndex for grouping by the dimension key:
    /// `i2i[row] = rank of key in ascending key order`, plus the sorted
    /// keys as codes.
    pub(crate) fn key_i2i(&self, d: usize) -> (Vec<u32>, Vec<i64>) {
        debug_assert!(d < self.dims.len(), "dimension ordinal out of range");
        let keys = self.dims[d].keys();
        let mut sorted: Vec<i64> = keys.to_vec();
        sorted.sort_unstable();
        let rank_of: FxHashMap<i64, u32> = sorted
            .iter()
            .enumerate()
            .map(|(r, &k)| (k, r as u32))
            .collect();
        // Every key is present: `rank_of` was built from this very list.
        let i2i = keys
            .iter()
            .map(|k| rank_of.get(k).copied().unwrap_or(0))
            .collect();
        (i2i, sorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use molap_storage::MemDisk;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2048))
    }

    fn dims() -> Vec<DimensionTable> {
        vec![
            DimensionTable::build("store", &[100, 200, 300], vec![("region", vec![0, 0, 1])])
                .unwrap(),
            DimensionTable::build("product", &[7, 8], vec![("type", vec![1, 1])]).unwrap(),
        ]
    }

    fn sample_cells() -> Vec<(Vec<i64>, Vec<i64>)> {
        vec![
            (vec![100, 7], vec![10]),
            (vec![200, 8], vec![20]),
            (vec![300, 7], vec![30]),
        ]
    }

    fn build_sample() -> OlapArray {
        OlapArray::build(
            pool(),
            dims(),
            &[2, 2],
            ChunkFormat::ChunkOffset,
            sample_cells(),
            1,
        )
        .unwrap()
    }

    #[test]
    fn build_populates_array_and_indexes() {
        let a = build_sample();
        assert_eq!(a.valid_cells(), 3);
        assert_eq!(a.n_measures(), 1);
        assert_eq!(a.array().shape().dims(), &[3, 2]);
        // Key B-trees map keys to rows.
        assert_eq!(a.dim_indexes(0).key_btree.get(300).unwrap(), Some(2));
        assert_eq!(a.dim_indexes(1).key_btree.get(8).unwrap(), Some(1));
        // Attribute B-trees map codes to index lists.
        assert_eq!(
            a.dim_indexes(0).attr_btrees[0].scan_eq(0).unwrap(),
            vec![0, 1]
        );
        assert_eq!(a.dim_indexes(0).attr_btrees[0].scan_eq(1).unwrap(), vec![2]);
    }

    #[test]
    fn read_write_through_keys() {
        let mut a = build_sample();
        assert_eq!(a.get_by_keys(&[100, 7]).unwrap(), Some(vec![10]));
        assert_eq!(a.get_by_keys(&[100, 8]).unwrap(), None);
        assert_eq!(a.get_by_keys(&[999, 7]).unwrap(), None);
        assert!(a.get_by_keys(&[100]).is_err());

        a.set_by_keys(&[100, 8], &[77]).unwrap();
        assert_eq!(a.get_by_keys(&[100, 8]).unwrap(), Some(vec![77]));
        assert_eq!(a.valid_cells(), 4);
        assert!(a.set_by_keys(&[999, 7], &[1]).is_err());
    }

    #[test]
    fn i2i_arrays_map_rows_to_ranks() {
        let a = build_sample();
        // store.region: rows [0,0,1] -> ranks [0,0,1]; codes [0,1].
        assert_eq!(a.load_i2i(0, 0).unwrap(), vec![0, 0, 1]);
        assert_eq!(a.dim_indexes(0).level_codes[0], vec![0, 1]);
        // product.type: rows [1,1] -> ranks [0,0]; codes [1].
        assert_eq!(a.load_i2i(1, 0).unwrap(), vec![0, 0]);
        assert_eq!(a.dim_indexes(1).level_codes[0], vec![1]);
    }

    #[test]
    fn key_i2i_ranks_by_sorted_key() {
        let d = vec![DimensionTable::build("x", &[30, 10, 20], vec![]).unwrap()];
        let a = OlapArray::build(
            pool(),
            d,
            &[3],
            ChunkFormat::ChunkOffset,
            vec![(vec![10], vec![1])],
            1,
        )
        .unwrap();
        let (i2i, codes) = a.key_i2i(0);
        assert_eq!(codes, vec![10, 20, 30]);
        assert_eq!(i2i, vec![2, 0, 1]); // rows hold keys 30,10,20
    }

    #[test]
    fn unknown_key_in_cells_rejected() {
        let err = OlapArray::build(
            pool(),
            dims(),
            &[2, 2],
            ChunkFormat::ChunkOffset,
            vec![(vec![123, 7], vec![1])],
            1,
        );
        assert!(matches!(err, Err(Error::Data(_))));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = OlapArray::build(
            pool(),
            dims(),
            &[2, 2],
            ChunkFormat::ChunkOffset,
            vec![(vec![100], vec![1])],
            1,
        );
        assert!(matches!(err, Err(Error::Data(_))));
    }
}
