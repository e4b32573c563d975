//! The database catalog: named, persistent OLAP objects in one store.
//!
//! Paradise is a full DBMS; its catalog knows every table, index, and
//! ADT instance. This module provides the equivalent for the
//! reproduction: a [`Database`] owns one page store and a catalog of
//! named objects — OLAP arrays, star schemas, bitmap index sets — that
//! survive process restarts.
//!
//! On-disk layout: page 0 is the catalog root, holding a header that
//! points at the current catalog blob (a snapshot of every object's
//! serialized metadata). [`Database::save`]-type calls rewrite the blob
//! to a fresh extent and flip the root pointer, then flush — a
//! shadow-root commit, so a crash between writes leaves the previous
//! catalog intact. Object *data* pages (chunks, B-tree nodes, bitmaps)
//! are written in place; the catalog only stores their metadata.
//!
//! ```no_run
//! use molap_core::{Database, OlapArray};
//! # fn demo(adt: &OlapArray) -> molap_core::Result<()> {
//! let db = Database::create("/tmp/sales.molap", 16 << 20)?;
//! // ... build an OlapArray / StarSchema on db.pool() ...
//! db.save_olap_array("sales", adt)?;
//! db.checkpoint()?;
//! drop(db);
//!
//! let db = Database::open("/tmp/sales.molap", 16 << 20)?;
//! let sales = db.open_olap_array("sales")?;
//! # Ok(()) }
//! ```

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use molap_storage::util::{read_u32, read_u64, write_u32, write_u64};
use molap_storage::{BufferPool, FileDisk, PageId, Wal, PAGE_SIZE};
use parking_lot::Mutex;

use crate::adt::OlapArray;
use crate::bitmapjoin::JoinBitmapIndexes;
use crate::dimension::{write_blob, Reader};
use crate::error::{Error, Result};
use crate::starjoin::StarSchema;

const MAGIC: u32 = 0x4D4F_4C41; // "MOLA"
const VERSION: u32 = 1;

/// The WAL lives next to the database file.
fn wal_path(db: &Path) -> std::path::PathBuf {
    let mut p = db.as_os_str().to_owned();
    p.push(".wal");
    std::path::PathBuf::from(p)
}

/// Kind tag of a cataloged object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectKind {
    /// An [`OlapArray`].
    OlapArray,
    /// A [`StarSchema`].
    StarSchema,
    /// A [`JoinBitmapIndexes`] set.
    BitmapIndexes,
}

impl ObjectKind {
    fn to_u8(self) -> u8 {
        match self {
            ObjectKind::OlapArray => 0,
            ObjectKind::StarSchema => 1,
            ObjectKind::BitmapIndexes => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(ObjectKind::OlapArray),
            1 => Ok(ObjectKind::StarSchema),
            2 => Ok(ObjectKind::BitmapIndexes),
            _ => Err(Error::Data(format!("unknown catalog object kind {v}"))),
        }
    }
}

struct CatalogState {
    objects: BTreeMap<String, (ObjectKind, Vec<u8>)>,
    dirty: bool,
}

/// A persistent store of named OLAP objects.
///
/// Write-batch commits serialize on the *pool's* commit mutex (the
/// version table's commit section, DESIGN.md §8) rather than a
/// database-local lock, so batches issued through the write engine
/// directly (`apply_batch` on an open [`OlapArray`]) and through
/// [`Database::write_batch`] exclude each other too.
pub struct Database {
    pool: Arc<BufferPool>,
    catalog: Mutex<CatalogState>,
}

impl Database {
    /// Creates a new database file (truncating any existing one) with a
    /// buffer pool of `pool_bytes`. A redo WAL is created alongside at
    /// `<path>.wal`; [`Database::checkpoint`] journals each flush so a
    /// crash mid-checkpoint is recoverable on the next open.
    pub fn create<P: AsRef<Path>>(path: P, pool_bytes: usize) -> Result<Self> {
        let path = path.as_ref();
        let disk = FileDisk::create(path)?;
        let wal = Wal::create(wal_path(path))?;
        let frames = (pool_bytes / PAGE_SIZE).max(1);
        let pool = Arc::new(BufferPool::new_with_wal(Arc::new(disk), frames, wal));
        let root = pool.allocate_pages(1)?;
        debug_assert_eq!(root, PageId(0));
        {
            let mut page = pool.create_page(root)?;
            write_u32(&mut page[..], 0, MAGIC);
            write_u32(&mut page[..], 4, VERSION);
            write_u64(&mut page[..], 8, u64::MAX); // no catalog blob yet
        }
        pool.flush_all()?;
        Ok(Database {
            pool,
            catalog: Mutex::new(CatalogState {
                objects: BTreeMap::new(),
                dirty: false,
            }),
        })
    }

    /// Opens an existing database file and loads its catalog, first
    /// replaying any WAL records a crashed run left behind.
    pub fn open<P: AsRef<Path>>(path: P, pool_bytes: usize) -> Result<Self> {
        let path = path.as_ref();
        let disk = FileDisk::open(path)?;
        let wal = Wal::open(wal_path(path))?;
        if !wal.is_empty() {
            wal.recover(&disk)?;
        }
        let frames = (pool_bytes / PAGE_SIZE).max(1);
        let pool = Arc::new(BufferPool::new_with_wal(Arc::new(disk), frames, wal));
        let (blob_start, blob_len) = {
            let page = pool.fetch(PageId(0))?;
            if read_u32(&page[..], 0) != MAGIC {
                return Err(Error::Data("not a molap database (bad magic)".into()));
            }
            if read_u32(&page[..], 4) != VERSION {
                return Err(Error::Data("unsupported database version".into()));
            }
            (read_u64(&page[..], 8), read_u64(&page[..], 16))
        };
        let mut objects = BTreeMap::new();
        if blob_start != u64::MAX {
            let mut blob = Vec::with_capacity(blob_len as usize);
            let npages = blob_len.div_ceil(PAGE_SIZE as u64);
            for i in 0..npages {
                let page = pool.fetch(PageId(blob_start + i))?;
                let take = (blob_len as usize - blob.len()).min(PAGE_SIZE);
                blob.extend_from_slice(&page[..take]);
            }
            let mut r = Reader::new(&blob);
            let n = r.u32()? as usize;
            for _ in 0..n {
                let name = r.str()?;
                let kind = ObjectKind::from_u8(r.u8()?)?;
                let meta = r.blob()?.to_vec();
                objects.insert(name, (kind, meta));
            }
        }
        Ok(Database {
            pool,
            catalog: Mutex::new(CatalogState {
                objects,
                dirty: false,
            }),
        })
    }

    /// The database's buffer pool: build objects on this pool so their
    /// pages live in the database file.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Lists cataloged objects as `(name, kind)`.
    pub fn list(&self) -> Vec<(String, ObjectKind)> {
        self.catalog
            .lock()
            .objects
            .iter()
            .map(|(n, (k, _))| (n.clone(), *k))
            .collect()
    }

    /// True if `name` is cataloged.
    pub fn contains(&self, name: &str) -> bool {
        self.catalog.lock().objects.contains_key(name)
    }

    /// Removes `name` from the catalog (object pages are not reclaimed).
    pub fn remove(&self, name: &str) -> bool {
        let mut cat = self.catalog.lock();
        let removed = cat.objects.remove(name).is_some();
        cat.dirty |= removed;
        removed
    }

    fn put(&self, name: &str, kind: ObjectKind, meta: Vec<u8>) {
        let mut cat = self.catalog.lock();
        cat.objects.insert(name.to_string(), (kind, meta));
        cat.dirty = true;
    }

    fn get(&self, name: &str, kind: ObjectKind) -> Result<Vec<u8>> {
        let cat = self.catalog.lock();
        match cat.objects.get(name) {
            Some((k, meta)) if *k == kind => Ok(meta.clone()),
            Some((k, _)) => Err(Error::Query(format!(
                "object {name:?} is a {k:?}, not a {kind:?}"
            ))),
            None => Err(Error::Query(format!("no object named {name:?}"))),
        }
    }

    /// Catalogs an [`OlapArray`] under `name` (replacing any previous
    /// entry). Call [`Database::checkpoint`] to persist.
    pub fn save_olap_array(&self, name: &str, adt: &OlapArray) -> Result<()> {
        self.put(name, ObjectKind::OlapArray, adt.meta_to_bytes());
        Ok(())
    }

    /// Reopens a cataloged [`OlapArray`].
    pub fn open_olap_array(&self, name: &str) -> Result<OlapArray> {
        let meta = self.get(name, ObjectKind::OlapArray)?;
        OlapArray::from_meta_bytes(self.pool.clone(), &meta)
    }

    /// Catalogs a [`StarSchema`] under `name`.
    pub fn save_star_schema(&self, name: &str, schema: &StarSchema) -> Result<()> {
        self.put(name, ObjectKind::StarSchema, schema.meta_to_bytes());
        Ok(())
    }

    /// Reopens a cataloged [`StarSchema`].
    pub fn open_star_schema(&self, name: &str) -> Result<StarSchema> {
        let meta = self.get(name, ObjectKind::StarSchema)?;
        StarSchema::from_meta_bytes(self.pool.clone(), &meta)
    }

    /// Catalogs a [`JoinBitmapIndexes`] set under `name`.
    pub fn save_bitmap_indexes(&self, name: &str, indexes: &JoinBitmapIndexes) -> Result<()> {
        self.put(name, ObjectKind::BitmapIndexes, indexes.meta_to_bytes());
        Ok(())
    }

    /// Reopens a cataloged [`JoinBitmapIndexes`] set.
    pub fn open_bitmap_indexes(&self, name: &str) -> Result<JoinBitmapIndexes> {
        let meta = self.get(name, ObjectKind::BitmapIndexes)?;
        JoinBitmapIndexes::from_meta_bytes(self.pool.clone(), &meta)
    }

    /// Persists the catalog and flushes every dirty page — the commit
    /// point. Writes the catalog blob to a fresh extent, then flips the
    /// root pointer (shadow-root: a crash mid-checkpoint keeps the old
    /// catalog). Each checkpoint allocates a new blob extent; the
    /// previous one is not reclaimed, so checkpoint-heavy workloads
    /// grow the file by the catalog's size per checkpoint.
    pub fn checkpoint(&self) -> Result<()> {
        // A poisoned write path means some array chunks hold a torn,
        // unrestorable batch prefix; persisting them would make the
        // corruption durable.
        if let Some(versions) = molap_array::shared_version_table(&self.pool) {
            if versions.is_poisoned() {
                return Err(Error::Data(
                    "write path poisoned by a failed rollback; refusing checkpoint".into(),
                ));
            }
        }
        let blob = {
            let cat = self.catalog.lock();
            let mut blob = Vec::new();
            blob.extend_from_slice(&(cat.objects.len() as u32).to_le_bytes());
            for (name, (kind, meta)) in &cat.objects {
                blob.extend_from_slice(&(name.len() as u16).to_le_bytes());
                blob.extend_from_slice(name.as_bytes());
                blob.push(kind.to_u8());
                write_blob(&mut blob, meta);
            }
            blob
        };
        let npages = (blob.len() as u64).div_ceil(PAGE_SIZE as u64).max(1);
        let start = self.pool.allocate_pages(npages)?;
        for i in 0..npages {
            let mut page = self.pool.create_page(start.offset(i))?;
            let lo = (i as usize) * PAGE_SIZE;
            let hi = blob.len().min(lo + PAGE_SIZE);
            if lo < blob.len() {
                page[..hi - lo].copy_from_slice(&blob[lo..hi]);
            }
        }
        // Data first (journaled + durable), then the root flip. Either
        // flush is redoable from the WAL if a crash interrupts it.
        self.pool.checkpoint()?;
        {
            let mut page = self.pool.fetch_mut(PageId(0))?;
            write_u64(&mut page[..], 8, start.0);
            write_u64(&mut page[..], 16, blob.len() as u64);
        }
        self.pool.checkpoint()?;
        self.catalog.lock().dirty = false;
        Ok(())
    }

    /// True if the in-memory catalog has changes not yet checkpointed.
    pub fn is_dirty(&self) -> bool {
        self.catalog.lock().dirty
    }

    /// Commits a [`crate::WriteBatch`] against the cataloged
    /// [`OlapArray`] `name`, durably:
    ///
    /// 1. the batch **stages** through the write engine: every touched
    ///    chunk is rewritten behind its pinned pre-image, so concurrent
    ///    scans keep reading the pre-batch state;
    /// 2. the array's metadata (chunk directory, valid-cell count) is
    ///    re-cataloged;
    /// 3. one [`Database::checkpoint`] makes data + catalog durable —
    ///    WAL-journaled, so a crash after the log sync replays to
    ///    exactly the committed state, and a crash before it loses the
    ///    batch *wholesale* (the shadow root still points at the
    ///    pre-batch catalog; no torn prefix is possible);
    /// 4. only then is the batch **published** to readers (and cached
    ///    result cubes delta-patched). Durability strictly precedes
    ///    visibility: no reader can observe a batch a crash could still
    ///    take back. A checkpoint failure rolls the staged batch back
    ///    and re-catalogs the restored metadata.
    ///
    /// Batches from concurrent callers serialize on the pool's commit
    /// section; readers are never blocked.
    pub fn write_batch(
        &self,
        name: &str,
        batch: &crate::WriteBatch,
    ) -> Result<crate::WriteReceipt> {
        if batch.is_empty() {
            return Ok(crate::WriteReceipt::default());
        }
        let versions = molap_array::shared_version_table(&self.pool);
        let _commit = versions.as_deref().map(|v| v.commit_section());
        let mut adt = self.open_olap_array(name)?;
        // lint:allow(lock-io): the commit section deliberately spans stage → checkpoint → publish so readers never observe a half-applied batch (DESIGN.md §9)
        let pending = crate::write::stage_cells(
            &mut adt,
            batch.rows(),
            crate::write::CubeMaintenance::Delta,
        )?;
        self.save_olap_array(name, &adt)?;
        // lint:allow(lock-io): the durable checkpoint is the point of the commit section — it must complete before publish makes the batch visible (DESIGN.md §9)
        if let Err(e) = self.checkpoint() {
            // lint:allow(lock-io): rollback restores overwritten bytes and must stay inside the commit section that covered the failed checkpoint (DESIGN.md §9)
            pending.rollback(&mut adt);
            // Re-catalog the restored (pre-batch-equivalent) metadata so
            // a later checkpoint persists the rolled-back state.
            let _ = self.save_olap_array(name, &adt);
            return Err(e);
        }
        pending.publish(&mut adt)
    }

    /// Runs a SQL consolidation statement against a cataloged object.
    ///
    /// The `FROM` name picks the object *and the engine*: an
    /// [`OlapArray`] runs the array algorithms, a [`StarSchema`] runs
    /// the StarJoin — the storage transparency the paper's future work
    /// asks for. `measures` names the cube's measure columns in order
    /// (e.g. `&["volume"]`).
    pub fn sql(&self, statement: &str, measures: &[&str]) -> Result<crate::ConsolidationResult> {
        let name = crate::sql::extract_from(statement)?;
        let kind = {
            let cat = self.catalog.lock();
            cat.objects
                .get(&name)
                .map(|(k, _)| *k)
                .ok_or_else(|| Error::Query(format!("no object named {name:?}")))?
        };
        match kind {
            ObjectKind::OlapArray => {
                let adt = self.open_olap_array(&name)?;
                let stmt = crate::sql::parse_query(statement, adt.dims(), measures)?;
                crate::parallel::consolidate_auto(&adt, &stmt.query)
            }
            ObjectKind::StarSchema => {
                let schema = self.open_star_schema(&name)?;
                let stmt = crate::sql::parse_query(statement, &schema.dims, measures)?;
                crate::starjoin::starjoin_consolidate(&schema, &stmt.query)
            }
            ObjectKind::BitmapIndexes => Err(Error::Query(format!(
                "{name:?} is a bitmap index set; query its star schema instead"
            ))),
        }
    }

    /// Canonical fingerprint of a SQL consolidation statement: two
    /// statements share a fingerprint only if they run the same
    /// canonical [`Query`] (selections sorted/deduped) against the
    /// same object with the same measure mapping — i.e. they must
    /// produce identical results. Returns `None` for statements that
    /// do not parse or resolve; those are never treated as equal.
    ///
    /// `molap-server` uses this to coalesce identical concurrent
    /// queries onto one execution.
    pub fn query_fingerprint(&self, statement: &str, measures: &[&str]) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let name = crate::sql::extract_from(statement).ok()?;
        let kind = {
            let cat = self.catalog.lock();
            cat.objects.get(&name).map(|(k, _)| *k)?
        };
        let mut query = match kind {
            ObjectKind::OlapArray => {
                let adt = self.open_olap_array(&name).ok()?;
                crate::sql::parse_query(statement, adt.dims(), measures)
                    .ok()?
                    .query
            }
            ObjectKind::StarSchema => {
                let schema = self.open_star_schema(&name).ok()?;
                crate::sql::parse_query(statement, &schema.dims, measures)
                    .ok()?
                    .query
            }
            ObjectKind::BitmapIndexes => return None,
        };
        for sels in &mut query.selections {
            for sel in sels.iter_mut() {
                sel.pred.canonicalize();
            }
        }
        let mut h = crate::util::FxHasher::default();
        name.hash(&mut h);
        query.hash(&mut h);
        measures.hash(&mut h);
        Some(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::DimensionTable;
    use crate::query::{DimGrouping, Query};
    use crate::starjoin::starjoin_consolidate;
    use molap_array::ChunkFormat;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("molap-db-{}-{tag}.db", std::process::id()))
    }

    fn dims() -> Result<Vec<DimensionTable>> {
        let mut store =
            DimensionTable::build("store", &[0, 1, 2, 3], vec![("region", vec![0, 0, 1, 1])])?;
        store.set_labels(0, vec!["midwest".into(), "west".into()])?;
        Ok(vec![
            store,
            DimensionTable::build("product", &[0, 1, 2], vec![("ptype", vec![5, 6, 5])])?,
        ])
    }

    fn cells() -> Vec<(Vec<i64>, Vec<i64>)> {
        vec![
            (vec![0, 0], vec![10]),
            (vec![1, 2], vec![20]),
            (vec![2, 1], vec![30]),
            (vec![3, 0], vec![40]),
        ]
    }

    /// Disk locations of the chunks holding `cells` (keys are also
    /// coordinates in `dims()`).
    fn locations(adt: &OlapArray, cells: &[[u32; 2]]) -> Result<Vec<molap_array::ChunkKey>> {
        cells
            .iter()
            .map(|coords| {
                let (chunk_no, _) = adt.array().shape().locate(coords)?;
                Ok(adt.array().chunk_key(chunk_no)?)
            })
            .collect()
    }

    #[test]
    fn full_lifecycle_across_reopen() -> TestResult {
        let path = temp_path("lifecycle");
        let query = Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]);
        let expected;
        {
            let db = Database::create(&path, 1 << 20)?;
            let adt = OlapArray::build(
                db.pool().clone(),
                dims()?,
                &[2, 2],
                ChunkFormat::ChunkOffset,
                cells(),
                1,
            )?;
            let schema = StarSchema::build(db.pool().clone(), dims()?, cells(), 1)?;
            let indexes = JoinBitmapIndexes::build(db.pool().clone(), &schema)?;
            expected = adt.consolidate(&query)?;

            db.save_olap_array("sales", &adt)?;
            db.save_star_schema("sales_rel", &schema)?;
            db.save_bitmap_indexes("sales_bm", &indexes)?;
            assert!(db.is_dirty());
            db.checkpoint()?;
            assert!(!db.is_dirty());
        }

        let db = Database::open(&path, 1 << 20)?;
        let mut names: Vec<String> = db.list().into_iter().map(|(n, _)| n).collect();
        names.sort();
        assert_eq!(names, vec!["sales", "sales_bm", "sales_rel"]);

        let adt = db.open_olap_array("sales")?;
        assert_eq!(adt.consolidate(&query)?, expected);
        assert_eq!(adt.get_by_keys(&[1, 2])?, Some(vec![20]));
        // Labels survived.
        assert_eq!(adt.dims()[0].label(0, 1), "west");

        let schema = db.open_star_schema("sales_rel")?;
        assert_eq!(starjoin_consolidate(&schema, &query)?, expected);

        let indexes = db.open_bitmap_indexes("sales_bm")?;
        assert_eq!(
            crate::bitmapjoin::bitmap_consolidate(&schema, &indexes, &query)?,
            expected
        );

        std::fs::remove_file(&path)?;
        let _ = std::fs::remove_file(wal_path(&path));
        Ok(())
    }

    #[test]
    fn diffseq_arrays_persist_across_reopen() -> TestResult {
        // The catalog stores the chunk format in the array meta, so a
        // diff-seq array must reopen as diff-seq and keep answering
        // queries identically.
        let path = temp_path("diffseq");
        let query = Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]);
        let expected;
        {
            let db = Database::create(&path, 1 << 20)?;
            let adt = OlapArray::build(
                db.pool().clone(),
                dims()?,
                &[2, 2],
                ChunkFormat::DiffSeq,
                cells(),
                1,
            )?;
            expected = adt.consolidate(&query)?;
            db.save_olap_array("sales_ds", &adt)?;
            db.checkpoint()?;
        }
        let db = Database::open(&path, 1 << 20)?;
        let adt = db.open_olap_array("sales_ds")?;
        assert_eq!(adt.array().format(), ChunkFormat::DiffSeq);
        assert_eq!(adt.consolidate(&query)?, expected);
        assert_eq!(
            crate::consolidate_pipelined(&adt, &query, 2, crate::PrefetchPlan::new(2, 4))?,
            expected
        );
        assert_eq!(adt.get_by_keys(&[1, 2])?, Some(vec![20]));
        std::fs::remove_file(&path)?;
        let _ = std::fs::remove_file(wal_path(&path));
        Ok(())
    }

    #[test]
    fn type_confusion_and_missing_names_rejected() -> TestResult {
        let path = temp_path("types");
        let db = Database::create(&path, 1 << 20)?;
        let schema = StarSchema::build(db.pool().clone(), dims()?, cells(), 1)?;
        db.save_star_schema("rel", &schema)?;
        assert!(db.open_olap_array("rel").is_err(), "wrong kind");
        assert!(db.open_star_schema("nope").is_err(), "missing");
        assert!(db.contains("rel"));
        assert!(!db.contains("nope"));
        std::fs::remove_file(&path)?;
        let _ = std::fs::remove_file(wal_path(&path));
        Ok(())
    }

    #[test]
    fn remove_and_replace() -> TestResult {
        let path = temp_path("remove");
        let db = Database::create(&path, 1 << 20)?;
        let schema = StarSchema::build(db.pool().clone(), dims()?, cells(), 1)?;
        db.save_star_schema("a", &schema)?;
        db.checkpoint()?;
        assert!(db.remove("a"));
        assert!(!db.remove("a"));
        db.checkpoint()?;
        drop(db);
        let db = Database::open(&path, 1 << 20)?;
        assert!(db.list().is_empty());
        std::fs::remove_file(&path)?;
        let _ = std::fs::remove_file(wal_path(&path));
        Ok(())
    }

    #[test]
    fn reopen_without_checkpoint_sees_old_catalog() -> TestResult {
        let path = temp_path("shadow");
        {
            let db = Database::create(&path, 1 << 20)?;
            let schema = StarSchema::build(db.pool().clone(), dims()?, cells(), 1)?;
            db.save_star_schema("committed", &schema)?;
            db.checkpoint()?;
            db.save_star_schema("uncommitted", &schema)?;
            // No checkpoint: the entry must not survive.
            db.pool().flush_all()?;
        }
        let db = Database::open(&path, 1 << 20)?;
        assert!(db.contains("committed"));
        assert!(!db.contains("uncommitted"));
        std::fs::remove_file(&path)?;
        let _ = std::fs::remove_file(wal_path(&path));
        Ok(())
    }

    #[test]
    fn sql_routes_by_object_kind() -> TestResult {
        let path = temp_path("sql");
        let db = Database::create(&path, 1 << 20)?;
        let adt = OlapArray::build(
            db.pool().clone(),
            dims()?,
            &[2, 2],
            ChunkFormat::ChunkOffset,
            cells(),
            1,
        )?;
        let schema = StarSchema::build(db.pool().clone(), dims()?, cells(), 1)?;
        let indexes = JoinBitmapIndexes::build(db.pool().clone(), &schema)?;
        db.save_olap_array("sales", &adt)?;
        db.save_star_schema("sales_rel", &schema)?;
        db.save_bitmap_indexes("sales_bm", &indexes)?;

        let q = "SELECT SUM(volume), store.region FROM sales GROUP BY store.region";
        let via_array = db.sql(q, &["volume"])?;
        let via_rel = db.sql(
            "SELECT SUM(volume), store.region FROM sales_rel GROUP BY store.region",
            &["volume"],
        )?;
        assert_eq!(via_array, via_rel);
        assert_eq!(via_array.rows().len(), 2);
        // region 0 = keys 0,1 -> volumes 10 + 20 = 30.
        assert_eq!(via_array.rows()[0].values[0].as_int(), Some(30));

        // Labels resolve in WHERE.
        let filtered = db.sql(
            "SELECT SUM(volume) FROM sales WHERE store.region = 'west'",
            &["volume"],
        )?;
        assert_eq!(filtered.rows()[0].values[0].as_int(), Some(70));

        assert!(db
            .sql("SELECT SUM(volume) FROM sales_bm", &["volume"])
            .is_err());
        assert!(db
            .sql("SELECT SUM(volume) FROM nothing", &["volume"])
            .is_err());
        assert!(db.sql("nonsense", &["volume"]).is_err());
        std::fs::remove_file(&path)?;
        let _ = std::fs::remove_file(wal_path(&path));
        Ok(())
    }

    #[test]
    fn write_batch_commits_durably_across_reopen() -> TestResult {
        let path = temp_path("writebatch");
        let updated = [[0, 0], [1, 2]];
        let built;
        {
            let db = Database::create(&path, 1 << 20)?;
            let adt = OlapArray::build(
                db.pool().clone(),
                dims()?,
                &[2, 2],
                ChunkFormat::ChunkOffset,
                cells(),
                1,
            )?;
            built = locations(&adt, &updated)?;
            db.save_olap_array("sales", &adt)?;
            db.checkpoint()?;
            // Updates of existing cells: each chunk is rewritten in
            // place.
            let mut batch = crate::WriteBatch::new();
            batch.set(&[0, 0], &[77]);
            batch.set(&[1, 2], &[25]);
            let receipt = db.write_batch("sales", &batch)?;
            assert_eq!(receipt.cells_written, 2);
            assert!(!db.is_dirty(), "write_batch checkpoints");
            // A fresh cell in another chunk relocates that chunk.
            let mut batch = crate::WriteBatch::new();
            batch.set(&[2, 2], &[5]);
            db.write_batch("sales", &batch)?;
        }
        let db = Database::open(&path, 1 << 20)?;
        let adt = db.open_olap_array("sales")?;
        assert_eq!(locations(&adt, &updated)?, built, "updated in place");
        assert_eq!(adt.get_by_keys(&[0, 0])?, Some(vec![77]));
        assert_eq!(adt.get_by_keys(&[1, 2])?, Some(vec![25]));
        assert_eq!(adt.get_by_keys(&[2, 2])?, Some(vec![5]));
        assert_eq!(adt.valid_cells(), 5);
        std::fs::remove_file(&path)?;
        let _ = std::fs::remove_file(wal_path(&path));
        Ok(())
    }

    #[test]
    fn retired_chunk_formats_reopen_as_unsupported() -> TestResult {
        for tag in [1, 2] {
            let path = temp_path(&format!("retired{tag}"));
            let meta = {
                let db = Database::create(&path, 1 << 20)?;
                let adt = OlapArray::build(
                    db.pool().clone(),
                    dims()?,
                    &[2, 2],
                    ChunkFormat::ChunkOffset,
                    cells(),
                    1,
                )?;
                db.save_olap_array("sales", &adt)?;
                db.checkpoint()?;
                adt.array().meta_to_bytes()
            };
            // The catalog blob holds the array header verbatim; its
            // second word is the format tag.
            let mut file = std::fs::read(&path)?;
            let at = (file.windows(meta.len()))
                .position(|w| w == meta)
                .ok_or("array header not in the file")?;
            write_u32(&mut file, at + 4, tag);
            std::fs::write(&path, &file)?;

            let db = Database::open(&path, 1 << 20)?;
            let err = db.open_olap_array("sales").err();
            assert!(
                matches!(err, Some(Error::Array(molap_array::ArrayError::UnsupportedFormat(t))) if t == tag),
                "tag {tag}: {err:?}"
            );
            assert!(db
                .sql("SELECT SUM(volume) FROM sales", &["volume"])
                .is_err());
            drop(db);
            std::fs::remove_file(&path)?;
            let _ = std::fs::remove_file(wal_path(&path));
        }
        Ok(())
    }

    #[test]
    fn poisoned_pool_refuses_checkpoints_and_batches() -> TestResult {
        let path = temp_path("poison");
        let db = Database::create(&path, 1 << 20)?;
        let adt = OlapArray::build(
            db.pool().clone(),
            dims()?,
            &[2, 2],
            ChunkFormat::ChunkOffset,
            cells(),
            1,
        )?;
        db.save_olap_array("sales", &adt)?;
        db.checkpoint()?;

        adt.array().poison_writes();
        assert!(db.checkpoint().is_err(), "checkpoint must refuse");
        let mut batch = crate::WriteBatch::new();
        batch.set(&[0, 0], &[1]);
        assert!(db.write_batch("sales", &batch).is_err(), "writes refuse");
        // Reads keep working off the last good state.
        assert_eq!(adt.get_by_keys(&[0, 0])?, Some(vec![10]));

        drop(db);
        std::fs::remove_file(&path)?;
        let _ = std::fs::remove_file(wal_path(&path));
        Ok(())
    }

    #[test]
    fn wal_replay_recovers_a_crash_mid_flush() -> TestResult {
        let path = temp_path("crash");
        let q = "SELECT SUM(volume), store.region FROM sales GROUP BY store.region";
        // The batch below only updates existing cells, so both chunks
        // are rewritten in place.
        let updated = [[0, 0], [3, 0]];
        let built;
        {
            let db = Database::create(&path, 1 << 20)?;
            let adt = OlapArray::build(
                db.pool().clone(),
                dims()?,
                &[2, 2],
                ChunkFormat::ChunkOffset,
                cells(),
                1,
            )?;
            built = locations(&adt, &updated)?;
            db.save_olap_array("sales", &adt)?;
            db.checkpoint()?;
        }
        let pre = std::fs::read(&path)?;
        // Commit a batch normally and keep the committed file image.
        let expected;
        {
            let db = Database::open(&path, 1 << 20)?;
            let mut batch = crate::WriteBatch::new();
            batch.set(&[0, 0], &[1000]);
            batch.set(&[3, 0], &[-40]);
            db.write_batch("sales", &batch)?;
            expected = db.sql(q, &["volume"])?;
        }
        let committed = std::fs::read(&path)?;
        assert_ne!(pre, committed, "the batch changed data pages");
        // Simulate a kill after `Wal::sync` but before any data page
        // reached the file: roll the data file back to the pre-batch
        // image and leave a synced log holding the after-images of
        // every page the flush would have written.
        std::fs::write(&path, &pre)?;
        let wal = Wal::create(wal_path(&path))?;
        let n_pages = committed.len().div_ceil(PAGE_SIZE);
        for i in 0..n_pages {
            let mut new_page = [0u8; PAGE_SIZE];
            let lo = i * PAGE_SIZE;
            let hi = committed.len().min(lo + PAGE_SIZE);
            new_page[..hi - lo].copy_from_slice(&committed[lo..hi]);
            let mut old_page = [0u8; PAGE_SIZE];
            if lo < pre.len() {
                let phi = pre.len().min(lo + PAGE_SIZE);
                old_page[..phi - lo].copy_from_slice(&pre[lo..phi]);
            }
            // The final page is always journaled so the recovered file
            // regains the committed length exactly.
            if new_page != old_page || i == n_pages - 1 {
                wal.log_page(PageId(i as u64), &new_page)?;
            }
        }
        wal.sync()?;
        drop(wal);
        // Reopen: recovery replays the log before the catalog loads.
        let db = Database::open(&path, 1 << 20)?;
        assert_eq!(db.sql(q, &["volume"])?, expected, "replayed to the batch");
        let adt = db.open_olap_array("sales")?;
        assert_eq!(locations(&adt, &updated)?, built, "updated in place");
        drop((adt, db));
        let recovered = std::fs::read(&path)?;
        assert_eq!(
            recovered, committed,
            "recovered file is bit-identical to the committed batch"
        );
        std::fs::remove_file(&path)?;
        let _ = std::fs::remove_file(wal_path(&path));
        Ok(())
    }

    #[test]
    fn open_rejects_non_database_files() -> TestResult {
        let path = temp_path("garbage");
        std::fs::write(&path, vec![0u8; PAGE_SIZE])?;
        assert!(Database::open(&path, 1 << 20).is_err());
        std::fs::remove_file(&path)?;
        let _ = std::fs::remove_file(wal_path(&path));
        Ok(())
    }

    #[test]
    fn empty_database_roundtrip() -> TestResult {
        let path = temp_path("empty");
        {
            let db = Database::create(&path, 1 << 20)?;
            db.checkpoint()?;
        }
        let db = Database::open(&path, 1 << 20)?;
        assert!(db.list().is_empty());
        std::fs::remove_file(&path)?;
        let _ = std::fs::remove_file(wal_path(&path));
        Ok(())
    }
}
