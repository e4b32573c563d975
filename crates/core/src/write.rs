//! The batched, durable write path.
//!
//! The paper evaluates a read-only array store; this module is the
//! ROADMAP's step toward a live serving system. A [`WriteBatch`]
//! collects `set_by_keys`-style cell mutations and [`apply_batch`]
//! commits them as one unit. Commits on one pool serialize on the
//! version table's commit mutex (`VersionTable::commit_section`), so
//! two batches can never interleave their apply/WAL/flush windows:
//!
//! 1. **validate** — every key vector resolves through the key B-trees
//!    and every value vector matches the measure arity *before* any
//!    byte changes, so a malformed batch is rejected wholesale;
//! 2. **stage** ([`stage_cells`]) — mutations are grouped by chunk
//!    (last write to a cell wins) and applied through
//!    `ChunkedArray::apply_chunk_writes`, which pins each chunk's
//!    decoded pre-image in the pool's `VersionTable` (keyed by the
//!    array's uid + chunk number, stable across relocation) before the
//!    first overwritten byte, keeping concurrent scans consistent. If
//!    any chunk fails mid-batch, every chunk already applied is
//!    **rolled back** to its pinned pre-image and the batch's pins are
//!    dropped — no torn prefix survives to the next publish or
//!    checkpoint. If even the rollback fails, the pool's write path is
//!    poisoned: later writes and checkpoints refuse, and the orphaned
//!    pins keep shielding readers;
//! 3. **checkpoint** — `BufferPool::checkpoint` journals every dirty
//!    page to the WAL, syncs the log, writes the data pages, syncs
//!    them, and truncates the log (log → sync → apply → checkpoint).
//!    A crash before the WAL sync loses the whole batch; after it, WAL
//!    replay on the next `Database` open completes the batch — never a
//!    torn prefix. A checkpoint *error* rolls the staged batch back;
//! 4. **publish** ([`PendingCells::publish`]) — only after durability:
//!    the version table's commit generation advances, so new snapshots
//!    read the batch and old snapshots keep their pinned pre-images.
//!    No reader can ever observe a state a crash would roll back;
//! 5. **maintain** ([`crate::rescache::maintain`]) — one pass over the
//!    result cache, still inside the commit section, carries the cached
//!    cubes from the published generation `g` to `g + 1`. Each cell
//!    delta is routed through the same IndexToIndex remaps the
//!    consolidation kernels use and patched into this array's cached
//!    [`crate::ResultCube`]s stamped `g`, costing O(affected cells ×
//!    cached cubes) instead of a cache flush; other arrays' entries
//!    are re-stamped unchanged. MIN/MAX shrinking updates drop just
//!    their cube (recomputed at its next lookup). Until the pass has
//!    run, readers at `g + 1` miss and compute; readers still at `g`
//!    keep hitting `g`'s entries.
//!
//! [`CubeMaintenance::InvalidateAll`] preserves the old flush-the-world
//! behavior for comparison benchmarks and tests.
//!
//! # Commit protocol spec
//!
//! `molap-lint`'s `protocol-order` rule enforces the ordering above
//! from this table (the same module-doc-as-spec pattern the wire
//! protocol uses): in every `scope` file, a durable checkpoint must
//! dominate each publish effect, and no ack may be constructed before
//! the checkpoint. `primitive` rows name the single-step protocol
//! implementations that are exempt themselves but whose callers must
//! bracket them correctly.
//!
//! | role | token |
//! |------|-------|
//! | scope | `crates/core/src/write.rs` |
//! | scope | `crates/core/src/catalog.rs` |
//! | scope | `crates/server/src/server.rs` |
//! | checkpoint-fn | `checkpoint` |
//! | publish-fn | `publish` |
//! | publish-fn | `publish_writes` |
//! | publish-fn | `commit_publish` |
//! | primitive | `publish` |
//! | primitive | `publish_writes` |
//! | primitive | `commit_publish` |
//! | ack-marker | `Response::WriteAck` |
//! | ack-marker | `WriteReceipt {` |

use crate::adt::OlapArray;
use crate::error::{Error, Result};
use crate::rescache;
use molap_array::{shared_version_table, CompressedChunk};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One committed cell mutation, in array coordinates: `old` is the
/// cell's pre-batch measures (`None` for a fresh cell), `new` what the
/// batch wrote. The currency between the write path and the result
/// cache's delta maintenance.
#[derive(Clone, Debug)]
pub(crate) struct CellDelta {
    /// Array coordinates of the cell (one entry per dimension).
    pub coords: Vec<u32>,
    /// Pre-batch measures; `None` if the cell was empty.
    pub old: Option<Vec<i64>>,
    /// Post-batch measures.
    pub new: Vec<i64>,
}

/// A set of cell mutations committed as one atomic, durable unit.
#[derive(Clone, Debug, Default)]
pub struct WriteBatch {
    rows: Vec<(Vec<i64>, Vec<i64>)>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Queues one mutation: write `values` (one per measure) to the
    /// cell addressed by dimension `keys`. Later writes to the same
    /// cell within a batch win.
    pub fn set(&mut self, keys: &[i64], values: &[i64]) {
        self.rows.push((keys.to_vec(), values.to_vec()));
    }

    /// Number of queued mutations (before same-cell coalescing).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The queued `(keys, values)` rows, in insertion order.
    pub fn rows(&self) -> &[(Vec<i64>, Vec<i64>)] {
        &self.rows
    }
}

/// How a committed batch treats the pool's cached result cubes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CubeMaintenance {
    /// Patch affected cached cubes in place (drop only the MIN/MAX
    /// recompute fallbacks) — the default.
    Delta,
    /// Bump the cache-wide write generation, cooling every entry on
    /// the pool — the pre-delta baseline, kept for comparison.
    InvalidateAll,
}

/// What a committed batch did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteReceipt {
    /// Distinct cells written (after same-cell last-write-wins).
    pub cells_written: u64,
    /// Cached result cubes patched in place.
    pub cubes_patched: u64,
    /// Cached result cubes dropped to the recompute fallback.
    pub cubes_dropped: u64,
}

/// Commits `batch` durably (WAL-backed checkpoint) with delta-
/// maintained result cubes. See the module docs for the protocol.
pub fn apply_batch(adt: &mut OlapArray, batch: &WriteBatch) -> Result<WriteReceipt> {
    apply_cells(adt, batch.rows(), true, CubeMaintenance::Delta)
}

/// [`apply_batch`] with an explicit cache-maintenance policy (the
/// benchmark's invalidate-all baseline goes through here).
pub fn apply_batch_with(
    adt: &mut OlapArray,
    batch: &WriteBatch,
    maintenance: CubeMaintenance,
) -> Result<WriteReceipt> {
    apply_cells(adt, batch.rows(), true, maintenance)
}

/// A chunk [`stage_cells`] already rewrote, with everything needed to
/// reverse it: the decoded pre-image and how many cells the rewrite
/// inserted.
struct AppliedChunk {
    chunk_no: u64,
    pre: Arc<CompressedChunk>,
    cells_added: u64,
}

/// A staged-but-unpublished batch: every chunk is rewritten and pinned,
/// nothing is visible to readers yet. Exactly one of
/// [`PendingCells::publish`] / [`PendingCells::rollback`] must follow —
/// publish after the batch is durable, rollback when durability failed.
pub(crate) struct PendingCells {
    maintenance: CubeMaintenance,
    deltas: Vec<CellDelta>,
    applied: Vec<AppliedChunk>,
}

impl PendingCells {
    /// Makes the staged batch visible — version-table publish first,
    /// then result-cube maintenance — and returns the receipt.
    pub(crate) fn publish(self, adt: &mut OlapArray) -> Result<WriteReceipt> {
        let gen = adt.array_mut().publish_writes();
        let (cubes_patched, cubes_dropped) = match self.maintenance {
            CubeMaintenance::Delta => rescache::maintain(adt, gen, &self.deltas)?,
            CubeMaintenance::InvalidateAll => {
                rescache::invalidate_writes(adt.pool());
                (0, 0)
            }
        };
        let stats = adt.pool().stats();
        stats.write_batches.inc();
        stats.write_cells.add(self.deltas.len() as u64);
        Ok(WriteReceipt {
            cells_written: self.deltas.len() as u64,
            cubes_patched,
            cubes_dropped,
        })
    }

    /// Restores every staged chunk to its pre-image and drops the
    /// batch's pins; readers never see any of it. If a restore fails,
    /// the pool's write path is poisoned instead (the pins stay,
    /// shielding readers; writes and checkpoints refuse from then on).
    pub(crate) fn rollback(self, adt: &mut OlapArray) {
        let mut restored = true;
        for chunk in &self.applied {
            if adt
                .array_mut()
                .restore_chunk(chunk.chunk_no, &chunk.pre, chunk.cells_added)
                .is_err()
            {
                restored = false;
            }
        }
        if restored {
            adt.array_mut().rollback_writes();
        } else {
            adt.array().poison_writes();
        }
    }
}

/// Validates and applies `rows` to the array without publishing:
/// readers keep resolving every touched chunk to its pinned pre-image.
/// A mid-batch failure rolls back internally and returns the error; a
/// success hands back a [`PendingCells`] the caller must publish (after
/// making the batch durable) or roll back.
pub(crate) fn stage_cells(
    adt: &mut OlapArray,
    rows: &[(Vec<i64>, Vec<i64>)],
    maintenance: CubeMaintenance,
) -> Result<PendingCells> {
    let n_measures = adt.n_measures();

    // Validate everything up front; a bad row rejects the whole batch
    // before a single byte changes.
    // chunk_no → offset → (coords, values); BTreeMaps make the chunk
    // application order deterministic and the inner map implements
    // last-write-wins per cell.
    type ChunkEdits = BTreeMap<u32, (Vec<u32>, Vec<i64>)>;
    let mut by_chunk: BTreeMap<u64, ChunkEdits> = BTreeMap::new();
    for (keys, values) in rows {
        if values.len() != n_measures {
            return Err(Error::Data(format!(
                "{} values for {} measures",
                values.len(),
                n_measures
            )));
        }
        let coords = adt
            .keys_to_coords(keys)?
            .ok_or_else(|| Error::Data("a key does not exist in its dimension table".into()))?;
        let (chunk_no, offset) = adt.array().shape().locate(&coords)?;
        by_chunk
            .entry(chunk_no)
            .or_default()
            .insert(offset, (coords, values.clone()));
    }

    let mut pending = PendingCells {
        maintenance,
        deltas: Vec::new(),
        applied: Vec::new(),
    };
    for (chunk_no, cells) in by_chunk {
        let edits: Vec<(u32, Vec<i64>)> = cells
            .iter()
            .map(|(&off, (_, values))| (off, values.clone()))
            .collect();
        // The pre-image: read once, rebuilt with the edits by apply,
        // and kept for rollback.
        let pre = match adt.array().read_chunk(chunk_no) {
            Ok(pre) => pre,
            Err(e) => {
                pending.rollback(adt);
                return Err(e.into());
            }
        };
        match adt.array_mut().apply_chunk_writes(chunk_no, &pre, &edits) {
            Ok(olds) => {
                let cells_added = olds.iter().filter(|o| o.is_none()).count() as u64;
                pending.applied.push(AppliedChunk {
                    chunk_no,
                    pre,
                    cells_added,
                });
                for ((_, (coords, values)), old) in cells.into_iter().zip(olds) {
                    pending.deltas.push(CellDelta {
                        coords,
                        old,
                        new: values,
                    });
                }
            }
            Err(e) => {
                // The failing chunk may be half-written (`valid_cells`
                // untouched): restore it along with the earlier ones.
                pending.applied.push(AppliedChunk {
                    chunk_no,
                    pre,
                    cells_added: 0,
                });
                pending.rollback(adt);
                return Err(e.into());
            }
        }
    }
    Ok(pending)
}

/// The shared write engine: stages under the pool's commit section,
/// optionally checkpoints for durability (rolling back on failure), and
/// publishes. `OlapArray::set_by_keys` calls this with `durable =
/// false` (its historical contract: the mutation becomes visible
/// immediately and lives in the pool until the next checkpoint).
pub(crate) fn apply_cells(
    adt: &mut OlapArray,
    rows: &[(Vec<i64>, Vec<i64>)],
    durable: bool,
    maintenance: CubeMaintenance,
) -> Result<WriteReceipt> {
    if rows.is_empty() {
        return Ok(WriteReceipt::default());
    }
    let versions = shared_version_table(adt.pool());
    let _commit = versions.commit_section();
    // lint:allow(lock-io): the commit section deliberately spans stage → checkpoint → publish so readers never observe a half-applied batch (DESIGN.md §9)
    let pending = stage_cells(adt, rows, maintenance)?;
    if durable {
        // lint:allow(lock-io): the durable checkpoint is the point of the commit section — it must complete before publish makes the batch visible (DESIGN.md §9)
        if let Err(e) = adt.pool().checkpoint() {
            // lint:allow(lock-io): rollback restores overwritten bytes and must stay inside the commit section that covered the failed checkpoint (DESIGN.md §9)
            pending.rollback(adt);
            return Err(e.into());
        }
    }
    pending.publish(adt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::DimensionTable;
    use crate::query::{DimGrouping, Query};
    use molap_array::ChunkFormat;
    use molap_storage::{BufferPool, MemDisk};
    use std::sync::Arc;

    fn build() -> OlapArray {
        build_on(Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 512)))
    }

    fn build_on(pool: Arc<BufferPool>) -> OlapArray {
        let dims = vec![
            DimensionTable::build(
                "store",
                &(0..8i64).collect::<Vec<_>>(),
                vec![("region", (0..8i64).map(|k| k / 4).collect())],
            )
            .unwrap(),
            DimensionTable::build("product", &(0..4i64).collect::<Vec<_>>(), vec![]).unwrap(),
        ];
        let cells: Vec<(Vec<i64>, Vec<i64>)> = (0..8i64)
            .flat_map(|s| (0..4i64).map(move |p| (vec![s, p], vec![s * 100 + p])))
            .collect();
        OlapArray::build(pool, dims, &[4, 2], ChunkFormat::ChunkOffset, cells, 1).unwrap()
    }

    #[test]
    fn batch_applies_with_last_write_wins() {
        let mut adt = build();
        let mut batch = WriteBatch::new();
        batch.set(&[0, 0], &[-7]);
        batch.set(&[3, 2], &[555]);
        batch.set(&[0, 0], &[42]); // later write to the same cell wins
        assert_eq!(batch.len(), 3);
        let receipt = apply_batch(&mut adt, &batch).unwrap();
        assert_eq!(receipt.cells_written, 2, "same-cell writes coalesce");
        assert_eq!(adt.get_by_keys(&[0, 0]).unwrap(), Some(vec![42]));
        assert_eq!(adt.get_by_keys(&[3, 2]).unwrap(), Some(vec![555]));
        assert_eq!(adt.get_by_keys(&[1, 1]).unwrap(), Some(vec![101]));
    }

    #[test]
    fn diffseq_arrays_round_trip_write_batches() {
        // DiffSeq chunks rebuild through the same decode-once path as
        // chunk-offset: the batch decodes the block, applies all its
        // cells, and re-encodes to the diff-seq wire format.
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 512));
        let dims = vec![
            DimensionTable::build(
                "store",
                &(0..8i64).collect::<Vec<_>>(),
                vec![("region", (0..8i64).map(|k| k / 4).collect())],
            )
            .unwrap(),
            DimensionTable::build("product", &(0..4i64).collect::<Vec<_>>(), vec![]).unwrap(),
        ];
        // Sparse seed: leave holes for the batch to insert into.
        let cells: Vec<(Vec<i64>, Vec<i64>)> = (0..8i64)
            .flat_map(|s| (0..4i64).map(move |p| (vec![s, p], vec![s * 100 + p])))
            .filter(|(k, _)| (k[0] + k[1]) % 2 == 0)
            .collect();
        let mut adt =
            OlapArray::build(pool, dims, &[4, 2], ChunkFormat::DiffSeq, cells, 1).unwrap();

        let mut batch = WriteBatch::new();
        batch.set(&[0, 0], &[-7]); // overwrite an existing cell
        batch.set(&[0, 1], &[71]); // insert into a hole
        batch.set(&[7, 2], &[99]); // insert near the chunk edge
        let receipt = apply_batch(&mut adt, &batch).unwrap();
        assert_eq!(receipt.cells_written, 3);
        assert_eq!(adt.get_by_keys(&[0, 0]).unwrap(), Some(vec![-7]));
        assert_eq!(adt.get_by_keys(&[0, 1]).unwrap(), Some(vec![71]));
        assert_eq!(adt.get_by_keys(&[7, 2]).unwrap(), Some(vec![99]));
        assert_eq!(adt.get_by_keys(&[1, 2]).unwrap(), None, "hole stays a hole");

        // A second batch re-decodes the rewritten diff-seq bytes.
        let mut batch = WriteBatch::new();
        batch.set(&[0, 1], &[72]);
        apply_batch(&mut adt, &batch).unwrap();
        assert_eq!(adt.get_by_keys(&[0, 1]).unwrap(), Some(vec![72]));

        // Scans over the rewritten array agree with a per-cell walk.
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        assert_eq!(
            crate::consolidate_pipelined(&adt, &q, 2, crate::PrefetchPlan::new(2, 4)).unwrap(),
            adt.consolidate(&q).unwrap()
        );
    }

    #[test]
    fn bad_batch_is_rejected_wholesale() {
        let mut adt = build();
        let mut batch = WriteBatch::new();
        batch.set(&[0, 0], &[1]);
        batch.set(&[99, 0], &[2]); // unknown key
        assert!(apply_batch(&mut adt, &batch).is_err());
        // The valid row before the bad one was not applied.
        assert_eq!(adt.get_by_keys(&[0, 0]).unwrap(), Some(vec![0]));
        let mut batch = WriteBatch::new();
        batch.set(&[0, 0], &[1, 2]); // measure arity
        assert!(apply_batch(&mut adt, &batch).is_err());
        assert!(WriteBatch::new().is_empty());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut adt = build();
        let receipt = apply_batch(&mut adt, &WriteBatch::new()).unwrap();
        assert_eq!(receipt, WriteReceipt::default());
    }

    #[test]
    fn delta_maintenance_keeps_cached_results_exact() {
        let mut adt = build();
        let queries = [
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]),
            Query::new(vec![DimGrouping::Key, DimGrouping::Key]),
            Query::new(vec![DimGrouping::Drop, DimGrouping::Drop]),
        ];
        // Warm the cache.
        for q in &queries {
            crate::consolidate_auto(&adt, q).unwrap();
        }
        let mut batch = WriteBatch::new();
        batch.set(&[2, 1], &[100_000]); // grows SUM/MAX: patchable
        batch.set(&[5, 3], &[99_999]);
        let receipt = apply_batch(&mut adt, &batch).unwrap();
        assert!(receipt.cubes_patched > 0, "cubes stayed warm");
        // Patched cache answers equal scratch recomputation.
        for q in &queries {
            let cached = crate::consolidate_auto(&adt, q).unwrap();
            assert_eq!(cached, adt.consolidate(q).unwrap(), "{q:?}");
        }
        let stats = adt.pool().stats().snapshot();
        assert!(stats.result_cache_patched > 0);
        assert_eq!(stats.write_batches, 1);
        assert_eq!(stats.write_cells, 2);
    }

    #[test]
    fn shrinking_max_falls_back_to_recompute() {
        let mut adt = build();
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        crate::consolidate_auto(&adt, &q).unwrap();
        // Cell [3,3] holds 303, the max of region 0; shrink it.
        let mut batch = WriteBatch::new();
        batch.set(&[3, 3], &[-1]);
        let receipt = apply_batch(&mut adt, &batch).unwrap();
        assert!(receipt.cubes_dropped > 0, "MIN/MAX fallback dropped");
        assert_eq!(
            crate::consolidate_auto(&adt, &q).unwrap(),
            adt.consolidate(&q).unwrap()
        );
    }

    #[test]
    fn staged_batch_is_invisible_until_published() {
        let mut adt = build();
        // Stage overwrites to the first and last chunks without
        // publishing.
        let rows = vec![(vec![0i64, 0], vec![-1i64]), (vec![7, 3], vec![-2])];
        let pending = stage_cells(&mut adt, &rows, CubeMaintenance::Delta).unwrap();
        // The bytes are rewritten, but every read resolves the staged
        // chunks to their pinned pre-images — even through the
        // writer's own handle.
        assert_eq!(adt.get_by_keys(&[0, 0]).unwrap(), Some(vec![0]));
        assert_eq!(adt.get_by_keys(&[7, 3]).unwrap(), Some(vec![703]));
        let receipt = pending.publish(&mut adt).unwrap();
        assert_eq!(receipt.cells_written, 2);
        assert_eq!(adt.get_by_keys(&[0, 0]).unwrap(), Some(vec![-1]));
        assert_eq!(adt.get_by_keys(&[7, 3]).unwrap(), Some(vec![-2]));
    }

    #[test]
    fn rollback_restores_pre_images_and_frees_pins() {
        let mut adt = build();
        let q = Query::new(vec![DimGrouping::Drop, DimGrouping::Drop]);
        let before = adt.consolidate(&q).unwrap();
        let valid_before = adt.array().valid_cells();

        let rows = vec![(vec![0i64, 0], vec![999_999i64]), (vec![7, 3], vec![-5])];
        let pending = stage_cells(&mut adt, &rows, CubeMaintenance::Delta).unwrap();
        pending.rollback(&mut adt);

        // Cell values, totals, and the valid-cell count are all back.
        assert_eq!(adt.get_by_keys(&[0, 0]).unwrap(), Some(vec![0]));
        assert_eq!(adt.get_by_keys(&[7, 3]).unwrap(), Some(vec![703]));
        assert_eq!(adt.consolidate(&q).unwrap(), before);
        assert_eq!(adt.array().valid_cells(), valid_before);
        // The batch's pins were dropped, not leaked.
        let vt = shared_version_table(adt.pool());
        assert_eq!(vt.pinned_versions(), 0);
        // And the write path is healthy: a fresh batch commits.
        let mut batch = WriteBatch::new();
        batch.set(&[1, 1], &[77]);
        apply_batch(&mut adt, &batch).unwrap();
        assert_eq!(adt.get_by_keys(&[1, 1]).unwrap(), Some(vec![77]));
    }

    #[test]
    fn poisoned_pool_refuses_further_batches() {
        let mut adt = build();
        adt.array().poison_writes();
        let mut batch = WriteBatch::new();
        batch.set(&[0, 0], &[1]);
        let err = apply_batch(&mut adt, &batch).unwrap_err();
        assert!(
            err.to_string().contains("poisoned"),
            "unexpected error: {err}"
        );
        // Reads still work, shielded by whatever pins remain.
        assert_eq!(adt.get_by_keys(&[0, 0]).unwrap(), Some(vec![0]));
    }

    #[test]
    fn committed_cubes_stay_hot_over_the_wire_path() {
        // `Database::sql` reopens the array per statement; the patched
        // cube must be found again after the commit that changed the
        // array's metadata (an insert into a hole bumps its cell count).
        let path = std::env::temp_dir().join(format!("molap-write-{}-hot.db", std::process::id()));
        let db = crate::Database::create(&path, 4 << 20).unwrap();
        let dims = vec![
            DimensionTable::build("store", &[0, 1, 2, 3], vec![("region", vec![0, 0, 1, 1])])
                .unwrap(),
            DimensionTable::build("product", &[0, 1, 2], vec![]).unwrap(),
        ];
        let cells = vec![(vec![0i64, 0], vec![10i64]), (vec![3, 1], vec![40])];
        let adt = OlapArray::build(
            db.pool().clone(),
            dims,
            &[2, 2],
            ChunkFormat::ChunkOffset,
            cells,
            1,
        )
        .unwrap();
        db.save_olap_array("sales", &adt).unwrap();
        db.checkpoint().unwrap();
        let q = "SELECT SUM(volume), store.region FROM sales GROUP BY store.region";
        db.sql(q, &["volume"]).unwrap();

        let mut batch = WriteBatch::new();
        batch.set(&[2, 2], &[5]);
        let receipt = db.write_batch("sales", &batch).unwrap();
        assert_eq!(receipt.cubes_patched, 1);
        let before = db.pool().stats().snapshot();
        let got = db.sql(q, &["volume"]).unwrap();
        let d = db.pool().stats().snapshot().since(&before);
        assert_eq!((d.result_cache_hits, d.result_cache_misses), (1, 0));
        let adt = db.open_olap_array("sales").unwrap();
        let oracle = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        assert_eq!(got, adt.consolidate(&oracle).unwrap());
        assert!(db.pool().stats().snapshot().result_cache_patched >= 1);
        drop((adt, db));
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_file(path.with_extension("db.wal"));
    }

    #[test]
    fn a_commit_to_one_array_keeps_another_warm() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 1024));
        let mut a = build_on(pool.clone());
        let b = build_on(pool.clone());
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        crate::consolidate_auto(&a, &q).unwrap();
        let expect_b = crate::consolidate_auto(&b, &q).unwrap();
        let mut batch = WriteBatch::new();
        batch.set(&[1, 1], &[1_000]);
        apply_batch(&mut a, &batch).unwrap();
        let before = pool.stats().snapshot();
        assert_eq!(crate::consolidate_auto(&b, &q).unwrap(), expect_b);
        assert_eq!(
            crate::consolidate_auto(&a, &q).unwrap(),
            a.consolidate(&q).unwrap()
        );
        let d = pool.stats().snapshot().since(&before);
        assert_eq!((d.result_cache_hits, d.result_cache_misses), (2, 0));
    }

    #[test]
    fn cooled_entries_are_not_carried_across_a_commit() {
        let mut adt = build();
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        crate::consolidate_auto(&adt, &q).unwrap();
        crate::shared_result_cache(adt.pool())
            .unwrap()
            .bump_write_gen();
        let mut batch = WriteBatch::new();
        batch.set(&[2, 1], &[100_000]);
        let receipt = apply_batch(&mut adt, &batch).unwrap();
        assert_eq!((receipt.cubes_patched, receipt.cubes_dropped), (0, 0));
        assert_eq!(
            crate::consolidate_auto(&adt, &q).unwrap(),
            adt.consolidate(&q).unwrap()
        );
    }

    #[test]
    fn invalidate_all_baseline_cools_the_cache() {
        let mut adt = build();
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        crate::consolidate_auto(&adt, &q).unwrap();
        let before = adt.pool().stats().snapshot();
        let mut batch = WriteBatch::new();
        batch.set(&[0, 0], &[7]);
        let receipt = apply_batch_with(&mut adt, &batch, CubeMaintenance::InvalidateAll).unwrap();
        assert_eq!(receipt.cubes_patched, 0);
        crate::consolidate_auto(&adt, &q).unwrap();
        let delta = adt.pool().stats().snapshot().since(&before);
        assert_eq!(delta.result_cache_misses, 1, "cache went cold");
        assert_eq!(delta.result_cache_patched, 0);
    }
}
