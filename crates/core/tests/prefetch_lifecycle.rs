//! Prefetch-pipeline lifecycle tests: error propagation from a failing
//! disk, and `BufferPool::clear`'s epoch bump racing in-flight
//! prefetches. Companion to the in-crate oracle tests and the storage
//! crate's `slow_disk.rs` harness.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use molap_array::ChunkFormat;
use molap_core::{
    consolidate_pipelined, DimGrouping, DimensionTable, OlapArray, PrefetchPlan, Query,
};
use molap_storage::{BufferPool, DiskManager, MemDisk, PageBuf, PageId, StorageError};

/// A MemDisk whose reads fail while `armed` — the prefetch analogue of
/// the storage crate's SlowDisk harness. Writes always succeed so the
/// fixture can be built before the fault is injected.
struct FailingDisk {
    inner: MemDisk,
    armed: AtomicBool,
    reads: AtomicU64,
}

impl FailingDisk {
    fn new() -> Self {
        FailingDisk {
            inner: MemDisk::new(),
            armed: AtomicBool::new(false),
            reads: AtomicU64::new(0),
        }
    }
}

impl DiskManager for FailingDisk {
    fn read_page(&self, pid: PageId, buf: &mut PageBuf) -> molap_storage::Result<()> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if self.armed.load(Ordering::Relaxed) {
            return Err(StorageError::Io(io::Error::other("injected read fault")));
        }
        self.inner.read_page(pid, buf)
    }

    fn write_page(&self, pid: PageId, buf: &PageBuf) -> molap_storage::Result<()> {
        self.inner.write_page(pid, buf)
    }

    fn allocate_contiguous(&self, n: u64) -> molap_storage::Result<PageId> {
        self.inner.allocate_contiguous(n)
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> molap_storage::Result<()> {
        self.inner.sync()
    }
}

fn build_adt(pool: Arc<BufferPool>, format: ChunkFormat) -> OlapArray {
    let dims = vec![
        DimensionTable::build(
            "a",
            &(0..30i64).collect::<Vec<_>>(),
            vec![("h", (0..30i64).map(|k| k / 10).collect())],
        )
        .unwrap(),
        DimensionTable::build(
            "b",
            &(0..20i64).collect::<Vec<_>>(),
            vec![("h", (0..20i64).map(|k| k % 4).collect())],
        )
        .unwrap(),
    ];
    let cells: Vec<(Vec<i64>, Vec<i64>)> = (0..30i64)
        .flat_map(|x| (0..20i64).map(move |y| (vec![x, y], vec![x * 31 + y])))
        .filter(|(k, _)| (k[0] * 13 + k[1] * 7) % 3 != 0)
        .collect();
    OlapArray::build(pool, dims, &[7, 6], format, cells, 1).unwrap()
}

#[test]
fn failing_disk_errors_propagate_and_the_pipeline_recovers() {
    let disk = Arc::new(FailingDisk::new());
    let pool = Arc::new(BufferPool::new(disk.clone(), 1024));
    let adt = build_adt(pool.clone(), ChunkFormat::ChunkOffset);
    let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]);
    let expect = adt.consolidate(&q).unwrap();

    // Cold + armed: every prefetcher read fails; the error must come
    // back (not hang, not panic) from every worker/plan combination.
    for (workers, plan) in [
        (1, PrefetchPlan::new(1, 1)),
        (2, PrefetchPlan::new(2, 4)),
        (4, PrefetchPlan::new(2, 8)),
    ] {
        pool.clear().unwrap();
        disk.armed.store(true, Ordering::Relaxed);
        let err = consolidate_pipelined(&adt, &q, workers, plan);
        assert!(
            err.is_err(),
            "injected fault must surface ({workers} workers)"
        );

        // Disarmed, the same pipeline runs to the correct answer: the
        // failure left no poisoned queue or stuck producer behind.
        disk.armed.store(false, Ordering::Relaxed);
        let got = consolidate_pipelined(&adt, &q, workers, plan).unwrap();
        assert_eq!(got, expect);
    }
}

#[test]
fn pool_clear_epoch_races_in_flight_prefetch() {
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 1024));
    // ChunkOffset: the codec whose decodes the chunk cache keeps, so
    // racing prefetchers insert stale-epoch entries.
    let adt = build_adt(pool.clone(), ChunkFormat::ChunkOffset);
    let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
    let expect = adt.consolidate(&q).unwrap();
    let epoch_before = pool.epoch();

    let done = AtomicBool::new(false);
    let cleared = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Clear storm: bump the epoch while prefetches are in flight.
        // Clearing fails with PoolExhausted while query pages are
        // pinned — retry until some clears land mid-query.
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                if pool.clear().is_ok() {
                    cleared.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        });
        for _ in 0..25 {
            let got = consolidate_pipelined(&adt, &q, 2, PrefetchPlan::new(2, 4)).unwrap();
            assert_eq!(
                got, expect,
                "clear racing a pipelined query changed results"
            );
        }
        done.store(true, Ordering::Relaxed);
    });

    assert!(cleared.load(Ordering::Relaxed) > 0, "no clear ever landed");
    assert!(pool.epoch() > epoch_before, "clear must bump the epoch");
    // Stale-epoch cache entries inserted by racing prefetchers must not
    // serve a post-clear read; correctness was asserted above, so this
    // is just the final sanity check that the engine still answers.
    assert_eq!(adt.consolidate(&q).unwrap(), expect);
}
