//! Fault injection: I/O failures must surface as errors, never as
//! panics or corruption, and the pool must stay usable after the fault
//! clears (a transient-error story a storage layer needs even though
//! the paper inherits recovery from SHORE).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use molap_storage::{
    BufferPool, DiskManager, LobStore, MemDisk, PageBuf, PageId, Result, StorageError,
};

/// Wraps a disk and fails reads/writes while `fail_after` is <= 0;
/// each I/O decrements the countdown. Reads take `read_delay` first.
struct FaultyDisk {
    inner: MemDisk,
    countdown: AtomicI64,
    read_delay: Duration,
}

impl FaultyDisk {
    fn new(ok_ops: i64) -> Self {
        FaultyDisk {
            inner: MemDisk::new(),
            countdown: AtomicI64::new(ok_ops),
            read_delay: Duration::ZERO,
        }
    }

    fn heal(&self) {
        self.countdown.store(i64::MAX, Ordering::SeqCst);
    }

    fn trip(&self) {
        self.countdown.store(0, Ordering::SeqCst);
    }

    fn check(&self) -> Result<()> {
        if self.countdown.fetch_sub(1, Ordering::SeqCst) <= 0 {
            Err(StorageError::Io(std::io::Error::other("injected fault")))
        } else {
            Ok(())
        }
    }
}

impl DiskManager for FaultyDisk {
    fn read_page(&self, pid: PageId, buf: &mut PageBuf) -> Result<()> {
        std::thread::sleep(self.read_delay);
        self.check()?;
        self.inner.read_page(pid, buf)
    }

    fn write_page(&self, pid: PageId, buf: &PageBuf) -> Result<()> {
        self.check()?;
        self.inner.write_page(pid, buf)
    }

    fn allocate_contiguous(&self, n: u64) -> Result<PageId> {
        self.inner.allocate_contiguous(n)
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<()> {
        self.check()
    }
}

#[test]
fn read_faults_surface_as_errors_and_clear() {
    let disk = Arc::new(FaultyDisk::new(i64::MAX));
    let pool = BufferPool::new(disk.clone(), 4);
    let pid = pool.allocate_pages(1).unwrap();
    {
        let mut page = pool.create_page(pid).unwrap();
        page[0] = 42;
    }
    pool.clear().unwrap();

    disk.trip();
    match pool.fetch(pid) {
        Err(StorageError::Io(_)) => {}
        Err(other) => panic!("expected Io error, got {other:?}"),
        Ok(_) => panic!("expected Io error, got a page"),
    }

    // After the fault clears, the same fetch succeeds with intact data.
    disk.heal();
    let page = pool.fetch(pid).unwrap();
    assert_eq!(page[0], 42);
}

#[test]
fn failed_fault_fails_every_waiter_and_leaves_no_reservation() {
    // Several threads fetch one uncached page while the disk fails. The
    // fault's read is slow, so the others pin its reserved frame and
    // wait on the latch; when the read fails they find the frame empty,
    // fault the page themselves and get the same I/O error.
    const THREADS: usize = 4;
    let disk = Arc::new(FaultyDisk {
        read_delay: Duration::from_millis(20),
        ..FaultyDisk::new(i64::MAX)
    });
    let pool = Arc::new(BufferPool::new(disk.clone(), 4));
    let pid = pool.allocate_pages(1).unwrap();
    pool.create_page(pid).unwrap()[0] = 42;
    pool.clear().unwrap();

    disk.trip();
    let start = Arc::new(Barrier::new(THREADS));
    let (tx, rx) = mpsc::channel();
    let fetchers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (pool, start, tx) = (pool.clone(), start.clone(), tx.clone());
            std::thread::spawn(move || {
                start.wait();
                let outcome = pool.fetch(pid).map(|page| page[0]);
                tx.send((t, outcome)).unwrap();
            })
        })
        .collect();
    for _ in 0..THREADS {
        let (t, outcome) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a fetch of a failing page hung");
        match outcome {
            Err(StorageError::Io(_)) => {}
            other => panic!("thread {t}: expected an Io error, got {other:?}"),
        }
    }
    for f in fetchers {
        f.join().unwrap();
    }
    assert!(
        pool.span_absent(pid, 1).unwrap(),
        "failed faults left a reservation"
    );

    disk.heal();
    let readers: Vec<_> = (0..THREADS)
        .map(|_| {
            let pool = pool.clone();
            std::thread::spawn(move || pool.fetch(pid).unwrap()[0])
        })
        .collect();
    for r in readers {
        assert_eq!(r.join().unwrap(), 42);
    }
    pool.clear().unwrap();
    assert!(
        pool.span_absent(pid, 1).unwrap(),
        "no stale reservation after clear"
    );
}

#[test]
fn writeback_faults_surface_on_eviction() {
    let disk = Arc::new(FaultyDisk::new(i64::MAX));
    let pool = BufferPool::new(disk.clone(), 2);
    let base = pool.allocate_pages(3).unwrap();
    for i in 0..2 {
        let mut page = pool.create_page(base.offset(i)).unwrap();
        page[0] = i as u8;
    }
    // Both frames dirty; next fault-in must evict + write back.
    disk.trip();
    assert!(matches!(
        pool.create_page(base.offset(2)),
        Err(StorageError::Io(_))
    ));
    disk.heal();
    // Pool still usable; dirty data still correct.
    let page = pool.fetch(base.offset(0)).unwrap();
    assert_eq!(page[0], 0);
}

#[test]
fn flush_faults_do_not_lose_buffered_data() {
    let disk = Arc::new(FaultyDisk::new(i64::MAX));
    let pool = BufferPool::new(disk.clone(), 4);
    let pid = pool.allocate_pages(1).unwrap();
    {
        let mut page = pool.create_page(pid).unwrap();
        page[7] = 7;
    }
    disk.trip();
    assert!(pool.flush_all().is_err());
    disk.heal();
    pool.flush_all().unwrap();
    pool.clear().unwrap();
    assert_eq!(
        pool.fetch(pid).unwrap()[7],
        7,
        "data survived the failed flush"
    );
}

#[test]
fn lob_store_propagates_faults() {
    let disk = Arc::new(FaultyDisk::new(i64::MAX));
    let pool = Arc::new(BufferPool::new(disk.clone(), 2));
    let lobs = LobStore::new(pool.clone());
    // Fill more than the pool so reads must hit disk.
    let ids: Vec<_> = (0..8)
        .map(|i| lobs.append(&[i as u8; 5000]).unwrap())
        .collect();
    pool.clear().unwrap();

    disk.trip();
    assert!(lobs.read(ids[0]).is_err());
    disk.heal();
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(lobs.read(*id).unwrap(), vec![i as u8; 5000]);
    }
}

#[test]
fn intermittent_faults_never_corrupt() {
    // Alternate working/failing I/O while hammering the pool; every
    // successful read must observe the last successfully written value.
    let disk = Arc::new(FaultyDisk::new(i64::MAX));
    let pool = BufferPool::new(disk.clone(), 4);
    let base = pool.allocate_pages(16).unwrap();
    let mut shadow = [0u8; 16];
    for i in 0..16u64 {
        let mut page = pool.create_page(base.offset(i)).unwrap();
        page[0] = i as u8;
        shadow[i as usize] = i as u8;
    }
    for round in 0..200u64 {
        if round % 7 == 3 {
            disk.trip();
        } else {
            disk.heal();
        }
        let slot = (round * 5) % 16;
        match pool.fetch_mut(base.offset(slot)) {
            Ok(mut page) => {
                assert_eq!(page[0], shadow[slot as usize], "round {round}");
                page[0] = (round % 251) as u8;
                shadow[slot as usize] = (round % 251) as u8;
            }
            Err(StorageError::Io(_)) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    disk.heal();
    for i in 0..16u64 {
        assert_eq!(pool.fetch(base.offset(i)).unwrap()[0], shadow[i as usize]);
    }
}
