//! Regression test for the sharded pin protocol: a page miss whose
//! fault-in I/O is slow must not block a concurrent *hit* on another
//! page. The pre-sharding pool serviced faults while holding the global
//! pool mutex, so one slow disk read stalled every session.
//!
//! "Slow" is an event, not a delay: every page read parks inside
//! [`GatedDisk::read_page`] until the test opens the gate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use molap_storage::{BufferPool, DiskManager, MemDisk, PageBuf, PageId, Result};

/// How long a wait here lasts before it gives up, so that a regression
/// fails the test instead of hanging it.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Delegates to a [`MemDisk`], holding every page read until the gate
/// opens.
struct GatedDisk {
    inner: MemDisk,
    reads: AtomicU64,
    gate: Mutex<Gate>,
    changed: Condvar,
}

#[derive(Default)]
struct Gate {
    open: bool,
    /// Reads inside `read_page`, waiting for the gate.
    parked: usize,
}

impl GatedDisk {
    fn new() -> Self {
        GatedDisk {
            inner: MemDisk::new(),
            reads: AtomicU64::new(0),
            gate: Mutex::new(Gate::default()),
            changed: Condvar::new(),
        }
    }

    /// Waits until `n` reads are parked at once; false on timeout.
    fn wait_parked(&self, n: usize) -> bool {
        let gate = self.gate.lock().unwrap();
        let (_gate, waited) = self
            .changed
            .wait_timeout_while(gate, TIMEOUT, |g| g.parked < n)
            .unwrap();
        !waited.timed_out()
    }

    fn parked(&self) -> usize {
        self.gate.lock().unwrap().parked
    }

    fn set_open(&self, open: bool) {
        self.gate.lock().unwrap().open = open;
        self.changed.notify_all();
    }
}

impl DiskManager for GatedDisk {
    fn read_page(&self, pid: PageId, buf: &mut PageBuf) -> Result<()> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let mut gate = self.gate.lock().unwrap();
        gate.parked += 1;
        self.changed.notify_all();
        // A read that is never released proceeds after the timeout; the
        // test then sees it no longer parked and fails.
        let (mut gate, _) = self
            .changed
            .wait_timeout_while(gate, TIMEOUT, |g| !g.open)
            .unwrap();
        gate.parked -= 1;
        drop(gate);
        self.inner.read_page(pid, buf)
    }

    fn write_page(&self, pid: PageId, buf: &PageBuf) -> Result<()> {
        self.inner.write_page(pid, buf)
    }

    fn allocate_contiguous(&self, n: u64) -> Result<PageId> {
        self.inner.allocate_contiguous(n)
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[test]
fn slow_miss_does_not_block_concurrent_hits() {
    let disk = Arc::new(GatedDisk::new());
    let pool = Arc::new(BufferPool::new(disk.clone(), 64));
    let base = pool.allocate_pages(2).unwrap();
    let (miss_page, hit_page) = (base, base.offset(1));

    // Write both pages, go cold, then re-warm only `hit_page`, so the
    // next `miss_page` access faults while `hit_page` stays cached.
    {
        let mut p = pool.create_page(miss_page).unwrap();
        p[0] = 1;
        let mut p = pool.create_page(hit_page).unwrap();
        p[0] = 2;
    }
    pool.clear().unwrap(); // both cold now
    disk.set_open(true);
    drop(pool.fetch(hit_page).unwrap()); // re-warm only the hit page
    disk.set_open(false);
    let reads_before = disk.reads.load(Ordering::Relaxed);

    // Thread A faults `miss_page` and parks in the disk read. The main
    // thread's hits on `hit_page` must all finish while it is parked.
    let faulter = {
        let pool = pool.clone();
        std::thread::spawn(move || {
            let page = pool.fetch(miss_page).unwrap();
            assert_eq!(page[0], 1);
        })
    };
    assert!(disk.wait_parked(1), "the fault never reached the disk");

    for _ in 0..10 {
        let page = pool.fetch(hit_page).unwrap();
        assert_eq!(page[0], 2);
    }
    let parked_after_hits = disk.parked();

    disk.set_open(true);
    faulter.join().unwrap();

    assert_eq!(
        parked_after_hits, 1,
        "hits on another page waited for the slow fault to finish"
    );
    assert_eq!(
        disk.reads.load(Ordering::Relaxed),
        reads_before + 1,
        "exactly the one slow fault should have touched the disk"
    );
}

#[test]
fn concurrent_misses_on_different_pages_overlap() {
    // Four cold pages faulted by four threads: if faults serialized on
    // a pool-wide lock, only one would ever be inside the disk read.
    let disk = Arc::new(GatedDisk::new());
    let pool = Arc::new(BufferPool::new(disk.clone(), 64));
    let base = pool.allocate_pages(4).unwrap();
    for i in 0..4 {
        let mut p = pool.create_page(base.offset(i)).unwrap();
        p[0] = i as u8;
    }
    pool.clear().unwrap();

    let handles: Vec<_> = (0..4)
        .map(|i| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let page = pool.fetch(base.offset(i)).unwrap();
                assert_eq!(page[0], i as u8);
            })
        })
        .collect();
    let all_inside = disk.wait_parked(4);
    let parked = disk.parked();
    disk.set_open(true);
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        all_inside,
        "only {parked} of 4 faults were inside the disk read at once; they serialized"
    );
}
