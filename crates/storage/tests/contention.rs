//! Contention on a small pool: more hot pages than frames, a disk whose
//! reads and writes take long enough that faults overlap, and threads
//! mixing reads and writes so that dirty victims are evicted while
//! other threads wait on them. Every fetch must return its own page's
//! bytes, and no fetch may fail: a pool under pressure waits, it does
//! not give up.

use std::sync::Arc;
use std::time::Duration;

use molap_storage::{BufferPool, DiskManager, MemDisk, PageBuf, PageId, Result, PAGE_SIZE};

/// Delegates to a [`MemDisk`], sleeping on every page read and write.
struct SleepyDisk {
    inner: MemDisk,
    delay: Duration,
}

impl DiskManager for SleepyDisk {
    fn read_page(&self, pid: PageId, buf: &mut PageBuf) -> Result<()> {
        std::thread::sleep(self.delay);
        self.inner.read_page(pid, buf)
    }

    fn write_page(&self, pid: PageId, buf: &PageBuf) -> Result<()> {
        std::thread::sleep(self.delay);
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

/// The id a page carries at both ends of its bytes.
fn stamped_id(page: &PageBuf) -> (u64, u64) {
    let head = u64::from_le_bytes(page[..8].try_into().unwrap());
    let tail = u64::from_le_bytes(page[PAGE_SIZE - 8..].try_into().unwrap());
    (head, tail)
}

#[test]
fn overlapping_faults_on_dirty_victims_return_their_own_pages() {
    const FRAMES: usize = 6;
    const PAGES: u64 = 16;
    const THREADS: u64 = 4;
    const ROUNDS: u64 = 500;

    let disk = Arc::new(SleepyDisk {
        inner: MemDisk::new(),
        delay: Duration::from_micros(200),
    });
    let pool = Arc::new(BufferPool::new(disk, FRAMES));
    assert_eq!(
        pool.num_shards(),
        1,
        "one shard: every fault races the same frames"
    );
    let base = pool.allocate_pages(PAGES).unwrap();
    for i in 0..PAGES {
        let pid = base.offset(i);
        let mut page = pool.create_page(pid).unwrap();
        page[..8].copy_from_slice(&pid.0.to_le_bytes());
        page[PAGE_SIZE - 8..].copy_from_slice(&pid.0.to_le_bytes());
    }
    let before = pool.stats().snapshot();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut x = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for round in 0..ROUNDS {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let pid = base.offset((x >> 33) % PAGES);
                    let want = (pid.0, pid.0);
                    if (round + t) % 3 == 0 {
                        let mut page = pool
                            .fetch_mut(pid)
                            .unwrap_or_else(|e| panic!("thread {t} round {round}: {e}"));
                        assert_eq!(stamped_id(&page), want, "thread {t} round {round}");
                        page[8] = page[8].wrapping_add(1);
                    } else {
                        let page = pool
                            .fetch(pid)
                            .unwrap_or_else(|e| panic!("thread {t} round {round}: {e}"));
                        assert_eq!(stamped_id(&page), want, "thread {t} round {round}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let delta = pool.stats().snapshot().since(&before);
    assert!(delta.evictions > 0, "{delta:?}");
    assert!(
        delta.physical_writes > 0,
        "dirty victims were written back: {delta:?}"
    );
    for i in 0..PAGES {
        let pid = base.offset(i);
        assert_eq!(stamped_id(&pool.fetch(pid).unwrap()), (pid.0, pid.0));
    }
}
