//! Set-up and tear-down: the database a workload runs on, the
//! in-process server over it, and the traced twin the layer pass uses.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use molap_core::{shared_result_cache, Database, OlapArray};
use molap_datagen::generate;
use molap_server::{Server, ServerClient, ServerConfig, ServerHandle};
use molap_storage::{BufferPool, DiskManager, FileDisk, PageBuf, PageId, Wal, PAGE_SIZE};

use crate::workload::{Cells, Regime, Workload, CHUNK_DIMS, MEASURES, OBJECT};

/// A freshly built database, not yet served.
pub struct Built {
    pub db: Database,
    pub adt: OlapArray,
    pub cells: Cells,
    /// Generate + build + catalog save + checkpoint.
    pub build_s: f64,
}

/// Generates the workload's cube from `seed` and loads it into a new
/// database at `path` (WAL beside it, as `Database::create` does).
pub fn build_database(w: &Workload, seed: u64, path: &Path) -> Built {
    let started = Instant::now();
    let spec = w.cube_spec(seed);
    let cube = generate(&spec).expect("generate cube");
    let db = Database::create(path, w.pool_bytes).expect("create database");
    let adt = cube
        .build_olap(db.pool().clone(), &CHUNK_DIMS, w.format)
        .expect("build OLAP array");
    db.save_olap_array(OBJECT, &adt).expect("catalog the array");
    db.checkpoint().expect("checkpoint the load");
    let build_s = started.elapsed().as_secs_f64();
    let cells = Cells::from_generated(&spec, &cube.cells);
    Built {
        db,
        adt,
        cells,
        build_s,
    }
}

/// The in-process server and the one client connection that drives it.
pub struct Running {
    pub handle: ServerHandle,
    pub client: ServerClient,
    /// The served database's pool, for the untimed cache control.
    pub pool: Arc<BufferPool>,
    /// `Server::start` + connect + first ping.
    pub start_s: f64,
}

pub fn start_server(db: Database) -> Running {
    let started = Instant::now();
    let pool = db.pool().clone();
    let handle =
        Server::start(db, "127.0.0.1:0", ServerConfig::default()).expect("start molap-server");
    let mut client = ServerClient::connect(handle.local_addr()).expect("connect to the server");
    client.ping().expect("first ping");
    Running {
        handle,
        client,
        pool,
        start_s: started.elapsed().as_secs_f64(),
    }
}

/// The untimed cache control a workload applies before each request.
pub fn apply_regime(regime: Regime, pool: &Arc<BufferPool>) {
    match regime {
        Regime::BumpResultGen => shared_result_cache(pool)
            .expect("the pool has a result cache")
            .bump_write_gen(),
        Regime::ClearPool => pool.clear().expect("no page is pinned between requests"),
        Regime::Untouched => {}
    }
}

/// `<dir>/<workload>-<pid>-<n>.molap`: unique per process and per
/// set-up repetition, inside the benchmark's own output directory.
pub fn database_path(dir: &Path, workload: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    dir.join(format!(
        "{workload}-{}-{}.molap",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

pub fn remove_database(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.as_os_str().to_owned();
    wal.push(".wal");
    let _ = std::fs::remove_file(PathBuf::from(wal));
}

/// Counters of one [`TracedDisk`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskCounters {
    pub read_calls: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    pub write_calls: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
    pub sync_calls: u64,
    pub sync_ns: u64,
}

impl DiskCounters {
    pub fn since(&self, earlier: &DiskCounters) -> DiskCounters {
        DiskCounters {
            read_calls: self.read_calls - earlier.read_calls,
            read_bytes: self.read_bytes - earlier.read_bytes,
            read_ns: self.read_ns - earlier.read_ns,
            write_calls: self.write_calls - earlier.write_calls,
            write_bytes: self.write_bytes - earlier.write_bytes,
            write_ns: self.write_ns - earlier.write_ns,
            sync_calls: self.sync_calls - earlier.sync_calls,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }
}

/// A [`DiskManager`] that counts and times every call into the disk it
/// wraps: the `storage::disk` layer seen from outside.
pub struct TracedDisk<D> {
    inner: D,
    read_calls: AtomicU64,
    read_bytes: AtomicU64,
    read_ns: AtomicU64,
    write_calls: AtomicU64,
    write_bytes: AtomicU64,
    write_ns: AtomicU64,
    sync_calls: AtomicU64,
    sync_ns: AtomicU64,
}

impl<D> TracedDisk<D> {
    pub fn new(inner: D) -> Self {
        TracedDisk {
            inner,
            read_calls: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
            write_calls: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
            write_ns: AtomicU64::new(0),
            sync_calls: AtomicU64::new(0),
            sync_ns: AtomicU64::new(0),
        }
    }

    pub fn counters(&self) -> DiskCounters {
        // Statistics only: Relaxed publishes nothing else.
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        DiskCounters {
            read_calls: get(&self.read_calls),
            read_bytes: get(&self.read_bytes),
            read_ns: get(&self.read_ns),
            write_calls: get(&self.write_calls),
            write_bytes: get(&self.write_bytes),
            write_ns: get(&self.write_ns),
            sync_calls: get(&self.sync_calls),
            sync_ns: get(&self.sync_ns),
        }
    }
}

fn timed<T>(calls: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    calls.fetch_add(1, Ordering::Relaxed);
    out
}

impl<D: DiskManager> DiskManager for TracedDisk<D> {
    fn read_page(&self, pid: PageId, buf: &mut PageBuf) -> molap_storage::Result<()> {
        self.read_bytes
            .fetch_add(PAGE_SIZE as u64, Ordering::Relaxed);
        timed(&self.read_calls, &self.read_ns, || {
            self.inner.read_page(pid, buf)
        })
    }

    // Forwarded so the wrapped disk's single vectored read is what gets
    // timed, not the trait's per-page default.
    fn read_pages(&self, first: PageId, out: &mut [u8]) -> molap_storage::Result<()> {
        self.read_bytes
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        timed(&self.read_calls, &self.read_ns, || {
            self.inner.read_pages(first, out)
        })
    }

    fn write_page(&self, pid: PageId, buf: &PageBuf) -> molap_storage::Result<()> {
        self.write_bytes
            .fetch_add(PAGE_SIZE as u64, Ordering::Relaxed);
        timed(&self.write_calls, &self.write_ns, || {
            self.inner.write_page(pid, buf)
        })
    }

    fn allocate_contiguous(&self, n: u64) -> molap_storage::Result<PageId> {
        self.inner.allocate_contiguous(n)
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> molap_storage::Result<()> {
        timed(&self.sync_calls, &self.sync_ns, || self.inner.sync())
    }
}

/// The traced twin: the same cube, codec, pool size and WAL as the
/// served database, but on a pool whose disk the benchmark owns, so the
/// layer pass can call each public entry point with a span around it.
pub struct Twin {
    pub pool: Arc<BufferPool>,
    pub disk: Arc<TracedDisk<FileDisk>>,
    pub adt: OlapArray,
    pub cells: Cells,
}

pub fn build_twin(w: &Workload, seed: u64, path: &Path) -> Twin {
    let spec = w.cube_spec(seed);
    let cube = generate(&spec).expect("generate cube");
    let disk = Arc::new(TracedDisk::new(
        FileDisk::create(path).expect("create twin store"),
    ));
    let mut wal_path = path.as_os_str().to_owned();
    wal_path.push(".wal");
    let wal = Wal::create(PathBuf::from(wal_path)).expect("create twin WAL");
    let pool = Arc::new(BufferPool::new_with_wal(
        disk.clone(),
        (w.pool_bytes / PAGE_SIZE).max(1),
        wal,
    ));
    let adt = cube
        .build_olap(pool.clone(), &CHUNK_DIMS, w.format)
        .expect("build twin array");
    pool.checkpoint().expect("checkpoint the twin");
    debug_assert_eq!(adt.n_measures(), MEASURES.len());
    Twin {
        pool,
        disk,
        adt,
        cells: Cells::from_generated(&spec, &cube.cells),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use molap_storage::MemDisk;

    #[test]
    fn traced_disk_counts_calls_and_bytes() {
        let disk = TracedDisk::new(MemDisk::new());
        let first = disk.allocate_contiguous(3).unwrap();
        let page = [7u8; PAGE_SIZE];
        disk.write_page(first, &page).unwrap();
        let mut back = [0u8; PAGE_SIZE];
        disk.read_page(first, &mut back).unwrap();
        assert_eq!(back[0], 7);
        let mut span = vec![0u8; 2 * PAGE_SIZE];
        disk.read_pages(first, &mut span).unwrap();
        disk.sync().unwrap();
        let c = disk.counters();
        assert_eq!((c.write_calls, c.write_bytes), (1, PAGE_SIZE as u64));
        assert_eq!((c.read_calls, c.read_bytes), (2, 3 * PAGE_SIZE as u64));
        assert_eq!(c.sync_calls, 1);
        assert_eq!(c.since(&c), DiskCounters::default());
    }
}
