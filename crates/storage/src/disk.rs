//! Disk managers: the lowest layer, a flat sequence of pages.
//!
//! Two implementations are provided:
//!
//! * [`FileDisk`] — pages live in a single file, read and written with
//!   positioned I/O. This is what the benchmark harness uses so physical
//!   reads actually touch the file system.
//! * [`MemDisk`] — pages live in memory. Used by unit and property tests
//!   where determinism and speed matter more than realism.
//!
//! Both allocate pages as a dense, monotonically increasing sequence, so
//! [`DiskManager::allocate_contiguous`] returns true *extents*: `n`
//! adjacent page ids. The fact file's tuple-number arithmetic and the
//! LOB store's chunk layout both depend on this contiguity, exactly as
//! the paper's fact file depends on extent allocation (§4.4).

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::error::{Result, StorageError};
use crate::page::{PageBuf, PageId, PAGE_SIZE};

/// A flat, page-addressed persistent store.
pub trait DiskManager: Send + Sync {
    /// Reads page `pid` into `buf`.
    fn read_page(&self, pid: PageId, buf: &mut PageBuf) -> Result<()>;

    /// Reads the `out.len() / PAGE_SIZE` contiguous pages starting at
    /// `first` into `out` — the vectored read under multi-page LOB
    /// faults. `out` must be a whole number of pages long.
    ///
    /// The default loops [`DiskManager::read_page`], so wrappers that
    /// inject latency or faults per page keep their semantics; real
    /// disks override this with a single positioned read.
    fn read_pages(&self, first: PageId, out: &mut [u8]) -> Result<()> {
        if !out.len().is_multiple_of(PAGE_SIZE) {
            return Err(misaligned_read());
        }
        for (i, chunk) in out.chunks_exact_mut(PAGE_SIZE).enumerate() {
            let buf: &mut PageBuf = chunk.try_into().map_err(|_| misaligned_read())?;
            self.read_page(first.offset(i as u64), buf)?;
        }
        Ok(())
    }

    /// Writes `buf` to page `pid`.
    fn write_page(&self, pid: PageId, buf: &PageBuf) -> Result<()>;

    /// Allocates `n` contiguous pages and returns the id of the first.
    ///
    /// The new pages' contents are unspecified until first written.
    fn allocate_contiguous(&self, n: u64) -> Result<PageId>;

    /// Number of pages allocated so far.
    fn num_pages(&self) -> u64;

    /// Flushes any buffered writes to durable storage.
    fn sync(&self) -> Result<()>;
}

/// A `read_pages` buffer that is not a whole number of pages: caller
/// misuse, not corruption.
fn misaligned_read() -> StorageError {
    StorageError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        "read_pages length not page-aligned",
    ))
}

fn check_bounds(pid: PageId, num_pages: u64) -> Result<()> {
    if pid.0 >= num_pages {
        Err(StorageError::PageOutOfBounds { pid, num_pages })
    } else {
        Ok(())
    }
}

/// File-backed disk manager using positioned reads/writes.
pub struct FileDisk {
    file: File,
    next_page: AtomicU64,
}

impl FileDisk {
    /// Creates (truncating) a store at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileDisk {
            file,
            next_page: AtomicU64::new(0),
        })
    }

    /// Opens an existing store at `path`; page count is derived from the
    /// file length (which is always a multiple of [`PAGE_SIZE`]).
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt("file length not page-aligned"));
        }
        Ok(FileDisk {
            file,
            next_page: AtomicU64::new(len / PAGE_SIZE as u64),
        })
    }
}

impl DiskManager for FileDisk {
    fn read_page(&self, pid: PageId, buf: &mut PageBuf) -> Result<()> {
        check_bounds(pid, self.num_pages())?;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, pid.0 * PAGE_SIZE as u64)?;
        }
        #[cfg(not(unix))]
        {
            compile_error!("FileDisk currently requires a unix platform");
        }
        Ok(())
    }

    fn read_pages(&self, first: PageId, out: &mut [u8]) -> Result<()> {
        if !out.len().is_multiple_of(PAGE_SIZE) {
            return Err(misaligned_read());
        }
        let n = (out.len() / PAGE_SIZE) as u64;
        if n == 0 {
            return Ok(());
        }
        check_bounds(first.offset(n - 1), self.num_pages())?;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(out, first.0 * PAGE_SIZE as u64)?;
        }
        Ok(())
    }

    fn write_page(&self, pid: PageId, buf: &PageBuf) -> Result<()> {
        check_bounds(pid, self.num_pages())?;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(buf, pid.0 * PAGE_SIZE as u64)?;
        }
        Ok(())
    }

    fn allocate_contiguous(&self, n: u64) -> Result<PageId> {
        let start = self.next_page.fetch_add(n, Ordering::SeqCst);
        self.file.set_len((start + n) * PAGE_SIZE as u64)?;
        Ok(PageId(start))
    }

    fn num_pages(&self) -> u64 {
        self.next_page.load(Ordering::SeqCst)
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// In-memory disk manager for tests and deterministic benchmarks.
pub struct MemDisk {
    pages: RwLock<Vec<Box<PageBuf>>>,
}

impl MemDisk {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        MemDisk {
            pages: RwLock::new(Vec::new()),
        }
    }
}

impl Default for MemDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskManager for MemDisk {
    fn read_page(&self, pid: PageId, buf: &mut PageBuf) -> Result<()> {
        let pages = self.pages.read();
        check_bounds(pid, pages.len() as u64)?;
        buf.copy_from_slice(&pages[pid.0 as usize][..]);
        Ok(())
    }

    fn read_pages(&self, first: PageId, out: &mut [u8]) -> Result<()> {
        if !out.len().is_multiple_of(PAGE_SIZE) {
            return Err(misaligned_read());
        }
        let pages = self.pages.read();
        for (i, chunk) in out.chunks_exact_mut(PAGE_SIZE).enumerate() {
            let pid = first.offset(i as u64);
            check_bounds(pid, pages.len() as u64)?;
            chunk.copy_from_slice(&pages[pid.0 as usize][..]);
        }
        Ok(())
    }

    fn write_page(&self, pid: PageId, buf: &PageBuf) -> Result<()> {
        let mut pages = self.pages.write();
        let n = pages.len() as u64;
        check_bounds(pid, n)?;
        pages[pid.0 as usize].copy_from_slice(buf);
        Ok(())
    }

    fn allocate_contiguous(&self, n: u64) -> Result<PageId> {
        let mut pages = self.pages.write();
        let start = pages.len() as u64;
        for _ in 0..n {
            pages.push(Box::new([0u8; PAGE_SIZE]));
        }
        Ok(PageId(start))
    }

    fn num_pages(&self) -> u64 {
        self.pages.read().len() as u64
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(disk: &dyn DiskManager) {
        let start = disk.allocate_contiguous(3).unwrap();
        assert_eq!(disk.num_pages(), start.0 + 3);

        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 1;
        buf[PAGE_SIZE - 1] = 2;
        disk.write_page(start.offset(1), &buf).unwrap();

        let mut out = [0xFFu8; PAGE_SIZE];
        disk.read_page(start.offset(1), &mut out).unwrap();
        assert_eq!(out[0], 1);
        assert_eq!(out[PAGE_SIZE - 1], 2);

        // Unwritten page in the extent reads as *something* without error.
        disk.read_page(start, &mut out).unwrap();

        // Out-of-bounds access is rejected.
        assert!(matches!(
            disk.read_page(PageId(start.0 + 3), &mut out),
            Err(StorageError::PageOutOfBounds { .. })
        ));
        assert!(matches!(
            disk.write_page(PageId(start.0 + 3), &buf),
            Err(StorageError::PageOutOfBounds { .. })
        ));
        disk.sync().unwrap();
    }

    #[test]
    fn memdisk_roundtrip() {
        roundtrip(&MemDisk::new());
    }

    #[test]
    fn filedisk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("molap-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.db");
        roundtrip(&FileDisk::create(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn filedisk_reopen_preserves_pages() {
        let dir = std::env::temp_dir().join(format!("molap-disk2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.db");
        {
            let disk = FileDisk::create(&path).unwrap();
            let p = disk.allocate_contiguous(2).unwrap();
            let mut buf = [7u8; PAGE_SIZE];
            buf[123] = 9;
            disk.write_page(p.offset(1), &buf).unwrap();
            disk.sync().unwrap();
        }
        let disk = FileDisk::open(&path).unwrap();
        assert_eq!(disk.num_pages(), 2);
        let mut out = [0u8; PAGE_SIZE];
        disk.read_page(PageId(1), &mut out).unwrap();
        assert_eq!(out[123], 9);
        std::fs::remove_file(&path).unwrap();
    }

    fn vectored_roundtrip(disk: &dyn DiskManager) {
        let start = disk.allocate_contiguous(4).unwrap();
        for i in 0..4u64 {
            let buf = [i as u8 + 1; PAGE_SIZE];
            disk.write_page(start.offset(i), &buf).unwrap();
        }
        let mut out = vec![0u8; 3 * PAGE_SIZE];
        disk.read_pages(start.offset(1), &mut out).unwrap();
        for i in 0..3usize {
            assert_eq!(out[i * PAGE_SIZE], i as u8 + 2, "page {i}");
            assert_eq!(out[(i + 1) * PAGE_SIZE - 1], i as u8 + 2);
        }
        // Misaligned length and out-of-bounds spans are rejected; a
        // misaligned buffer is caller misuse, not corruption.
        assert!(matches!(
            disk.read_pages(start, &mut out[..PAGE_SIZE + 1]),
            Err(StorageError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidInput
        ));
        let mut big = vec![0u8; 2 * PAGE_SIZE];
        assert!(disk.read_pages(start.offset(3), &mut big).is_err());
    }

    #[test]
    fn memdisk_vectored_reads() {
        vectored_roundtrip(&MemDisk::new());
    }

    #[test]
    fn filedisk_vectored_reads() {
        let dir = std::env::temp_dir().join(format!("molap-disk3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vectored.db");
        vectored_roundtrip(&FileDisk::create(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn default_read_pages_delegates_to_read_page() {
        // A wrapper disk that only implements the required methods must
        // get correct vectored reads from the trait default.
        struct Plain(MemDisk);
        impl DiskManager for Plain {
            fn read_page(&self, pid: PageId, buf: &mut PageBuf) -> Result<()> {
                self.0.read_page(pid, buf)
            }
            fn write_page(&self, pid: PageId, buf: &PageBuf) -> Result<()> {
                self.0.write_page(pid, buf)
            }
            fn allocate_contiguous(&self, n: u64) -> Result<PageId> {
                self.0.allocate_contiguous(n)
            }
            fn num_pages(&self) -> u64 {
                self.0.num_pages()
            }
            fn sync(&self) -> Result<()> {
                self.0.sync()
            }
        }
        vectored_roundtrip(&Plain(MemDisk::new()));
    }

    #[test]
    fn extents_are_contiguous_and_dense() {
        let disk = MemDisk::new();
        let a = disk.allocate_contiguous(4).unwrap();
        let b = disk.allocate_contiguous(2).unwrap();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(4));
        assert_eq!(disk.num_pages(), 6);
    }
}
