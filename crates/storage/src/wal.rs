//! Redo-only write-ahead log with page-image records.
//!
//! The paper inherits recovery from SHORE and never measures it; this
//! module provides the minimum credible equivalent so a database file
//! survives a crash mid-flush. The discipline is classic redo-only
//! journaling at the buffer-pool boundary:
//!
//! * before a dirty page reaches the data file, its after-image is
//!   appended here ([`Wal::log_page`]);
//! * [`Wal::sync`] makes the log durable — the pool calls it once per
//!   flush batch, before the first data-page write of that batch;
//! * after a successful flush + data sync, [`Wal::truncate`] resets the
//!   log (checkpoint);
//! * on open, [`Wal::recover`] replays every intact record onto the
//!   data file (page images are idempotent) and stops at the first
//!   torn record, detected by CRC.
//!
//! Record format: `[pid: u64][crc32: u32][page bytes]`, fixed size.
//! The CRC covers pid + page, so a torn tail cannot replay garbage.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::page::{PageBuf, PageId, PAGE_SIZE};

#[cfg(not(unix))]
compile_error!("the WAL currently requires a unix platform (positioned file I/O)");

const RECORD_BYTES: usize = 8 + 4 + PAGE_SIZE;

/// CRC-32 (IEEE), bitwise implementation — small and dependency-free;
/// the WAL is bandwidth-bound on the page write, not the checksum.
fn crc32(seed: u32, data: &[u8]) -> u32 {
    let mut crc = !seed;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn record_crc(pid: u64, page: &[u8]) -> u32 {
    crc32(crc32(0, &pid.to_le_bytes()), page)
}

/// An append-only page-image journal.
pub struct Wal {
    file: File,
    len: AtomicU64,
}

impl Wal {
    /// Creates (or truncates) a WAL at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Wal {
            file,
            len: AtomicU64::new(0),
        })
    }

    /// Opens an existing WAL (empty or holding a crashed run's tail),
    /// creating an empty one if none exists. Existing contents are
    /// preserved — they are a crashed run's records, [`Wal::recover`]'s
    /// input.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(Wal {
            file,
            len: AtomicU64::new(len),
        })
    }

    /// Bytes currently in the log.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::SeqCst)
    }

    /// True if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one page after-image. Not yet durable — pair with
    /// [`Wal::sync`].
    pub fn log_page(&self, pid: PageId, page: &PageBuf) -> Result<()> {
        let mut record = Vec::with_capacity(RECORD_BYTES);
        record.extend_from_slice(&pid.0.to_le_bytes());
        record.extend_from_slice(&record_crc(pid.0, page).to_le_bytes());
        record.extend_from_slice(page);
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            let off = self.len.fetch_add(RECORD_BYTES as u64, Ordering::SeqCst);
            self.file.write_all_at(&record, off)?;
        }
        Ok(())
    }

    /// Makes all appended records durable.
    pub fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Checkpoint: discards the log after the data file is durable.
    pub fn truncate(&self) -> Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.len.store(0, Ordering::SeqCst);
        Ok(())
    }

    /// Replays every intact record onto `disk`, growing it as needed,
    /// then truncates the log. Returns the number of pages replayed.
    ///
    /// Safe to call on a clean (empty) log; replay is idempotent, so a
    /// crash during recovery just replays again.
    pub fn recover(&self, disk: &dyn DiskManager) -> Result<u64> {
        let log_len = self.len();
        let mut replayed = 0u64;
        let mut off = 0u64;
        let mut header = [0u8; 12];
        let mut page = [0u8; PAGE_SIZE];
        while off + RECORD_BYTES as u64 <= log_len {
            #[cfg(unix)]
            {
                use std::os::unix::fs::FileExt;
                self.file.read_exact_at(&mut header, off)?;
                self.file.read_exact_at(&mut page, off + 12)?;
            }
            let pid = crate::util::read_u64(&header, 0);
            let crc = crate::util::read_u32(&header, 8);
            if record_crc(pid, &page) != crc {
                // Torn tail: everything before it is valid and replayed.
                break;
            }
            while disk.num_pages() <= pid {
                disk.allocate_contiguous(1)?;
            }
            disk.write_page(PageId(pid), &page)?;
            replayed += 1;
            off += RECORD_BYTES as u64;
        }
        disk.sync()?;
        self.truncate()?;
        Ok(replayed)
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Wal({} bytes)", self.len())
    }
}

/// Validates that a WAL path is usable (parent directory exists).
pub fn validate_wal_path<P: AsRef<Path>>(path: P) -> Result<()> {
    match path.as_ref().parent() {
        Some(dir) if dir.as_os_str().is_empty() || dir.exists() => Ok(()),
        Some(_) => Err(StorageError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "wal parent directory missing",
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn temp_wal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("molap-wal-{}-{tag}.log", std::process::id()))
    }

    fn page_of(byte: u8) -> PageBuf {
        let mut p = [0u8; PAGE_SIZE];
        p[0] = byte;
        p[PAGE_SIZE - 1] = byte ^ 0xFF;
        p
    }

    #[test]
    fn log_recover_roundtrip() {
        let path = temp_wal("roundtrip");
        let wal = Wal::create(&path).unwrap();
        let disk = MemDisk::new();
        disk.allocate_contiguous(3).unwrap();

        wal.log_page(PageId(0), &page_of(1)).unwrap();
        wal.log_page(PageId(2), &page_of(2)).unwrap();
        wal.log_page(PageId(0), &page_of(3)).unwrap(); // later image wins
        wal.sync().unwrap();

        let replayed = wal.recover(&disk).unwrap();
        assert_eq!(replayed, 3);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, page_of(3));
        disk.read_page(PageId(2), &mut buf).unwrap();
        assert_eq!(buf, page_of(2));
        assert!(wal.is_empty(), "recovery checkpoints the log");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recovery_grows_the_data_file() {
        let path = temp_wal("grow");
        let wal = Wal::create(&path).unwrap();
        let disk = MemDisk::new(); // zero pages
        wal.log_page(PageId(5), &page_of(9)).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.recover(&disk).unwrap(), 1);
        assert!(disk.num_pages() >= 6);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId(5), &mut buf).unwrap();
        assert_eq!(buf, page_of(9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = temp_wal("torn");
        {
            let wal = Wal::create(&path).unwrap();
            wal.log_page(PageId(0), &page_of(1)).unwrap();
            wal.log_page(PageId(1), &page_of(2)).unwrap();
            wal.sync().unwrap();
        }
        // Corrupt the second record's body, and append a half record.
        {
            use std::os::unix::fs::FileExt;
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.write_all_at(&[0xAA; 64], RECORD_BYTES as u64 + 100)
                .unwrap();
            f.write_all_at(&[1, 2, 3], 2 * RECORD_BYTES as u64).unwrap();
        }
        let wal = Wal::open(&path).unwrap();
        let disk = MemDisk::new();
        disk.allocate_contiguous(2).unwrap();
        assert_eq!(
            wal.recover(&disk).unwrap(),
            1,
            "only the intact record replays"
        );
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, page_of(1));
        disk.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[0], 0, "corrupt record must not replay");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_log_recovers_to_nothing() {
        let path = temp_wal("empty");
        let wal = Wal::create(&path).unwrap();
        let disk = MemDisk::new();
        assert_eq!(wal.recover(&disk).unwrap(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_preserves_pending_records() {
        let path = temp_wal("reopen");
        {
            let wal = Wal::create(&path).unwrap();
            wal.log_page(PageId(1), &page_of(7)).unwrap();
            wal.sync().unwrap();
        } // "crash": log never truncated
        let wal = Wal::open(&path).unwrap();
        assert!(!wal.is_empty());
        let disk = MemDisk::new();
        disk.allocate_contiguous(2).unwrap();
        assert_eq!(wal.recover(&disk).unwrap(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc_distinguishes_pid_and_content() {
        let p = page_of(1);
        assert_ne!(record_crc(0, &p), record_crc(1, &p));
        assert_ne!(record_crc(0, &p), record_crc(0, &page_of(2)));
        assert_eq!(record_crc(3, &p), record_crc(3, &p));
    }

    #[test]
    fn wal_path_validation() {
        assert!(matches!(
            validate_wal_path("/nonexistent-dir-xyz/wal.log"),
            Err(StorageError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound
        ));
        assert!(validate_wal_path(temp_wal("ok")).is_ok());
        assert!(validate_wal_path("bare-file.log").is_ok());
    }
}
