//! Sharded clock buffer pool with pinned page guards.
//!
//! The paper configures Paradise with a 16 MB buffer pool and flushes it
//! before every query so each run starts cold (§5.3). This pool mirrors
//! that setup: [`BufferPool::with_bytes`] sizes the frame budget, and
//! [`BufferPool::clear`] evicts everything between runs.
//!
//! Pages are returned as RAII guards ([`PageRef`] / [`PageMut`]) that pin
//! the frame for their lifetime; the clock hand never recycles a pinned
//! frame. A frame is latched by a `parking_lot::RwLock`, so concurrent
//! readers of the same page are allowed (used by the parallel chunk-scan
//! extension).
//!
//! # Sharding and the miss protocol
//!
//! The page table and clock hand are partitioned into shards by a
//! multiplicative hash of the `PageId`; each shard owns a contiguous,
//! disjoint range of frames, so concurrent hits on pages of different
//! shards never touch the same mutex. Tiny pools (the tests use 2-frame
//! pools) collapse to a single shard.
//!
//! Faults do their I/O *outside* the shard mutex, under the claimed
//! frame's latch alone, so one slow miss never stalls hits on other
//! pages. One invariant makes that safe: a frame reached through the
//! page table under `pid` holds `pid` once its latch is free, unless
//! the fault that reserved it failed its read. A dirty victim is
//! written back before it can be claimed, pinned and latched with its
//! old mapping still live; a clean victim is remapped (old entry out,
//! new entry in, frame page id set) in one critical section under the
//! shard lock and the frame latch. Concurrent fetchers of either page
//! find a table entry, pin, and wait on the frame latch; one that finds
//! the frame emptied by a failed read pins again and faults the page
//! itself.

use std::any::Any;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::counters::Counter;
use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::stats::{IoStats, ShardStats};
use crate::util::fib_shard;
use crate::wal::Wal;

/// Frames per shard below which splitting further stops paying for
/// itself; pools smaller than twice this stay single-sharded.
const MIN_FRAMES_PER_SHARD: usize = 16;

/// Upper bound on the shard count.
const MAX_SHARDS: usize = 64;

/// One link of the pool's extension chain: a value of some type, and
/// the link after it, created on demand.
#[derive(Default)]
struct Extension {
    value: OnceLock<Arc<dyn Any + Send + Sync>>,
    next: OnceLock<Box<Extension>>,
}

struct FrameData {
    pid: Option<PageId>,
    dirty: bool,
    buf: Box<PageBuf>,
}

struct Frame {
    data: RwLock<FrameData>,
    pin: AtomicU32,
    referenced: AtomicBool,
}

impl Frame {
    fn new() -> Self {
        Frame {
            data: RwLock::new(FrameData {
                pid: None,
                dirty: false,
                buf: Box::new([0u8; PAGE_SIZE]),
            }),
            pin: AtomicU32::new(0),
            referenced: AtomicBool::new(false),
        }
    }
}

struct ShardState {
    /// Page → frame index (into the pool-wide frame vector; only frames
    /// of this shard's range ever appear here).
    table: HashMap<PageId, usize>,
    /// Clock hand, as an offset into this shard's frame range.
    clock: usize,
}

struct Shard {
    /// First frame index owned by this shard.
    base: usize,
    /// Number of frames owned by this shard.
    len: usize,
    state: Mutex<ShardState>,
    /// Page-table hits and misses.
    hits: Counter,
    misses: Counter,
}

/// A fixed-budget page cache over a [`DiskManager`].
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    frames: Vec<Frame>,
    shards: Vec<Shard>,
    stats: IoStats,
    /// Bumped by [`BufferPool::clear`]; consumers caching decoded forms
    /// of page data (the chunk cache) treat entries stamped with an
    /// older epoch as cold, preserving the paper's flush-between-runs
    /// methodology.
    epoch: AtomicU64,
    /// Type-erased extensions: pool-wide shared structures of higher
    /// layers (the version table, the decoded-chunk cache, the
    /// result-cube cache), attached without a dependency cycle. Lookup
    /// is by downcast, so at most one extension *per type* is
    /// installed.
    ext: Extension,
    /// Optional redo journal: when present, every page write-back is
    /// logged (and the log synced) before it reaches the data file.
    wal: Option<Wal>,
}

/// Largest power of two ≤ `MAX_SHARDS` that still leaves every shard at
/// least `MIN_FRAMES_PER_SHARD` frames.
fn shard_count_for(num_frames: usize) -> usize {
    let mut shards = 1usize;
    while shards < MAX_SHARDS && num_frames / (shards * 2) >= MIN_FRAMES_PER_SHARD {
        shards *= 2;
    }
    shards
}

impl BufferPool {
    /// Creates a pool with `num_frames` page frames.
    pub fn new(disk: Arc<dyn DiskManager>, num_frames: usize) -> Self {
        assert!(num_frames > 0, "buffer pool needs at least one frame");
        let n_shards = shard_count_for(num_frames);
        let per = num_frames / n_shards;
        let extra = num_frames % n_shards;
        let mut shards = Vec::with_capacity(n_shards);
        let mut base = 0usize;
        for s in 0..n_shards {
            let len = per + usize::from(s < extra);
            shards.push(Shard {
                base,
                len,
                state: Mutex::new(ShardState {
                    table: HashMap::with_capacity(len),
                    clock: 0,
                }),
                hits: Counter::new(),
                misses: Counter::new(),
            });
            base += len;
        }
        BufferPool {
            disk,
            frames: (0..num_frames).map(|_| Frame::new()).collect(),
            shards,
            stats: IoStats::new(),
            epoch: AtomicU64::new(0),
            ext: Extension::default(),
            wal: None,
        }
    }

    /// Like [`BufferPool::new`], with a write-ahead log: page
    /// write-backs are journaled before touching the data file, so a
    /// flush interrupted by a crash can be redone from the log (see
    /// [`Wal::recover`]).
    pub fn new_with_wal(disk: Arc<dyn DiskManager>, num_frames: usize, wal: Wal) -> Self {
        let mut pool = Self::new(disk, num_frames);
        pool.wal = Some(wal);
        pool
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Journals a page image (if a WAL is attached) and writes it to
    /// the data file. `synced` batches may pre-sync the log themselves.
    fn write_back(&self, pid: PageId, buf: &PageBuf, sync_log: bool) -> Result<()> {
        if let Some(wal) = &self.wal {
            wal.log_page(pid, buf)?;
            if sync_log {
                wal.sync()?;
            }
        }
        self.disk.write_page(pid, buf)?;
        self.stats.physical_writes.inc();
        Ok(())
    }

    /// Flushes everything, makes the data file durable, and truncates
    /// the WAL — the checkpoint a [`Wal`]-backed pool commits with.
    pub fn checkpoint(&self) -> Result<()> {
        self.flush_all()?;
        self.disk.sync()?;
        if let Some(wal) = &self.wal {
            wal.truncate()?;
        }
        Ok(())
    }

    /// Creates a pool whose frame budget is `bytes / PAGE_SIZE` — e.g.
    /// `with_bytes(disk, 16 << 20)` reproduces the paper's 16 MB pool.
    pub fn with_bytes(disk: Arc<dyn DiskManager>, bytes: usize) -> Self {
        Self::new(disk, (bytes / PAGE_SIZE).max(1))
    }

    /// Number of frames in the pool.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of page-table shards (1 for small pools).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard hit/miss counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| ShardStats {
                hits: shard.hits.get(),
                misses: shard.misses.get(),
            })
            .collect()
    }

    /// The pool's cold-run epoch; bumped by every [`BufferPool::clear`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Returns the pool's extension object of type `T`, installing
    /// `init()` on the first call for that type; repeated calls return
    /// the originally installed object. Any number of types coexist,
    /// so the lookup cannot fail.
    ///
    /// Lock-free: extensions live in a chain of `OnceLock`s, walked in
    /// order and grown by one link when every link holds another type,
    /// so this introduces no lock rank.
    pub fn extension_or_init<T, F>(&self, init: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce() -> Arc<T>,
    {
        let mut init = Some(init);
        let mut link = &self.ext;
        loop {
            let value = link.value.get_or_init(|| -> Arc<dyn Any + Send + Sync> {
                match init.take() {
                    Some(f) => f(),
                    // Unreachable: once `init` has run, its link holds
                    // an `Arc<T>`, the downcast below succeeds, and the
                    // walk returns before reaching another empty link.
                    // A unit value keeps this arm total without a panic
                    // path.
                    None => Arc::new(()),
                }
            });
            if let Ok(t) = value.clone().downcast::<T>() {
                return t;
            }
            link = link.next.get_or_init(Box::default);
        }
    }

    /// The pool's I/O counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// Allocates `n` contiguous pages on the underlying disk.
    pub fn allocate_pages(&self, n: u64) -> Result<PageId> {
        self.disk.allocate_contiguous(n)
    }

    /// The frame at `idx`; `pin_frame` only hands out indices below
    /// capacity, so the lookup failing means pool-state corruption.
    fn frame(&self, idx: usize) -> Result<&Frame> {
        self.frames
            .get(idx)
            .ok_or(StorageError::Corrupt("buffer frame index out of range"))
    }

    /// The shard owning `pid` (Fibonacci hash; the shard count is a
    /// power of two).
    fn shard_for(&self, pid: PageId) -> Result<&Shard> {
        let idx = fib_shard(pid.0, self.shards.len());
        self.shards
            .get(idx)
            .ok_or(StorageError::Corrupt("pool shard index out of range"))
    }

    /// Fetches page `pid` for reading.
    pub fn fetch(&self, pid: PageId) -> Result<PageRef<'_>> {
        let (idx, guard) = self.pin_latched(pid, false, |data| data.read())?;
        Ok(PageRef {
            pool: self,
            idx,
            guard,
        })
    }

    /// Fetches page `pid` for writing; the frame is marked dirty.
    pub fn fetch_mut(&self, pid: PageId) -> Result<PageMut<'_>> {
        let (idx, mut guard) = self.pin_latched(pid, false, |data| data.write())?;
        guard.dirty = true;
        Ok(PageMut {
            pool: self,
            idx,
            guard,
        })
    }

    /// Installs freshly allocated page `pid` with zeroed contents,
    /// skipping the physical read a normal fault would issue.
    ///
    /// Only call this for pages that have never been written; otherwise
    /// the old contents are silently discarded.
    pub fn create_page(&self, pid: PageId) -> Result<PageMut<'_>> {
        let (idx, mut guard) = self.pin_latched(pid, true, |data| data.write())?;
        guard.buf.fill(0);
        guard.dirty = true;
        Ok(PageMut {
            pool: self,
            idx,
            guard,
        })
    }

    /// The pin-and-latch step shared by [`BufferPool::fetch`],
    /// [`BufferPool::fetch_mut`] and [`BufferPool::create_page`]: pins
    /// the frame holding `pid` (faulting it in on a miss) and takes its
    /// latch with `latch`. The latch waits out any fault in flight on
    /// the frame; if that fault failed its read, the frame is empty and
    /// the pin runs again, so this caller faults the page itself and
    /// returns whatever that fault returns.
    fn pin_latched<'a, G>(
        &'a self,
        pid: PageId,
        fresh: bool,
        latch: impl Fn(&'a RwLock<FrameData>) -> G,
    ) -> Result<(usize, G)>
    where
        G: Deref<Target = FrameData>,
    {
        self.stats.logical_reads.inc();
        loop {
            let idx = self.pin_frame(pid, fresh)?;
            let guard = latch(&self.frame(idx)?.data);
            if guard.pid == Some(pid) {
                return Ok((idx, guard));
            }
            drop(guard);
            self.unpin(idx);
        }
    }

    /// Writes all dirty frames back to disk (does not evict). With a
    /// WAL attached, the whole batch is journaled and synced before the
    /// first data-page write, making the flush redoable as a unit.
    pub fn flush_all(&self) -> Result<()> {
        // Hold every shard lock (in shard order) so no frame is
        // concurrently remapped; in-flight faults hold their frame
        // latch, which the per-frame loop below waits out.
        let _shards: Vec<_> = self.shards.iter().map(|shard| shard.state.lock()).collect();
        if let Some(wal) = &self.wal {
            for frame in &self.frames {
                let fd = frame.data.read();
                if fd.dirty {
                    if let Some(pid) = fd.pid {
                        // lint:allow(lock-io): flushing is a latch-coupled batch by design; the shard locks must block remapping while the journal is written
                        wal.log_page(pid, &fd.buf)?;
                    }
                }
            }
            // lint:allow(lock-io): the journal sync belongs to the same latch-coupled flush batch as the log_page writes above
            wal.sync()?;
        }
        for frame in &self.frames {
            let mut fd = frame.data.write();
            if fd.dirty {
                if let Some(pid) = fd.pid {
                    // lint:allow(lock-io): dirty write-back under the frame latch is the pool's consistency protocol (no remap during flush)
                    self.disk.write_page(pid, &fd.buf)?;
                    self.stats.physical_writes.inc();
                }
                fd.dirty = false;
            }
        }
        Ok(())
    }

    /// Flushes and drops every cached page, returning the pool to a cold
    /// state. Mirrors the paper's "flush the buffer pool before each
    /// query" methodology. Fails, changing nothing, if any page is still
    /// pinned or latched. Bumps the pool [`epoch`](BufferPool::epoch) so
    /// decoded-chunk caches go cold too.
    pub fn clear(&self) -> Result<()> {
        // A pin seen now refuses the clear before it takes the shard
        // locks, which every fetch needs: a caller retrying clear in a
        // loop would otherwise hold fetches off for as long as its
        // attempts keep failing.
        if self
            .frames
            .iter()
            .any(|f| f.pin.load(Ordering::Acquire) != 0)
        {
            return Err(StorageError::PoolExhausted);
        }
        let mut guards: Vec<_> = self.shards.iter().map(|shard| shard.state.lock()).collect();
        // All or nothing: refusing after some frames were wiped would
        // leave their page-table entries pointing at empty frames. So
        // latch every frame before touching one — without blocking,
        // because a reader holding one latch may be waiting for a shard
        // lock held here.
        let mut latched = Vec::with_capacity(self.frames.len());
        for frame in &self.frames {
            match frame.data.try_write() {
                Some(fd) if frame.pin.load(Ordering::Acquire) == 0 => latched.push(fd),
                _ => return Err(StorageError::PoolExhausted),
            }
        }
        for fd in latched.iter().filter(|fd| fd.dirty) {
            if let Some(pid) = fd.pid {
                // lint:allow(lock-io): clear() holds every shard lock by design so no fault can remap a frame mid-write-back
                self.write_back(pid, &fd.buf, true)?;
            }
        }
        for (frame, fd) in self.frames.iter().zip(&mut latched) {
            fd.pid = None;
            fd.dirty = false;
            frame.referenced.store(false, Ordering::Release);
        }
        for state in guards.iter_mut() {
            state.table.clear();
            state.clock = 0;
        }
        self.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// True when no page of `[first, first + n)` is present in (or
    /// reserved by) the page table — i.e. none of the span's pages can
    /// be dirty in the pool, so a direct disk read of the span observes
    /// exactly what a per-page fault sequence would.
    pub fn span_absent(&self, first: PageId, n: u64) -> Result<bool> {
        for i in 0..n {
            let pid = first.offset(i);
            let shard = self.shard_for(pid)?;
            if shard.state.lock().table.contains_key(&pid) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Reads the `n`-page span starting at `first` straight from the
    /// disk manager into `out` (`n * PAGE_SIZE` bytes), bypassing the
    /// frame table — one vectored read instead of `n` pin/latch fault
    /// rounds. The pages are *not* installed in the pool; the caller
    /// caches the decoded form (the chunk cache) instead.
    ///
    /// Callers must gate this on [`BufferPool::span_absent`]: a page
    /// buffered in the pool may be dirty, and the bypass would read its
    /// stale on-disk image. The prefetch pipeline additionally treats
    /// any decode failure of bypass-read bytes as "retry through
    /// [`BufferPool::fetch`]", so a span racing an overwrite of the
    /// same object degrades to the slow path rather than an error.
    pub fn read_span_bypass(&self, first: PageId, n: u64, out: &mut [u8]) -> Result<()> {
        if out.len() != (n as usize).saturating_mul(PAGE_SIZE) {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "bypass span buffer size mismatch",
            )));
        }
        self.stats.logical_reads.add(n);
        self.disk.read_pages(first, out)?;
        self.stats.physical_read_span(first.0, n);
        Ok(())
    }

    /// Removes the reservation `pid → idx` if it is still in place —
    /// the cleanup for a fault whose read failed.
    fn drop_reservation(&self, shard: &Shard, pid: PageId, idx: usize) {
        let mut state = shard.state.lock();
        if state.table.get(&pid) == Some(&idx) {
            state.table.remove(&pid);
        }
    }

    /// Pins the frame holding `pid`, faulting it in if necessary.
    /// When `fresh` is true the page is installed zeroed with no read.
    ///
    /// A miss claims an unpinned victim under the shard lock and takes
    /// its latch. A dirty victim is written back under its latch alone,
    /// its old mapping still live so readers of the old page keep
    /// hitting it, and the sweep runs again. A clean victim is remapped
    /// before the shard lock is released; the read then runs under the
    /// frame latch only, so hits on other pages proceed.
    fn pin_frame(&self, pid: PageId, fresh: bool) -> Result<usize> {
        let shard = self.shard_for(pid)?;
        loop {
            let mut state = shard.state.lock();
            if let Some(&idx) = state.table.get(&pid) {
                shard.hits.inc();
                let frame = self.frame(idx)?;
                frame.pin.fetch_add(1, Ordering::AcqRel);
                frame.referenced.store(true, Ordering::Release);
                return Ok(idx);
            }

            let idx = self.find_victim(shard, &mut state)?;
            let frame = self.frame(idx)?;
            // The pin keeps other faulters off the frame; the latch keeps
            // its readers out until the remap or write-back is done.
            frame.pin.fetch_add(1, Ordering::AcqRel);
            let mut fd = frame.data.write();

            if let (true, Some(old)) = (fd.dirty, fd.pid) {
                // Sweep from this frame again once it is clean, so it is
                // still the one evicted unless it was used meanwhile.
                state.clock = idx - shard.base;
                drop(state);
                // lint:allow(lock-io): victim write-back must happen under the frame latch so readers of the old page see flushed bytes, never a torn frame
                let written = self.write_back(old, &fd.buf, true);
                if written.is_ok() {
                    fd.dirty = false;
                }
                drop(fd);
                frame.pin.fetch_sub(1, Ordering::AcqRel);
                written?;
                continue;
            }

            shard.misses.inc();
            if let Some(old) = fd.pid {
                state.table.remove(&old);
                self.stats.evictions.inc();
            }
            state.table.insert(pid, idx);
            frame.referenced.store(true, Ordering::Release);
            fd.pid = Some(pid);
            drop(state);

            if fresh {
                fd.buf.fill(0);
                return Ok(idx);
            }
            // lint:allow(lock-io): faulting the page in under its freshly claimed frame latch is the pool's remap protocol
            if let Err(e) = self.disk.read_page(pid, &mut fd.buf) {
                // Waiters find the frame empty and fault the page
                // themselves once the reservation is withdrawn.
                fd.pid = None;
                drop(fd);
                self.drop_reservation(shard, pid, idx);
                frame.pin.fetch_sub(1, Ordering::AcqRel);
                return Err(e);
            }
            self.stats.physical_read_span(pid.0, 1);
            return Ok(idx);
        }
    }

    /// Second-chance clock sweep over the shard's frame range; at most
    /// two full revolutions.
    fn find_victim(&self, shard: &Shard, state: &mut ShardState) -> Result<usize> {
        let n = shard.len;
        for _ in 0..2 * n {
            let off = state.clock;
            state.clock = (state.clock + 1) % n;
            let Some(frame) = self.frames.get(shard.base + off) else {
                continue;
            };
            if frame.pin.load(Ordering::Acquire) != 0 {
                continue;
            }
            if frame.referenced.swap(false, Ordering::AcqRel) {
                continue;
            }
            return Ok(shard.base + off);
        }
        Err(StorageError::PoolExhausted)
    }

    fn unpin(&self, idx: usize) {
        if let Some(frame) = self.frames.get(idx) {
            frame.pin.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Shared (read) guard over a pinned page.
pub struct PageRef<'a> {
    pool: &'a BufferPool,
    idx: usize,
    guard: RwLockReadGuard<'a, FrameData>,
}

impl Deref for PageRef<'_> {
    type Target = PageBuf;

    #[inline]
    fn deref(&self) -> &PageBuf {
        &self.guard.buf
    }
}

impl Drop for PageRef<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.idx);
    }
}

/// Exclusive (write) guard over a pinned, dirty page.
pub struct PageMut<'a> {
    pool: &'a BufferPool,
    idx: usize,
    guard: RwLockWriteGuard<'a, FrameData>,
}

impl Deref for PageMut<'_> {
    type Target = PageBuf;

    #[inline]
    fn deref(&self) -> &PageBuf {
        &self.guard.buf
    }
}

impl DerefMut for PageMut<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut PageBuf {
        &mut self.guard.buf
    }
}

impl Drop for PageMut<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Arc::new(MemDisk::new()), frames)
    }

    #[test]
    fn create_write_read_roundtrip() {
        let p = pool(4);
        let pid = p.allocate_pages(1).unwrap();
        {
            let mut page = p.create_page(pid).unwrap();
            page[0] = 0x11;
            page[100] = 0x22;
        }
        let page = p.fetch(pid).unwrap();
        assert_eq!(page[0], 0x11);
        assert_eq!(page[100], 0x22);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(2);
        let base = p.allocate_pages(4).unwrap();
        for i in 0..4 {
            let mut page = p.create_page(base.offset(i)).unwrap();
            page[0] = i as u8 + 1;
        }
        // Pool only holds 2 frames, so earlier pages were evicted and
        // written back; re-reading them must hit disk with correct data.
        for i in 0..4 {
            let page = p.fetch(base.offset(i)).unwrap();
            assert_eq!(page[0], i as u8 + 1, "page {i}");
        }
        let snap = p.stats().snapshot();
        assert!(snap.physical_writes >= 2, "{snap:?}");
        assert!(snap.physical_reads >= 2, "{snap:?}");
        assert!(snap.evictions >= 2, "{snap:?}");
    }

    #[test]
    fn hits_do_not_touch_disk() {
        let p = pool(4);
        let pid = p.allocate_pages(1).unwrap();
        drop(p.create_page(pid).unwrap());
        let before = p.stats().snapshot();
        for _ in 0..10 {
            let _ = p.fetch(pid).unwrap();
        }
        let delta = p.stats().snapshot().since(&before);
        assert_eq!(delta.logical_reads, 10);
        assert_eq!(delta.physical_reads, 0);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let p = pool(2);
        let base = p.allocate_pages(3).unwrap();
        for i in 0..3 {
            drop(p.create_page(base.offset(i)).unwrap());
        }
        let pinned = p.fetch(base).unwrap();
        // Fault another page through the single remaining frame.
        let _other = p.fetch(base.offset(2)).unwrap();
        assert_eq!(pinned[0], 0);
    }

    #[test]
    fn all_pinned_is_an_error_not_a_hang() {
        let p = pool(2);
        let base = p.allocate_pages(3).unwrap();
        for i in 0..3 {
            drop(p.create_page(base.offset(i)).unwrap());
        }
        let _a = p.fetch(base).unwrap();
        let _b = p.fetch(base.offset(1)).unwrap();
        assert!(matches!(
            p.fetch(base.offset(2)),
            Err(StorageError::PoolExhausted)
        ));
    }

    #[test]
    fn clear_simulates_cold_cache() {
        let p = pool(4);
        let pid = p.allocate_pages(1).unwrap();
        {
            let mut page = p.create_page(pid).unwrap();
            page[7] = 0x77;
        }
        p.clear().unwrap();
        let before = p.stats().snapshot();
        let page = p.fetch(pid).unwrap();
        assert_eq!(page[7], 0x77);
        let delta = p.stats().snapshot().since(&before);
        assert_eq!(delta.physical_reads, 1, "re-read must be physical");
    }

    #[test]
    fn clear_bumps_the_epoch() {
        let p = pool(4);
        let e0 = p.epoch();
        let pid = p.allocate_pages(1).unwrap();
        drop(p.create_page(pid).unwrap());
        p.clear().unwrap();
        assert_eq!(p.epoch(), e0 + 1);
        p.clear().unwrap();
        assert_eq!(p.epoch(), e0 + 2);
    }

    #[test]
    fn clear_fails_while_pinned() {
        let p = pool(2);
        let pid = p.allocate_pages(2).unwrap();
        for i in 0..2 {
            p.create_page(pid.offset(i)).unwrap()[0] = 0x40 + i as u8;
        }
        // Whichever frame the pinned page sits in, the other one is
        // either before it or after it; a refused clear must leave both
        // mapped and readable.
        for pinned in 0..2 {
            let guard = p.fetch(pid.offset(pinned)).unwrap();
            assert!(p.clear().is_err());
            drop(guard);
            for i in 0..2 {
                assert_eq!(p.fetch(pid.offset(i)).unwrap()[0], 0x40 + i as u8);
            }
        }
    }

    #[test]
    fn with_bytes_sizes_frames() {
        let p = BufferPool::with_bytes(Arc::new(MemDisk::new()), 16 << 20);
        assert_eq!(p.num_frames(), (16 << 20) / PAGE_SIZE);
    }

    #[test]
    fn small_pools_use_one_shard_big_pools_many() {
        assert_eq!(pool(2).num_shards(), 1);
        assert_eq!(pool(31).num_shards(), 1);
        assert_eq!(pool(32).num_shards(), 2);
        let paper = BufferPool::with_bytes(Arc::new(MemDisk::new()), 16 << 20);
        assert!(paper.num_shards() > 1, "paper-scale pool should shard");
        // Shard frame ranges tile the pool exactly.
        let frames: usize = paper.shards.iter().map(|s| s.len).sum();
        assert_eq!(frames, paper.num_frames());
    }

    #[test]
    fn shard_stats_count_hits_and_misses() {
        let p = pool(64); // multiple shards
        let base = p.allocate_pages(8).unwrap();
        for i in 0..8 {
            drop(p.create_page(base.offset(i)).unwrap());
        }
        for _ in 0..3 {
            for i in 0..8 {
                drop(p.fetch(base.offset(i)).unwrap());
            }
        }
        let stats = p.shard_stats();
        assert_eq!(stats.len(), p.num_shards());
        let hits: u64 = stats.iter().map(|s| s.hits).sum();
        let misses: u64 = stats.iter().map(|s| s.misses).sum();
        assert_eq!(hits, 24, "{stats:?}");
        assert_eq!(misses, 8, "create_page faults count as misses");
    }

    #[test]
    fn span_absent_tracks_the_page_table() {
        let p = pool(4);
        let base = p.allocate_pages(4).unwrap();
        assert!(p.span_absent(base, 4).unwrap(), "nothing cached yet");
        drop(p.create_page(base.offset(2)).unwrap());
        assert!(!p.span_absent(base, 4).unwrap(), "page 2 is buffered");
        assert!(p.span_absent(base, 2).unwrap(), "pages 0..2 still absent");
        p.clear().unwrap();
        assert!(p.span_absent(base, 4).unwrap(), "cleared pool is absent");
    }

    #[test]
    fn bypass_span_read_skips_the_frame_table() {
        let p = pool(4);
        let base = p.allocate_pages(3).unwrap();
        for i in 0..3 {
            let mut page = p.create_page(base.offset(i)).unwrap();
            page[0] = i as u8 + 10;
        }
        p.flush_all().unwrap();
        p.clear().unwrap();
        let before = p.stats().snapshot();
        let mut out = vec![0u8; 3 * PAGE_SIZE];
        p.read_span_bypass(base, 3, &mut out).unwrap();
        for i in 0..3usize {
            assert_eq!(out[i * PAGE_SIZE], i as u8 + 10, "page {i}");
        }
        let delta = p.stats().snapshot().since(&before);
        assert_eq!(delta.logical_reads, 3);
        assert_eq!(delta.physical_reads, 3);
        assert_eq!(delta.seq_physical_reads, 2, "span interior is sequential");
        // No frames were installed: the span still reads as absent.
        assert!(p.span_absent(base, 3).unwrap());
        // A mis-sized buffer is rejected before touching the disk.
        let mut short = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            p.read_span_bypass(base, 3, &mut short),
            Err(StorageError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidInput
        ));
    }

    #[test]
    fn extensions_install_once_per_type_and_never_fail() {
        let p = pool(2);
        let a = p.extension_or_init(|| Arc::new(7u64));
        let b = p.extension_or_init(|| Arc::new(9u64));
        assert_eq!((*a, *b), (7, 7), "first install wins");
        assert!(Arc::ptr_eq(&a, &b), "repeat lookups share one object");
        // More distinct types than any fixed table would hold: each
        // installs once beside the others, and a repeat lookup returns
        // the same object.
        let s = p.extension_or_init(|| Arc::new(String::from("x")));
        let u32s = p.extension_or_init(|| Arc::new(1u32));
        let u16s = p.extension_or_init(|| Arc::new(2u16));
        let u8s = p.extension_or_init(|| Arc::new(3u8));
        let i8s = p.extension_or_init(|| Arc::new(4i8));
        let v = p.extension_or_init(|| Arc::new(vec![5i64]));
        assert_eq!(
            (s.as_str(), *u32s, *u16s, *u8s, *i8s, v[0]),
            ("x", 1, 2, 3, 4, 5)
        );
        assert!(Arc::ptr_eq(
            &s,
            &p.extension_or_init(|| Arc::new(String::new()))
        ));
        assert!(Arc::ptr_eq(&u32s, &p.extension_or_init(|| Arc::new(0u32))));
        assert!(Arc::ptr_eq(&u16s, &p.extension_or_init(|| Arc::new(0u16))));
        assert!(Arc::ptr_eq(&u8s, &p.extension_or_init(|| Arc::new(0u8))));
        assert!(Arc::ptr_eq(&i8s, &p.extension_or_init(|| Arc::new(0i8))));
        assert!(Arc::ptr_eq(
            &v,
            &p.extension_or_init(|| Arc::new(Vec::new()))
        ));
        assert!(Arc::ptr_eq(&a, &p.extension_or_init(|| Arc::new(0u64))));
        // Racing first lookups of one type all get the one installed
        // object.
        let fresh = &pool(2);
        let got: Vec<Arc<i32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| scope.spawn(move || fresh.extension_or_init(move || Arc::new(i))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(got.iter().all(|g| Arc::ptr_eq(g, &got[0])));
    }

    #[test]
    fn flush_all_persists_without_evicting() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(disk.clone(), 4);
        let pid = p.allocate_pages(1).unwrap();
        {
            let mut page = p.create_page(pid).unwrap();
            page[0] = 5;
        }
        p.flush_all().unwrap();
        let mut raw = [0u8; PAGE_SIZE];
        disk.read_page(pid, &mut raw).unwrap();
        assert_eq!(raw[0], 5);
        // Still cached: fetch is a hit.
        let before = p.stats().snapshot();
        let _ = p.fetch(pid).unwrap();
        assert_eq!(p.stats().snapshot().since(&before).physical_reads, 0);
    }

    #[test]
    fn concurrent_readers_share_a_page() {
        let p = Arc::new(pool(4));
        let pid = p.allocate_pages(1).unwrap();
        {
            let mut page = p.create_page(pid).unwrap();
            page[0] = 42;
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let page = p.fetch(pid).unwrap();
                    assert_eq!(page[0], 42);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_mixed_traffic_is_consistent() {
        // Hammer a sharded pool with reads and writes across more pages
        // than frames, so faults, write-backs, and reservation handoffs
        // all race; every page must always read back its last value.
        let p = Arc::new(pool(48));
        let base = p.allocate_pages(96).unwrap();
        for i in 0..96 {
            let mut page = p.create_page(base.offset(i)).unwrap();
            page[0] = i as u8;
        }
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                let mut x = t.wrapping_mul(0x9E37_79B9);
                for round in 0..400u64 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let i = (x >> 33) % 96;
                    if (round + t) % 7 == 0 {
                        let mut page = p.fetch_mut(base.offset(i)).unwrap();
                        assert_eq!(page[0], i as u8, "thread {t} round {round}");
                        page[1] = page[1].wrapping_add(1);
                    } else {
                        let page = p.fetch(base.offset(i)).unwrap();
                        assert_eq!(page[0], i as u8, "thread {t} round {round}");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..96 {
            let page = p.fetch(base.offset(i)).unwrap();
            assert_eq!(page[0], i as u8);
        }
    }
}
