//! Asynchronous chunk prefetch/decode pipeline.
//!
//! The candidate chunk list of a scan (full, or a §4.2 selection) is
//! known up front and in chunk order — which is disk order. Candidates
//! that already have a decoded image are resolved when the pipeline is
//! built ([`ChunkedArray::resident_chunk_at`]) and never leave the
//! consumers' threads; a warm scan needs no producer at all. The misses
//! go to producers that run ahead of the consumers: each claims the
//! next miss and loads it with [`ChunkedArray::read_chunk_stream_at`]
//! (multi-page spans bypass the buffer pool via one vectored read; the
//! chunk is decoded and published through the shared
//! [`ChunkCache`](crate::ChunkCache), or, for DiffSeq, validated and
//! left encoded), then hands it over through a bounded ring. When every
//! miss fits the ring a producer can never park, so the owner may run
//! [`ChunkPipeline::run_worker`] on its own thread before it consumes
//! instead of spawning one.
//!
//! Delivery is strictly in candidate order regardless of which producer
//! finishes first, so consumers see exactly the sequential scan order
//! and results are bit-identical to the unpipelined paths. The ring has
//! `depth` slots (miss `k` lands in slot `k % depth`): producers park
//! when they are `depth` misses ahead of delivery, which caps
//! produced-chunk memory at `depth × chunk size`, and are woken when
//! the window is half drained, not per chunk.
//!
//! Lock discipline: the `delivery` mutex ranks between `catalog` and
//! `chunks` (DESIGN.md §8). Producers drop it across the read+decode and
//! nothing else is ever acquired while it is held.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::array::{ChunkPayload, ChunkedArray, PrefetchScratch};
use crate::chunk::CompressedChunk;
use crate::version::ChunkSnapshot;
use crate::Result;

#[derive(Default)]
struct QueueState {
    /// Next entry of `misses` a producer will claim.
    next_issue: usize,
    /// Next candidate index a consumer will receive.
    next_deliver: usize,
    /// Misses delivered so far: the next missing candidate is
    /// `misses[delivered]`, its payload due in slot `delivered % depth`.
    delivered: usize,
    /// Produced (or failed) payloads awaiting in-order delivery, and
    /// how many slots they occupy.
    ring: Vec<Option<Result<ChunkPayload>>>,
    queued: usize,
    /// Threads parked on `space` / on `avail`: a condvar notify is a
    /// system call, so neither is signalled with nobody there.
    parked_producers: usize,
    parked_consumers: usize,
    /// Set by [`ChunkPipeline::shutdown`]; producers and consumers exit.
    cancelled: bool,
}

/// A bounded, in-order chunk delivery queue shared by a set of producer
/// (prefetcher) threads and consumer (aggregation) threads.
///
/// The owner spawns up to [`ChunkPipeline::misses`] producers that loop
/// on [`ChunkPipeline::run_worker`] and consumers that loop on
/// [`ChunkPipeline::next_payload`]. When a consumer receives an `Err`
/// it must call [`ChunkPipeline::shutdown`] and stop; producers keep
/// publishing (errors included) until cancelled, so delivery always
/// progresses and nobody parks forever.
pub struct ChunkPipeline<'a> {
    array: &'a ChunkedArray,
    /// Candidate chunk numbers, in chunk (= disk) order.
    candidates: Vec<u64>,
    /// Per candidate, the decoded image it had when the pipeline was
    /// built; `None` marks a miss, listed (by candidate index) in
    /// `misses`.
    resident: Vec<Option<Arc<CompressedChunk>>>,
    misses: Vec<usize>,
    depth: usize,
    /// When set, every read resolves through it, so the whole scan
    /// observes one commit generation even while a writer publishes.
    snapshot: Option<ChunkSnapshot>,
    delivery: Mutex<QueueState>,
    /// Signalled when the next chunk in order is published (consumers
    /// wait here).
    avail: Condvar,
    /// Signalled when the window is half drained (producers wait here).
    space: Condvar,
}

impl<'a> ChunkPipeline<'a> {
    /// Creates a pipeline over `candidates` (chunk numbers of `array`,
    /// in chunk order) holding at most `depth` produced chunks.
    ///
    /// Resident candidates are resolved here, on the calling thread,
    /// and scheduled for delivery as they are: each counts as
    /// `prefetch_issued` now and `prefetch_hits` when a consumer
    /// receives it, like a produced chunk, so `hits + wasted == issued`
    /// keeps holding.
    pub fn new(
        array: &'a ChunkedArray,
        candidates: Vec<u64>,
        depth: usize,
        snapshot: Option<ChunkSnapshot>,
    ) -> Result<Self> {
        let depth = depth.max(1);
        let resident = candidates
            .iter()
            .map(|&chunk_no| array.resident_chunk_at(chunk_no, snapshot.as_ref()))
            .collect::<Result<Vec<_>>>()?;
        let misses: Vec<usize> = (0..resident.len())
            .filter(|&i| resident[i].is_none())
            .collect();
        for _ in misses.len()..resident.len() {
            array.pool().stats().prefetch_issued.inc();
        }
        let ring = (0..depth).map(|_| None).collect();
        Ok(ChunkPipeline {
            array,
            candidates,
            resident,
            misses,
            depth,
            snapshot,
            delivery: Mutex::new(QueueState {
                ring,
                ..QueueState::default()
            }),
            avail: Condvar::new(),
            space: Condvar::new(),
        })
    }

    /// Candidates that need a producer; more producers than this would
    /// find nothing to claim.
    pub fn misses(&self) -> usize {
        self.misses.len()
    }

    /// Produced chunks currently queued (test/diagnostic).
    pub fn queued(&self) -> usize {
        self.delivery.lock().queued
    }

    /// Producer loop: claims misses in candidate order, reads + decodes
    /// them, and publishes the results. Returns when every miss is
    /// claimed or the pipeline is cancelled. Run one call per
    /// prefetcher thread.
    pub fn run_worker(&self) {
        let stats = self.array.pool().stats();
        let mut scratch = PrefetchScratch::default();
        loop {
            let k = {
                let mut q = self.delivery.lock();
                loop {
                    if q.cancelled || q.next_issue >= self.misses.len() {
                        return;
                    }
                    if q.next_issue - q.delivered < self.depth {
                        break;
                    }
                    q.parked_producers += 1;
                    self.space.wait(&mut q);
                    q.parked_producers -= 1;
                }
                q.next_issue += 1;
                q.next_issue - 1
            };
            stats.prefetch_issued.inc();
            // Read + decode/validate outside the delivery lock.
            let chunk_no = self.candidates[self.misses[k]];
            let snap = self.snapshot.as_ref();
            let result = self
                .array
                .read_chunk_stream_at(chunk_no, &mut scratch, snap);
            let mut q = self.delivery.lock();
            if q.cancelled {
                stats.prefetch_wasted.inc();
                return;
            }
            q.ring[k % self.depth] = Some(result);
            q.queued += 1;
            stats.prefetch_queue_peak.raise_to(q.queued as u64);
            // Consumers only ever wait for the head of the line.
            if k == q.delivered && q.parked_consumers > 0 {
                self.avail.notify_all();
            }
        }
    }

    /// Consumer side: blocks for the next payload **in candidate
    /// order** and returns it with its chunk number. Returns `None`
    /// when every candidate has been delivered or the pipeline was
    /// cancelled. On `Some(Err(_))` the caller must
    /// [`ChunkPipeline::shutdown`] and propagate the error.
    pub fn next_payload(&self) -> Option<Result<(u64, ChunkPayload)>> {
        let mut q = self.delivery.lock();
        let (index, result) = loop {
            if q.cancelled || q.next_deliver >= self.candidates.len() {
                return None;
            }
            let index = q.next_deliver;
            if let Some(chunk) = &self.resident[index] {
                break (index, Ok(ChunkPayload::Chunk(chunk.clone())));
            }
            let slot = q.delivered % self.depth;
            if let Some(result) = q.ring[slot].take() {
                q.delivered += 1;
                q.queued -= 1;
                // Low watermark: parked producers sleep until half the
                // window is free, then refill it in one burst.
                if q.parked_producers > 0 && q.next_issue - q.delivered <= self.depth / 2 {
                    self.space.notify_all();
                }
                break (index, result);
            }
            q.parked_consumers += 1;
            self.avail.wait(&mut q);
            q.parked_consumers -= 1;
        };
        q.next_deliver += 1;
        drop(q);
        if result.is_ok() {
            self.array.pool().stats().prefetch_hits.inc();
        }
        Some(result.map(|payload| (self.candidates[index], payload)))
    }

    /// Cancels the pipeline: producers stop claiming work, consumers
    /// drain to `None`, and undelivered chunks — produced or resolved —
    /// are counted as `prefetch_wasted`. Idempotent; call it on the
    /// error path *and* after a successful drain (where it only wakes
    /// parked producers) before joining the producer threads.
    pub fn shutdown(&self) {
        let wasted = {
            let mut q = self.delivery.lock();
            if q.cancelled {
                return;
            }
            q.cancelled = true;
            q.ring.fill_with(|| None);
            let undelivered = self.resident.get(q.next_deliver..).unwrap_or(&[]);
            std::mem::take(&mut q.queued) + undelivered.iter().flatten().count()
        };
        if wasted > 0 {
            self.array.pool().stats().prefetch_wasted.add(wasted as u64);
        }
        self.avail.notify_all();
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayBuilder, ChunkFormat, Shape};
    use molap_storage::{BufferPool, DiskManager, MemDisk, PageBuf, PageId, StorageError};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A `MemDisk` whose reads fail while `armed`.
    #[derive(Default)]
    struct FailingDisk {
        inner: MemDisk,
        armed: AtomicBool,
    }

    impl DiskManager for FailingDisk {
        fn read_page(&self, pid: PageId, buf: &mut PageBuf) -> molap_storage::Result<()> {
            if self.armed.load(Ordering::Relaxed) {
                let fault = std::io::Error::other("injected read fault");
                return Err(StorageError::Io(fault));
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

    fn sample_array(pool: &Arc<BufferPool>, format: ChunkFormat) -> ChunkedArray {
        let shape = Shape::new(vec![16, 16], vec![4, 4]).unwrap();
        let mut b = ArrayBuilder::new(shape, 1, format);
        for x in 0..16u32 {
            for y in 0..16u32 {
                if (x + y) % 3 == 0 {
                    b.add(&[x, y], &[(x * 16 + y) as i64]).unwrap();
                }
            }
        }
        b.build(pool.clone()).unwrap()
    }

    /// Drains `pipe` on the calling thread, checking every delivered
    /// chunk against a direct read; returns the chunk numbers seen.
    fn drain(pipe: &ChunkPipeline, a: &ChunkedArray) -> Vec<u64> {
        let mut seen = Vec::new();
        while let Some(item) = pipe.next_payload() {
            let (chunk_no, payload) = item.unwrap();
            let chunk = payload.into_chunk(u32::MAX).unwrap();
            let expect = a.read_chunk(chunk_no).unwrap();
            assert_eq!(chunk.len(), expect.len());
            seen.push(chunk_no);
        }
        seen
    }

    #[test]
    fn delivers_in_candidate_order_with_many_workers() {
        for format in ChunkFormat::ALL {
            let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
            let a = sample_array(&pool, format);
            let candidates: Vec<u64> = (0..a.shape().num_chunks()).collect();
            let n = candidates.len();
            let depth = 3;
            pool.clear().unwrap();
            let before = pool.stats().snapshot();
            let pipe = ChunkPipeline::new(&a, candidates.clone(), depth, None).unwrap();
            assert_eq!(pipe.misses(), n, "a cleared pool leaves nothing resident");
            let seen = std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| pipe.run_worker());
                }
                let seen = drain(&pipe, &a);
                pipe.shutdown();
                seen
            });
            assert_eq!(seen, candidates, "in-order delivery violated");
            let d = pool.stats().snapshot().since(&before);
            assert_eq!(d.prefetch_issued, n as u64);
            assert_eq!(d.prefetch_hits, n as u64);
            assert_eq!(d.prefetch_wasted, 0);
            assert!(
                d.prefetch_queue_peak >= 1 && d.prefetch_queue_peak <= depth as u64,
                "queue peak {} outside 1..={depth}",
                d.prefetch_queue_peak
            );
        }
    }

    #[test]
    fn resident_chunks_are_delivered_without_a_producer() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
        let a = sample_array(&pool, ChunkFormat::ChunkOffset);
        let candidates: Vec<u64> = (0..a.shape().num_chunks()).collect();
        for &chunk_no in &candidates {
            a.read_chunk(chunk_no).unwrap();
        }
        let before = pool.stats().snapshot();
        let pipe = ChunkPipeline::new(&a, candidates.clone(), 2, None).unwrap();
        assert_eq!(pipe.misses(), 0);
        // No producer exists, so any hand-off would hang right here.
        assert_eq!(drain(&pipe, &a), candidates);
        pipe.shutdown();
        let d = pool.stats().snapshot().since(&before);
        assert_eq!(d.prefetch_issued, candidates.len() as u64);
        assert_eq!(d.prefetch_hits, candidates.len() as u64);
        assert_eq!((d.prefetch_wasted, d.prefetch_queue_peak), (0, 0));
    }

    #[test]
    fn cancellation_counts_undelivered_chunks_as_wasted() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
        let a = sample_array(&pool, ChunkFormat::ChunkOffset);
        let candidates: Vec<u64> = (0..a.shape().num_chunks()).collect();
        // The last two chunks are resident: cancelled before delivery,
        // they are wasted like any produced chunk.
        for &chunk_no in &candidates[candidates.len() - 2..] {
            a.read_chunk(chunk_no).unwrap();
        }
        let before = pool.stats().snapshot();
        let depth = 2;
        let pipe = ChunkPipeline::new(&a, candidates, depth, None).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| pipe.run_worker());
            // Take one chunk, then let the producer refill the window.
            assert!(pipe.next_payload().unwrap().is_ok());
            for _ in 0..1000 {
                if pipe.queued() == depth {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(pipe.queued(), depth, "producer never filled the window");
            pipe.shutdown();
            assert!(
                pipe.next_payload().is_none(),
                "cancelled pipeline must drain to None"
            );
        });
        let s = pool.stats().snapshot().since(&before);
        assert_eq!(s.prefetch_hits, 1);
        // The two queued and the two resident chunks are wasted; one
        // more may have been claimed (issued) right as the window
        // opened and wasted on its cancelled publish.
        assert!(
            s.prefetch_wasted >= depth as u64 + 2,
            "wasted {} < {}",
            s.prefetch_wasted,
            depth + 2
        );
        assert_eq!(s.prefetch_issued, s.prefetch_hits + s.prefetch_wasted);
    }

    #[test]
    fn empty_candidate_list_is_a_no_op() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
        let a = sample_array(&pool, ChunkFormat::ChunkOffset);
        let pipe = ChunkPipeline::new(&a, Vec::new(), 4, None).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| pipe.run_worker());
            assert!(pipe.next_payload().is_none());
            pipe.shutdown();
        });
        assert_eq!(pool.stats().snapshot().prefetch_issued, 0);
    }

    #[test]
    fn backpressure_never_exceeds_depth_one() {
        // At depth 1 the low watermark is 0: producers are woken only
        // once the single slot is drained, and the bound still holds.
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
        let a = sample_array(&pool, ChunkFormat::ChunkOffset);
        let candidates: Vec<u64> = (0..a.shape().num_chunks()).collect();
        pool.clear().unwrap();
        let pipe = ChunkPipeline::new(&a, candidates, 1, None).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| pipe.run_worker());
            s.spawn(|| pipe.run_worker());
            while let Some(item) = pipe.next_payload() {
                item.unwrap();
                assert!(pipe.queued() <= 1);
            }
            pipe.shutdown();
        });
        assert_eq!(pool.stats().snapshot().prefetch_queue_peak, 1);
    }

    #[test]
    fn every_small_staffing_drains_without_hanging() {
        // Liveness of the watermark wake-ups and the slot ring: depth
        // 1–3 × 1–3 producers × 1–3 consumers, cold and with every
        // other chunk resident. A lost wake-up shows as the timeout.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
            let a = sample_array(&pool, ChunkFormat::ChunkOffset);
            let candidates: Vec<u64> = (0..a.shape().num_chunks()).collect();
            for (depth, producers, consumers, half_resident) in (1..=3usize)
                .flat_map(|d| (1..=3usize).map(move |p| (d, p)))
                .flat_map(|(d, p)| (1..=3usize).map(move |c| (d, p, c)))
                .flat_map(|(d, p, c)| [false, true].map(|h| (d, p, c, h)))
            {
                pool.clear().unwrap();
                if half_resident {
                    for &chunk_no in candidates.iter().step_by(2) {
                        a.read_chunk(chunk_no).unwrap();
                    }
                }
                let pipe = ChunkPipeline::new(&a, candidates.clone(), depth, None).unwrap();
                let mut seen: Vec<u64> = std::thread::scope(|s| {
                    for _ in 0..producers {
                        s.spawn(|| pipe.run_worker());
                    }
                    let handles: Vec<_> = (0..consumers)
                        .map(|_| s.spawn(|| drain(&pipe, &a)))
                        .collect();
                    let seen = handles
                        .into_iter()
                        .flat_map(|h| h.join().unwrap())
                        .collect();
                    pipe.shutdown();
                    seen
                });
                seen.sort_unstable();
                assert_eq!(
                    seen, candidates,
                    "depth {depth}, {producers}p/{consumers}c, half resident {half_resident}"
                );
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a pipeline staffing hung or failed");
    }

    #[test]
    fn a_producer_error_reaches_a_consumer_at_every_small_depth() {
        // At depth 1–3 with 1–3 producers a failed read is published in
        // its slot like any payload, wakes the waiting consumer, and
        // the cancelled pipeline lets every producer return. A lost
        // wake-up shows as the timeout.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let disk = Arc::new(FailingDisk::default());
            let pool = Arc::new(BufferPool::new(disk.clone(), 256));
            let a = sample_array(&pool, ChunkFormat::ChunkOffset);
            let candidates: Vec<u64> = (0..a.shape().num_chunks()).collect();
            for (depth, producers) in (1..=3).flat_map(|d| (1..=3).map(move |p| (d, p))) {
                pool.clear().unwrap();
                let pipe = ChunkPipeline::new(&a, candidates.clone(), depth, None).unwrap();
                disk.armed.store(true, Ordering::Relaxed);
                let failed = std::thread::scope(|s| {
                    for _ in 0..producers {
                        s.spawn(|| pipe.run_worker());
                    }
                    let mut delivered = std::iter::from_fn(|| pipe.next_payload());
                    let failed = delivered.any(|item| item.is_err());
                    pipe.shutdown();
                    failed
                });
                disk.armed.store(false, Ordering::Relaxed);
                assert!(
                    failed,
                    "depth {depth}, {producers} producers: no error delivered"
                );
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the failing pipeline hung or panicked");
    }
}
