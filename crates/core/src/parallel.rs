//! The chunk-pipeline executor: every consolidation the engine runs
//! outside the §4.1/§4.2 reference ([`OlapArray::consolidate`]).
//!
//! The paper's future work (§6) asks for "parallelization of OLAP data
//! structures and key OLAP operations". The array consolidation
//! algorithm parallelizes naturally: chunks are independent, the
//! IndexToIndex mapping is read-only, and aggregation into a *private*
//! result cube per worker needs no synchronization — cubes merge
//! associatively at the end ([`crate::ResultCube::merge`]). Workers
//! share the buffer pool (frames are individually latched, the page
//! table is sharded) and the decoded-chunk cache, so this is
//! intra-operator parallelism on one store, not partitioned data.
//!
//! One scan path serves §4.1 and §4.2: the qualifying chunks are
//! enumerated once in chunk-number (= disk) order, a [`ChunkPipeline`]
//! pinned to one [`molap_array::ChunkSnapshot`] delivers them in that
//! order, and each consumer folds a delivered chunk through its
//! [`ChunkKernel`](crate::kernel::ChunkKernel) or, for a selection
//! narrower than the chunk's valid cells, the §4.2 resumed probe. A
//! full scan is the selection with no membership mask, which always
//! takes the scan direction.

use molap_array::diffseq::DiffSeqCursor;
use molap_array::{shared_version_table, ChunkPayload, ChunkPipeline};

use crate::adt::OlapArray;
use crate::consolidate::{make_cube, phase1, GroupMap};
use crate::error::{Error, Result};
use crate::kernel::QueryRemap;
use crate::query::Query;
use crate::result::{ConsolidationResult, ResultCube};
use crate::select::{build_probes, candidate_chunks, chunk_membership, probe_chunk, DimProbe};

/// [`consolidate_auto`] gives each consumer at least this many chunks:
/// below that, thread spin-up would cost more than it saves.
const AUTO_MIN_CHUNKS_PER_WORKER: u64 = 4;

/// The §4.2 context a pipeline consumer needs: the per-dimension probes
/// plus the candidate chunks with their selected within-chunk indices.
type SelectionPlan = (Vec<DimProbe>, Vec<(u64, Vec<usize>)>);

/// How the prefetch pipeline is staffed and bounded.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchPlan {
    /// Prefetcher (read + decode) threads feeding the consumers.
    pub prefetchers: usize,
    /// Delivery-queue bound: decoded chunks held ahead of consumption.
    pub depth: usize,
}

impl PrefetchPlan {
    /// A plan clamped to sane minimums.
    pub fn new(prefetchers: usize, depth: usize) -> Self {
        PrefetchPlan {
            prefetchers: prefetchers.max(1),
            depth: depth.max(1),
        }
    }

    /// The depth/staffing [`consolidate_auto`] picks for a job of
    /// `num_chunks` candidate chunks: two prefetchers (one faulting
    /// while one decodes) and a window deep enough to keep consumers
    /// fed without holding more than a small fraction of the array's
    /// decoded chunks in flight. The floor of eight lets an array too
    /// small for a second consumer be loaded by the calling thread even
    /// when it is all cold.
    pub fn auto(num_chunks: u64) -> Self {
        PrefetchPlan::new(2, (num_chunks / 4).clamp(8, 16) as usize)
    }
}

/// Like [`OlapArray::consolidate`], but with the chunk read+decode work
/// moved off the consumers onto a prefetch pipeline: chunks that are
/// already decoded stay on the consumers' threads, and up to
/// `plan.prefetchers` producer threads fault the rest (multi-page
/// chunks via one vectored bypass read), decode, and publish through
/// the shared chunk cache and a bounded in-order delivery ring;
/// `workers` consumers — the caller is the first — drain both and
/// aggregate with chunk kernels. Results are bit-identical to the
/// reference for any worker/prefetcher count.
pub fn consolidate_pipelined(
    adt: &OlapArray,
    query: &Query,
    workers: usize,
    plan: PrefetchPlan,
) -> Result<ConsolidationResult> {
    let (_, cube) = consolidate_pipelined_cube(adt, query, workers, plan)?;
    cube.into_result(&query.aggs)
}

/// [`consolidate_pipelined`] stopping at the positional result cube —
/// the form the result-cube cache stores — beside the phase-1 group
/// maps it was aggregated through, which materialization builds its
/// result dimensions from.
pub(crate) fn consolidate_pipelined_cube(
    adt: &OlapArray,
    query: &Query,
    workers: usize,
    plan: PrefetchPlan,
) -> Result<(Vec<GroupMap>, ResultCube)> {
    query.validate(adt.dims(), adt.n_measures())?;
    let workers = workers.max(1);
    let maps = phase1(adt, query)?;
    let shape = adt.array().shape();

    // Candidate chunk list, in chunk (= disk) order. `selection` is
    // `None` for the §4.1 full scan (and for a provably-empty §4.2
    // selection, whose candidate list is empty).
    let (chunk_nos, selection): (Vec<u64>, Option<SelectionPlan>) = if query.has_selection() {
        let (probes, any_empty) = build_probes(adt, query)?;
        if any_empty {
            (Vec::new(), None)
        } else {
            let candidates = candidate_chunks(shape, &probes);
            let nos = candidates.iter().map(|c| c.0).collect();
            (nos, Some((probes, candidates)))
        }
    } else {
        ((0..shape.num_chunks()).collect(), None)
    };

    // Pin a chunk snapshot so a write batch committing mid-scan cannot
    // hand later chunks a newer array state than earlier ones saw: the
    // pipeline resolves every chunk against the version table as of
    // this generation, reading pinned pre-images where a writer has
    // since overwritten bytes in place.
    let snap = shared_version_table(adt.pool()).map(|vt| vt.begin_snapshot());
    // Building the pipeline resolves every candidate that already has a
    // decoded image, right here on the calling thread; only the misses
    // are left for producers.
    let pipe = ChunkPipeline::new(adt.array(), chunk_nos, plan.depth, snap)?;
    let mut total = make_cube(&maps, adt.n_measures());
    let remap = QueryRemap::new(shape, &maps, &total);
    let consume = |cube: &mut ResultCube| {
        let drained = consume_pipeline(adt, &maps, &remap, selection.as_ref(), &pipe, cube);
        if drained.is_err() {
            pipe.shutdown();
        }
        drained
    };
    // Misses that all fit the ring cannot park their producer, so the
    // calling thread loads them itself before it consumes — `depth` is
    // the most a thread that is also a consumer can produce — and
    // producers are spawned only above that. The calling thread is also
    // the first consumer and aggregates straight into `total`, so a
    // one-worker scan that is small or mostly resident spawns nothing
    // at all (measured against always spawning: EXPERIMENTS.md,
    // "Producing on the calling thread").
    let inline = pipe.misses() <= plan.depth;
    let producers = if inline {
        0
    } else {
        plan.prefetchers.min(pipe.misses())
    };
    let peers = crossbeam::thread::scope(|scope| {
        for _ in 0..producers {
            scope.spawn(|_| pipe.run_worker());
        }
        let peers: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(|_| {
                    let mut cube = make_cube(&maps, adt.n_measures());
                    consume(&mut cube).map(|()| cube)
                })
            })
            .collect();
        if inline {
            pipe.run_worker();
        }
        let own = consume(&mut total);
        let cubes = peers
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(Error::Internal("pipeline consumer panicked".into())))
            })
            .collect::<Result<Vec<_>>>();
        // Wake any parked prefetchers (error path, or producers waiting
        // on delivery-queue space) so the scope can join them.
        pipe.shutdown();
        own.and(cubes)
    })
    .map_err(|_| Error::Internal("pipeline scope panicked".into()))??;

    for cube in &peers {
        total.merge(cube)?;
    }
    Ok((maps, total))
}

/// One pipeline consumer: drains `pipe` (shared with any number of
/// peers) and evaluates each delivered chunk into `cube`. Under a
/// `selection` the chunk goes in the adaptive §4.2 direction — when its
/// cross-product outnumbers its valid cells, through the kernel with
/// the membership masks folded into its tables, otherwise through the
/// resumed binary probe; with none, every chunk is scanned unmasked. A
/// delivered error is returned as it is; the caller shuts the pipeline
/// down.
fn consume_pipeline(
    adt: &OlapArray,
    maps: &[GroupMap],
    remap: &QueryRemap<'_>,
    selection: Option<&SelectionPlan>,
    pipe: &ChunkPipeline<'_>,
    cube: &mut ResultCube,
) -> Result<()> {
    let shape = adt.array().shape();
    let limit = shape.chunk_cells() as u32;
    let mut ranks = vec![0u32; maps.len()];
    while let Some(item) = pipe.next_payload() {
        let (chunk_no, payload) = item?;
        // Candidates ascend in chunk number (odometer order), so the
        // delivered chunk's selection cursor is a binary search away.
        let chunk_sel = match selection {
            None => None,
            Some((probes, candidates)) => {
                let found = candidates.binary_search_by_key(&chunk_no, |c| c.0);
                let Some((_, sel)) = found.ok().and_then(|i| candidates.get(i)) else {
                    return Err(Error::Internal(
                        "pipelined chunk missing from candidates".into(),
                    ));
                };
                Some((probes, sel))
            }
        };
        let cross: u64 = chunk_sel.map_or(u64::MAX, |(probes, sel)| {
            (0..probes.len())
                .map(|d| probes[d].groups[sel[d]].indices.len() as u64)
                .product()
        });
        let kernel = || match chunk_sel {
            Some((probes, sel)) => {
                remap.kernel(chunk_no, Some(&chunk_membership(shape, probes, sel)))
            }
            None => remap.kernel(chunk_no, None),
        };
        // Scan direction streams when it can; probe direction needs
        // random access by offset — one of the paths that genuinely
        // wants a decoded chunk.
        let chunk = match payload {
            ChunkPayload::Chunk(chunk) => chunk,
            ChunkPayload::DiffSeq(bytes) => {
                let cursor = DiffSeqCursor::new(&bytes, limit)?;
                if cross > cursor.len() as u64 {
                    if !cursor.is_empty() {
                        kernel().apply_stream(cursor, cube)?;
                    }
                    continue;
                }
                ChunkPayload::DiffSeq(bytes).into_chunk(limit)?
            }
        };
        if chunk.is_empty() {
            continue;
        }
        match chunk_sel {
            Some((probes, sel)) if cross <= chunk.len() as u64 => {
                probe_chunk(adt, &chunk, probes, sel, maps, &mut ranks, cube);
            }
            _ => kernel().apply(&chunk, cube),
        }
    }
    Ok(())
}

/// Chooses a worker count and a prefetch plan from the machine's
/// parallelism and the size of the job, then runs the pipeline: the
/// engine's default consolidation entry point. Answers come from the
/// pool's result-cube cache when possible — an exact cached cube, or a
/// finer one coarsened by pure in-memory re-aggregation (see
/// [`crate::rescache`]); both are bit-identical to computing directly.
/// A true miss goes through [`consolidate_pipelined`] whatever the
/// array's size, so every scan reads under one chunk snapshot.
pub fn consolidate_auto(adt: &OlapArray, query: &Query) -> Result<ConsolidationResult> {
    query.validate(adt.dims(), adt.n_measures())?;
    crate::rescache::consolidate_cached(adt, query, || {
        consolidate_cube_auto(adt, query).map(|(_, cube)| cube)
    })
}

/// The compute path behind [`consolidate_auto`], [`crate::compute_cube`]
/// and [`OlapArray::consolidate_to_array`]: the pipeline at the staffing
/// the job's size and the machine suggest, stopping at the positional
/// cube and its group maps.
pub(crate) fn consolidate_cube_auto(
    adt: &OlapArray,
    query: &Query,
) -> Result<(Vec<GroupMap>, ResultCube)> {
    let num_chunks = adt.array().shape().num_chunks();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let workers = cpus.min(num_chunks / AUTO_MIN_CHUNKS_PER_WORKER).max(1);
    consolidate_pipelined_cube(adt, query, workers as usize, PrefetchPlan::auto(num_chunks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::DimensionTable;
    use crate::query::{AttrRef, DimGrouping, Selection};
    use molap_array::ChunkFormat;
    use molap_storage::{BufferPool, DiskManager, MemDisk, PageBuf, PageId};
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread::ThreadId;

    fn build(cells: usize) -> OlapArray {
        build_fmt(cells, ChunkFormat::ChunkOffset)
    }

    fn build_fmt(cells: usize, format: ChunkFormat) -> OlapArray {
        build_chunked(cells, format, &[7, 6])
    }

    fn build_chunked(cells: usize, format: ChunkFormat, chunk_dims: &[u32]) -> OlapArray {
        build_on(Arc::new(MemDisk::new()), cells, format, chunk_dims)
    }

    fn build_on(
        disk: Arc<dyn DiskManager>,
        cells: usize,
        format: ChunkFormat,
        chunk_dims: &[u32],
    ) -> OlapArray {
        let pool = Arc::new(BufferPool::new(disk, 4096));
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
        let all: Vec<(Vec<i64>, Vec<i64>)> = (0..30i64)
            .flat_map(|x| (0..20i64).map(move |y| (vec![x, y], vec![x * 31 + y])))
            .filter(|(k, _)| (k[0] * 13 + k[1] * 7) % 3 != 0)
            .take(cells)
            .collect();
        OlapArray::build(pool, dims, chunk_dims, format, all, 1).unwrap()
    }

    #[test]
    fn pipelined_equals_sequential_for_mixed_queries() {
        let adt = build(300);
        let queries = vec![
            // Full scans.
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]),
            Query::new(vec![DimGrouping::Key, DimGrouping::Drop]),
            Query::new(vec![DimGrouping::Drop, DimGrouping::Drop]),
            // Broad selection (scan direction) over a grouped query.
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)])
                .with_selection(0, Selection::in_list(AttrRef::Level(0), vec![0, 2])),
            // Narrow key probes (probe direction).
            Query::new(vec![DimGrouping::Key, DimGrouping::Drop])
                .with_selection(0, Selection::in_list(AttrRef::Key, vec![3, 17, 29]))
                .with_selection(1, Selection::eq(AttrRef::Key, 5)),
            // Empty selection.
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop])
                .with_selection(0, Selection::eq(AttrRef::Level(0), 99)),
        ];
        for q in &queries {
            let sequential = adt.consolidate(q).unwrap();
            for (workers, plan) in [
                // Zero workers clamp to one.
                (0, PrefetchPlan::new(1, 1)),
                (1, PrefetchPlan::new(1, 1)),
                (1, PrefetchPlan::new(2, 4)),
                (3, PrefetchPlan::new(2, 2)),
                (4, PrefetchPlan::new(3, 16)),
                // More workers than the array has chunks.
                (64, PrefetchPlan::new(2, 4)),
            ] {
                adt.pool().clear().unwrap();
                let piped = consolidate_pipelined(&adt, q, workers, plan).unwrap();
                assert_eq!(piped, sequential, "{workers} workers, {plan:?}, {q:?}");
            }
        }
        // Invalid queries are rejected up front.
        let wrong_arity = Query::new(vec![DimGrouping::Drop]);
        assert!(consolidate_pipelined(&adt, &wrong_arity, 2, PrefetchPlan::new(2, 4)).is_err());
    }

    #[test]
    fn diffseq_streaming_matches_sequential_oracle() {
        // On a DiffSeq array, pipelined streaming consolidation (no
        // chunk materialization on the scan path) must be bit-identical
        // to the sequential `consolidate`, across all five aggregates
        // and both §4.2 directions.
        use crate::aggregate::AggFunc;
        let adt = build_fmt(300, ChunkFormat::DiffSeq);
        // Narrow key probes: probe direction, which needs a decoded
        // chunk whichever way the loader delivered it.
        let probe_direction = Query::new(vec![DimGrouping::Key, DimGrouping::Drop])
            .with_selection(0, Selection::in_list(AttrRef::Key, vec![3, 17, 29]))
            .with_selection(1, Selection::eq(AttrRef::Key, 5));
        let queries = vec![
            // Full scans (streamed, unmasked).
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]),
            Query::new(vec![DimGrouping::Key, DimGrouping::Drop]),
            Query::new(vec![DimGrouping::Drop, DimGrouping::Drop]),
            // Broad selection: scan direction, masked streaming kernel.
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)])
                .with_selection(0, Selection::in_list(AttrRef::Level(0), vec![0, 2])),
            probe_direction.clone(),
            // Empty selection.
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop])
                .with_selection(0, Selection::eq(AttrRef::Level(0), 99)),
        ];
        for base in &queries {
            for agg in [
                AggFunc::Sum,
                AggFunc::Count,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ] {
                let q = base.clone().with_aggs(vec![agg]);
                let sequential = adt.consolidate(&q).unwrap();
                for (workers, plan) in [
                    (1, PrefetchPlan::new(1, 1)),
                    (2, PrefetchPlan::new(2, 4)),
                    (4, PrefetchPlan::new(3, 16)),
                ] {
                    adt.pool().clear().unwrap(); // cold: force the byte path
                    let streamed = consolidate_pipelined(&adt, &q, workers, plan).unwrap();
                    assert_eq!(streamed, sequential, "streaming {workers}w {plan:?} {q:?}");
                }
            }
        }

        // The probe direction through both of the loader's entry
        // points. Cold, the pipeline's delivers encoded bytes that the
        // consumer decodes for itself, so nothing reaches the chunk
        // cache; after pooled reads (which decode and publish) the same
        // chunks resolve from it.
        let pool = adt.pool().clone();
        let expect = adt.consolidate(&probe_direction).unwrap();
        let run = || consolidate_pipelined(&adt, &probe_direction, 2, PrefetchPlan::new(2, 4));
        pool.clear().unwrap();
        let before = pool.stats().snapshot();
        assert_eq!(run().unwrap(), expect);
        let d = pool.stats().snapshot().since(&before);
        assert!(d.prefetch_issued > 0);
        assert_eq!((d.chunk_cache_misses, d.chunk_cache_hits), (0, 0));
        for chunk_no in 0..adt.array().shape().num_chunks() {
            adt.array().read_chunk(chunk_no).unwrap();
        }
        let before = pool.stats().snapshot();
        assert_eq!(run().unwrap(), expect);
        let d = pool.stats().snapshot().since(&before);
        // (An empty candidate chunk never touches the cache.)
        assert_eq!(d.chunk_cache_misses, 0);
        assert!(d.chunk_cache_hits > 0 && d.chunk_cache_hits <= d.prefetch_issued);
    }

    #[test]
    fn mixed_residency_matches_oracle() {
        // Every other chunk resident, the rest cold: resolved chunks
        // and produced chunks interleave in one delivery order, at any
        // staffing, on every codec and in both §4.2 directions — and
        // each candidate is issued once and delivered once.
        let full = Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]);
        let scan_direction = full
            .clone()
            .with_selection(0, Selection::in_list(AttrRef::Level(0), vec![0, 2]));
        let probe_direction = Query::new(vec![DimGrouping::Key, DimGrouping::Drop])
            .with_selection(0, Selection::in_list(AttrRef::Key, vec![3, 17, 29]))
            .with_selection(1, Selection::in_list(AttrRef::Key, vec![5, 11]));
        for format in ChunkFormat::ALL {
            let adt = build_fmt(300, format);
            let pool = adt.pool().clone();
            let shape = adt.array().shape();
            for q in [&full, &scan_direction, &probe_direction] {
                let sequential = adt.consolidate(q).unwrap();
                let candidates = if q.has_selection() {
                    candidate_chunks(shape, &build_probes(&adt, q).unwrap().0).len() as u64
                } else {
                    shape.num_chunks()
                };
                for workers in [1, 2, 4] {
                    pool.clear().unwrap();
                    for chunk_no in (0..shape.num_chunks()).step_by(2) {
                        adt.array().read_chunk(chunk_no).unwrap();
                    }
                    let before = pool.stats().snapshot();
                    let piped = consolidate_pipelined(&adt, q, workers, PrefetchPlan::new(2, 3));
                    assert_eq!(piped.unwrap(), sequential, "{format:?} {workers}w {q:?}");
                    let d = pool.stats().snapshot().since(&before);
                    assert_eq!(d.prefetch_issued, candidates, "{format:?} {workers}w {q:?}");
                    assert_eq!(d.prefetch_hits + d.prefetch_wasted, d.prefetch_issued);
                    assert!(d.chunk_cache_hits > 0, "some candidate was resident");
                }
            }
        }
    }

    /// A disk that remembers which threads read from it.
    #[derive(Default)]
    struct ReaderThreads {
        inner: MemDisk,
        readers: parking_lot::Mutex<HashSet<ThreadId>>,
    }

    impl DiskManager for ReaderThreads {
        fn read_page(&self, pid: PageId, buf: &mut PageBuf) -> molap_storage::Result<()> {
            self.readers.lock().insert(std::thread::current().id());
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

    #[test]
    fn misses_that_fit_the_ring_are_loaded_on_the_calling_thread() {
        // The staffing rule: a cold scan whose misses all fit the ring
        // reads every byte on the calling thread; one miss more and
        // the reads move to spawned producers.
        let disk = Arc::new(ReaderThreads::default());
        let adt = build_on(disk.clone(), 300, ChunkFormat::ChunkOffset, &[15, 10]);
        let num_chunks = adt.array().shape().num_chunks() as usize;
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        let expect = adt.consolidate(&q).unwrap();
        let me = std::thread::current().id();
        for (depth, on_caller) in [(num_chunks, true), (num_chunks - 1, false)] {
            adt.pool().clear().unwrap();
            disk.readers.lock().clear();
            let plan = PrefetchPlan::new(2, depth);
            assert_eq!(consolidate_pipelined(&adt, &q, 1, plan).unwrap(), expect);
            let elsewhere = disk.readers.lock().iter().filter(|t| **t != me).count();
            assert_eq!(elsewhere == 0, on_caller, "depth {depth} of {num_chunks}");
        }
        // `consolidate_auto` sizes the ring so that an array too small
        // for a second consumer always qualifies.
        assert!(PrefetchPlan::auto(1).depth as u64 >= 2 * AUTO_MIN_CHUNKS_PER_WORKER);
    }

    #[test]
    fn pipelined_cold_runs_match_and_count_prefetches() {
        let adt = build(300);
        let pool = adt.pool().clone();
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]);
        let sequential = adt.consolidate(&q).unwrap();
        pool.clear().unwrap();
        let before = pool.stats().snapshot();
        let piped = consolidate_pipelined(&adt, &q, 2, PrefetchPlan::new(2, 4)).unwrap();
        assert_eq!(piped, sequential);
        let d = pool.stats().snapshot().since(&before);
        let num_chunks = adt.array().shape().num_chunks();
        assert_eq!(d.prefetch_issued, num_chunks);
        assert_eq!(d.prefetch_hits + d.prefetch_wasted, d.prefetch_issued);
        assert!(d.prefetch_queue_peak >= 1);
    }

    #[test]
    fn auto_matches_sequential() {
        let adt = build(300);
        let plain = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        let selected = Query::new(vec![DimGrouping::Key, DimGrouping::Drop])
            .with_selection(1, Selection::in_list(AttrRef::Level(0), vec![0, 2]));
        for q in [plain, selected] {
            let first = consolidate_auto(&adt, &q).unwrap();
            assert_eq!(first, adt.consolidate(&q).unwrap(), "{q:?}");
            // The repeat answers from the result-cube cache,
            // bit-identically.
            let before = adt.pool().stats().snapshot();
            assert_eq!(consolidate_auto(&adt, &q).unwrap(), first, "{q:?}");
            let d = adt.pool().stats().snapshot().since(&before);
            assert_eq!(d.result_cache_hits, 1, "{q:?}");
        }
        // Invalid queries are rejected up front.
        assert!(consolidate_auto(&adt, &Query::new(vec![DimGrouping::Drop])).is_err());

        // An array under eight chunks takes the same snapshot-pinned
        // pipeline: a cold scan schedules every chunk through it.
        let small = build_chunked(300, ChunkFormat::ChunkOffset, &[15, 10]);
        let num_chunks = small.array().shape().num_chunks();
        assert!(num_chunks < 8);
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        let expect = small.consolidate(&q).unwrap();
        small.pool().clear().unwrap();
        let before = small.pool().stats().snapshot();
        assert_eq!(consolidate_auto(&small, &q).unwrap(), expect);
        let d = small.pool().stats().snapshot().since(&before);
        assert_eq!(d.prefetch_issued, num_chunks);
    }
}
