//! Parallel array consolidation — the paper's future work (§6):
//! "we believe that the large OLAP data set sizes require parallel
//! computing and we would like to investigate parallelization of OLAP
//! data structures and key OLAP operations".
//!
//! The array consolidation algorithm parallelizes naturally: chunks are
//! independent, the IndexToIndex mapping is read-only, and aggregation
//! into a *private* result cube per worker needs no synchronization —
//! cubes merge associatively at the end ([`crate::ResultCube::merge`]).
//! Workers share the buffer pool (frames are individually latched, the
//! page table is sharded) and the decoded-chunk cache, so this is
//! intra-operator parallelism on one store, not partitioned data.
//!
//! Selection queries (§4.2) parallelize the same way: the qualifying
//! chunks are enumerated once in chunk-number order, the list is split
//! into contiguous spans, and each worker runs the per-chunk
//! probe-or-scan evaluation over its span. The probe cursor's
//! monotonicity is per chunk, so chunk-granular partitioning preserves
//! it.

use molap_array::{shared_version_table, ChunkPipeline};

use crate::adt::OlapArray;
use crate::consolidate::{full_scan_consumer, make_cube, phase1, BuildResultBtrees};
use crate::error::{Error, Result};
use crate::kernel::QueryRemap;
use crate::query::Query;
use crate::result::{ConsolidationResult, ResultCube};
use crate::select::{build_probes, candidate_chunks, eval_chunk, selection_consumer, DimProbe};

/// Fewer qualifying chunks than this and [`consolidate_auto`] stays
/// sequential: thread spin-up would cost more than it saves.
const AUTO_MIN_CHUNKS_PER_WORKER: u64 = 4;

/// The §4.2 context a pipelined selection consumer needs: the
/// per-dimension probes plus the candidate chunks with their selected
/// within-chunk indices.
type SelectionPlan = (Vec<DimProbe>, Vec<(u64, Vec<usize>)>);

/// How the prefetch pipeline is staffed and bounded.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchPlan {
    /// Prefetcher (read + decode) threads feeding the consumers.
    pub prefetchers: usize,
    /// Delivery-queue bound: decoded chunks held ahead of consumption.
    pub depth: usize,
    /// Deliver diff-seq chunks as validated raw bytes so consumers can
    /// stream (offset, measures) batches straight into the kernels
    /// instead of materializing a `Chunk` first. On by default; other
    /// formats always materialize. Turn off to benchmark the
    /// materialize-then-scan path on the same data.
    pub streaming: bool,
}

impl PrefetchPlan {
    /// A plan clamped to sane minimums.
    pub fn new(prefetchers: usize, depth: usize) -> Self {
        PrefetchPlan {
            prefetchers: prefetchers.max(1),
            depth: depth.max(1),
            streaming: true,
        }
    }

    /// The depth/staffing [`consolidate_auto`] picks for a job of
    /// `num_chunks` candidate chunks: two prefetchers (one faulting
    /// while one decodes) and a window deep enough to keep consumers
    /// fed without holding more than a small fraction of the array's
    /// decoded chunks in flight.
    pub fn auto(num_chunks: u64) -> Self {
        PrefetchPlan::new(2, (num_chunks / 4).clamp(4, 16) as usize)
    }

    /// Same plan with streaming delivery switched on or off.
    pub fn with_streaming(mut self, streaming: bool) -> Self {
        self.streaming = streaming;
        self
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
/// sequential paths for any worker/prefetcher count.
pub fn consolidate_pipelined(
    adt: &OlapArray,
    query: &Query,
    workers: usize,
    plan: PrefetchPlan,
) -> Result<ConsolidationResult> {
    consolidate_pipelined_cube(adt, query, workers, plan)?.into_result(&query.aggs)
}

/// [`consolidate_pipelined`] stopping at the positional result cube —
/// the form the result-cube cache stores.
pub(crate) fn consolidate_pipelined_cube(
    adt: &OlapArray,
    query: &Query,
    workers: usize,
    plan: PrefetchPlan,
) -> Result<ResultCube> {
    query.validate(adt.dims(), adt.n_measures())?;
    let workers = workers.max(1);
    let (maps, _result_btrees) = phase1(adt, query, BuildResultBtrees::No)?;
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
    let pipe = ChunkPipeline::new(adt.array(), chunk_nos, plan.depth, snap, plan.streaming)?;
    let mut total = make_cube(&maps, adt.n_measures());
    let remap = QueryRemap::new(shape, &maps, &total);
    let consume = |cube: &mut ResultCube| {
        let drained = match &selection {
            Some((probes, candidates)) => {
                selection_consumer(adt, &maps, &remap, probes, candidates, &pipe, cube)
            }
            None => full_scan_consumer(adt, &remap, &pipe, cube),
        };
        if drained.is_err() {
            pipe.shutdown();
        }
        drained
    };
    // The calling thread is the first consumer and aggregates straight
    // into `total`, so a one-worker scan over resident chunks spawns
    // nothing at all.
    let peers = crossbeam::thread::scope(|scope| {
        for _ in 0..plan.prefetchers.min(pipe.misses()) {
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
    Ok(total)
}

/// Like [`OlapArray::consolidate`], but evaluating chunks with
/// `threads` workers. Supports both the §4.1 (no selections) and §4.2
/// (with selections) algorithms; results are identical to the
/// sequential paths for any thread count.
pub fn consolidate_parallel(
    adt: &OlapArray,
    query: &Query,
    threads: usize,
) -> Result<ConsolidationResult> {
    query.validate(adt.dims(), adt.n_measures())?;
    let threads = threads.max(1);
    let (maps, _result_btrees) = phase1(adt, query, BuildResultBtrees::No)?;

    let cubes = if query.has_selection() {
        let (probes, any_empty) = build_probes(adt, query)?;
        if any_empty {
            Vec::new()
        } else {
            let candidates = candidate_chunks(adt.array().shape(), &probes);
            scan_selected_chunks(adt, &maps, &probes, &candidates, threads)?
        }
    } else {
        scan_all_chunks(adt, &maps, threads)?
    };

    let mut iter = cubes.into_iter();
    let mut total = iter
        .next()
        .unwrap_or_else(|| make_cube(&maps, adt.n_measures()));
    for cube in iter {
        total.merge(&cube)?;
    }
    total.into_result(&query.aggs)
}

/// Chooses a worker count and a prefetch plan from the machine's
/// parallelism and the size of the job, then dispatches: the engine's
/// default consolidation entry point. Answers come from the pool's
/// result-cube cache when possible — an exact cached cube, or a finer
/// one coarsened by pure in-memory re-aggregation (see
/// [`crate::rescache`]); both are bit-identical to computing directly.
/// On a true miss, small arrays run the plain sequential algorithms
/// (pipeline spin-up would cost more than it saves); everything else
/// goes through [`consolidate_pipelined`] — even with a single
/// consumer the pipeline's vectored bypass reads and per-chunk kernels
/// beat the inline read/decode/aggregate loop.
pub fn consolidate_auto(adt: &OlapArray, query: &Query) -> Result<ConsolidationResult> {
    query.validate(adt.dims(), adt.n_measures())?;
    crate::rescache::consolidate_cached(adt, query, || consolidate_cube_auto(adt, query))
}

/// The compute path behind [`consolidate_auto`]: pick sequential or
/// pipelined by job size and stop at the positional cube.
fn consolidate_cube_auto(adt: &OlapArray, query: &Query) -> Result<ResultCube> {
    let num_chunks = adt.array().shape().num_chunks();
    if num_chunks < 2 * AUTO_MIN_CHUNKS_PER_WORKER {
        let (_maps, cube) = if query.has_selection() {
            crate::select::consolidate_with_selection_cube_opt(adt, query, BuildResultBtrees::No)?
        } else {
            crate::consolidate::consolidate_full_cube(adt, query, BuildResultBtrees::No)?
        };
        return Ok(cube);
    }
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let workers = cpus.min(num_chunks / AUTO_MIN_CHUNKS_PER_WORKER).max(1);
    consolidate_pipelined_cube(adt, query, workers as usize, PrefetchPlan::auto(num_chunks))
}

/// §4.1 phase 2 with `threads` workers: contiguous chunk spans per
/// worker (chunk order = disk order, so each worker reads sequentially
/// within its span), private cubes.
fn scan_all_chunks(
    adt: &OlapArray,
    maps: &[crate::consolidate::GroupMap],
    threads: usize,
) -> Result<Vec<ResultCube>> {
    let num_chunks = adt.array().shape().num_chunks();
    let span = num_chunks.div_ceil(threads as u64).max(1);
    run_workers(threads, |w| {
        let lo = w as u64 * span;
        let hi = ((w as u64 + 1) * span).min(num_chunks);
        if lo >= hi {
            return None;
        }
        Some(move || -> Result<ResultCube> {
            let mut cube = make_cube(maps, adt.n_measures());
            let shape = adt.array().shape();
            let mut coords = vec![0u32; shape.n_dims()];
            let mut ranks = vec![0u32; maps.len()];
            for chunk_no in lo..hi {
                let chunk = adt.array().read_chunk(chunk_no)?;
                chunk.for_each_valid(|offset, values| {
                    shape.decode(chunk_no, offset, &mut coords);
                    for (g, map) in maps.iter().enumerate() {
                        ranks[g] = map.i2i[coords[map.dim] as usize];
                    }
                    cube.add(&ranks, values);
                });
            }
            Ok(cube)
        })
    })
}

/// §4.2 step 2 with `threads` workers: the qualifying-chunk list is
/// split into contiguous spans (preserving its ascending chunk-number
/// order within each worker), private cubes.
fn scan_selected_chunks(
    adt: &OlapArray,
    maps: &[crate::consolidate::GroupMap],
    probes: &[DimProbe],
    candidates: &[(u64, Vec<usize>)],
    threads: usize,
) -> Result<Vec<ResultCube>> {
    let span = candidates.len().div_ceil(threads).max(1);
    run_workers(threads, |w| {
        let lo = w * span;
        let hi = ((w + 1) * span).min(candidates.len());
        if lo >= hi {
            return None;
        }
        Some(move || -> Result<ResultCube> {
            let mut cube = make_cube(maps, adt.n_measures());
            let mut ranks = vec![0u32; maps.len()];
            for (chunk_no, chunk_sel) in &candidates[lo..hi] {
                let chunk = adt.array().read_chunk(*chunk_no)?;
                eval_chunk(adt, &chunk, probes, chunk_sel, maps, &mut ranks, &mut cube);
            }
            Ok(cube)
        })
    })
}

/// Spawns up to `threads` scoped workers (the factory may decline a
/// slot by returning `None`) and collects their cubes.
fn run_workers<'e, F, W>(threads: usize, mut make_worker: F) -> Result<Vec<ResultCube>>
where
    F: FnMut(usize) -> Option<W>,
    W: FnOnce() -> Result<ResultCube> + Send + 'e,
{
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..threads {
            let Some(work) = make_worker(w) else {
                break;
            };
            handles.push(scope.spawn(move |_| work()));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(Error::Internal("consolidation worker panicked".into()))
                })
            })
            .collect::<Result<Vec<_>>>()
    })
    .map_err(|_| Error::Internal("parallel consolidation scope panicked".into()))?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::DimensionTable;
    use crate::query::{AttrRef, DimGrouping, Selection};
    use molap_array::ChunkFormat;
    use molap_storage::{BufferPool, MemDisk};
    use std::sync::Arc;

    fn build(cells: usize) -> OlapArray {
        build_fmt(cells, ChunkFormat::ChunkOffset)
    }

    fn build_fmt(cells: usize, format: ChunkFormat) -> OlapArray {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 4096));
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
        OlapArray::build(pool, dims, &[7, 6], format, all, 1).unwrap()
    }

    #[test]
    fn parallel_equals_sequential_for_all_thread_counts() {
        let adt = build(300);
        for group_by in [
            vec![DimGrouping::Level(0), DimGrouping::Level(0)],
            vec![DimGrouping::Key, DimGrouping::Drop],
            vec![DimGrouping::Drop, DimGrouping::Drop],
        ] {
            let q = Query::new(group_by);
            let sequential = adt.consolidate(&q).unwrap();
            for threads in [1, 2, 3, 8, 64] {
                let parallel = consolidate_parallel(&adt, &q, threads).unwrap();
                assert_eq!(parallel, sequential, "{threads} threads, {q:?}");
            }
        }
    }

    #[test]
    fn more_workers_than_chunks_is_fine() {
        let adt = build(10);
        let q = Query::new(vec![DimGrouping::Drop, DimGrouping::Drop]);
        let res = consolidate_parallel(&adt, &q, 1000).unwrap();
        assert_eq!(res, adt.consolidate(&q).unwrap());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let adt = build(50);
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
        assert_eq!(
            consolidate_parallel(&adt, &q, 0).unwrap(),
            adt.consolidate(&q).unwrap()
        );
    }

    #[test]
    fn parallel_selection_equals_sequential_for_all_thread_counts() {
        let adt = build(300);
        let selections: Vec<Vec<(usize, Selection)>> = vec![
            // One-dimension attribute selection.
            vec![(0, Selection::eq(AttrRef::Level(0), 1))],
            // Conjunction across both dimensions.
            vec![
                (0, Selection::in_list(AttrRef::Level(0), vec![0, 2])),
                (1, Selection::in_list(AttrRef::Level(0), vec![1, 3])),
            ],
            // Narrow key probes.
            vec![
                (0, Selection::in_list(AttrRef::Key, vec![3, 17, 29])),
                (1, Selection::eq(AttrRef::Key, 5)),
            ],
            // Empty result.
            vec![(0, Selection::eq(AttrRef::Level(0), 99))],
        ];
        for sels in selections {
            for group_by in [
                vec![DimGrouping::Level(0), DimGrouping::Level(0)],
                vec![DimGrouping::Key, DimGrouping::Drop],
                vec![DimGrouping::Drop, DimGrouping::Drop],
            ] {
                let mut q = Query::new(group_by);
                for (d, sel) in &sels {
                    q = q.with_selection(*d, sel.clone());
                }
                let sequential = adt.consolidate(&q).unwrap();
                for threads in [1, 2, 3, 8, 64] {
                    let parallel = consolidate_parallel(&adt, &q, threads).unwrap();
                    assert_eq!(parallel, sequential, "{threads} threads, {q:?}");
                }
            }
        }
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
                (1, PrefetchPlan::new(1, 1)),
                (1, PrefetchPlan::new(2, 4)),
                (3, PrefetchPlan::new(2, 2)),
                (4, PrefetchPlan::new(3, 16)),
            ] {
                let piped = consolidate_pipelined(&adt, q, workers, plan).unwrap();
                assert_eq!(piped, sequential, "{workers} workers, {plan:?}, {q:?}");
            }
        }
    }

    #[test]
    fn diffseq_streaming_matches_sequential_oracle() {
        // The tentpole acceptance oracle: on a DiffSeq array, pipelined
        // streaming consolidation (no chunk materialization on the scan
        // path) must be bit-identical to the sequential `consolidate`,
        // across all five aggregates, both §4.2 directions, and the
        // materialize-then-scan pipeline as a third witness.
        use crate::aggregate::AggFunc;
        let adt = build_fmt(300, ChunkFormat::DiffSeq);
        let queries = vec![
            // Full scans (streaming full_scan_consumer).
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]),
            Query::new(vec![DimGrouping::Key, DimGrouping::Drop]),
            Query::new(vec![DimGrouping::Drop, DimGrouping::Drop]),
            // Broad selection: scan direction, masked streaming kernel.
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)])
                .with_selection(0, Selection::in_list(AttrRef::Level(0), vec![0, 2])),
            // Narrow key probes: probe direction materializes.
            Query::new(vec![DimGrouping::Key, DimGrouping::Drop])
                .with_selection(0, Selection::in_list(AttrRef::Key, vec![3, 17, 29]))
                .with_selection(1, Selection::eq(AttrRef::Key, 5)),
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
                    adt.pool().clear().unwrap();
                    let materialized =
                        consolidate_pipelined(&adt, &q, workers, plan.with_streaming(false))
                            .unwrap();
                    assert_eq!(materialized, sequential, "materialize {workers}w {q:?}");
                }
            }
        }
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
        for format in [
            ChunkFormat::ChunkOffset,
            ChunkFormat::DenseLzw,
            ChunkFormat::DiffSeq,
        ] {
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
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let adt = build(50);
        let q = Query::new(vec![DimGrouping::Drop]); // wrong arity
        assert!(consolidate_parallel(&adt, &q, 2).is_err());
    }
}
