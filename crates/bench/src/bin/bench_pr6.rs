//! PR 6 acceptance bench: the durable write subsystem under a reader
//! herd — sustained batched writes/sec and the reader throughput the
//! delta-maintained result cache retains, against the invalidate-all
//! baseline it replaces.
//!
//! Three modes over the same dataset (fresh database per mode, so every
//! mode sees identical starting state and an identical write schedule):
//!
//! * `read_only` — 16 readers loop cached consolidations, no writer.
//!   The PR 5 ceiling: what reader throughput looks like undisturbed.
//! * `delta_writes` — the same herd while a writer commits durable
//!   `WriteBatch`es back-to-back (`CubeMaintenance::Delta`, the
//!   default): cached cubes are patched in place and readers keep
//!   hitting.
//! * `invalidate_all_writes` — identical writes through
//!   `CubeMaintenance::InvalidateAll`: every commit cools the whole
//!   result cache and the herd recomputes.
//!
//! Readers and the writer free-run concurrently for a fixed window; the
//! writer keeps committing until the last reader finishes, so every
//! read in the write modes races live commits. After each mode
//! quiesces, every query's cached answer is asserted bit-identical to a
//! scratch recomputation on a fresh handle.
//!
//! ```text
//! bench_pr6 [--smoke] [--out <path>]
//!
//! --smoke    shrink the dataset ~30x and the measurement window (CI);
//!            prints the speedup without enforcing the bar
//! --out      output path (default BENCH_PR6.json in the CWD)
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use molap_array::ChunkFormat;
use molap_bench::{PAPER_CHUNK_DIMS, PAPER_POOL_BYTES};
use molap_core::{
    apply_batch_with, consolidate_auto, CubeMaintenance, Database, DimGrouping, OlapArray, Query,
    WriteBatch,
};
use molap_datagen::{generate, CubeSpec};

/// Acceptance bar: with the writer running, delta maintenance must keep
/// the reader herd at least this many times faster than the
/// invalidate-all baseline.
const BAR_DELTA_VS_INVALIDATE: f64 = 3.0;

const READERS: usize = 16;
const BATCH_CELLS: usize = 8;

struct ModeResult {
    mode: &'static str,
    wall_ms: f64,
    reads: u64,
    reader_qps: f64,
    avg_read_ms: f64,
    hit_rate: f64,
    write_batches: u64,
    write_cells: u64,
    writes_per_sec: f64,
    avg_commit_ms: f64,
    cache_patched: u64,
    cache_fallbacks: u64,
    cache_invalidations: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_PR6.json".into());

    // The paper's Data Set 1 geometry, chunk-offset format (the main
    // format of the paper's evaluation and of BENCH_PR5's headline).
    let mut spec = CubeSpec::dataset1(100);
    if smoke {
        spec.valid_cells = 200_000;
    }
    let window = if smoke {
        Duration::from_millis(1_200)
    } else {
        Duration::from_millis(5_000)
    };

    // Four distinct query shapes, assigned to readers round-robin, so
    // the result cache holds several cubes a write must maintain. All
    // of them recompute with a full scan, so the invalidate-all
    // baseline pays dearly for every commit.
    let queries = [
        Query::new(vec![
            DimGrouping::Level(0),
            DimGrouping::Level(0),
            DimGrouping::Drop,
            DimGrouping::Drop,
        ]),
        Query::new(vec![
            DimGrouping::Level(1),
            DimGrouping::Level(1),
            DimGrouping::Drop,
            DimGrouping::Drop,
        ]),
        Query::new(vec![
            DimGrouping::Level(0),
            DimGrouping::Drop,
            DimGrouping::Drop,
            DimGrouping::Drop,
        ]),
        Query::new(vec![
            DimGrouping::Drop,
            DimGrouping::Level(1),
            DimGrouping::Level(0),
            DimGrouping::Drop,
        ]),
    ];

    println!(
        "dataset 40x40x40x{}, {} valid cells; {READERS} readers + 1 writer, \
         {:.1}s window, {BATCH_CELLS}-cell batches",
        spec.dim_sizes[3],
        spec.valid_cells,
        window.as_secs_f64()
    );

    let modes: [(&'static str, Option<CubeMaintenance>); 3] = [
        ("read_only", None),
        ("delta_writes", Some(CubeMaintenance::Delta)),
        (
            "invalidate_all_writes",
            Some(CubeMaintenance::InvalidateAll),
        ),
    ];
    let mut results = Vec::new();
    for (name, maintenance) in modes {
        let r = run_mode(name, maintenance, &spec, &queries, window);
        println!(
            "  {:>22}: {:8.1} reads/s ({:.3} ms/read, hit rate {:.3}), \
             {:6.1} writes/s ({:.2} ms/commit), {} patched / {} fallbacks / {} invalidated",
            r.mode,
            r.reader_qps,
            r.avg_read_ms,
            r.hit_rate,
            r.writes_per_sec,
            r.avg_commit_ms,
            r.cache_patched,
            r.cache_fallbacks,
            r.cache_invalidations
        );
        results.push(r);
    }

    let point = |mode: &str| {
        results
            .iter()
            .find(|r| r.mode == mode)
            .expect("measured mode")
    };
    let delta = point("delta_writes");
    let invalidate = point("invalidate_all_writes");
    let read_only = point("read_only");
    let herd_speedup = delta.reader_qps / invalidate.reader_qps;
    let retained = delta.reader_qps / read_only.reader_qps;
    println!(
        "headline: delta-maintained herd {herd_speedup:.1}x invalidate-all \
         (bar {BAR_DELTA_VS_INVALIDATE:.0}x), {:.0}% of read-only throughput retained \
         at {:.1} sustained writes/s",
        retained * 100.0,
        delta.writes_per_sec
    );

    let json = to_json(&spec, window, &results, herd_speedup, retained);
    std::fs::write(&out, json).expect("write BENCH_PR6.json");
    println!("wrote {out}");

    // A smoke run's short window on a small host is too noisy to hold
    // a timing bar: it prints the ratio above and keeps every
    // correctness assertion; only the full run enforces the bar.
    if !smoke && herd_speedup < BAR_DELTA_VS_INVALIDATE {
        eprintln!(
            "bench_pr6: FAIL — delta-maintained herd is {herd_speedup:.1}x the invalidate-all \
             baseline, below the {BAR_DELTA_VS_INVALIDATE:.0}x bar"
        );
        std::process::exit(1);
    }
}

fn run_mode(
    mode: &'static str,
    maintenance: Option<CubeMaintenance>,
    spec: &CubeSpec,
    queries: &[Query],
    window: Duration,
) -> ModeResult {
    use std::sync::atomic::AtomicU64;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "molap-bench-pr6-{}-{}.db",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let cube = generate(spec).expect("generate cube");
    let db = Database::create(&path, PAPER_POOL_BYTES).expect("create db");
    let mut adt = OlapArray::build(
        db.pool().clone(),
        cube.dims.clone(),
        &PAPER_CHUNK_DIMS,
        ChunkFormat::ChunkOffset,
        cube.cells.iter().cloned(),
        spec.n_measures,
    )
    .expect("build OLAP array");
    db.save_olap_array("sales", &adt).expect("save array");
    db.checkpoint().expect("checkpoint");

    // Warm the cache: every mode starts with all cubes resident, so
    // `read_only` measures the PR 5 hit path and the write modes
    // measure what each maintenance policy does to that warmth.
    for q in queries {
        consolidate_auto(&adt, q).expect("warm cache");
    }

    let pool = adt.pool().clone();
    let before = pool.stats().snapshot();
    let barrier = Barrier::new(READERS + 1);
    let live_readers = AtomicUsize::new(READERS);
    let mut commit_ms = 0.0f64;
    let mut batches = 0u64;
    let (wall_ms, reads, read_ms) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let q = &queries[r % queries.len()];
                let barrier = &barrier;
                let db = &db;
                let live_readers = &live_readers;
                scope.spawn(move || {
                    let handle = db.open_olap_array("sales").expect("reader handle");
                    barrier.wait(); // setup sync
                    let start = Instant::now();
                    let mut reads = 0u64;
                    let mut lat_ms = 0.0f64;
                    loop {
                        let t = Instant::now();
                        consolidate_auto(&handle, q).expect("herd read");
                        lat_ms += t.elapsed().as_secs_f64() * 1e3;
                        reads += 1;
                        if start.elapsed() >= window {
                            break;
                        }
                    }
                    live_readers.fetch_sub(1, Ordering::SeqCst);
                    (reads, lat_ms)
                })
            })
            .collect();
        barrier.wait(); // setup sync: every reader has its handle
        let wall_start = Instant::now();
        if let Some(policy) = maintenance {
            // Commit back-to-back until the last reader finishes, so
            // every read above races live commits. Values grow past
            // the dataset's range: SUM/COUNT/AVG patch exactly, MAX
            // only ever widens, and a MIN fallback needs the one
            // min-holding cell of a multi-thousand-cell group.
            let mut seq = 0usize;
            while live_readers.load(Ordering::SeqCst) > 0 || batches == 0 {
                let mut batch = WriteBatch::new();
                for _ in 0..BATCH_CELLS {
                    let (keys, _) = &cube.cells[seq * 97 % cube.cells.len()];
                    let value = 1_000_000 + seq as i64;
                    batch.set(keys, &vec![value; spec.n_measures]);
                    seq += 1;
                }
                let t = Instant::now();
                apply_batch_with(&mut adt, &batch, policy).expect("commit batch");
                commit_ms += t.elapsed().as_secs_f64() * 1e3;
                batches += 1;
            }
        }
        let mut reads = 0u64;
        let mut lat_ms = 0.0f64;
        for r in readers {
            let (n, ms) = r.join().expect("reader thread");
            reads += n;
            lat_ms += ms;
        }
        (wall_start.elapsed().as_secs_f64() * 1e3, reads, lat_ms)
    });

    // Quiesced: every cached answer must be bit-identical to a scratch
    // recomputation, and a fresh handle must see the same array state
    // the writer's handle does.
    let fresh = db.open_olap_array("sales").expect("fresh handle");
    for q in queries {
        let cached = consolidate_auto(&fresh, q).expect("cached answer");
        let scratch = fresh.consolidate(q).expect("scratch oracle");
        assert_eq!(cached, scratch, "{mode}: cached answer diverged on {q:?}");
        assert_eq!(
            scratch,
            adt.consolidate(q).expect("writer-handle oracle"),
            "{mode}: fresh handle diverged from the writer's view"
        );
    }

    let delta = pool.stats().snapshot().since(&before);
    let probes = delta.result_cache_hits + delta.result_cache_misses;
    let wall_s = wall_ms / 1e3;
    let result = ModeResult {
        mode,
        wall_ms,
        reads,
        reader_qps: reads as f64 / wall_s,
        avg_read_ms: read_ms / reads as f64,
        hit_rate: if probes == 0 {
            0.0
        } else {
            delta.result_cache_hits as f64 / probes as f64
        },
        write_batches: delta.write_batches,
        write_cells: delta.write_cells,
        writes_per_sec: delta.write_batches as f64 / wall_s,
        avg_commit_ms: if delta.write_batches == 0 {
            0.0
        } else {
            commit_ms / delta.write_batches as f64
        },
        cache_patched: delta.result_cache_patched,
        cache_fallbacks: delta.result_cache_fallbacks,
        cache_invalidations: delta.result_cache_invalidations,
    };
    match maintenance {
        None => assert_eq!(result.write_batches, 0, "{mode}: no writes expected"),
        Some(CubeMaintenance::Delta) => assert!(
            result.cache_patched > 0,
            "{mode}: delta maintenance must patch cubes"
        ),
        Some(CubeMaintenance::InvalidateAll) => assert!(
            result.cache_invalidations > 0,
            "{mode}: the baseline must cool the cache"
        ),
    }
    drop(adt);
    drop(db);
    let _ = std::fs::remove_file(&path);
    let mut wal = path.into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
    result
}

fn to_json(
    spec: &CubeSpec,
    window: Duration,
    results: &[ModeResult],
    herd_speedup: f64,
    retained: f64,
) -> String {
    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"pr6_write_subsystem\",\n");
    let _ = writeln!(
        j,
        "  \"dataset\": {{\"dims\": [40, 40, 40, {}], \"valid_cells\": {}, \
         \"density\": {:.4}, \"format\": \"chunk_offset\"}},",
        spec.dim_sizes[3],
        spec.valid_cells,
        spec.density()
    );
    let _ = writeln!(
        j,
        "  \"workload\": {{\"readers\": {READERS}, \"window_ms\": {}, \
         \"batch_cells\": {BATCH_CELLS}, \"queries\": 4}},",
        window.as_millis()
    );
    j.push_str("  \"modes\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"mode\": \"{}\", \"wall_ms\": {:.3}, \"reads\": {}, \
             \"reader_qps\": {:.1}, \"avg_read_ms\": {:.4}, \"hit_rate\": {:.4}, \
             \"write_batches\": {}, \"write_cells\": {}, \"writes_per_sec\": {:.2}, \
             \"avg_commit_ms\": {:.3}, \"cache_patched\": {}, \"cache_fallbacks\": {}, \
             \"cache_invalidations\": {}}}",
            r.mode,
            r.wall_ms,
            r.reads,
            r.reader_qps,
            r.avg_read_ms,
            r.hit_rate,
            r.write_batches,
            r.write_cells,
            r.writes_per_sec,
            r.avg_commit_ms,
            r.cache_patched,
            r.cache_fallbacks,
            r.cache_invalidations
        );
        j.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ],\n");
    let _ = writeln!(
        j,
        "  \"delta_vs_invalidate_reader_speedup\": {herd_speedup:.3},"
    );
    let _ = writeln!(j, "  \"read_only_throughput_retained\": {retained:.3},");
    let _ = writeln!(
        j,
        "  \"bars\": {{\"delta_vs_invalidate\": {BAR_DELTA_VS_INVALIDATE:.1}}}"
    );
    j.push_str("}\n");
    j
}
