//! PR 5 acceptance bench: the semantic result-cube cache, rollup
//! subsumption, and server-side concurrent-query coalescing.
//!
//! Four modes per chunk format, all answering from the same array:
//!
//! * `cold_fine` — pool cleared per run, the fine query (Query 1,
//!   group by h1 of all 4 dims) computed from chunks. The baseline.
//! * `exact_hit` — the same query answered from the result-cube cache.
//! * `cold_coarse` / `subsumption_derived` — a coarser rollup (h2 of
//!   dims 0–1, dims 2–3 dropped) computed cold vs derived in memory
//!   from the cached fine cube.
//! * `coalesced_herd` — 16 concurrent clients fire the identical SQL
//!   at a molap-server; in-flight duplicates attach to one execution.
//!
//! Every cached, derived, and coalesced answer is asserted bit-identical
//! to the sequential, uncached oracle before its wall time counts.
//!
//! ```text
//! bench_pr5 [--smoke] [--out <path>]
//!
//! --smoke    shrink the dataset ~30x and run once (CI gate)
//! --out      output path (default BENCH_PR5.json in the CWD)
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::sync::Barrier;
use std::time::Instant;

use molap_array::ChunkFormat;
use molap_bench::{PAPER_CHUNK_DIMS, PAPER_POOL_BYTES};
use molap_core::{consolidate_auto, Database, DimGrouping, OlapArray, Query};
use molap_datagen::{generate, CubeSpec};
use molap_server::{Server, ServerClient, ServerConfig};

/// Acceptance bars, enforced in full and smoke runs alike: answering
/// from the cache must beat recomputation by a wide margin.
const BAR_EXACT_HIT: f64 = 10.0;
const BAR_SUBSUMPTION: f64 = 3.0;

const HERD_CLIENTS: usize = 16;
const HERD_SQL: &str = "SELECT SUM(volume), dim0.h01 FROM sales GROUP BY dim0.h01";

struct Sample {
    mode: &'static str,
    wall_ms: f64,
    cache_hits: u64,
    cache_derived: u64,
    cache_misses: u64,
}

struct FormatResult {
    name: &'static str,
    fourth_dim: u32,
    valid_cells: u64,
    density: f64,
    samples: Vec<Sample>,
    herd_wall_ms: f64,
    herd_coalesced: u64,
    exact_hit_speedup: f64,
    subsumption_speedup: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_PR5.json".into());
    let runs = if smoke { 5 } else { 3 };

    // chunk_offset runs the paper's Data Set 1; diff_seq the shorter
    // fourth dimension (50 % dense) that the retired dense-LZW case
    // ran, at the same bars.
    let mut co_spec = CubeSpec::dataset1(100);
    let mut ds_spec = CubeSpec::dataset1(20);
    if smoke {
        co_spec.valid_cells = 200_000;
        ds_spec.valid_cells = 100_000;
    }
    let fine = Query::new(vec![DimGrouping::Level(0); 4]);
    let coarse = Query::new(vec![
        DimGrouping::Level(1),
        DimGrouping::Level(1),
        DimGrouping::Drop,
        DimGrouping::Drop,
    ]);

    let formats = [
        ("chunk_offset", ChunkFormat::ChunkOffset, &co_spec),
        ("diff_seq", ChunkFormat::DiffSeq, &ds_spec),
    ];
    let mut results = Vec::new();
    for (name, format, spec) in formats {
        println!(
            "format {name}: 40x40x40x{}, {} valid cells, {runs} runs per point",
            spec.dim_sizes[3], spec.valid_cells
        );
        let r = run_format(name, format, spec, &fine, &coarse, runs);
        println!(
            "  {name}: exact hit {:.1}x (bar {BAR_EXACT_HIT:.0}x), subsumption {:.1}x \
             (bar {BAR_SUBSUMPTION:.0}x), herd {:.2} ms with {} of {} coalesced",
            r.exact_hit_speedup,
            r.subsumption_speedup,
            r.herd_wall_ms,
            r.herd_coalesced,
            HERD_CLIENTS
        );
        results.push(r);
    }

    let headline = results
        .iter()
        .map(|r| r.subsumption_speedup)
        .fold(f64::INFINITY, f64::min);
    println!("headline: worst-format subsumption-derived speedup {headline:.1}x vs cold");

    let json = to_json(runs, &results, headline);
    std::fs::write(&out, json).expect("write BENCH_PR5.json");
    println!("wrote {out}");

    let mut failed = false;
    for r in &results {
        if r.exact_hit_speedup < BAR_EXACT_HIT {
            eprintln!(
                "bench_pr5: FAIL — {} exact-hit speedup {:.1}x is below the {BAR_EXACT_HIT:.0}x bar",
                r.name, r.exact_hit_speedup
            );
            failed = true;
        }
        if r.subsumption_speedup < BAR_SUBSUMPTION {
            eprintln!(
                "bench_pr5: FAIL — {} subsumption speedup {:.1}x is below the \
                 {BAR_SUBSUMPTION:.0}x bar",
                r.name, r.subsumption_speedup
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn run_format(
    name: &'static str,
    format: ChunkFormat,
    spec: &CubeSpec,
    fine: &Query,
    coarse: &Query,
    runs: usize,
) -> FormatResult {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "molap-bench-pr5-{}-{}.db",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let cube = generate(spec).expect("generate cube");
    let db = Database::create(&path, PAPER_POOL_BYTES).expect("create db");
    let adt = OlapArray::build(
        db.pool().clone(),
        cube.dims.clone(),
        &PAPER_CHUNK_DIMS,
        format,
        cube.cells.iter().cloned(),
        spec.n_measures,
    )
    .expect("build OLAP array");
    db.save_olap_array("sales", &adt).expect("save array");
    db.checkpoint().expect("checkpoint");

    // Sequential, uncached oracles.
    let expect_fine = adt.consolidate(fine).expect("fine oracle");
    let expect_coarse = adt.consolidate(coarse).expect("coarse oracle");
    let expect_herd = db.sql(HERD_SQL, &["volume"]).expect("herd oracle");

    let pool = adt.pool().clone();
    let mut samples = Vec::new();

    // cold_fine: pool cleared per run, computed from chunks.
    samples.push(measure("cold_fine", runs, &pool, || {
        pool.clear().expect("cold pool");
        let got = consolidate_auto(&adt, fine).expect("cold fine");
        assert_eq!(got, expect_fine, "{name} cold_fine");
    }));

    // exact_hit: primed once, answered from the cache thereafter.
    consolidate_auto(&adt, fine).expect("prime fine");
    let hit = measure("exact_hit", runs, &pool, || {
        let got = consolidate_auto(&adt, fine).expect("exact hit");
        assert_eq!(got, expect_fine, "{name} exact_hit");
    });
    assert!(
        hit.cache_hits >= 1,
        "{name}: the repeat query must hit the cache"
    );
    samples.push(hit);

    // cold_coarse: the rollup computed from chunks.
    samples.push(measure("cold_coarse", runs, &pool, || {
        pool.clear().expect("cold pool");
        let got = consolidate_auto(&adt, coarse).expect("cold coarse");
        assert_eq!(got, expect_coarse, "{name} cold_coarse");
    }));

    // subsumption_derived: each run re-primes the fine cube untimed
    // (a clear invalidates every cached entry), then times only the
    // coarse query, which is derived from the cached fine cube.
    let mut walls = Vec::with_capacity(runs);
    let mut last = pool.stats().snapshot();
    for _ in 0..runs.max(1) {
        pool.clear().expect("cold pool");
        consolidate_auto(&adt, fine).expect("re-prime fine");
        let before = pool.stats().snapshot();
        let start = Instant::now();
        let got = consolidate_auto(&adt, coarse).expect("derived coarse");
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(got, expect_coarse, "{name} subsumption_derived");
        last = pool.stats().snapshot().since(&before);
        assert_eq!(
            last.result_cache_derived, 1,
            "{name}: the coarse query must be derived from the cached fine cube"
        );
    }
    walls.sort_by(|a, b| a.total_cmp(b));
    samples.push(Sample {
        mode: "subsumption_derived",
        wall_ms: walls[0],
        cache_hits: last.result_cache_hits,
        cache_derived: last.result_cache_derived,
        cache_misses: last.result_cache_misses,
    });

    for s in &samples {
        println!(
            "  {:>20}: {:9.3} ms  (cache {} hits / {} derived / {} misses)",
            s.mode, s.wall_ms, s.cache_hits, s.cache_derived, s.cache_misses
        );
    }

    // coalesced_herd: 16 clients fire the identical SQL at a real
    // server; duplicates attach to the in-flight execution. The pool
    // is cleared so the leader computes, not cache-hits.
    pool.clear().expect("cold pool for herd");
    drop(adt);
    let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).expect("start server");
    let addr = handle.local_addr();
    let barrier = Barrier::new(HERD_CLIENTS + 1);
    let herd_wall_ms = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..HERD_CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = ServerClient::connect(addr).expect("connect");
                    barrier.wait();
                    let got = client.query(HERD_SQL).expect("herd query");
                    assert_eq!(got, expect_herd, "{name} coalesced_herd");
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for c in clients {
            c.join().expect("herd client");
        }
        start.elapsed().as_secs_f64() * 1e3
    });
    let herd_coalesced = handle.metrics().queries_coalesced;
    println!(
        "  {:>20}: {herd_wall_ms:9.3} ms  ({herd_coalesced} of {HERD_CLIENTS} coalesced)",
        "coalesced_herd"
    );
    handle.shutdown();

    let point = |mode: &str| {
        samples
            .iter()
            .find(|s| s.mode == mode)
            .expect("measured point")
            .wall_ms
    };
    let exact_hit_speedup = point("cold_fine") / point("exact_hit");
    let subsumption_speedup = point("cold_coarse") / point("subsumption_derived");
    let _ = std::fs::remove_file(&path);
    let mut wal = path.into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));

    FormatResult {
        name,
        fourth_dim: spec.dim_sizes[3],
        valid_cells: spec.valid_cells,
        density: spec.density(),
        samples,
        herd_wall_ms,
        herd_coalesced,
        exact_hit_speedup,
        subsumption_speedup,
    }
}

/// Minimum-of-`runs` wall clock for one mode; cache counters are the
/// per-run delta of the last run.
fn measure(
    mode: &'static str,
    runs: usize,
    pool: &molap_storage::BufferPool,
    mut work: impl FnMut(),
) -> Sample {
    let mut walls = Vec::with_capacity(runs);
    let mut last = pool.stats().snapshot();
    for _ in 0..runs.max(1) {
        let before = pool.stats().snapshot();
        let start = Instant::now();
        work();
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        last = pool.stats().snapshot().since(&before);
    }
    walls.sort_by(|a, b| a.total_cmp(b));
    Sample {
        mode,
        wall_ms: walls[0],
        cache_hits: last.result_cache_hits,
        cache_derived: last.result_cache_derived,
        cache_misses: last.result_cache_misses,
    }
}

fn to_json(runs: usize, results: &[FormatResult], headline: f64) -> String {
    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"pr5_result_cache_subsumption_coalescing\",\n");
    j.push_str("  \"fine_query\": \"group by h1 of 4 dims (Query 1)\",\n");
    j.push_str("  \"coarse_query\": \"group by h2 of dims 0-1, dims 2-3 dropped\",\n");
    let _ = writeln!(j, "  \"runs_per_point\": {runs},");
    let _ = writeln!(j, "  \"herd_clients\": {HERD_CLIENTS},");
    j.push_str("  \"formats\": [\n");
    for (fi, r) in results.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"format\": \"{}\", \"dataset\": {{\"dims\": [40, 40, 40, {}], \
             \"valid_cells\": {}, \"density\": {:.4}}}, \"results\": [",
            r.name, r.fourth_dim, r.valid_cells, r.density
        );
        for (i, s) in r.samples.iter().enumerate() {
            let _ = write!(
                j,
                "      {{\"mode\": \"{}\", \"wall_ms\": {:.3}, \"cache_hits\": {}, \
                 \"cache_derived\": {}, \"cache_misses\": {}}}",
                s.mode, s.wall_ms, s.cache_hits, s.cache_derived, s.cache_misses
            );
            j.push_str(if i + 1 < r.samples.len() { ",\n" } else { "\n" });
        }
        let _ = writeln!(
            j,
            "    ], \"herd\": {{\"wall_ms\": {:.3}, \"coalesced\": {}}}, \
             \"exact_hit_speedup\": {:.3}, \"subsumption_speedup\": {:.3}, \
             \"bars\": {{\"exact_hit\": {BAR_EXACT_HIT:.1}, \"subsumption\": \
             {BAR_SUBSUMPTION:.1}}}}}{}",
            r.herd_wall_ms,
            r.herd_coalesced,
            r.exact_hit_speedup,
            r.subsumption_speedup,
            if fi + 1 < results.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");
    j.push_str("  \"baseline\": \"cold consolidate_auto, pool cleared per run\",\n");
    let _ = writeln!(j, "  \"worst_subsumption_speedup\": {headline:.3}");
    j.push_str("}\n");
    j
}
