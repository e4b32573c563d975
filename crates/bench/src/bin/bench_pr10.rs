//! PR 10 acceptance bench: hierarchical bitmap indices and the
//! predicate-shape selection planner.
//!
//! Crossover-selectivity sweep on one big blocked dimension: a range
//! predicate's width grows from 1 value to the full attribute domain,
//! and at every width the §4.2 step-1 *index-list resolution*
//! ([`OlapArray::selection_index_list`]) is timed under `ForceBtree`
//! (per-value B-tree scans, the pre-PR-10 plan) and `ForceHbi` (the
//! aligned-cover bitmap fetch), asserted element-identical each time.
//! An IN-list sweep does the same over membership cardinalities.
//!
//! Separately, full consolidations at point selectivity compare `Auto`
//! against `ForceBtree` — the planner must route points to the B-tree,
//! so `Auto` must not lose — and a bit-identity matrix runs wide
//! (scan-direction) and narrow (probe-direction) queries under all
//! three planner modes on all three chunk formats against the
//! sequential B-tree oracle.
//!
//! Acceptance bars: HBI ≥ 2× the B-tree index-list path at every
//! width of ≥ 25 % range selectivity, and `Auto` never > 1.1× slower
//! than `ForceBtree` at point selectivity.
//!
//! ```text
//! bench_pr10 [--smoke] [--out <path>]
//!
//! --smoke    quarter-scale dimension, run as a CI gate (same bars)
//! --out      output path (default BENCH_PR10.json in the CWD)
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use molap_array::ChunkFormat;
use molap_bench::PAPER_POOL_BYTES;
use molap_core::{AttrRef, DimGrouping, OlapArray, PlannerMode, Query, Selection};
use molap_datagen::{generate, CubeSpec, GeneratedCube};
use molap_storage::{BufferPool, FileDisk};

/// Index-list resolution: HBI vs B-tree at ≥ 25 % range selectivity.
const BAR_WIDE: f64 = 2.0;
/// Full query at point selectivity: Auto vs ForceBtree wall ratio.
const BAR_POINT: f64 = 1.1;

struct SweepPoint {
    width: usize,
    selectivity: f64,
    btree_ms: f64,
    hbi_ms: f64,
    speedup: f64,
    hbi_bitmaps_read: u64,
}

struct InPoint {
    values: usize,
    btree_ms: f64,
    hbi_ms: f64,
    speedup: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_PR10.json".into());
    let runs = if smoke { 9 } else { 7 };

    // One big blocked dimension: `distinct` attribute values over
    // `rows` keys, so a range predicate's index list is a contiguous
    // span whose resolution cost is what the sweep isolates.
    let (rows, distinct) = if smoke {
        (16_384u32, 2_048u32)
    } else {
        (65_536u32, 8_192u32)
    };
    let spec = CubeSpec::selection_sweep(rows, distinct);
    println!(
        "dataset: {rows}x64 cube, {distinct} distinct attr values, {} valid cells, \
         {runs} runs per point",
        spec.valid_cells
    );
    let cube = generate(&spec).expect("generate cube");
    let (adt, store_path) = build(&cube, &[rows / 64, 16], ChunkFormat::ChunkOffset);

    // --- Range-width sweep: index-list resolution, both engines. ---
    let mut sweep = Vec::new();
    let mut width = 1usize;
    loop {
        sweep.push(measure_range(&adt, distinct as usize, width, runs));
        let p = sweep.last().unwrap();
        println!(
            "  range width {:>5} ({:5.1}% sel): btree {:9.4} ms, hbi {:9.4} ms ({:5.2}x), \
             {} bitmaps read",
            p.width,
            p.selectivity * 100.0,
            p.btree_ms,
            p.hbi_ms,
            p.speedup,
            p.hbi_bitmaps_read
        );
        if width >= distinct as usize {
            break;
        }
        width = (width * 4).min(distinct as usize);
    }

    // --- IN-list sweep: evenly spaced membership values. ---
    let mut in_points = Vec::new();
    for k in [2usize, 8, 64, 512, 4096] {
        if k > distinct as usize {
            break;
        }
        let p = measure_in(&adt, distinct as usize, k, runs);
        println!(
            "  IN-list {:>5} values: btree {:9.4} ms, hbi {:9.4} ms ({:5.2}x)",
            p.values, p.btree_ms, p.hbi_ms, p.speedup
        );
        in_points.push(p);
    }

    // --- Point selectivity: full consolidation, Auto vs ForceBtree. ---
    let point_q = range_query(distinct as usize, 1);
    adt.set_planner_mode(PlannerMode::ForceBtree);
    let expect_point = adt.consolidate(&point_q).expect("point oracle");
    let btree_point_ms = min_wall(runs, || {
        assert_eq!(
            adt.consolidate(&point_q).expect("btree point"),
            expect_point
        );
    });
    adt.set_planner_mode(PlannerMode::Auto);
    let stats = adt.pool().stats();
    let before = stats.snapshot();
    let auto_point_ms = min_wall(runs, || {
        assert_eq!(adt.consolidate(&point_q).expect("auto point"), expect_point);
    });
    let routed = stats.snapshot().since(&before);
    assert!(
        routed.planner_hbi == 0 && routed.planner_btree > 0,
        "Auto must route a point selection to the B-tree \
         (btree {}, hbi {})",
        routed.planner_btree,
        routed.planner_hbi
    );
    let point_ratio = auto_point_ms / btree_point_ms;
    println!(
        "  point query: forced-btree {btree_point_ms:.4} ms, auto {auto_point_ms:.4} ms \
         (ratio {point_ratio:.3}, bar <= {BAR_POINT})"
    );
    drop(adt);
    let _ = std::fs::remove_file(store_path);

    // --- Bit-identity matrix: formats x directions x planner modes. --
    let identity_checks = identity_matrix(smoke);
    println!("  bit-identity: {identity_checks} configurations matched the sequential oracle");

    // --- Bars. ---
    let wide_points: Vec<&SweepPoint> = sweep.iter().filter(|p| p.selectivity >= 0.25).collect();
    let min_wide_speedup = wide_points
        .iter()
        .map(|p| p.speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "headline: min HBI speedup at >=25% selectivity {min_wide_speedup:.2}x \
         (bar {BAR_WIDE:.1}x), point ratio {point_ratio:.3} (bar {BAR_POINT:.2})"
    );

    let json = to_json(
        runs,
        rows,
        distinct,
        &sweep,
        &in_points,
        point_ratio,
        min_wide_speedup,
        identity_checks,
    );
    std::fs::write(&out, json).expect("write BENCH_PR10.json");
    println!("wrote {out}");

    let mut failed = false;
    if min_wide_speedup < BAR_WIDE {
        eprintln!(
            "bench_pr10: FAIL — HBI index-list speedup {min_wide_speedup:.2}x at >=25% \
             selectivity is below the {BAR_WIDE:.1}x bar"
        );
        failed = true;
    }
    if point_ratio > BAR_POINT {
        eprintln!(
            "bench_pr10: FAIL — Auto is {point_ratio:.3}x ForceBtree at point selectivity \
             (must be <= {BAR_POINT:.2}x)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// File-backed pool + array. The store file is returned for cleanup.
fn build(
    cube: &GeneratedCube,
    chunk_dims: &[u32],
    format: ChunkFormat,
) -> (OlapArray, std::path::PathBuf) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "molap-bench-pr10-{}-{}.db",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let disk = FileDisk::create(&path).expect("create store");
    let pool = Arc::new(BufferPool::with_bytes(Arc::new(disk), PAPER_POOL_BYTES));
    let adt = cube
        .build_olap(pool.clone(), chunk_dims, format)
        .expect("build OLAP array");
    pool.flush_all().expect("flush");
    (adt, path)
}

/// A centered range of `width` attribute values on dimension 0.
fn range_query(distinct: usize, width: usize) -> Query {
    let lo = ((distinct - width) / 2) as i64;
    Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]).with_selection(
        0,
        Selection::range(AttrRef::Level(0), lo, lo + width as i64 - 1),
    )
}

/// Minimum-of-`runs` wall milliseconds of one closure call.
fn min_wall(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn measure_range(adt: &OlapArray, distinct: usize, width: usize, runs: usize) -> SweepPoint {
    let q = range_query(distinct, width);
    adt.set_planner_mode(PlannerMode::ForceBtree);
    let expect = adt
        .selection_index_list(&q, 0)
        .expect("btree list")
        .expect("selected dimension");
    let btree_ms = min_wall(runs, || {
        let got = adt.selection_index_list(&q, 0).unwrap().unwrap();
        assert_eq!(got.len(), expect.len());
    });
    adt.set_planner_mode(PlannerMode::ForceHbi);
    let got = adt
        .selection_index_list(&q, 0)
        .expect("hbi list")
        .expect("selected dimension");
    assert_eq!(got, expect, "HBI index list diverged at width {width}");
    let stats = adt.pool().stats();
    let before = stats.snapshot();
    let hbi_ms = min_wall(runs, || {
        let got = adt.selection_index_list(&q, 0).unwrap().unwrap();
        assert_eq!(got.len(), expect.len());
    });
    let delta = stats.snapshot().since(&before);
    adt.set_planner_mode(PlannerMode::Auto);
    SweepPoint {
        width,
        selectivity: width as f64 / distinct as f64,
        btree_ms,
        hbi_ms,
        speedup: btree_ms / hbi_ms,
        hbi_bitmaps_read: delta.hbi_bitmaps_read / runs.max(1) as u64,
    }
}

fn measure_in(adt: &OlapArray, distinct: usize, k: usize, runs: usize) -> InPoint {
    let stride = (distinct / k).max(1) as i64;
    let values: Vec<i64> = (0..k as i64).map(|i| i * stride).collect();
    let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop])
        .with_selection(0, Selection::in_list(AttrRef::Level(0), values));
    adt.set_planner_mode(PlannerMode::ForceBtree);
    let expect = adt
        .selection_index_list(&q, 0)
        .expect("btree list")
        .expect("selected dimension");
    let btree_ms = min_wall(runs, || {
        let got = adt.selection_index_list(&q, 0).unwrap().unwrap();
        assert_eq!(got.len(), expect.len());
    });
    adt.set_planner_mode(PlannerMode::ForceHbi);
    let got = adt
        .selection_index_list(&q, 0)
        .expect("hbi list")
        .expect("selected dimension");
    assert_eq!(got, expect, "HBI index list diverged at IN-{k}");
    let hbi_ms = min_wall(runs, || {
        let got = adt.selection_index_list(&q, 0).unwrap().unwrap();
        assert_eq!(got.len(), expect.len());
    });
    adt.set_planner_mode(PlannerMode::Auto);
    InPoint {
        values: k,
        btree_ms,
        hbi_ms,
        speedup: btree_ms / hbi_ms,
    }
}

/// Wide (scan-direction) and narrow (probe-direction) queries under
/// every planner mode on every chunk format, each asserted equal to
/// the sequential B-tree oracle; returns the configuration count.
fn identity_matrix(smoke: bool) -> usize {
    let (rows, distinct) = if smoke {
        (2_048u32, 256u32)
    } else {
        (4_096u32, 512u32)
    };
    let spec = CubeSpec::selection_sweep(rows, distinct);
    let cube = generate(&spec).expect("generate identity cube");
    // Narrow: tiny cross-product, probe direction. Wide: half the
    // domain, cross-product far above any chunk's valid cells, scan
    // direction.
    let queries = [
        range_query(distinct as usize, 2),
        range_query(distinct as usize, distinct as usize / 2),
    ];
    let modes = [
        PlannerMode::ForceBtree,
        PlannerMode::ForceHbi,
        PlannerMode::Auto,
    ];
    let mut checks = 0;
    let mut reference: Vec<Option<molap_core::ConsolidationResult>> = vec![None, None];
    for format in ChunkFormat::ALL {
        let (adt, path) = build(&cube, &[rows / 16, 16], format);
        for (qi, q) in queries.iter().enumerate() {
            adt.set_planner_mode(PlannerMode::ForceBtree);
            let oracle = adt.consolidate(q).expect("sequential oracle");
            // The answer must also agree across chunk formats.
            match &reference[qi] {
                None => reference[qi] = Some(oracle.clone()),
                Some(r) => assert_eq!(&oracle, r, "{format:?} oracle diverged across formats"),
            }
            for mode in modes {
                adt.set_planner_mode(mode);
                let got = adt.consolidate(q).expect("matrix run");
                assert_eq!(
                    got, oracle,
                    "{format:?} {mode:?} query {qi} diverged from the oracle"
                );
                checks += 1;
            }
        }
        drop(adt);
        let _ = std::fs::remove_file(path);
    }
    checks
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    runs: usize,
    rows: u32,
    distinct: u32,
    sweep: &[SweepPoint],
    in_points: &[InPoint],
    point_ratio: f64,
    min_wide_speedup: f64,
    identity_checks: usize,
) -> String {
    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"pr10_hbi_selection_planner\",\n");
    let _ = writeln!(
        j,
        "  \"dataset\": \"{rows}x64 blocked cube, {distinct} distinct attr values, 12.5% dense\","
    );
    let _ = writeln!(j, "  \"runs_per_point\": {runs},");
    j.push_str(
        "  \"measured\": \"index-list resolution (section 4.2 step 1) via \
         selection_index_list, min-of-N wall\",\n",
    );
    j.push_str("  \"range_sweep\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"width\": {}, \"selectivity\": {:.4}, \"btree_ms\": {:.5}, \
             \"hbi_ms\": {:.5}, \"speedup\": {:.3}, \"hbi_bitmaps_read\": {}}}",
            p.width, p.selectivity, p.btree_ms, p.hbi_ms, p.speedup, p.hbi_bitmaps_read
        );
        j.push_str(if i + 1 < sweep.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ],\n");
    j.push_str("  \"in_sweep\": [\n");
    for (i, p) in in_points.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"values\": {}, \"btree_ms\": {:.5}, \"hbi_ms\": {:.5}, \
             \"speedup\": {:.3}}}",
            p.values, p.btree_ms, p.hbi_ms, p.speedup
        );
        j.push_str(if i + 1 < in_points.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ],\n");
    j.push_str(
        "  \"baseline\": \"ForceBtree index-list resolution (per-value B-tree scans, \
         the pre-PR-10 plan)\",\n",
    );
    let _ = writeln!(
        j,
        "  \"point_query_ratio_auto_vs_btree\": {point_ratio:.4},"
    );
    let _ = writeln!(j, "  \"identity_configs_checked\": {identity_checks},");
    let _ = writeln!(
        j,
        "  \"min_hbi_speedup_at_25pct_selectivity\": {min_wide_speedup:.3}"
    );
    j.push_str("}\n");
    j
}
