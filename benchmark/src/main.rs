//! The one benchmark for the OLAP Array server.
//!
//! `molap-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//! builds the workload's cube from the seed, starts `molap-server`
//! in-process on `127.0.0.1:0`, drives it over the wire with one
//! closed-loop `ServerClient` connection, checks every answer, and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. See `benchmark/README.md`.

mod drive;
mod fixture;
mod model;
mod span;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use molap_core::Database;
use molap_storage::PAGE_SIZE;

use drive::{drive, Check, Expected, Outcome, Stream};
use fixture::{build_database, build_twin, database_path, remove_database, start_server, Running};
use span::Tracer;
use stats::{latency, median, Latency};
use trace::layer_metrics;
use workload::{Cells, Workload, MEASURES, OBJECT, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: molap-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 28.0f64;
    let mut trace = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{}", usage()))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Host facts, printed with every run. `run.sh` passes what only a
/// shell can find out.
fn print_host(args: &Args) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host: nproc={nproc} data_fs={} rustc={:?} commit={}",
        env("MOLAP_BENCH_FS"),
        env("MOLAP_BENCH_RUSTC"),
        env("MOLAP_BENCH_COMMIT"),
    );
    println!(
        "run: workload={} seed={} seconds={} trace={} (sandbox latency, not device latency)",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
}

/// `VmHWM` of this process in MB: the server runs in-process, so this
/// is generator, benchmark and server together.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The closing checks of a server pass: the grand total over the wire,
/// then shut the server down, reopen the file and verify every
/// acknowledged cell and the total. Returns `(attempted, failed)`.
fn closing_checks(
    w: &Workload,
    mut run: Running,
    expected: &Expected,
    cells: &Cells,
    path: &Path,
) -> (u64, u64) {
    let total = expected.model.shape(0).statement.clone();
    let mut attempted = 1;
    let mut failed = match run.client.query_with_measures(&total.sql, &MEASURES) {
        Ok(rows) => u64::from(!expected.holds(Check::Shape(0), &rows)),
        Err(_) => 1,
    };
    run.handle.shutdown();
    drop(run);

    let db = Database::open(path, w.pool_bytes).expect("reopen the database");
    let adt = db.open_olap_array(OBJECT).expect("reopen the array");
    for (&pos, &value) in expected.model.written() {
        attempted += 1;
        let stored = adt.get_by_keys(&cells.keys(pos)).expect("read a cell");
        failed += u64::from(stored != Some(vec![value]));
    }
    attempted += 1;
    let sum = adt.consolidate(&total.query).expect("total after restart");
    failed += u64::from(sum.total() != expected.model.total());
    (attempted, failed)
}

fn print_latency(name: &str, l: &Latency) {
    println!(
        "{name}_p50_ms = {:.4} ms, {name}_p{}_ms = {:.4} ms ({} samples)",
        l.p50,
        l.tail_percentile as f64 / 10.0,
        l.tail,
        l.samples
    );
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn finish(attempted: u64, failed: u64, metrics: &[Metric]) -> ExitCode {
    for m in metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_share = {} ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    println!("{}", json_line(failed == 0, attempted, failed, metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A served database with everything needed to drive and check it.
struct SetUp {
    path: PathBuf,
    run: Running,
    stream: Stream,
    expected: Expected,
    cells: Cells,
    stored_bytes_per_cell: f64,
    /// Build plus server start; the oracle runs in between and is part
    /// of neither.
    setup_s: f64,
}

fn set_up(args: &Args) -> SetUp {
    let w = &args.workload;
    let path = database_path(&args.out, w.name);
    let built = build_database(w, args.seed, &path);
    let stored_bytes_per_cell =
        (built.adt.array_pages() * PAGE_SIZE as u64) as f64 / built.adt.valid_cells() as f64;
    let stream = Stream::new(w, args.seed);
    let expected = Expected::new(w, &stream, &built.adt, &built.cells);
    let run = start_server(built.db);
    SetUp {
        path,
        setup_s: built.build_s + run.start_s,
        run,
        stream,
        expected,
        cells: built.cells,
        stored_bytes_per_cell,
    }
}

/// `--trace 0`: the end-to-end metrics, with tracing off.
fn run_end_to_end(args: &Args) -> ExitCode {
    let w = &args.workload;
    let mut setup_s = Vec::new();
    for _ in 1..SETUP_REPEATS {
        let path = database_path(&args.out, w.name);
        let built = build_database(w, args.seed, &path);
        let run = start_server(built.db);
        setup_s.push(built.build_s + run.start_s);
        run.handle.shutdown();
        drop(run);
        remove_database(&path);
    }
    let SetUp {
        path,
        mut run,
        mut stream,
        mut expected,
        cells,
        stored_bytes_per_cell,
        setup_s: last_setup_s,
    } = set_up(args);
    setup_s.push(last_setup_s);

    let Outcome {
        query_ms,
        commit_ms,
        query_wall_s,
        commit_wall_s,
        mut attempted,
        mut failed,
        ..
    } = drive(
        w,
        &mut run,
        &mut stream,
        &mut expected,
        &cells,
        args.seconds,
        None,
    );
    let (checks, wrong) = closing_checks(w, run, &expected, &cells, &path);
    attempted += checks;
    failed += wrong;
    remove_database(&path);

    if query_ms.is_empty() || commit_ms.is_empty() {
        println!("no verified-correct query or commit completed; nothing to report");
        println!("failed_share = 1 ({failed} of {attempted} operations)");
        return ExitCode::FAILURE;
    }
    let queries = latency(&query_ms, 950);
    let commits = latency(&commit_ms, 900);
    print_latency("query", &queries);
    print_latency("commit", &commits);
    println!("setup_s samples: {setup_s:?}");
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = [
        m("setup_s", median(&setup_s), "s"),
        m("query_p50_ms", queries.p50, "ms"),
        m("query_p95_ms", queries.tail, "ms"),
        m("queries_per_s", query_ms.len() as f64 / query_wall_s, "1/s"),
        m("commit_p50_ms", commits.p50, "ms"),
        m("commit_p90_ms", commits.tail, "ms"),
        m(
            "commits_per_s",
            commit_ms.len() as f64 / commit_wall_s,
            "1/s",
        ),
        m("stored_bytes_per_cell", stored_bytes_per_cell, "B/cell"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    finish(attempted, failed, &metrics)
}

/// `--trace 1`: the per-layer metrics. Half the window goes to the
/// server pass, the rest to the in-process pass and the layer probes.
fn run_traced(args: &Args) -> ExitCode {
    let w = &args.workload;
    let mut tracer = Tracer::new();

    let SetUp {
        path,
        mut run,
        mut stream,
        mut expected,
        cells,
        ..
    } = set_up(args);
    let server = drive(
        w,
        &mut run,
        &mut stream,
        &mut expected,
        &cells,
        args.seconds / 2.0,
        Some(&mut tracer),
    );
    let rejected = run.handle.metrics().queries_rejected;
    let (checks, wrong) = closing_checks(w, run, &expected, &cells, &path);
    remove_database(&path);

    let twin_path = database_path(&args.out, w.name);
    let mut twin = build_twin(w, args.seed, &twin_path);
    let trace_path = args.out.join(format!("trace-{}.json", w.name));
    let (metrics, replayed, replay_failed) = layer_metrics(
        w,
        args.seed,
        args.seconds,
        &server,
        rejected,
        &mut twin,
        &mut tracer,
        &trace_path,
    );
    drop(twin);
    remove_database(&twin_path);

    println!("self time by span name (calls, total ns):");
    for (name, (calls, own_ns)) in tracer.self_time_by_name() {
        println!("  {name}: {calls} calls, {own_ns} ns");
    }
    println!("trace written to {}", trace_path.display());
    finish(
        server.attempted + checks + replayed,
        server.failed + wrong + replay_failed,
        &metrics,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    print_host(&args);
    if args.trace {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    }
}
