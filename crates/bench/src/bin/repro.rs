//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! repro fig4        Query 1 on Data Set 1 (array vs starjoin)
//! repro fig5        Query 1 on Data Set 2 density sweep
//! repro fig6        Query 2 on 40×40×40×1000 (array vs starjoin)   \  one
//! repro fig8        Query 2 on 40×40×40×1000 (array vs bitmap)     /  sweep
//! repro fig7        Query 2 on 40×40×40×100  (array vs starjoin)   \  one
//! repro fig9        Query 2 on 40×40×40×100  (array vs bitmap)     /  sweep
//! repro fig10       Query 3 on 40×40×40×100
//! repro storage     §5.5.1 storage-size comparison + §3.2 break-even
//! repro ablation-compression   chunk-offset vs diff-seq vs LZW vs dense
//! repro ablation-chunks        §5.5.1 chunk-count observation
//! repro ablation-parallel      chunk-scan consolidation, 1..16 threads
//! repro all         everything above
//! ```
//!
//! Add `--quick` to shrink datasets ~10× (CI-sized smoke run). Results
//! are printed as tables and also written as CSV under `target/repro/`.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::sync::Arc;

use molap_array::{diffseq, lzw, CompressedChunk, DenseChunk};
use molap_bench::{fmt_row, Engine, Harness, Measurement, PAPER_CHUNK_DIMS};
use molap_core::{AttrRef, DimGrouping, OlapArray, Query, Selection};
use molap_datagen::{generate, CubeSpec};
use molap_storage::{BufferPool, FileDisk, MemDisk};

struct Ctx {
    harness: Harness,
    quick: bool,
    csv_dir: std::path::PathBuf,
}

impl Ctx {
    /// Scales a Data Set 1 spec in quick mode (smaller cell count).
    fn ds1(&self, fourth: u32) -> CubeSpec {
        let mut spec = CubeSpec::dataset1(fourth);
        if self.quick {
            spec.valid_cells = 64_000;
        }
        spec
    }

    fn ds2(&self, density: f64) -> CubeSpec {
        let mut spec = CubeSpec::dataset2(density);
        if self.quick {
            spec.valid_cells /= 10;
        }
        spec
    }

    fn write_csv(&self, name: &str, header: &str, rows: &[String]) {
        let path = self.csv_dir.join(format!("{name}.csv"));
        let mut body = String::from(header);
        body.push('\n');
        for r in rows {
            body.push_str(r);
            body.push('\n');
        }
        std::fs::write(&path, body).expect("write csv");
        println!("  -> {}", path.display());
    }
}

/// Query 1 (§5.2): join all dimensions, group by every dimension's h1,
/// sum the volume.
fn query1(n_dims: usize) -> Query {
    Query::new(vec![DimGrouping::Level(0); n_dims])
}

/// Query 2 (§5.2): Query 1 plus an equality selection on every
/// dimension's selection attribute (the last level).
fn query2(n_dims: usize, sel_level: usize) -> Query {
    let mut q = query1(n_dims);
    for d in 0..n_dims {
        q = q.with_selection(d, Selection::eq(AttrRef::Level(sel_level), 1));
    }
    q
}

/// Query 3 (§5.2): selection on three dimensions, group by three h1s;
/// the fourth dimension is aggregated away.
fn query3(sel_level: usize) -> Query {
    let mut q = Query::new(vec![
        DimGrouping::Level(0),
        DimGrouping::Level(0),
        DimGrouping::Level(0),
        DimGrouping::Drop,
    ]);
    for d in 0..3 {
        q = q.with_selection(d, Selection::eq(AttrRef::Level(sel_level), 1));
    }
    q
}

// ------------------------------------------------------------- figures

fn fig4(ctx: &Ctx) {
    println!("\n== Figure 4: Query 1 on Data Set 1 (640k cells, vary 4th dimension) ==");
    let mut csv = Vec::new();
    for fourth in [50u32, 100, 1000] {
        let spec = ctx.ds1(fourth);
        let fx = ctx.harness.build(&spec, &PAPER_CHUNK_DIMS);
        println!("40x40x40x{fourth} (density {:.1}%)", spec.density() * 100.0);
        let q = query1(4);
        let mut row = format!("{fourth}");
        for engine in [Engine::Array, Engine::StarJoin] {
            let (m, _) = ctx.harness.run_query(&fx, engine, &q);
            println!("  {}", fmt_row(engine.name(), &m));
            write!(
                row,
                ",{:.2},{},{:.0}",
                m.wall_ms,
                m.io.physical_reads,
                m.modeled_1997_ms()
            )
            .unwrap();
        }
        csv.push(row);
    }
    ctx.write_csv(
        "fig4",
        "fourth_dim,array_ms,array_physreads,array_1997ms,starjoin_ms,starjoin_physreads,starjoin_1997ms",
        &csv,
    );
}

fn fig5(ctx: &Ctx) {
    println!("\n== Figure 5: Query 1 on Data Set 2 (40x40x40x100, vary density) ==");
    let mut csv = Vec::new();
    for density in [0.005, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20] {
        let spec = ctx.ds2(density);
        let fx = ctx.harness.build(&spec, &PAPER_CHUNK_DIMS);
        println!(
            "density {:.1}% ({} cells)",
            density * 100.0,
            spec.valid_cells
        );
        let q = query1(4);
        let mut row = format!("{density}");
        for engine in [Engine::Array, Engine::StarJoin] {
            let (m, _) = ctx.harness.run_query(&fx, engine, &q);
            println!("  {}", fmt_row(engine.name(), &m));
            write!(
                row,
                ",{:.2},{},{:.0}",
                m.wall_ms,
                m.io.physical_reads,
                m.modeled_1997_ms()
            )
            .unwrap();
        }
        csv.push(row);
    }
    ctx.write_csv(
        "fig5",
        "density,array_ms,array_physreads,array_1997ms,starjoin_ms,starjoin_physreads,starjoin_1997ms",
        &csv,
    );
}

/// The Query 2 sweep behind Figures 6+8 (fourth=1000) and 7+9
/// (fourth=100): vary the selection attribute's distinct count v; the
/// star-join selectivity is S = (1/v)^4.
fn query2_sweep(ctx: &Ctx, fourth: u32, fig_pair: (&str, &str)) {
    println!(
        "\n== Figures {}+{}: Query 2 on 40x40x40x{fourth}, selectivity sweep ==",
        fig_pair.0, fig_pair.1
    );
    let mut csv = Vec::new();
    for v in [2u32, 3, 4, 5, 8, 10] {
        let spec = ctx.ds1(fourth).with_selection_cardinality(v);
        let sel_level = spec.level_cards[0].len() - 1;
        let fx = ctx.harness.build(&spec, &PAPER_CHUNK_DIMS);
        let s = (1.0 / v as f64).powi(4);
        println!("v={v} per-dim s=1/{v}, star selectivity S={s:.5}");
        let q = query2(4, sel_level);
        let mut row = format!("{v},{s}");
        for engine in [Engine::Array, Engine::StarJoin, Engine::Bitmap] {
            let (m, _) = ctx.harness.run_query(&fx, engine, &q);
            println!("  {}", fmt_row(engine.name(), &m));
            write!(
                row,
                ",{:.2},{},{:.0}",
                m.wall_ms,
                m.io.physical_reads,
                m.modeled_1997_ms()
            )
            .unwrap();
        }
        csv.push(row);
    }
    ctx.write_csv(
        &format!("fig{}_{}", fig_pair.0, fig_pair.1),
        "v,selectivity,array_ms,array_physreads,array_1997ms,starjoin_ms,starjoin_physreads,starjoin_1997ms,bitmap_ms,bitmap_physreads,bitmap_1997ms",
        &csv,
    );
}

fn fig10(ctx: &Ctx) {
    println!("\n== Figure 10: Query 3 (selection on 3 dims) on 40x40x40x100 ==");
    let mut csv = Vec::new();
    for v in [2u32, 3, 4, 5, 8, 10] {
        let spec = ctx.ds1(100).with_selection_cardinality(v);
        let sel_level = spec.level_cards[0].len() - 1;
        let fx = ctx.harness.build(&spec, &PAPER_CHUNK_DIMS);
        let s = (1.0 / v as f64).powi(3);
        println!("v={v} per-dim s=1/{v}, 3-dim selectivity S={s:.5}");
        let q = query3(sel_level);
        let mut row = format!("{v},{s}");
        for engine in [Engine::Array, Engine::StarJoin, Engine::Bitmap] {
            let (m, _) = ctx.harness.run_query(&fx, engine, &q);
            println!("  {}", fmt_row(engine.name(), &m));
            write!(
                row,
                ",{:.2},{},{:.0}",
                m.wall_ms,
                m.io.physical_reads,
                m.modeled_1997_ms()
            )
            .unwrap();
        }
        csv.push(row);
    }
    ctx.write_csv(
        "fig10",
        "v,selectivity,array_ms,array_physreads,array_1997ms,starjoin_ms,starjoin_physreads,starjoin_1997ms,bitmap_ms,bitmap_physreads,bitmap_1997ms",
        &csv,
    );
}

fn storage(ctx: &Ctx) {
    println!("\n== Storage: compressed array vs fact file (§3.2, §5.5.1) ==");
    println!("(paper reference point: 1% density -> 18.5 MB fact file vs 6.5 MB array)");
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>8}",
        "dataset", "density", "array MB", "factfile MB", "ratio"
    );
    let mut csv = Vec::new();
    let report = |label: &str, spec: &CubeSpec, csvv: &mut Vec<String>| {
        let fx = ctx.harness.build(spec, &PAPER_CHUNK_DIMS);
        let (a, f) = Harness::storage_bytes(&fx);
        let (amb, fmb) = (a as f64 / 1048576.0, f as f64 / 1048576.0);
        println!(
            "{label:<22} {:>9.2}% {amb:>12.2} {fmb:>12.2} {:>8.2}",
            spec.density() * 100.0,
            fmb / amb
        );
        csvv.push(format!("{label},{},{a},{f}", spec.density()));
    };
    for fourth in [50u32, 100, 1000] {
        let spec = ctx.ds1(fourth);
        report(&format!("ds1 40x40x40x{fourth}"), &spec, &mut csv);
    }
    for density in [0.005, 0.01, 0.05, 0.10, 0.20] {
        let spec = ctx.ds2(density);
        report(&format!("ds2 {:.1}%", density * 100.0), &spec, &mut csv);
    }
    println!(
        "\ntheory (§3.2): uncompressed array beats table when density > p/(n+p) = {:.3}",
        1.0 / (4.0 + 1.0)
    );
    println!("chunk-offset compression pushes the break-even far lower (see ratios above).");
    ctx.write_csv(
        "storage",
        "dataset,density,array_bytes,factfile_bytes",
        &csv,
    );
}

/// A row of the compression ablation. Arrays store only the first
/// two; the dense baselines exist here, encoded from the chunk-offset
/// array's own chunks.
#[derive(Clone, Copy, Debug)]
enum Codec {
    ChunkOffset,
    DiffSeq,
    DenseLzw,
    Dense,
}

/// A decoded chunk in its codec's in-memory shape.
enum Decoded {
    Offset(CompressedChunk),
    Dense(DenseChunk),
}

impl Codec {
    fn encode(self, chunk: &CompressedChunk, cells: usize) -> Vec<u8> {
        match self {
            Codec::ChunkOffset => chunk.to_bytes(),
            Codec::DiffSeq => diffseq::compress(chunk),
            Codec::DenseLzw => lzw::compress(&chunk.to_dense(cells).to_bytes()),
            Codec::Dense => chunk.to_dense(cells).to_bytes(),
        }
    }

    /// Decodes a whole stored chunk: none of the four reaches a cell
    /// any other way.
    fn decode(self, bytes: &[u8], cells: u32) -> Decoded {
        match self {
            Codec::ChunkOffset => {
                Decoded::Offset(CompressedChunk::from_bytes(bytes).expect("decode"))
            }
            Codec::DiffSeq => {
                Decoded::Offset(diffseq::decompress_fast(bytes, cells).expect("decode"))
            }
            Codec::DenseLzw => {
                let raw = lzw::decompress_fast(bytes).expect("decode");
                Decoded::Dense(DenseChunk::from_bytes(&raw).expect("decode"))
            }
            Codec::Dense => Decoded::Dense(DenseChunk::from_bytes(bytes).expect("decode")),
        }
    }
}

impl Decoded {
    fn sum(&self) -> i64 {
        match self {
            Decoded::Offset(c) => c.iter().map(|(_, v)| v[0]).sum(),
            Decoded::Dense(d) => d.iter_valid().map(|(_, v)| v[0]).sum(),
        }
    }

    fn probe(&self, offset: u32) -> Option<&[i64]> {
        match self {
            Decoded::Offset(c) => c.probe(offset),
            Decoded::Dense(d) => d.probe(offset),
        }
    }
}

fn ablation_compression(ctx: &Ctx) {
    use molap_array::ChunkFormat;
    use molap_storage::{LobId, LobStore};
    println!("\n== Ablation: chunk-offset vs diff-seq vs LZW(dense) vs dense (§3.1/§3.3) ==");
    let spec = ctx.ds2(0.05);
    let cube = generate(&spec).expect("generate");
    let pool = Arc::new(BufferPool::with_bytes(Arc::new(MemDisk::new()), 256 << 20));
    let adt = OlapArray::build(
        pool,
        cube.dims.clone(),
        &PAPER_CHUNK_DIMS,
        ChunkFormat::ChunkOffset,
        cube.cells.iter().cloned(),
        1,
    )
    .expect("build");
    let shape = adt.array().shape();
    let cells = shape.chunk_cells() as u32;
    let chunks: Vec<CompressedChunk> = (0..shape.num_chunks())
        .map(|c| Arc::unwrap_or_clone(adt.array().read_chunk(c).expect("read")))
        .collect();
    let total: i64 = cube.cells.iter().map(|(_, m)| m[0]).sum();
    let points: Vec<(u64, u32)> = cube
        .cells
        .iter()
        .take(10_000)
        .map(|(keys, _)| {
            let coords: Vec<u32> = (keys.iter().enumerate())
                .map(|(d, &k)| adt.dims()[d].row_of_key(k).expect("key"))
                .collect();
            shape.locate(&coords).expect("locate")
        })
        .collect();
    println!(
        "{:<14} {:>10} {:>12} {:>16} {:>20}",
        "format", "MB", "encode ms", "decode+scan ms", "decode+probe(10k) ms"
    );
    let mut csv = Vec::new();
    for codec in [
        Codec::ChunkOffset,
        Codec::DiffSeq,
        Codec::DenseLzw,
        Codec::Dense,
    ] {
        let t0 = std::time::Instant::now();
        let encoded: Vec<Vec<u8>> = (chunks.iter())
            .map(|c| codec.encode(c, cells as usize))
            .collect();
        let encode_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mb = encoded.iter().map(Vec::len).sum::<usize>() as f64 / 1048576.0;

        // Stored as an array stores its chunks: one large object per
        // chunk on a file, read cold through a 16 MB pool.
        let dir = std::env::temp_dir().join(format!("molap-abl-{}-{codec:?}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let disk = FileDisk::create(dir.join("store.db")).expect("store");
        let pool = Arc::new(BufferPool::with_bytes(Arc::new(disk), 16 << 20));
        let lobs = LobStore::new(pool.clone());
        for bytes in &encoded {
            lobs.append(bytes).expect("append");
        }
        drop(encoded);
        let mut buf = Vec::new();
        let mut read = |chunk_no: u64| {
            lobs.read_into(LobId(chunk_no as u32), &mut buf)
                .expect("read");
            codec.decode(&buf, cells)
        };

        pool.clear().expect("cold");
        let t0 = std::time::Instant::now();
        let sum: i64 = (0..shape.num_chunks())
            .map(|chunk_no| read(chunk_no).sum())
            .sum();
        let scan_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(sum, total, "{codec:?} scan");

        pool.clear().expect("cold");
        let t0 = std::time::Instant::now();
        let hits = (points.iter())
            .filter(|&&(chunk_no, offset)| read(chunk_no).probe(offset).is_some())
            .count();
        let probe_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(hits, points.len(), "{codec:?} probes");

        println!(
            "{:<14} {mb:>10.2} {encode_ms:>12.1} {scan_ms:>16.1} {probe_ms:>20.1}",
            format!("{codec:?}")
        );
        csv.push(format!(
            "{codec:?},{mb:.3},{encode_ms:.1},{scan_ms:.1},{probe_ms:.1}"
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
    ctx.write_csv(
        "ablation_compression",
        "format,encoded_mb,encode_ms,decode_scan_ms,decode_probe10k_ms",
        &csv,
    );
}

fn ablation_chunks(ctx: &Ctx) {
    println!("\n== Ablation: chunk count at fixed data (§5.5.1 observation) ==");
    println!("(paper: scanning 800 small chunks costs more than 80 larger ones)");
    let spec = ctx.ds1(1000);
    println!(
        "{:<22} {:>8} {:>12} {:>12} {:>14}",
        "chunk dims", "chunks", "q1 ms", "q1 physreads", "q2(v=5) ms"
    );
    let mut csv = Vec::new();
    for chunk_dims in [
        [40u32, 40, 40, 125],
        [40, 40, 40, 50],
        [20, 20, 20, 25],
        [20, 20, 20, 10],
        [10, 10, 10, 10],
    ] {
        let spec_sel = spec.clone().with_selection_cardinality(5);
        let sel_level = spec_sel.level_cards[0].len() - 1;
        let fx = ctx.harness.build(&spec_sel, &chunk_dims);
        let chunks = fx.adt.array().shape().num_chunks();
        let (m1, _) = ctx.harness.run_query(&fx, Engine::Array, &query1(4));
        let (m2, _) = ctx
            .harness
            .run_query(&fx, Engine::Array, &query2(4, sel_level));
        println!(
            "{:<22} {chunks:>8} {:>12.1} {:>12} {:>14.1}",
            format!("{chunk_dims:?}"),
            m1.wall_ms,
            m1.io.physical_reads,
            m2.wall_ms
        );
        csv.push(format!(
            "{chunk_dims:?},{chunks},{:.2},{},{:.2}",
            m1.wall_ms, m1.io.physical_reads, m2.wall_ms
        ));
    }
    ctx.write_csv(
        "ablation_chunks",
        "chunk_dims,chunks,q1_ms,q1_physreads,q2_ms",
        &csv,
    );
}

fn ablation_parallel(ctx: &Ctx) {
    use molap_core::{consolidate_pipelined, PrefetchPlan};
    println!("\n== Ablation: pipelined parallel consolidation (paper §6 future work) ==");
    let spec = ctx.ds1(100);
    let fx = ctx.harness.build(&spec, &PAPER_CHUNK_DIMS);
    let q = query1(4);
    let (seq, baseline) = ctx.harness.run_query(&fx, Engine::Array, &q);
    let plan = PrefetchPlan::auto(fx.adt.array().shape().num_chunks());
    println!("{:<10} {:>10} {:>8}", "workers", "ms", "speedup");
    println!("{:<10} {:>10.1} {:>8.2}", "reference", seq.wall_ms, 1.0);
    let mut csv = vec![format!("reference,{:.2},1.0", seq.wall_ms)];
    for threads in [1usize, 2, 4, 8, 16] {
        let mut times = Vec::new();
        let mut result = None;
        for _ in 0..ctx.harness.runs.max(1) {
            fx.pool.clear().expect("cold");
            let t0 = std::time::Instant::now();
            let res = consolidate_pipelined(&fx.adt, &q, threads, plan).expect("pipelined");
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            result = Some(res);
        }
        assert_eq!(result.unwrap(), baseline, "pipelined result must match");
        times.sort_by(|a, b| a.total_cmp(b));
        let ms = times[times.len() / 2];
        println!("{threads:<10} {ms:>10.1} {:>8.2}", seq.wall_ms / ms);
        csv.push(format!("{threads},{ms:.2},{:.3}", seq.wall_ms / ms));
    }
    ctx.write_csv("ablation_parallel", "workers,ms,speedup", &csv);
}

fn print_header(ctx: &Ctx) {
    println!("molap repro harness");
    println!(
        "pool {} MB, {} runs/query (median), {} datasets",
        ctx.harness.pool_bytes >> 20,
        ctx.harness.runs,
        if ctx.quick {
            "QUICK (scaled-down)"
        } else {
            "paper-sized"
        }
    );
    let _ = Measurement {
        wall_ms: 0.0,
        io: Default::default(),
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    // `--format diffseq` (or `--format=diffseq`) selects the array's
    // chunk codec for every fixture this run builds.
    let mut format = molap_core::ChunkFormat::ChunkOffset;
    let mut skip_next = false;
    for (i, a) in args.iter().enumerate() {
        if skip_next {
            skip_next = false;
            continue;
        }
        let value = if let Some(v) = a.strip_prefix("--format=") {
            Some(v.to_string())
        } else if a == "--format" {
            skip_next = true;
            args.get(i + 1).cloned()
        } else {
            None
        };
        if let Some(v) = value {
            format = molap_core::ChunkFormat::parse(&v).unwrap_or_else(|| {
                eprintln!(
                    "repro: unknown chunk format {v:?}; one of: {}",
                    molap_core::ChunkFormat::ALL.map(|f| f.name()).join(", ")
                );
                std::process::exit(2);
            });
        }
    }
    let targets: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !(a.starts_with("--") || *i > 0 && args[i - 1] == "--format"))
        .map(|(_, s)| s.as_str())
        .collect();
    let target = targets.first().copied().unwrap_or("all");

    let csv_dir = std::path::PathBuf::from("target/repro");
    std::fs::create_dir_all(&csv_dir).expect("create target/repro");
    let ctx = Ctx {
        harness: Harness {
            runs: if quick { 1 } else { 3 },
            ..Harness::default()
        }
        .with_format(format),
        quick,
        csv_dir,
    };
    print_header(&ctx);

    let run_all = target == "all";
    if run_all || target == "fig4" {
        fig4(&ctx);
    }
    if run_all || target == "fig5" {
        fig5(&ctx);
    }
    if run_all || target == "fig6" || target == "fig8" {
        query2_sweep(&ctx, 1000, ("6", "8"));
    }
    if run_all || target == "fig7" || target == "fig9" {
        query2_sweep(&ctx, 100, ("7", "9"));
    }
    if run_all || target == "fig10" {
        fig10(&ctx);
    }
    if run_all || target == "storage" {
        storage(&ctx);
    }
    if run_all || target == "ablation-compression" {
        ablation_compression(&ctx);
    }
    if run_all || target == "ablation-chunks" {
        ablation_chunks(&ctx);
    }
    if run_all || target == "ablation-parallel" {
        ablation_parallel(&ctx);
    }
    if !run_all
        && ![
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "storage",
            "ablation-compression",
            "ablation-chunks",
            "ablation-parallel",
        ]
        .contains(&target)
    {
        eprintln!("unknown target {target:?}; see source header for the list");
        std::process::exit(2);
    }
}
