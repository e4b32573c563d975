//! The traced pass: the per-layer metrics, measured from outside.
//!
//! The same seeded request stream is played twice. Through the server,
//! every other client round trip is wrapped in a span, which gives the
//! tracing overhead under identical conditions. Then in-process on the
//! traced twin, with a span around each public entry point a request
//! passes through, followed by probes of single layers (page fetch,
//! chunk read, codecs, index lists, result build).

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use molap_array::{diffseq, lzw, CompressedChunk};
use molap_core::{
    apply_batch, consolidate_auto, parse_query, shared_result_cache, CacheKey, OlapArray, Query,
    WriteBatch,
};
use molap_server::protocol::HEADER_LEN;
use molap_server::{Request, Response};
use molap_storage::PageId;

use crate::drive::{Expected, Op, Outcome, Stream};
use crate::fixture::{apply_regime, Twin};
use crate::span::Tracer;
use crate::stats::{mean, median, ratio};
use crate::workload::{write_mix_shapes, Traffic, Workload, MEASURES, OBJECT};
use crate::Metric;

/// Size of a WAL record: page id, CRC, page image (`storage::wal`).
const WAL_RECORD_BYTES: u64 = 8 + 4 + molap_storage::PAGE_SIZE as u64;

/// How many queries and then commits the in-process pass replays (for
/// `write_mix`, how many requests of its cycle): a fixed count for a
/// given `--seconds`, so its counters repeat exactly for a seed, and at
/// the default window long enough (seconds) to average over the host's
/// drift as the server pass does.
fn replay_plan(w: &Workload, seconds: f64) -> (usize, usize) {
    let scale = seconds.clamp(1.0, 20.0);
    match w.traffic {
        Traffic::WriteMix => ((10.0 * scale) as usize, 0),
        _ => ((10.0 * scale) as usize, scale as usize),
    }
}

#[derive(Default)]
struct Replay {
    queries: u64,
    commits: u64,
    cells_written: u64,
    failed: u64,
    request_bytes: u64,
    response_bytes: u64,
    result_rows: u64,
}

/// Encodes `request` into a frame and decodes it again, as client and
/// session thread do; returns it with the frame's size on the wire.
fn over_the_wire(t: &mut Tracer, request: Request) -> (Request, u64) {
    let (ty, payload) = t.span("wire.encode_request", |_| request.encode());
    let request = t.span("wire.decode_request", |_| {
        Request::decode(ty, &payload).expect("decode the request")
    });
    (request, (HEADER_LEN + payload.len()) as u64)
}

/// The same for the reply, session thread to client.
fn back_over_the_wire(t: &mut Tracer, response: Response) -> (Response, u64) {
    let (ty, frame) = t.span("wire.encode_response", |_| response.encode());
    let response = t.span("wire.decode_response", |_| {
        Response::decode(ty, &frame).expect("decode the response")
    });
    (response, (HEADER_LEN + frame.len()) as u64)
}

/// Plays the next requests in-process on the twin, one root `query` or
/// `write` span each, with child spans around the public calls the
/// server makes for it: frame encode/decode, `Database::query_fingerprint`'s and
/// `Database::sql`'s array reopen and parse, `consolidate_auto`, and
/// `apply_batch` for a `WRITE`.
fn replay(
    w: &Workload,
    twin: &mut Twin,
    stream: &mut Stream,
    expected: &mut Expected,
    queries: usize,
    commits: usize,
    tracer: &mut Tracer,
) -> Replay {
    let mut out = Replay::default();
    let measures: Vec<String> = MEASURES.iter().map(|m| m.to_string()).collect();
    let mut meta = twin.adt.meta_to_bytes();
    for i in 0..queries + commits {
        let op = stream.next(&twin.cells, &expected.model, i >= queries);
        apply_regime(w.regime, &twin.pool);
        std::thread::sleep(stream.think_time());
        tracer.next_request();
        match op {
            Op::Query { sql, check } => {
                let pool = &twin.pool;
                let reopen = |t: &mut Tracer| {
                    t.span("catalog.open_array", |_| {
                        OlapArray::from_meta_bytes(pool.clone(), &meta.clone())
                            .expect("reopen the array")
                    })
                };
                let (sent, received, reply) = tracer.span("query", |t| {
                    let request = Request::Query {
                        sql,
                        measures: measures.clone(),
                    };
                    let (Request::Query { sql, .. }, sent) = over_the_wire(t, request) else {
                        unreachable!("a query was encoded")
                    };
                    t.span("server.fingerprint", |t| {
                        let adt = reopen(t);
                        t.span("sql.parse", |_| {
                            black_box(parse_query(&sql, adt.dims(), &MEASURES).expect("parse"))
                        });
                    });
                    let result = t.span("db.sql", |t| {
                        let adt = reopen(t);
                        let statement = t.span("sql.parse", |_| {
                            parse_query(&sql, adt.dims(), &MEASURES).expect("parse")
                        });
                        t.span("exec.consolidate", |_| {
                            consolidate_auto(&adt, &statement.query).expect("consolidate")
                        })
                    });
                    let (reply, received) = back_over_the_wire(t, Response::ResultSet(result));
                    (sent, received, reply)
                });
                out.queries += 1;
                out.request_bytes += sent;
                out.response_bytes += received;
                match reply {
                    Response::ResultSet(rows) => {
                        out.result_rows += rows.rows().len() as u64;
                        out.failed += u64::from(!expected.holds(check, &rows));
                    }
                    _ => out.failed += 1,
                }
            }
            Op::Write(rows) => {
                let pool = twin.pool.clone();
                let meta_now = &mut meta;
                let (sent, received, written) = tracer.span("write", |t| {
                    let request = Request::Write {
                        object: OBJECT.to_string(),
                        rows: rows.clone(),
                    };
                    let (Request::Write { rows, .. }, sent) = over_the_wire(t, request) else {
                        unreachable!("a write was encoded")
                    };
                    let mut batch = WriteBatch::new();
                    for (keys, values) in &rows {
                        batch.set(keys, values);
                    }
                    // `Database::write_batch` reopens the array from the
                    // catalog for every batch.
                    let mut adt = t.span("catalog.open_array", |_| {
                        OlapArray::from_meta_bytes(pool.clone(), &meta_now.clone())
                            .expect("reopen the array")
                    });
                    let receipt = t.span("write.commit", |_| {
                        apply_batch(&mut adt, &batch).expect("commit the batch")
                    });
                    *meta_now = adt.meta_to_bytes();
                    let ack = Response::WriteAck {
                        cells_written: receipt.cells_written,
                    };
                    let (_, received) = back_over_the_wire(t, ack);
                    (sent, received, receipt.cells_written)
                });
                out.commits += 1;
                out.request_bytes += sent;
                out.response_bytes += received;
                out.cells_written += written;
                if written == rows.len() as u64 {
                    expected.model.apply(&twin.cells, &rows);
                } else {
                    out.failed += 1;
                }
            }
        }
    }
    // The probes that follow read through the twin's own handle.
    twin.adt = OlapArray::from_meta_bytes(twin.pool.clone(), &meta).expect("reopen the array");
    out
}

/// The distinct queries of a workload, for the single-layer probes.
fn probe_queries(w: &Workload, stream: &Stream) -> Vec<Query> {
    match w.traffic {
        Traffic::WriteMix => write_mix_shapes()
            .into_iter()
            .map(|s| s.statement.query)
            .collect(),
        _ => stream.script().iter().map(|s| s.query.clone()).collect(),
    }
}

/// `select.index_list` spans: §4.2 step 1 for every selected dimension
/// of every distinct statement (`OlapArray::selection_index_list`).
fn probe_index_lists(adt: &OlapArray, queries: &[Query], tracer: &mut Tracer) {
    for query in queries.iter().filter(|q| q.has_selection()) {
        tracer.next_request();
        tracer.span("select.index_list", |_| {
            for d in 0..query.n_dims() {
                black_box(adt.selection_index_list(query, d).expect("index list"));
            }
        });
    }
}

/// `result.build` spans: `ResultCube::to_result` on the cube that
/// `consolidate_auto` left in the result cache. `rescache.hit` spans:
/// the same query answered again from that cache.
fn probe_result_cache(adt: &OlapArray, queries: &[Query], tracer: &mut Tracer) {
    let pool = adt.pool();
    let cache = shared_result_cache(pool).expect("the pool has a result cache");
    for query in queries.iter().take(20) {
        tracer.next_request();
        consolidate_auto(adt, query).expect("fill the result cache");
        let key = CacheKey::of(adt, query);
        let cube = cache
            .candidates(adt.identity_hash(), pool.epoch())
            .into_iter()
            .find(|(k, _)| **k == key)
            .map(|(_, cube)| cube)
            .expect("consolidate_auto cached its cube");
        for _ in 0..5 {
            tracer.span("result.build", |_| {
                black_box(cube.to_result(&query.aggs).expect("build rows"))
            });
            tracer.span("rescache.hit", |_| {
                black_box(consolidate_auto(adt, query).expect("cached answer"))
            });
        }
    }
}

/// Fetches of a resident page per `pool.fetch_hit` span.
const FETCHES: u32 = 20_000;

fn probe_page_fetch(twin: &Twin, tracer: &mut Tracer) {
    tracer.next_request();
    drop(twin.pool.fetch(PageId(0)).expect("fault page 0 in"));
    tracer.span("pool.fetch_hit", |_| {
        for _ in 0..FETCHES {
            black_box(twin.pool.fetch(PageId(0)).expect("resident page"));
        }
    });
}

/// `array.read_chunk_cold` and `array.read_chunk_warm` spans: each
/// chunk read once right after `BufferPool::clear` (chunk-cache miss,
/// pages faulted from the disk) and once more (chunk-cache hit).
fn probe_chunk_reads(twin: &Twin, tracer: &mut Tracer) {
    tracer.next_request();
    twin.pool.clear().expect("no page is pinned");
    let array = twin.adt.array();
    for chunk_no in 0..array.shape().num_chunks() {
        tracer.span("array.read_chunk_cold", |_| {
            black_box(array.read_chunk(chunk_no).expect("read chunk"))
        });
        tracer.span("array.read_chunk_warm", |_| {
            black_box(array.read_chunk(chunk_no).expect("read chunk"))
        });
    }
}

/// Valid cells and encoded bytes (chunk_offset, diff_seq, dense LZW) of
/// the chunks the codec probe sampled.
struct CodecSample {
    cells: u64,
    bytes: [u64; 3],
}

/// Decodes of each sampled chunk per codec.
const DECODE_REPEATS: u32 = 3;

/// Encodes a sample of the cube's own chunks in each of the three
/// codecs and runs each decoder on them inside a `decode.*` span.
fn probe_codecs(twin: &Twin, tracer: &mut Tracer) -> CodecSample {
    const SAMPLE: u64 = 16;
    tracer.next_request();
    let array = twin.adt.array();
    let chunk_cells = array.shape().chunk_cells();
    let num_chunks = array.shape().num_chunks();
    let sample = SAMPLE.min(num_chunks);
    let mut out = CodecSample {
        cells: 0,
        bytes: [0; 3],
    };
    for i in 0..sample {
        let chunk = array.read_chunk(i * num_chunks / sample).expect("read");
        let chunk: CompressedChunk = Arc::unwrap_or_clone(chunk).into_compressed();
        if chunk.is_empty() {
            continue;
        }
        let offset_bytes = chunk.to_bytes();
        let diff_bytes = diffseq::compress(&chunk);
        let lzw_bytes = lzw::compress(&chunk.to_dense(chunk_cells as usize).to_bytes());
        out.cells += chunk.len() as u64;
        out.bytes[0] += offset_bytes.len() as u64;
        out.bytes[1] += diff_bytes.len() as u64;
        out.bytes[2] += lzw_bytes.len() as u64;
        let limit = chunk_cells as u32;
        for _ in 0..DECODE_REPEATS {
            tracer.span("decode.chunk_offset", |_| {
                black_box(CompressedChunk::from_bytes(&offset_bytes).expect("decode"));
            });
            tracer.span("decode.diffseq", |_| {
                black_box(diffseq::decompress_fast(&diff_bytes, limit).expect("decode"));
            });
            tracer.span("decode.diffseq_cursor", |_| {
                let mut cursor = diffseq::DiffSeqCursor::new(&diff_bytes, limit).expect("cursor");
                while let Some(batch) = cursor.next_batch().expect("batch") {
                    black_box(batch);
                }
            });
            tracer.span("decode.lzw", |_| {
                black_box(lzw::decompress_fast(&lzw_bytes).expect("decode"));
            });
        }
    }
    out
}

fn mean_ns(tracer: &Tracer, name: &str) -> f64 {
    mean(&tracer.durations(name))
}

/// The in-process half of the traced pass and the metrics of both.
#[allow(clippy::too_many_arguments)]
pub fn layer_metrics(
    w: &Workload,
    seed: u64,
    seconds: f64,
    server: &Outcome,
    rejected: u64,
    twin: &mut Twin,
    tracer: &mut Tracer,
    trace_path: &Path,
) -> (Vec<Metric>, u64, u64) {
    let mut stream = Stream::new(w, seed);
    let mut expected = Expected::new(w, &stream, &twin.adt, &twin.cells);
    let (queries, commits) = replay_plan(w, seconds);

    let disk_before = twin.disk.counters();
    let io_before = twin.pool.stats().snapshot();
    let replayed = replay(
        w,
        twin,
        &mut stream,
        &mut expected,
        queries,
        commits,
        tracer,
    );
    let io = twin.pool.stats().snapshot().since(&io_before);
    let disk = twin.disk.counters().since(&disk_before);

    let probes = probe_queries(w, &stream);
    probe_index_lists(&twin.adt, &probes, tracer);
    probe_result_cache(&twin.adt, &probes, tracer);
    probe_page_fetch(twin, tracer);
    probe_chunk_reads(twin, tracer);
    let codecs = probe_codecs(twin, tracer);
    tracer
        .write_json(trace_path, w.name, seed)
        .expect("write the trace file");

    // Server pass: tracing overhead from alternating round trips, and
    // what the in-process request does not explain.
    let split = |traced: bool| -> Vec<f64> {
        server
            .query_ms
            .iter()
            .zip(&server.query_traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&ms, _)| ms)
            .collect()
    };
    let (with_span, without) = (split(true), split(false));
    let overhead_share = if with_span.is_empty() || without.is_empty() {
        0.0
    } else {
        (median(&with_span) - median(&without)) / median(&without)
    };
    let request_ns = tracer.durations("query");
    // How much of a query's round trip through the server the
    // in-process spans account for; the rest is queueing, the thread
    // hop and TCP.
    let (server_overhead_ns, accounted_share) =
        if server.query_ms.is_empty() || request_ns.is_empty() {
            (0.0, 0.0)
        } else {
            let round_trip_ns = median(&server.query_ms) * 1e6;
            let in_process_ns = median(&request_ns);
            (round_trip_ns - in_process_ns, in_process_ns / round_trip_ns)
        };

    let num_chunks = twin.adt.array().shape().num_chunks();
    let valid_cells = twin.adt.valid_cells();
    let consolidate_ns = mean_ns(tracer, "exec.consolidate");
    let warm_chunk_ns = mean_ns(tracer, "array.read_chunk_warm");
    let result_build_ns = mean_ns(tracer, "result.build");
    let chunks_per_query = ratio(io.prefetch_issued, replayed.queries);
    let commit_ns = mean_ns(tracer, "write.commit");
    let n_requests = (replayed.queries + replayed.commits).max(1) as f64;
    let encode_ns: f64 = ["wire.encode_request", "wire.encode_response"]
        .iter()
        .map(|n| tracer.durations(n).iter().sum::<f64>())
        .sum::<f64>()
        / n_requests;
    let decode_ns: f64 = ["wire.decode_request", "wire.decode_response"]
        .iter()
        .map(|n| tracer.durations(n).iter().sum::<f64>())
        .sum::<f64>()
        / n_requests;
    // Only commits write: queries dirty no page, so the replay's disk
    // writes and syncs are the commits'.
    let commit_io_ns = (disk.write_ns + disk.sync_ns) as f64 / replayed.commits.max(1) as f64;
    // The WAL is not behind a trait, so its bytes are inferred: the
    // pool journals each page it writes back exactly once.
    let commit_bytes = disk.write_bytes + io.physical_writes * WAL_RECORD_BYTES;
    let decode_ns_per_cell = |name: &str| {
        tracer.durations(name).iter().sum::<f64>()
            / (codecs.cells * u64::from(DECODE_REPEATS)) as f64
    };

    let m = |name, value: f64, unit| Metric { name, value, unit };
    let c = |name, value: u64| Metric {
        name,
        value: value as f64,
        unit: "count",
    };
    let metrics = vec![
        c("disk.read_calls", disk.read_calls),
        m("disk.read_bytes", disk.read_bytes as f64, "B"),
        m("disk.read_ns", disk.read_ns as f64, "ns"),
        c("disk.write_calls", disk.write_calls),
        m("disk.write_bytes", disk.write_bytes as f64, "B"),
        m("disk.write_ns", disk.write_ns as f64, "ns"),
        c("disk.sync_calls", disk.sync_calls),
        m("disk.sync_ns", disk.sync_ns as f64, "ns"),
        c("pool.logical_reads", io.logical_reads),
        c("pool.physical_reads", io.physical_reads),
        c("pool.random_physical_reads", io.random_physical_reads()),
        c("pool.evictions", io.evictions),
        m("pool.hit_rate", io.hit_rate(), "ratio"),
        m(
            "pool.fetch_hit_ns",
            mean_ns(tracer, "pool.fetch_hit") / f64::from(FETCHES),
            "ns",
        ),
        m(
            "decode.chunk_offset_ns_per_cell",
            decode_ns_per_cell("decode.chunk_offset"),
            "ns/cell",
        ),
        m(
            "decode.diffseq_ns_per_cell",
            decode_ns_per_cell("decode.diffseq"),
            "ns/cell",
        ),
        m(
            "decode.diffseq_cursor_ns_per_cell",
            decode_ns_per_cell("decode.diffseq_cursor"),
            "ns/cell",
        ),
        m(
            "decode.lzw_ns_per_cell",
            decode_ns_per_cell("decode.lzw"),
            "ns/cell",
        ),
        m(
            "codec.chunk_offset_bytes_per_cell",
            ratio(codecs.bytes[0], codecs.cells),
            "B/cell",
        ),
        m(
            "codec.diffseq_bytes_per_cell",
            ratio(codecs.bytes[1], codecs.cells),
            "B/cell",
        ),
        m(
            "codec.lzw_bytes_per_cell",
            ratio(codecs.bytes[2], codecs.cells),
            "B/cell",
        ),
        m(
            "array.read_chunk_cold_ns",
            mean_ns(tracer, "array.read_chunk_cold"),
            "ns",
        ),
        m("array.read_chunk_warm_ns", warm_chunk_ns, "ns"),
        c("chunk_cache.hits", io.chunk_cache_hits),
        c("chunk_cache.misses", io.chunk_cache_misses),
        m("chunk_cache.hit_rate", io.chunk_cache_hit_rate(), "ratio"),
        c("chunk_cache.evictions", io.chunk_cache_evictions),
        c("prefetch.issued", io.prefetch_issued),
        c("prefetch.hits", io.prefetch_hits),
        c("prefetch.wasted", io.prefetch_wasted),
        c("prefetch.queue_peak", io.prefetch_queue_peak),
        m(
            "select.index_list_ns",
            mean_ns(tracer, "select.index_list"),
            "ns",
        ),
        c("select.planner_btree", io.planner_btree),
        c("select.planner_hbi", io.planner_hbi),
        c("hbi.probes", io.hbi_probes),
        c("hbi.bitmaps_read", io.hbi_bitmaps_read),
        m(
            "select.chunks_read_share",
            chunks_per_query / num_chunks as f64,
            "ratio",
        ),
        m("exec.consolidate_ns", consolidate_ns, "ns"),
        m(
            "exec.ns_per_cell",
            consolidate_ns / valid_cells as f64,
            "ns/cell",
        ),
        m(
            "exec.residual_ns",
            consolidate_ns - chunks_per_query * warm_chunk_ns - result_build_ns,
            "ns",
        ),
        c("rescache.hits", io.result_cache_hits),
        c("rescache.misses", io.result_cache_misses),
        c("rescache.derived", io.result_cache_derived),
        c("rescache.patched", io.result_cache_patched),
        c("rescache.fallbacks", io.result_cache_fallbacks),
        m("rescache.hit_ns", mean_ns(tracer, "rescache.hit"), "ns"),
        m("result.build_ns", result_build_ns, "ns"),
        m(
            "result.rows",
            ratio(replayed.result_rows, replayed.queries),
            "count",
        ),
        m("sql.parse_ns", mean_ns(tracer, "sql.parse"), "ns"),
        m(
            "catalog.open_array_ns",
            mean_ns(tracer, "catalog.open_array"),
            "ns",
        ),
        m("write.commit_ns", commit_ns, "ns"),
        m(
            "write.syncs_per_commit",
            ratio(disk.sync_calls, replayed.commits),
            "count",
        ),
        m(
            "write.disk_bytes_per_cell",
            ratio(commit_bytes, replayed.cells_written),
            "B/cell",
        ),
        m("write.residual_ns", commit_ns - commit_io_ns, "ns"),
        m(
            "wire.request_bytes",
            replayed.request_bytes as f64 / n_requests,
            "B",
        ),
        m(
            "wire.response_bytes",
            replayed.response_bytes as f64 / n_requests,
            "B",
        ),
        m("wire.encode_ns", encode_ns, "ns"),
        m("wire.decode_ns", decode_ns, "ns"),
        m("server.overhead_ns", server_overhead_ns, "ns"),
        c("server.rejected", rejected),
        c(
            "olc.restarts",
            io.opt_pool_restarts
                + io.opt_chunk_restarts
                + io.opt_result_restarts
                + io.opt_btree_restarts,
        ),
        c(
            "olc.escalations",
            io.opt_pool_escalations
                + io.opt_chunk_escalations
                + io.opt_result_escalations
                + io.opt_btree_escalations,
        ),
        m("trace.overhead_share", overhead_share, "ratio"),
        m("trace.accounted_share", accounted_share, "ratio"),
    ];
    (
        metrics,
        replayed.queries + replayed.commits,
        replayed.failed,
    )
}
