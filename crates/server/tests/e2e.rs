//! End-to-end tests: a real server on a loopback socket, real client
//! connections, and results compared against in-process execution.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use molap_array::ChunkFormat;
use molap_core::{ConsolidationResult, Database, OlapArray, StarSchema};
use molap_datagen::{generate, AttrLayout, CubeSpec};
use molap_server::{ClientError, ErrorCode, Server, ServerClient, ServerConfig};

static NEXT_DB: AtomicUsize = AtomicUsize::new(0);

fn temp_db_path(tag: &str) -> PathBuf {
    let n = NEXT_DB.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "molap-server-e2e-{}-{tag}-{n}.db",
        std::process::id()
    ))
}

fn config(workers: usize, queue_capacity: usize, default_deadline: Duration) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity,
        default_deadline,
    }
}

/// Spins until `done()` holds, or fails instead of hanging. For what an
/// `ExecutionHold` does not count (coalesced followers) and for the
/// deadline tests, whose subject is the clock itself.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < give_up, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}

fn remove_db(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.as_os_str().to_owned();
    wal.push(".wal");
    let _ = std::fs::remove_file(PathBuf::from(wal));
}

fn test_spec() -> CubeSpec {
    CubeSpec {
        dim_sizes: vec![12, 10, 8],
        level_cards: vec![vec![4, 2], vec![3, 2], vec![2, 2]],
        valid_cells: 400,
        seed: 42,
        n_measures: 1,
        independent_last_level: false,
        layout: AttrLayout::Blocked,
    }
}

/// Creates a database holding the test cube as both an array and a
/// star schema.
fn build_db(path: &PathBuf) -> Database {
    let cube = generate(&test_spec()).unwrap();
    let db = Database::create(path, 16 << 20).unwrap();
    let adt = OlapArray::build(
        db.pool().clone(),
        cube.dims.clone(),
        &[6, 5, 4],
        ChunkFormat::ChunkOffset,
        cube.cells.iter().cloned(),
        1,
    )
    .unwrap();
    let schema = StarSchema::build(
        db.pool().clone(),
        cube.dims.clone(),
        cube.cells.iter().cloned(),
        1,
    )
    .unwrap();
    db.save_olap_array("sales", &adt).unwrap();
    db.save_star_schema("sales_rel", &schema).unwrap();
    db.checkpoint().unwrap();
    db
}

const QUERIES: &[&str] = &[
    "SELECT SUM(volume) FROM sales",
    "SELECT SUM(volume), dim0.h01 FROM sales GROUP BY dim0.h01",
    "SELECT AVG(volume), dim1.h11 FROM sales GROUP BY dim1.h11",
    "SELECT COUNT(volume), dim0.h01, dim2.h21 FROM sales GROUP BY dim0.h01, dim2.h21",
    "SELECT SUM(volume), dim0.h01 FROM sales_rel GROUP BY dim0.h01",
    "SELECT MAX(volume), dim1.h12 FROM sales_rel GROUP BY dim1.h12",
];

#[test]
fn concurrent_clients_match_in_process_execution() {
    let path = temp_db_path("concurrent");
    let db = build_db(&path);
    let expected: Vec<ConsolidationResult> = QUERIES
        .iter()
        .map(|sql| db.sql(sql, &["volume"]).unwrap())
        .collect();

    let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        for _ in 0..32 {
            scope.spawn(|| {
                let mut client = ServerClient::connect(addr).unwrap();
                client.ping().unwrap();
                for round in 0..3 {
                    for (sql, want) in QUERIES.iter().zip(&expected) {
                        let got = client.query(sql).unwrap();
                        assert_eq!(&got, want, "round {round}: {sql}");
                    }
                }
            });
        }
    });

    // Control-plane requests work alongside queries.
    let mut client = ServerClient::connect(addr).unwrap();
    let objects = client.list_objects().unwrap();
    assert!(objects
        .iter()
        .any(|(name, kind)| name == "sales" && kind == "OlapArray"));
    assert!(objects
        .iter()
        .any(|(name, kind)| name == "sales_rel" && kind == "StarSchema"));
    let stats = client.stats().unwrap();
    // Identical in-flight queries coalesce onto one execution, so the
    // executed count plus the coalesced count must cover every client
    // request — and every one of them got a verified-correct result.
    assert_eq!(
        stats.queries_ok + stats.queries_coalesced,
        32 * 3 * QUERIES.len() as u64
    );
    assert!(stats.queries_ok >= QUERIES.len() as u64);
    assert_eq!(stats.queries_failed, 0);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    drop(client);

    handle.shutdown();
    assert!(handle.is_stopped());
    remove_db(&path);
}

#[test]
fn query_errors_keep_the_session_alive() {
    let path = temp_db_path("errors");
    let db = build_db(&path);
    let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut client = ServerClient::connect(handle.local_addr()).unwrap();
    let err = client.query("SELECT bogus").unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::QueryError));
    let err = client
        .query("SELECT SUM(volume) FROM no_such_cube")
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::QueryError));
    // The connection is still good for a valid query.
    let result = client.query("SELECT SUM(volume) FROM sales").unwrap();
    assert_eq!(result.rows().len(), 1);

    let stats = client.stats().unwrap();
    assert_eq!(stats.queries_ok, 1);
    assert_eq!(stats.queries_failed, 2);

    handle.shutdown();
    remove_db(&path);
}

#[test]
fn saturated_queue_yields_server_busy_not_a_hang() {
    let path = temp_db_path("busy");
    let db = build_db(&path);
    let handle = Server::start(db, "127.0.0.1:0", config(1, 1, LONG_DEADLINE)).unwrap();
    let addr = handle.local_addr();

    // Eight *distinct* statements: identical ones would coalesce onto
    // a single execution and never touch the queue capacity.
    const DISTINCT: &[&str] = &[
        "SELECT SUM(volume) FROM sales",
        "SELECT SUM(volume), dim0.h01 FROM sales GROUP BY dim0.h01",
        "SELECT SUM(volume), dim0.h02 FROM sales GROUP BY dim0.h02",
        "SELECT SUM(volume), dim1.h11 FROM sales GROUP BY dim1.h11",
        "SELECT SUM(volume), dim1.h12 FROM sales GROUP BY dim1.h12",
        "SELECT SUM(volume), dim2.h21 FROM sales GROUP BY dim2.h21",
        "SELECT SUM(volume), dim2.h22 FROM sales GROUP BY dim2.h22",
        "SELECT SUM(volume), dim0.h01, dim1.h11 FROM sales GROUP BY dim0.h01, dim1.h11",
    ];
    std::thread::scope(|scope| {
        let hold = handle.hold_execution();
        // One query parks on the worker, a second fills the one slot.
        let parked = scope.spawn(|| ServerClient::connect(addr).unwrap().query(DISTINCT[0]));
        hold.wait_for_jobs(1, 0);
        let queued = scope.spawn(|| ServerClient::connect(addr).unwrap().query(DISTINCT[1]));
        hold.wait_for_jobs(1, 1);
        // Every other statement bounces at once.
        let mut client = ServerClient::connect(addr).unwrap();
        for sql in &DISTINCT[2..] {
            let err = client.query(sql).unwrap_err();
            assert_eq!(err.server_code(), Some(ErrorCode::ServerBusy), "{err}");
        }
        drop(hold);
        for admitted in [parked, queued] {
            assert!(!admitted.join().unwrap().unwrap().rows().is_empty());
        }
    });
    let stats = handle.metrics();
    assert_eq!((stats.queries_ok, stats.queries_rejected), (2, 6));

    handle.shutdown();
    remove_db(&path);
}

/// The deadline of the tests that do not test deadlines.
const LONG_DEADLINE: Duration = Duration::from_secs(30);

/// The deadline of the deadline tests: ample for an idle worker to
/// dequeue a query, then waited out on the clock while the hold is on.
const SHORT_DEADLINE: Duration = Duration::from_millis(250);

/// Waits until a query admitted before this call has passed its
/// [`SHORT_DEADLINE`].
fn wait_out_short_deadline() {
    let passed = Instant::now() + SHORT_DEADLINE;
    wait_until("the deadline passed", || Instant::now() > passed);
}

#[test]
fn slow_queries_hit_their_deadline() {
    let path = temp_db_path("deadline");
    let db = build_db(&path);
    let handle = Server::start(db, "127.0.0.1:0", config(1, 8, SHORT_DEADLINE)).unwrap();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let hold = handle.hold_execution();
        let query = scope.spawn(|| ServerClient::connect(addr).unwrap().query(QUERIES[0]));
        // Parked past the queue-wait check: it runs past its deadline.
        hold.wait_for_jobs(1, 0);
        wait_out_short_deadline();
        drop(hold);
        let err = query.join().unwrap().unwrap_err();
        assert_eq!(err.server_code(), Some(ErrorCode::DeadlineExceeded));
        assert!(err.to_string().contains("past its deadline"), "{err}");
    });
    assert_eq!(handle.metrics().deadline_exceeded, 1);

    handle.shutdown();
    remove_db(&path);
}

#[test]
fn queries_that_wait_out_their_deadline_in_the_queue_do_not_run() {
    let path = temp_db_path("queue-deadline");
    let db = build_db(&path);
    let handle = Server::start(db, "127.0.0.1:0", config(1, 8, SHORT_DEADLINE)).unwrap();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let hold = handle.hold_execution();
        // A parks on the one worker; B waits in the queue until both
        // deadlines have passed.
        let a = scope.spawn(|| ServerClient::connect(addr).unwrap().query(QUERIES[0]));
        hold.wait_for_jobs(1, 0);
        let b = scope.spawn(|| ServerClient::connect(addr).unwrap().query(QUERIES[1]));
        hold.wait_for_jobs(1, 1);
        wait_out_short_deadline();
        drop(hold);
        let (ran, queued) = (
            a.join().unwrap().unwrap_err(),
            b.join().unwrap().unwrap_err(),
        );
        assert!(ran.to_string().contains("past its deadline"), "{ran}");
        assert_eq!(queued.server_code(), Some(ErrorCode::DeadlineExceeded));
        let queued = queued.to_string();
        assert!(
            queued.contains("waiting in the admission queue"),
            "{queued}"
        );
    });
    let stats = handle.metrics();
    assert_eq!((stats.deadline_exceeded, stats.queries_ok), (2, 0));

    handle.shutdown();
    remove_db(&path);
}

#[test]
fn shutdown_drains_in_flight_queries() {
    // One in-flight query, then a coalesced pair.
    for clients in [1, 2] {
        drain_in_flight_queries(clients);
    }
}

fn drain_in_flight_queries(clients: usize) {
    let path = temp_db_path("drain");
    let db = build_db(&path);
    let expected = db.sql(QUERIES[1], &["volume"]).unwrap();
    let handle = Server::start(db, "127.0.0.1:0", config(1, 8, LONG_DEADLINE)).unwrap();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let hold = handle.hold_execution();
        let in_flight: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| ServerClient::connect(addr).unwrap().query(QUERIES[1])))
            .collect();
        hold.wait_for_jobs(1, 0);
        let coalesced = || handle.metrics().queries_coalesced == clients as u64 - 1;
        wait_until("the queries coalesced", coalesced);
        // Ask for shutdown from another connection while the queries
        // are held (the ack means the drain has begun), then release.
        let mut admin = ServerClient::connect(addr).unwrap();
        admin.shutdown_server().unwrap();
        drop(hold);

        // The in-flight queries still complete with a full result.
        for query in in_flight {
            assert_eq!(query.join().unwrap().unwrap(), expected);
        }
    });

    handle.wait();
    assert!(handle.is_stopped());

    // The server is gone: new connections are refused (or reset
    // before a response).
    let late =
        ServerClient::connect(addr).and_then(|mut c| c.query("SELECT SUM(volume) FROM sales"));
    assert!(late.is_err(), "queries after shutdown must fail");

    // The checkpoint on shutdown left a reopenable database.
    let db = Database::open(&path, 16 << 20).unwrap();
    assert_eq!(db.sql(QUERIES[1], &["volume"]).unwrap(), expected);
    remove_db(&path);
}

#[test]
fn queries_refused_while_draining() {
    // One occupying query, then a coalesced pair.
    for clients in [1, 2] {
        refuse_while_draining(clients);
    }
}

fn refuse_while_draining(clients: usize) {
    let path = temp_db_path("refuse");
    let db = build_db(&path);
    let handle = Server::start(db, "127.0.0.1:0", config(1, 8, LONG_DEADLINE)).unwrap();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let hold = handle.hold_execution();
        let occupiers: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| ServerClient::connect(addr).unwrap().query(QUERIES[0])))
            .collect();
        hold.wait_for_jobs(1, 0);
        let coalesced = || handle.metrics().queries_coalesced == clients as u64 - 1;
        wait_until("the queries coalesced", coalesced);
        // Connect *before* the drain begins so the session exists.
        let mut straggler = ServerClient::connect(addr).unwrap();
        handle.begin_shutdown();
        // A query submitted during the drain is refused — either with
        // the structured code or, if the race goes the other way, a
        // closed socket. It must not hang.
        match straggler.query("SELECT SUM(volume) FROM sales") {
            Err(e) => {
                if let Some(code) = e.server_code() {
                    assert_eq!(code, ErrorCode::ShuttingDown, "{e}");
                }
            }
            Ok(_) => panic!("query during drain should have been refused"),
        }
        drop(hold);
        for occupier in occupiers {
            let drained = occupier.join().unwrap();
            assert!(
                drained.is_ok(),
                "in-flight query must still drain: {drained:?}"
            );
        }
    });

    handle.wait();
    remove_db(&path);
}

#[test]
fn identical_concurrent_queries_coalesce_and_writes_patch_cubes() {
    let path = temp_db_path("coalesce");
    let db = build_db(&path);
    const SQL: &str = "SELECT SUM(volume), dim0.h01 FROM sales GROUP BY dim0.h01";
    let expected = db.sql(SQL, &["volume"]).unwrap();
    // Keep a writer handle on the same buffer pool before the server
    // takes ownership of the database.
    let mut writer = db.open_olap_array("sales").unwrap();
    let handle = Server::start(db, "127.0.0.1:0", config(2, 32, LONG_DEADLINE)).unwrap();
    let addr = handle.local_addr();

    // Holds one leader until the whole herd has attached to it.
    const HERD: usize = 16;
    let run_herd = |round: u64| -> Vec<ConsolidationResult> {
        std::thread::scope(|scope| {
            let hold = handle.hold_execution();
            let threads: Vec<_> = (0..HERD)
                .map(|_| scope.spawn(|| ServerClient::connect(addr).unwrap().query(SQL)))
                .collect();
            hold.wait_for_jobs(1, 0);
            let coalesced = || handle.metrics().queries_coalesced == round * (HERD as u64 - 1);
            wait_until("the herd coalesced", coalesced);
            drop(hold);
            threads
                .into_iter()
                .map(|t| t.join().unwrap().unwrap())
                .collect()
        })
    };

    // Round 1: one leader executes, fifteen followers attach.
    let round1 = run_herd(1);
    for got in &round1 {
        assert_eq!(got, &expected, "coalesced responses must be identical");
    }
    let stats = handle.metrics();
    assert_eq!(stats.queries_coalesced, HERD as u64 - 1);
    assert_eq!(stats.queries_ok, HERD as u64 - stats.queries_coalesced);
    // The in-process warm-up query populated the result cube cache,
    // so the leader answered from it.
    assert!(stats.io.result_cache_hits >= 1, "{stats:?}");

    // A write through the shared pool delta-patches every cached cube
    // in place instead of flushing the cache.
    let misses_before = stats.io.result_cache_misses;
    let (keys, values) = test_spec_cell();
    writer
        .set_by_keys(&keys, &values.iter().map(|v| v + 1000).collect::<Vec<_>>())
        .unwrap();

    // Round 2: the herd coalesces again, and the leader answers from
    // the patched cube — no recompute, yet the write is visible.
    let round2 = run_herd(2);
    let first = &round2[0];
    for got in &round2 {
        assert_eq!(got, first, "coalesced responses must be identical");
    }
    assert_ne!(first, &expected, "the write must be visible");
    let stats = handle.metrics();
    assert_eq!(stats.queries_coalesced, 2 * (HERD as u64 - 1));
    assert!(stats.io.result_cache_patched >= 1, "{stats:?}");
    assert_eq!(
        stats.io.result_cache_misses, misses_before,
        "delta maintenance must keep the cache hot across the write: {stats:?}"
    );

    handle.shutdown();
    remove_db(&path);
}

#[test]
fn a_query_answers_as_of_its_admission() {
    const SQL: &str = "SELECT SUM(volume), dim0.h01 FROM sales GROUP BY dim0.h01";
    let (keys, values) = test_spec_cell();
    let written: Vec<i64> = values.iter().map(|v| v + 1000).collect();
    // The post-write oracle: the same cell written in a second
    // database that no server touches.
    let oracle_path = temp_db_path("admission-oracle");
    let oracle = build_db(&oracle_path);
    let pre_write = oracle.sql(SQL, &["volume"]).unwrap();
    oracle
        .open_olap_array("sales")
        .unwrap()
        .set_by_keys(&keys, &written)
        .unwrap();
    let post_write = oracle.sql(SQL, &["volume"]).unwrap();
    assert_ne!(pre_write, post_write);
    drop(oracle);
    remove_db(&oracle_path);

    let path = temp_db_path("admission");
    let db = build_db(&path);
    // A writer handle on the server's buffer pool.
    let mut writer = db.open_olap_array("sales").unwrap();
    let handle = Server::start(db, "127.0.0.1:0", config(2, 8, LONG_DEADLINE)).unwrap();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let hold = handle.hold_execution();
        let a = scope.spawn(|| ServerClient::connect(addr).unwrap().query(SQL));
        // A is admitted and parked; commit a write that no server write
        // sees, then send the same statement again. B parks on the
        // second worker: it did not attach to A.
        hold.wait_for_jobs(1, 0);
        writer.set_by_keys(&keys, &written).unwrap();
        let b = scope.spawn(|| ServerClient::connect(addr).unwrap().query(SQL));
        hold.wait_for_jobs(2, 0);
        drop(hold);
        assert_eq!(
            a.join().unwrap().unwrap(),
            pre_write,
            "A reads as of its admission"
        );
        assert_eq!(b.join().unwrap().unwrap(), post_write, "B reads the write");
    });
    let stats = handle.metrics();
    assert_eq!(
        stats.queries_coalesced, 0,
        "B must not attach to A: {stats:?}"
    );
    assert_eq!(stats.queries_ok, 2);

    handle.shutdown();
    remove_db(&path);
}

#[test]
fn a_statement_that_does_not_prepare_takes_no_queue_slot() {
    let path = temp_db_path("unprepared");
    let db = build_db(&path);
    let handle = Server::start(db, "127.0.0.1:0", config(1, 1, LONG_DEADLINE)).unwrap();
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        let hold = handle.hold_execution();
        // One query parks on the worker; a distinct one holds the slot.
        let busy = scope.spawn(|| ServerClient::connect(addr).unwrap().query(QUERIES[0]));
        hold.wait_for_jobs(1, 0);
        let queued = scope.spawn(|| ServerClient::connect(addr).unwrap().query(QUERIES[1]));
        hold.wait_for_jobs(1, 1);

        let mut client = ServerClient::connect(addr).unwrap();
        let err = client.query("SELECT bogus").unwrap_err();
        assert_eq!(err.server_code(), Some(ErrorCode::QueryError), "{err}");
        let stats = handle.metrics();
        assert_eq!(stats.queries_failed, 1, "{stats:?}");
        assert_eq!(stats.queries_rejected, 0, "{stats:?}");

        drop(hold);
        assert!(busy.join().unwrap().is_ok());
        assert!(queued.join().unwrap().is_ok());
    });

    handle.shutdown();
    remove_db(&path);
}

/// An existing cell of the [`test_spec`] cube: its dimension keys and
/// current measure values.
fn test_spec_cell() -> (Vec<i64>, Vec<i64>) {
    let cube = generate(&test_spec()).unwrap();
    cube.cells[0].clone()
}

#[test]
fn malformed_bytes_get_a_structured_error() {
    use molap_server::protocol::{read_frame, Response};
    use std::io::Write;

    let path = temp_db_path("malformed");
    let db = build_db(&path);
    let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut raw = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    // One write: the first 18 bytes already hold a whole (bad) header,
    // so the server may answer and close before a second write lands.
    raw.write_all(&[&b"GET / HTTP/1.1\r\n\r\n"[..], &[0u8; 16]].concat())
        .unwrap();
    let (ty, payload, _) = read_frame(&mut raw)
        .unwrap()
        .expect("an error frame before close");
    match Response::decode(ty, &payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("expected an error frame, got {other:?}"),
    }

    handle.shutdown();
    remove_db(&path);
}

#[test]
fn client_error_from_clienterror_is_reported_cleanly() {
    // ClientError Display formatting used by molap-cli --connect.
    let err = ClientError::Server {
        code: ErrorCode::ServerBusy,
        message: "queue full".into(),
    };
    assert_eq!(err.to_string(), "server error [SERVER_BUSY]: queue full");
}

#[test]
fn writes_commit_durably_and_refresh_query_results() {
    let path = temp_db_path("writes");
    let db = build_db(&path);
    let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut client = ServerClient::connect(addr).unwrap();

    let q = "SELECT SUM(volume), dim0.h01 FROM sales GROUP BY dim0.h01";
    let before = client.query(q).unwrap();
    let (keys, _) = test_spec_cell();
    let written = client
        .write(
            "sales",
            &[(keys, vec![1_000_000]), (vec![11, 9, 7], vec![-3])],
        )
        .unwrap();
    assert_eq!(written, 2);
    let after = client.query(q).unwrap();
    assert_ne!(before, after, "the write must be visible to queries");
    // A repeat (potentially coalesced) query sees the same post-write
    // answer: it reads the write's generation, so it cannot attach to a
    // pre-write leader.
    assert_eq!(client.query(q).unwrap(), after);

    // Failed writes keep the session alive and change nothing.
    let err = client
        .write("no_such_cube", &[(vec![0, 0, 0], vec![1])])
        .unwrap_err();
    assert!(err.server_code().is_some(), "{err}");
    let err = client.write("sales", &[(vec![0, 0], vec![1])]).unwrap_err();
    assert!(err.server_code().is_some(), "{err}");
    assert_eq!(client.query(q).unwrap(), after);

    let stats = client.stats().unwrap();
    assert_eq!(stats.io.write_batches, 1);
    assert_eq!(stats.io.write_cells, 2);

    handle.shutdown();
    assert!(handle.is_stopped());
    // The batch survives a full server restart: the ack implied a
    // durable checkpoint.
    let db = Database::open(&path, 16 << 20).unwrap();
    assert_eq!(db.sql(q, &["volume"]).unwrap(), after);
    drop(db);
    remove_db(&path);
}
