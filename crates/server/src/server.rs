//! The query service: listener, bounded worker pool, admission
//! control, per-query deadlines, and graceful shutdown.
//!
//! # Architecture
//!
//! One thread per connected session reads request frames and writes
//! response frames ([`crate::session`]). A session prepares each
//! statement once (`Database::prepare`), so a query reads as of its
//! admission. Query execution is *not* done on session threads:
//! sessions submit jobs to a bounded queue drained by a fixed worker
//! pool, so a flood of connections cannot oversubscribe the database.
//! When the queue is full, submission fails immediately and the client
//! receives `SERVER_BUSY` — explicit backpressure instead of unbounded
//! latency.
//!
//! Every query carries a deadline (`now + default_deadline` at
//! admission). It is checked when a worker dequeues the job (queued
//! too long) and again after execution (ran too long); either way the
//! client gets `DEADLINE_EXCEEDED`.
//!
//! Graceful shutdown (`ServerHandle::shutdown` or a client `Shutdown`
//! request) flips the server into draining: new connections and new
//! queries are refused, queued and in-flight queries run to
//! completion and their responses are delivered, then session sockets
//! are closed, all threads joined, and the database checkpointed.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use molap_core::{Database, Prepared};
use parking_lot::{Condvar, Mutex};

use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::protocol::{error_code_for, ErrorCode, Response};
use crate::session;

// The whole design hinges on sharing one `Database` across session
// and worker threads; fail the build if it ever stops being
// thread-safe instead of failing at the first data race.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
};

/// Tunables for [`Server::start`]. Tests hold queries in flight with
/// [`ServerHandle::hold_execution`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Executor threads draining the query queue.
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond this get
    /// `SERVER_BUSY`.
    pub queue_capacity: usize,
    /// Deadline granted to each query at admission.
    pub default_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            queue_capacity: 64,
            default_deadline: Duration::from_secs(30),
        }
    }
}

/// A statement's coalescing key: its fingerprint and the commit
/// generation it reads at. Equal keys answer alike.
type InflightKey = (u64, u64);

/// A query job waiting for a worker. It leads its key's entry in the
/// coalescing table and broadcasts its response to the followers that
/// attached.
struct Job {
    prepared: Prepared,
    key: InflightKey,
    deadline: Instant,
    reply: mpsc::SyncSender<Response>,
}

/// Why a submission was refused at admission.
pub(crate) enum AdmissionError {
    /// Queue at capacity.
    Busy,
    /// Server is draining.
    ShuttingDown,
}

struct QueueState {
    jobs: VecDeque<Job>,
    draining: bool,
    /// An [`ExecutionHold`] is open, and the workers it has parked.
    held: bool,
    parked: usize,
}

/// State shared by the accept loop, sessions, and workers.
pub(crate) struct Shared {
    pub(crate) db: Database,
    pub(crate) metrics: ServerMetrics,
    config: ServerConfig,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    /// Wakes held workers and [`ExecutionHold::wait_for_jobs`].
    hold_cv: Condvar,
    /// Concurrent-query coalescing: the key of every admitted but
    /// unfinished query → reply senders of followers that attached
    /// instead of submitting a duplicate. A query sent after a commit
    /// reads a newer generation, so it never attaches to an older
    /// leader. The leader removes its entry (and broadcasts) when its
    /// execution completes. Ordered before `queue` in the workspace
    /// lock order.
    inflight: Mutex<HashMap<InflightKey, Vec<mpsc::SyncSender<Response>>>>,
    /// Socket clones of live sessions, so shutdown can unblock their
    /// reads. Keyed by session id.
    sessions: Mutex<HashMap<u64, TcpStream>>,
    next_session_id: AtomicU64,
    local_addr: SocketAddr,
    stopped: AtomicBool,
}

impl Shared {
    /// Submits a prepared query for execution, or refuses it
    /// immediately. A query whose key matches one already admitted and
    /// not yet finished does not take a queue slot: it attaches to the
    /// in-flight execution and receives a copy of its response.
    pub(crate) fn try_submit(
        &self,
        prepared: Prepared,
    ) -> Result<mpsc::Receiver<Response>, AdmissionError> {
        let key = (prepared.fingerprint(), prepared.generation());
        // Holding `inflight` across admission makes "attach to the
        // leader" and "become the leader" mutually exclusive: a
        // follower can never observe an entry whose job failed
        // admission. `inflight` ranks before `queue`.
        let mut inflight = self.inflight.lock();
        let mut q = self.queue.lock();
        // The drain contract ("new queries are refused") beats
        // coalescing: even a query that could attach to an in-flight
        // execution is turned away once the drain has begun.
        if q.draining {
            return Err(AdmissionError::ShuttingDown);
        }
        let (tx, rx) = mpsc::sync_channel(1);
        if let Some(waiters) = inflight.get_mut(&key) {
            waiters.push(tx);
            self.metrics.queries_coalesced.inc();
            return Ok(rx);
        }
        if q.jobs.len() >= self.config.queue_capacity {
            self.metrics.queries_rejected.inc();
            return Err(AdmissionError::Busy);
        }
        inflight.insert(key, Vec::new());
        q.jobs.push_back(Job {
            prepared,
            key,
            deadline: Instant::now() + self.config.default_deadline,
            reply: tx,
        });
        if q.held {
            self.hold_cv.notify_all();
        }
        drop(q);
        drop(inflight);
        self.queue_cv.notify_one();
        Ok(rx)
    }

    /// Flips the server into draining mode and wakes everything that
    /// might be blocked. Idempotent.
    pub(crate) fn begin_shutdown(&self) {
        {
            let mut q = self.queue.lock();
            if q.draining {
                return;
            }
            q.draining = true;
        }
        self.queue_cv.notify_all();
        // The accept loop blocks in `accept`; a throwaway local
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.queue.lock().draining
    }

    pub(crate) fn register_session(&self, stream: &TcpStream) -> u64 {
        let id = self.next_session_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            self.sessions.lock().insert(id, clone);
        }
        id
    }

    pub(crate) fn unregister_session(&self, id: u64) {
        self.sessions.lock().remove(&id);
    }

    /// The server counters with the pool's folded in: one `STATS` reply.
    pub(crate) fn metrics_report(&self) -> MetricsSnapshot {
        let pool = self.db.pool();
        self.metrics
            .report(pool.stats().snapshot(), pool.shard_stats())
    }

    /// Counts a query that failed to prepare or to execute, and answers
    /// it with its error.
    pub(crate) fn query_error(&self, err: &molap_core::Error, elapsed: Duration) -> Response {
        self.metrics.query_failed(elapsed);
        Response::error(error_code_for(err), err.to_string())
    }

    /// Executes a Write request on the session thread: the database's
    /// commit lock serializes writers, and the ack is only produced
    /// after `Database::write_batch` has checkpointed the batch to
    /// durable storage and published it, so a query sent after the ack
    /// reads the batch's generation.
    pub(crate) fn execute_write(&self, object: &str, rows: &[(Vec<i64>, Vec<i64>)]) -> Response {
        if self.is_draining() {
            let message = "server is draining; no new writes accepted";
            return Response::error(ErrorCode::ShuttingDown, message);
        }
        let mut batch = molap_core::WriteBatch::new();
        for (keys, values) in rows {
            batch.set(keys, values);
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.db.write_batch(object, &batch)
        }));
        match outcome {
            Ok(Ok(receipt)) => Response::WriteAck {
                cells_written: receipt.cells_written,
            },
            Ok(Err(err)) => Response::error(error_code_for(&err), err.to_string()),
            Err(panic) => panic_response(panic, "write execution panicked"),
        }
    }

    fn worker_loop(&self) {
        loop {
            let (job, held) = {
                let mut q = self.queue.lock();
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break (job, q.held);
                    }
                    if q.draining {
                        return;
                    }
                    self.queue_cv.wait(&mut q);
                }
            };
            self.run_job(job, held);
        }
    }

    fn run_job(&self, job: Job, held: bool) {
        let response = self.execute_job(job.prepared, job.deadline, held);
        // Close the coalescing entry *before* delivering: once removed,
        // the next identical submission starts a fresh execution, and
        // every follower captured here gets this response. Attach and
        // removal are both under `inflight`, so no waiter is lost.
        let followers = self.inflight.lock().remove(&job.key).unwrap_or_default();
        for follower in followers {
            let _ = follower.send(response.clone());
        }
        let _ = job.reply.send(response);
    }

    /// Runs a dequeued query. If an [`ExecutionHold`] was open at
    /// dequeue (`held`), the worker parks after the queue-wait check.
    fn execute_job(&self, prepared: Prepared, deadline: Instant, held: bool) -> Response {
        if Instant::now() > deadline {
            self.metrics.deadline_exceeded.inc();
            let message = "query spent its deadline waiting in the admission queue";
            return Response::error(ErrorCode::DeadlineExceeded, message);
        }
        let started = Instant::now();
        if held {
            let mut q = self.queue.lock();
            q.parked += 1;
            self.hold_cv.notify_all();
            while q.held {
                self.hold_cv.wait(&mut q);
            }
            q.parked -= 1;
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prepared.execute()));
        let elapsed = started.elapsed();
        match outcome {
            Ok(Ok(result)) => {
                if Instant::now() > deadline {
                    self.metrics.deadline_exceeded.inc();
                    let message = format!("query ran for {elapsed:?}, past its deadline");
                    Response::error(ErrorCode::DeadlineExceeded, message)
                } else {
                    self.metrics.query_ok(elapsed);
                    Response::ResultSet(result)
                }
            }
            Ok(Err(err)) => self.query_error(&err, elapsed),
            Err(panic) => {
                self.metrics.query_failed(elapsed);
                panic_response(panic, "query execution panicked")
            }
        }
    }
}

/// The `INTERNAL` error answering a caught panic: its message, else
/// `fallback`.
fn panic_response(panic: Box<dyn std::any::Any + Send>, fallback: &str) -> Response {
    let message = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| fallback.into());
    Response::error(ErrorCode::Internal, message)
}

/// The running query service.
pub struct Server;

impl Server {
    /// Binds `addr`, takes ownership of `db`, and starts serving.
    /// Returns a handle for address discovery and shutdown.
    pub fn start(
        db: Database,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            metrics: ServerMetrics::new(),
            config: config.clone(),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                draining: false,
                held: false,
                parked: 0,
            }),
            queue_cv: Condvar::new(),
            hold_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            next_session_id: AtomicU64::new(1),
            local_addr,
            stopped: AtomicBool::new(false),
        });

        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("molap-worker-{i}"))
                    .spawn(move || shared.worker_loop())
            })
            .collect::<io::Result<_>>()?;

        let supervisor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("molap-accept".into())
                .spawn(move || supervise(listener, shared, workers))?
        };

        Ok(ServerHandle {
            shared,
            supervisor: Mutex::new(Some(supervisor)),
        })
    }
}

/// Accepts connections until draining, then tears the service down in
/// order: workers finish the queue, session sockets close, threads
/// join, the database checkpoints.
fn supervise(listener: TcpListener, shared: Arc<Shared>, workers: Vec<JoinHandle<()>>) {
    let mut session_threads: Vec<JoinHandle<()>> = Vec::new();
    for incoming in listener.incoming() {
        if shared.is_draining() {
            break;
        }
        let Ok(stream) = incoming else { continue };
        let shared2 = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("molap-session".into())
            .spawn(move || session::run(stream, shared2));
        if let Ok(handle) = spawned {
            session_threads.push(handle);
        }
        // Opportunistically reap finished sessions so the handle list
        // does not grow without bound on long-lived servers.
        session_threads.retain(|h| !h.is_finished());
    }
    drop(listener);

    // Draining: workers exit once the queue is empty, having delivered
    // every in-flight response.
    for w in workers {
        let _ = w.join();
    }
    // Unblock sessions parked in read_frame and wait for them. The
    // streams are drained out of the lock first: shutdown() can block
    // on the socket, and session threads still take this lock to
    // deregister themselves. Only the read half is shut down: a worker
    // may have handed its final response to a session thread that has
    // not yet written it, and killing the write half here would race
    // that delivery (the drain contract promises in-flight queries
    // deliver their results). The session sees EOF on its next read,
    // exits, and drops the stream, closing the write half.
    let streams: Vec<_> = shared
        .sessions
        .lock()
        .drain()
        .map(|(_, stream)| stream)
        .collect();
    for stream in streams {
        let _ = stream.shutdown(std::net::Shutdown::Read);
    }
    for h in session_threads {
        let _ = h.join();
    }
    if shared.db.is_dirty() {
        if let Err(e) = shared.db.checkpoint() {
            eprintln!("molap-server: checkpoint on shutdown failed: {e}");
        }
    }
    shared.stopped.store(true, Ordering::SeqCst);
}

/// Owner's handle to a running [`Server`]; tests also order queries
/// with its [`ServerHandle::hold_execution`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Snapshot of the server metrics, including buffer-pool I/O and
    /// per-shard counters (the same snapshot a `STATS` request gets).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics_report()
    }

    /// True once the server has fully stopped.
    pub fn is_stopped(&self) -> bool {
        self.shared.stopped.load(Ordering::SeqCst)
    }

    /// Opens an [`ExecutionHold`]. Only queries dequeued while it is
    /// open park; one hold at a time. Drop it before [`Self::wait`] or
    /// [`Self::shutdown`]: a drain waits for the parked queries.
    pub fn hold_execution(&self) -> ExecutionHold<'_> {
        let mut q = self.shared.queue.lock();
        assert!(!q.held, "an execution hold is already open");
        q.held = true;
        ExecutionHold { handle: self }
    }

    /// Begins a graceful shutdown without waiting for it to finish.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the server stops (e.g. a client sent `Shutdown`).
    pub fn wait(&self) {
        let handle = self.supervisor.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Gracefully shuts down: drains in-flight queries, closes
    /// sessions, joins all threads, checkpoints.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
        self.wait();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An event gate on query execution for tests: while open, each worker
/// parks after a dequeued query passes its queue-wait deadline check,
/// before executing it. Dropping the hold releases them.
pub struct ExecutionHold<'a> {
    handle: &'a ServerHandle,
}

impl ExecutionHold<'_> {
    /// Blocks until exactly `parked` queries are parked and `queued`
    /// wait in the admission queue. Panics after a minute without
    /// progress instead of hanging a test.
    pub fn wait_for_jobs(&self, parked: usize, queued: usize) {
        let shared = &self.handle.shared;
        let mut q = shared.queue.lock();
        while (q.parked, q.jobs.len()) != (parked, queued) {
            let stuck = shared.hold_cv.wait_for(&mut q, Duration::from_secs(60));
            assert!(
                !stuck,
                "stuck at {} parked, {} queued",
                q.parked,
                q.jobs.len()
            );
        }
    }
}

impl Drop for ExecutionHold<'_> {
    fn drop(&mut self) {
        self.handle.shared.queue.lock().held = false;
        self.handle.shared.hold_cv.notify_all();
    }
}
