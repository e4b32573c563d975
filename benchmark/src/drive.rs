//! The request stream of a workload and the closed loop that plays it
//! through the server over one `ServerClient` connection.

use std::time::{Duration, Instant};

use molap_core::ConsolidationResult;
use molap_server::ServerClient;

use crate::fixture::{apply_regime, Running};
use crate::model::Model;
use crate::span::Tracer;
use crate::workload::{
    query1, select_sweep_script, write_mix_shapes, Cells, Rng, Statement, Traffic, Workload,
    WriteGen, MEASURES, OBJECT,
};

/// Share of the measured window a read-only workload spends on its
/// tail of commits; the rest goes to its queries.
pub const COMMIT_TAIL_SHARE: f64 = 0.4;

/// How a query's answer is checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// Against the oracle's answer to script statement `i`.
    Script(usize),
    /// Against the model's current answer to shape `i`.
    Shape(usize),
}

pub enum Op {
    Query { sql: String, check: Check },
    Write(Vec<(Vec<i64>, Vec<i64>)>),
}

/// The seeded, endless request stream of one workload. The server pass
/// and the in-process pass each play their own copy, so both see the
/// same requests in the same order.
pub struct Stream {
    traffic: Traffic,
    script: Vec<Statement>,
    next_statement: usize,
    writes: WriteGen,
    /// `write_mix`: position in the 5-op cycle and in the rotation of
    /// shapes 1..=5.
    cycle: usize,
    rotation: usize,
    think: Rng,
}

impl Stream {
    pub fn new(w: &Workload, seed: u64) -> Stream {
        Stream {
            traffic: w.traffic,
            script: match w.traffic {
                Traffic::Query1 => vec![query1()],
                Traffic::SelectSweep => select_sweep_script(seed),
                Traffic::WriteMix => Vec::new(),
            },
            next_statement: 0,
            writes: WriteGen::new(seed),
            cycle: 0,
            rotation: 0,
            think: Rng::new(seed ^ 0x7417_4b71_3e00_0003),
        }
    }

    /// The client's pause before its next request: uniform in 0..4 ms.
    /// A client that sends the instant the last reply lands is locked
    /// to the kernel's timer tick (the reply of a small result is
    /// released by a 40 ms delayed-ACK timer), and every latency then
    /// sits on a 4 ms grid where a median jumps a whole step between
    /// runs. The pause spreads requests over the tick, as clients that
    /// are not benchmarks are. It is not part of any reported time.
    pub fn think_time(&mut self) -> Duration {
        Duration::from_micros(self.think.below(4000))
    }

    /// The distinct statements the oracle answers at set-up.
    pub fn script(&self) -> &[Statement] {
        &self.script
    }

    /// The next request. `commit_tail` selects the tail of commits of a
    /// read-only workload; `write_mix` ignores it.
    pub fn next(&mut self, cells: &Cells, model: &Model, commit_tail: bool) -> Op {
        if self.traffic == Traffic::WriteMix {
            let slot = self.cycle;
            self.cycle = (self.cycle + 1) % 5;
            let shape = match slot {
                0 => return Op::Write(self.writes.next_batch(cells)),
                1 => 0,
                _ => {
                    self.rotation = self.rotation % 5 + 1;
                    self.rotation
                }
            };
            return Op::Query {
                sql: model.shape(shape).statement.sql.clone(),
                check: Check::Shape(shape),
            };
        }
        if commit_tail {
            return Op::Write(self.writes.next_batch(cells));
        }
        let i = self.next_statement;
        self.next_statement = (i + 1) % self.script.len();
        Op::Query {
            sql: self.script[i].sql.clone(),
            check: Check::Script(i),
        }
    }
}

/// Everything a response is checked against.
pub struct Expected {
    /// The oracle's answer to each script statement.
    pub oracle: Vec<ConsolidationResult>,
    pub model: Model,
}

impl Expected {
    /// Runs the sequential oracle over the stream's script and the
    /// model's shapes.
    pub fn new(
        w: &Workload,
        stream: &Stream,
        adt: &molap_core::OlapArray,
        cells: &Cells,
    ) -> Expected {
        let oracle = stream
            .script()
            .iter()
            .map(|s| adt.consolidate(&s.query).expect("oracle consolidation"))
            .collect();
        let mut shapes = write_mix_shapes();
        if w.traffic != Traffic::WriteMix {
            shapes.truncate(1); // the grand total closes every run
        }
        Expected {
            oracle,
            model: Model::new(adt, cells, shapes),
        }
    }

    pub fn holds(&self, check: Check, result: &ConsolidationResult) -> bool {
        match check {
            Check::Script(i) => self.oracle[i] == *result,
            Check::Shape(i) => self.model.matches(i, result),
        }
    }
}

/// What one pass through the server measured.
#[derive(Default)]
pub struct Outcome {
    /// Client round trips of verified-correct requests, in ms.
    pub query_ms: Vec<f64>,
    /// Parallel to `query_ms`: whether a span wrapped the round trip.
    pub query_traced: Vec<bool>,
    pub commit_ms: Vec<f64>,
    /// Measured wall time the queries (commits) ran in, with the
    /// benchmark's own cache control and checking subtracted.
    pub query_wall_s: f64,
    pub commit_wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

enum Reply {
    Rows(ConsolidationResult),
    Ack(u64),
}

/// `None` when the server refused the request, answered with an error
/// or the connection failed.
fn send(client: &mut ServerClient, op: &Op) -> Option<Reply> {
    match op {
        Op::Query { sql, .. } => client
            .query_with_measures(sql, &MEASURES)
            .ok()
            .map(Reply::Rows),
        Op::Write(batch) => client.write(OBJECT, batch).ok().map(Reply::Ack),
    }
}

/// Plays `stream` through the server for `seconds` after a short
/// warm-up: one request at a time, the next sent only when the previous
/// reply has been read and checked and the client has paused for its
/// think time (closed loop, one client). With a
/// tracer, every other round trip is wrapped in a `client.round_trip`
/// span, so traced and untraced latencies come from one run.
pub fn drive(
    w: &Workload,
    run: &mut Running,
    stream: &mut Stream,
    expected: &mut Expected,
    cells: &Cells,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    let mut out = Outcome::default();
    // Warm-up: fill the caches the workload keeps warm and let lazy
    // set-up finish. Read-only workloads warm up with queries only, as
    // a write would change the answers the oracle computed.
    let warm_up = match w.traffic {
        Traffic::Query1 => 3,
        Traffic::SelectSweep => 20,
        Traffic::WriteMix => 10,
    };
    let tail = seconds * COMMIT_TAIL_SHARE;
    let phases = match w.traffic {
        Traffic::WriteMix => vec![(false, warm_up, seconds)],
        _ => vec![(false, warm_up, seconds - tail), (true, 0, tail)],
    };
    for (commit_tail, warm_up, seconds) in phases {
        let mut sent = 0;
        let mut own = Duration::ZERO;
        let mut started = Instant::now();
        loop {
            if sent == warm_up {
                own = Duration::ZERO;
                started = Instant::now();
            }
            if sent >= warm_up && started.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let mine = Instant::now();
            let op = stream.next(cells, &expected.model, commit_tail);
            apply_regime(w.regime, &run.pool);
            std::thread::sleep(stream.think_time());
            own += mine.elapsed();

            let sent_at = Instant::now();
            let traced = tracer.is_some() && sent % 2 == 0;
            let reply = match tracer.as_deref_mut() {
                Some(t) if traced => {
                    t.next_request();
                    t.span("client.round_trip", |_| send(&mut run.client, &op))
                }
                _ => send(&mut run.client, &op),
            };
            let ms = sent_at.elapsed().as_secs_f64() * 1e3;

            let mine = Instant::now();
            let correct = match (&op, reply) {
                (Op::Query { check, .. }, Some(Reply::Rows(rows))) => expected.holds(*check, &rows),
                (Op::Write(batch), Some(Reply::Ack(n))) if n == batch.len() as u64 => {
                    expected.model.apply(cells, batch);
                    true
                }
                _ => false,
            };
            out.attempted += 1;
            out.failed += u64::from(!correct);
            if correct && sent >= warm_up {
                match op {
                    Op::Query { .. } => {
                        out.query_ms.push(ms);
                        out.query_traced.push(traced);
                    }
                    Op::Write(_) => out.commit_ms.push(ms),
                }
            }
            sent += 1;
            own += mine.elapsed();
        }
        let wall_s = (started.elapsed() - own).as_secs_f64();
        match (w.traffic, commit_tail) {
            (Traffic::WriteMix, _) => {
                out.query_wall_s = wall_s;
                out.commit_wall_s = wall_s;
            }
            (_, false) => out.query_wall_s = wall_s,
            (_, true) => out.commit_wall_s = wall_s,
        }
    }
    out
}
