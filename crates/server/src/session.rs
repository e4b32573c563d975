//! Per-connection request loop.
//!
//! Each accepted socket gets one session thread running [`run`]: it
//! reads request frames, dispatches them, and writes exactly one
//! response frame per request. Cheap control requests (`Ping`,
//! `Stats`, `ListObjects`) are answered inline; `Query` is prepared
//! here, then goes through the admission queue so the worker pool
//! bounds database concurrency; `Write` runs on the session thread
//! (the database's commit lock serializes writers) and acks only after
//! the batch is durable; `Shutdown` trips the server into draining and
//! then acknowledges.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use crate::protocol::{read_frame, write_frame, ErrorCode, ProtocolError, Request, Response};
use crate::server::{AdmissionError, Shared};

/// Serves one connection until EOF, a protocol violation, or server
/// shutdown.
pub(crate) fn run(stream: TcpStream, shared: Arc<Shared>) {
    let id = shared.register_session(&stream);
    shared.metrics.session_opened();
    serve(&stream, &shared);
    shared.unregister_session(id);
    shared.metrics.session_closed();
}

fn serve(stream: &TcpStream, shared: &Shared) {
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let (frame_type, payload) = match read_frame(&mut reader) {
            Ok(Some((ty, payload, bytes))) => {
                shared.metrics.bytes_in.add(bytes as u64);
                (ty, payload)
            }
            Ok(None) => return, // clean EOF
            Err(err) => {
                // Best-effort error report, then drop the connection:
                // after a framing error the stream position is
                // unrecoverable.
                let code = match &err {
                    ProtocolError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
                    _ => ErrorCode::MalformedFrame,
                };
                send(shared, &mut writer, Response::error(code, err.to_string()));
                return;
            }
        };
        let request = match Request::decode(frame_type, &payload) {
            Ok(req) => req,
            Err(err) => {
                let response = Response::error(ErrorCode::MalformedFrame, err.to_string());
                send(shared, &mut writer, response);
                return;
            }
        };
        if !send(shared, &mut writer, handle(shared, request)) {
            return;
        }
    }
}

fn handle(shared: &Shared, request: Request) -> Response {
    match request {
        Request::Query { sql, measures } => {
            // A statement is prepared once, here: a failure is answered
            // at once, without a queue slot or a worker.
            let started = Instant::now();
            let measures: Vec<&str> = measures.iter().map(String::as_str).collect();
            let prepared = match shared.db.prepare(&sql, &measures) {
                Ok(prepared) => prepared,
                Err(err) => return shared.query_error(&err, started.elapsed()),
            };
            match shared.try_submit(prepared) {
                Ok(reply) => reply.recv().unwrap_or_else(|_| {
                    let message = "worker dropped the query without replying";
                    Response::error(ErrorCode::Internal, message)
                }),
                Err(AdmissionError::Busy) => {
                    let message = "admission queue is full; retry with backoff";
                    Response::error(ErrorCode::ServerBusy, message)
                }
                Err(AdmissionError::ShuttingDown) => {
                    let message = "server is draining; no new queries accepted";
                    Response::error(ErrorCode::ShuttingDown, message)
                }
            }
        }
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(Box::new(shared.metrics_report())),
        Request::ListObjects => Response::Objects(
            shared
                .db
                .list()
                .into_iter()
                .map(|(name, kind)| (name, format!("{kind:?}")))
                .collect(),
        ),
        Request::Shutdown => {
            // Trip the drain, then acknowledge: an acked client knows
            // new work is refused. The supervisor closes this socket
            // once in-flight queries finish.
            shared.begin_shutdown();
            Response::ShutdownStarted
        }
        Request::Write { object, rows } => shared.execute_write(&object, &rows),
    }
}

/// Writes one response, counting bytes; returns false if the socket
/// is gone.
fn send(shared: &Shared, writer: &mut impl std::io::Write, response: Response) -> bool {
    let (frame_type, payload) = response.encode();
    match write_frame(writer, frame_type, &payload) {
        Ok(bytes) => {
            shared.metrics.bytes_out.add(bytes as u64);
            true
        }
        Err(_) => false,
    }
}
