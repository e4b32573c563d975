//! A concurrent TCP query service over a shared [`molap_core::Database`].
//!
//! The paper's engine evaluates multi-dimensional queries against
//! array-backed storage; this crate turns that library into a *server*:
//! many client sessions share one database instance, query execution is
//! funneled through a bounded worker pool with explicit admission
//! control (`SERVER_BUSY` backpressure instead of unbounded queueing),
//! each query carries a deadline, and shutdown drains in-flight work
//! before checkpointing.
//!
//! - [`protocol`] — length-prefixed wire framing, message encoding, and
//!   the protocol specification tables.
//! - [`server`] — [`Server`], [`ServerConfig`], [`ServerHandle`]: the
//!   listener, worker pool, and lifecycle.
//! - [`metrics`] — [`ServerMetrics`]/[`MetricsSnapshot`]: query counts,
//!   latency histogram, traffic, and buffer-pool I/O passthrough.
//! - [`client`] — [`ServerClient`], the blocking client used by
//!   `molap-cli --connect` and the end-to-end tests.
//!
//! ```no_run
//! use molap_core::Database;
//! use molap_server::{Server, ServerClient, ServerConfig};
//!
//! let db = Database::create("/tmp/sales.molap", 8 << 20).unwrap();
//! let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = ServerClient::connect(handle.local_addr()).unwrap();
//! let result = client.query("SELECT SUM(volume) FROM sales").unwrap();
//! println!("{}", result.to_table());
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
// Panic-freedom is enforced twice: molap-lint's `panic-freedom` rule in
// CI scripts, and clippy's lints for anyone running `cargo clippy`.
// Tests are exempt (unwrap in a test is the assertion).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;
mod session;

pub use client::{ClientError, ServerClient};
pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use protocol::{ErrorCode, ProtocolError, Request, Response};
pub use server::{ExecutionHold, Server, ServerConfig, ServerHandle};
