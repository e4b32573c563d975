//! The `molap-server` wire protocol: framing, messages, and result
//! serialization.
//!
//! Everything is hand-rolled over `std::io` — the build environment is
//! offline, so no serde. The protocol is a strict request/response
//! alternation per connection: the client writes one request frame, the
//! server writes exactly one response frame.
//!
//! # Frame layout
//!
//! All integers are little-endian.
//!
//! | offset | size | field | value |
//! |-------:|-----:|-------|-------|
//! | 0 | 4 | magic | `0x4D4F_4C50` (`"PLOM"` on disk, spells MOLP) |
//! | 4 | 1 | version | `1` |
//! | 5 | 1 | frame type | see tables below |
//! | 6 | 2 | reserved | `0` |
//! | 8 | 4 | payload length | ≤ [`MAX_PAYLOAD`] |
//! | 12 | n | payload | type-specific body |
//!
//! # Request frame types (client → server)
//!
//! | type | name | payload |
//! |-----:|------|---------|
//! | `0x01` | Query | `sql: str`, `measures: u16 count + str*` |
//! | `0x02` | Ping | empty |
//! | `0x03` | Stats | empty |
//! | `0x04` | ListObjects | empty |
//! | `0x05` | Shutdown | empty (begins graceful drain) |
//! | `0x06` | Write | `object: str`, `rows: u32 count + wrow*` |
//!
//! # Response frame types (server → client)
//!
//! | type | name | payload |
//! |-----:|------|---------|
//! | `0x81` | ResultSet | `columns: u16 count + str*`, `rows: u32 count + row*` |
//! | `0x82` | Pong | empty |
//! | `0x83` | StatsReply | [`crate::metrics::MetricsSnapshot`] encoding, all u64 words: the server counter table ([`crate::metrics::ServerMetrics`]) in row order, 16 histogram buckets, the pool counter table ([`molap_storage::IoStats`]) in row order, then a shard count and a (hits, misses) pair per shard. Each table is the one declaration of its counters, so the layout cannot drift from this row |
//! | `0x84` | ObjectList | `u32 count + (name: str, kind: u8)*` |
//! | `0x85` | Error | `code: u16`, `message: str` |
//! | `0x86` | ShutdownStarted | empty |
//! | `0x87` | WriteAck | `cells_written: u64` |
//!
//! A `row` is `keys: u16 count + i64*`, then `values: u16 count +
//! aggvalue*`; an `aggvalue` is tag `0` + `i64` (Int) or tag `1` +
//! `i64 sum` + `u64 count` (exact Ratio, from AVG). A `str` is `u32
//! length + UTF-8 bytes. Decoding the ResultSet payload reconstructs a
//! [`ConsolidationResult`] that compares `==` to in-process execution.
//!
//! A `wrow` (one cell mutation in a Write batch) is `keys: u16 count +
//! i64*`, then `values: u16 count + i64*` — dimension keys addressing
//! the cell, then the full measure vector to store there. The batch
//! commits atomically: every row applies or none does, and the ack is
//! only sent after the server's checkpoint makes the batch durable.
//!
//! # Error codes
//!
//! | code | name | meaning |
//! |-----:|------|---------|
//! | 1 | `MALFORMED_FRAME` | framing/decoding failed; connection closes |
//! | 2 | `UNSUPPORTED_VERSION` | version byte not understood |
//! | 3 | `QUERY_ERROR` | SQL parse/validation failed |
//! | 4 | `DATA_ERROR` | data-model violation during execution |
//! | 5 | `STORAGE_ERROR` | paged storage or array layer failed |
//! | 6 | `SERVER_BUSY` | admission queue full — retry later (backpressure) |
//! | 7 | `DEADLINE_EXCEEDED` | query missed its deadline (queued too long or ran too long) |
//! | 8 | `SHUTTING_DOWN` | server is draining; no new queries |
//! | 9 | `INTERNAL` | unexpected server-side failure |

use std::io::{self, Read, Write};

use molap_core::{AggValue, ConsolidationResult, Row};

use crate::metrics::MetricsSnapshot;

/// Frame magic: `"MOLP"` interpreted as a little-endian u32.
pub const MAGIC: u32 = 0x4D4F_4C50;

/// Protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Upper bound on a frame payload (16 MiB): keeps a malicious or
/// corrupt length prefix from ballooning allocation.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Byte size of the fixed frame header.
pub const HEADER_LEN: usize = 12;

/// Structured error categories carried by Error frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Framing or payload decoding failed.
    MalformedFrame,
    /// Version byte not understood.
    UnsupportedVersion,
    /// SQL parse or validation error.
    QueryError,
    /// Data-model violation.
    DataError,
    /// Storage or array layer failure.
    StorageError,
    /// Admission queue full; retry with backoff.
    ServerBusy,
    /// Query missed its deadline.
    DeadlineExceeded,
    /// Server is draining connections.
    ShuttingDown,
    /// Unexpected internal failure.
    Internal,
}

impl ErrorCode {
    /// Wire encoding of the code.
    pub fn to_u16(self) -> u16 {
        match self {
            ErrorCode::MalformedFrame => 1,
            ErrorCode::UnsupportedVersion => 2,
            ErrorCode::QueryError => 3,
            ErrorCode::DataError => 4,
            ErrorCode::StorageError => 5,
            ErrorCode::ServerBusy => 6,
            ErrorCode::DeadlineExceeded => 7,
            ErrorCode::ShuttingDown => 8,
            ErrorCode::Internal => 9,
        }
    }

    /// Decodes a wire code.
    pub fn from_u16(v: u16) -> Result<Self, ProtocolError> {
        Ok(match v {
            1 => ErrorCode::MalformedFrame,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::QueryError,
            4 => ErrorCode::DataError,
            5 => ErrorCode::StorageError,
            6 => ErrorCode::ServerBusy,
            7 => ErrorCode::DeadlineExceeded,
            8 => ErrorCode::ShuttingDown,
            9 => ErrorCode::Internal,
            other => {
                return Err(ProtocolError::Corrupt(format!(
                    "unknown error code {other}"
                )))
            }
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::MalformedFrame => "MALFORMED_FRAME",
            ErrorCode::UnsupportedVersion => "UNSUPPORTED_VERSION",
            ErrorCode::QueryError => "QUERY_ERROR",
            ErrorCode::DataError => "DATA_ERROR",
            ErrorCode::StorageError => "STORAGE_ERROR",
            ErrorCode::ServerBusy => "SERVER_BUSY",
            ErrorCode::DeadlineExceeded => "DEADLINE_EXCEEDED",
            ErrorCode::ShuttingDown => "SHUTTING_DOWN",
            ErrorCode::Internal => "INTERNAL",
        };
        f.write_str(name)
    }
}

/// Decoding failures.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The bytes did not form a valid frame or message.
    Corrupt(String),
    /// The frame's version byte is not one this build speaks.
    UnsupportedVersion(u8),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol I/O error: {e}"),
            ProtocolError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
            ProtocolError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run one SQL consolidation statement. `measures` names the
    /// cube's measure columns in order (the demo schema: `["volume"]`).
    Query {
        /// The SQL text.
        sql: String,
        /// Measure column names, in cube order.
        measures: Vec<String>,
    },
    /// Liveness probe.
    Ping,
    /// Fetch server metrics.
    Stats,
    /// List cataloged objects.
    ListObjects,
    /// Ask the server to begin a graceful shutdown.
    Shutdown,
    /// Commit one batch of cell writes to a cataloged array,
    /// atomically and durably.
    Write {
        /// The catalog name of the target array.
        object: String,
        /// Cell mutations: `(dimension keys, measure values)` per cell.
        rows: Vec<(Vec<i64>, Vec<i64>)>,
    },
}

/// A server response. `Clone` so one coalesced execution can deliver
/// the same response to every attached waiter.
#[derive(Clone, Debug)]
pub enum Response {
    /// A successful query result.
    ResultSet(ConsolidationResult),
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Stats`]. Boxed: the snapshot (histogram +
    /// per-shard counters) dwarfs every other variant.
    Stats(Box<MetricsSnapshot>),
    /// Reply to [`Request::ListObjects`]: `(name, kind)` pairs.
    Objects(Vec<(String, String)>),
    /// A structured error.
    Error {
        /// The error category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Reply to [`Request::Shutdown`].
    ShutdownStarted,
    /// Reply to [`Request::Write`]: the batch is applied and durable.
    WriteAck {
        /// Number of cells the batch wrote (after last-write-wins
        /// collapse of duplicate coordinates).
        cells_written: u64,
    },
}

// -------------------------------------------------- buffer primitives

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Cursor over a received payload.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.pos + n > self.buf.len() {
            return Err(ProtocolError::Corrupt(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ProtocolError> {
        let mut b = [0u8; 2];
        b.copy_from_slice(self.take(2)?);
        Ok(u16::from_le_bytes(b))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ProtocolError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ProtocolError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, ProtocolError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(i64::from_le_bytes(b))
    }

    pub(crate) fn str(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        if len > MAX_PAYLOAD {
            return Err(ProtocolError::Corrupt(format!(
                "string length {len} too large"
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtocolError::Corrupt("string is not UTF-8".into()))
    }

    /// Bytes not yet consumed — lets decoders sanity-check claimed
    /// element counts before allocating.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn finish(&self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::Corrupt(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ------------------------------------------------------------ framing

/// Writes one frame: header plus `payload`.
pub fn write_frame(w: &mut impl Write, frame_type: u8, payload: &[u8]) -> io::Result<usize> {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = VERSION;
    header[5] = frame_type;
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(HEADER_LEN + payload.len())
}

/// Reads one frame, returning `(frame_type, payload, bytes_read)`.
/// Returns `Ok(None)` on clean EOF at a frame boundary.
#[allow(clippy::type_complexity)]
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>, usize)>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish clean EOF (no bytes) from a truncated header.
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(ProtocolError::Corrupt(format!(
                    "connection closed mid-header ({filled}/{HEADER_LEN} bytes)"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if magic != MAGIC {
        return Err(ProtocolError::Corrupt(format!("bad magic {magic:#010x}")));
    }
    if header[4] != VERSION {
        return Err(ProtocolError::UnsupportedVersion(header[4]));
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Corrupt(format!(
            "payload length {len} exceeds cap"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some((header[5], payload, HEADER_LEN + len)))
}

// ----------------------------------------------------------- requests

const REQ_QUERY: u8 = 0x01;
const REQ_PING: u8 = 0x02;
const REQ_STATS: u8 = 0x03;
const REQ_LIST_OBJECTS: u8 = 0x04;
const REQ_SHUTDOWN: u8 = 0x05;
const REQ_WRITE: u8 = 0x06;

impl Request {
    /// Encodes into `(frame_type, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Request::Query { sql, measures } => {
                let mut out = Vec::with_capacity(sql.len() + 16);
                put_str(&mut out, sql);
                put_u16(&mut out, measures.len() as u16);
                for m in measures {
                    put_str(&mut out, m);
                }
                (REQ_QUERY, out)
            }
            Request::Ping => (REQ_PING, Vec::new()),
            Request::Stats => (REQ_STATS, Vec::new()),
            Request::ListObjects => (REQ_LIST_OBJECTS, Vec::new()),
            Request::Shutdown => (REQ_SHUTDOWN, Vec::new()),
            Request::Write { object, rows } => {
                let mut out = Vec::with_capacity(object.len() + 8 + rows.len() * 32);
                put_str(&mut out, object);
                put_u32(&mut out, rows.len() as u32);
                for (keys, values) in rows {
                    put_u16(&mut out, keys.len() as u16);
                    for &k in keys {
                        put_i64(&mut out, k);
                    }
                    put_u16(&mut out, values.len() as u16);
                    for &v in values {
                        put_i64(&mut out, v);
                    }
                }
                (REQ_WRITE, out)
            }
        }
    }

    /// Decodes a request from a received frame.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut c = Cursor::new(payload);
        let req = match frame_type {
            REQ_QUERY => {
                let sql = c.str()?;
                let n = c.u16()? as usize;
                let measures = (0..n).map(|_| c.str()).collect::<Result<Vec<_>, _>>()?;
                Request::Query { sql, measures }
            }
            REQ_PING => Request::Ping,
            REQ_STATS => Request::Stats,
            REQ_LIST_OBJECTS => Request::ListObjects,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_WRITE => {
                let object = c.str()?;
                let n = c.u32()? as usize;
                // Each row carries at least the two u16 counts.
                if n > c.remaining() / 4 {
                    return Err(ProtocolError::Corrupt(format!(
                        "write row count {n} exceeds payload"
                    )));
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let nk = c.u16()? as usize;
                    let keys = (0..nk).map(|_| c.i64()).collect::<Result<Vec<_>, _>>()?;
                    let nv = c.u16()? as usize;
                    let values = (0..nv).map(|_| c.i64()).collect::<Result<Vec<_>, _>>()?;
                    rows.push((keys, values));
                }
                Request::Write { object, rows }
            }
            other => {
                return Err(ProtocolError::Corrupt(format!(
                    "unknown request frame type {other:#04x}"
                )))
            }
        };
        c.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------- responses

const RESP_RESULT_SET: u8 = 0x81;
const RESP_PONG: u8 = 0x82;
const RESP_STATS_REPLY: u8 = 0x83;
const RESP_OBJECT_LIST: u8 = 0x84;
const RESP_ERROR: u8 = 0x85;
const RESP_SHUTDOWN_STARTED: u8 = 0x86;
const RESP_WRITE_ACK: u8 = 0x87;

fn put_agg_value(out: &mut Vec<u8>, v: &AggValue) {
    match *v {
        AggValue::Int(i) => {
            out.push(0);
            put_i64(out, i);
        }
        AggValue::Ratio { sum, count } => {
            out.push(1);
            put_i64(out, sum);
            put_u64(out, count);
        }
    }
}

fn get_agg_value(c: &mut Cursor<'_>) -> Result<AggValue, ProtocolError> {
    match c.u8()? {
        0 => Ok(AggValue::Int(c.i64()?)),
        1 => Ok(AggValue::Ratio {
            sum: c.i64()?,
            count: c.u64()?,
        }),
        other => Err(ProtocolError::Corrupt(format!(
            "unknown aggregate value tag {other}"
        ))),
    }
}

/// Encodes a [`ConsolidationResult`] into a payload body.
pub fn encode_result(result: &ConsolidationResult, out: &mut Vec<u8>) {
    put_u16(out, result.columns().len() as u16);
    for col in result.columns() {
        put_str(out, col);
    }
    put_u32(out, result.rows().len() as u32);
    for row in result.rows() {
        put_u16(out, row.keys.len() as u16);
        for &k in &row.keys {
            put_i64(out, k);
        }
        put_u16(out, row.values.len() as u16);
        for v in &row.values {
            put_agg_value(out, v);
        }
    }
}

/// Decodes a [`ConsolidationResult`] from a payload cursor.
pub(crate) fn decode_result(c: &mut Cursor<'_>) -> Result<ConsolidationResult, ProtocolError> {
    let n_cols = c.u16()? as usize;
    let columns = (0..n_cols)
        .map(|_| c.str())
        .collect::<Result<Vec<_>, _>>()?;
    let n_rows = c.u32()? as usize;
    let mut rows = Vec::with_capacity(n_rows.min(1 << 20));
    for _ in 0..n_rows {
        let n_keys = c.u16()? as usize;
        let keys = (0..n_keys)
            .map(|_| c.i64())
            .collect::<Result<Vec<_>, _>>()?;
        let n_vals = c.u16()? as usize;
        let values = (0..n_vals)
            .map(|_| get_agg_value(c))
            .collect::<Result<Vec<_>, _>>()?;
        rows.push(Row { keys, values });
    }
    Ok(ConsolidationResult::from_rows(columns, rows))
}

impl Response {
    /// An `Error` reply.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        let message = message.into();
        Response::Error { code, message }
    }

    /// Encodes into `(frame_type, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Response::ResultSet(result) => {
                let mut out = Vec::new();
                encode_result(result, &mut out);
                (RESP_RESULT_SET, out)
            }
            Response::Pong => (RESP_PONG, Vec::new()),
            Response::Stats(snapshot) => {
                let mut out = Vec::new();
                snapshot.encode(&mut out);
                (RESP_STATS_REPLY, out)
            }
            Response::Objects(objects) => {
                let mut out = Vec::new();
                put_u32(&mut out, objects.len() as u32);
                for (name, kind) in objects {
                    put_str(&mut out, name);
                    put_str(&mut out, kind);
                }
                (RESP_OBJECT_LIST, out)
            }
            Response::Error { code, message } => {
                let mut out = Vec::new();
                put_u16(&mut out, code.to_u16());
                put_str(&mut out, message);
                (RESP_ERROR, out)
            }
            Response::ShutdownStarted => (RESP_SHUTDOWN_STARTED, Vec::new()),
            Response::WriteAck { cells_written } => {
                let mut out = Vec::new();
                put_u64(&mut out, *cells_written);
                (RESP_WRITE_ACK, out)
            }
        }
    }

    /// Decodes a response from a received frame.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut c = Cursor::new(payload);
        let resp = match frame_type {
            RESP_RESULT_SET => Response::ResultSet(decode_result(&mut c)?),
            RESP_PONG => Response::Pong,
            RESP_STATS_REPLY => Response::Stats(Box::new(MetricsSnapshot::decode(&mut c)?)),
            RESP_OBJECT_LIST => {
                let n = c.u32()? as usize;
                let mut objects = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let name = c.str()?;
                    let kind = c.str()?;
                    objects.push((name, kind));
                }
                Response::Objects(objects)
            }
            RESP_ERROR => Response::Error {
                code: ErrorCode::from_u16(c.u16()?)?,
                message: c.str()?,
            },
            RESP_SHUTDOWN_STARTED => Response::ShutdownStarted,
            RESP_WRITE_ACK => Response::WriteAck {
                cells_written: c.u64()?,
            },
            other => {
                return Err(ProtocolError::Corrupt(format!(
                    "unknown response frame type {other:#04x}"
                )))
            }
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Maps a core error to its wire category.
pub fn error_code_for(err: &molap_core::Error) -> ErrorCode {
    match err {
        molap_core::Error::Query(_) => ErrorCode::QueryError,
        molap_core::Error::Data(_) => ErrorCode::DataError,
        molap_core::Error::Storage(_) | molap_core::Error::Array(_) => ErrorCode::StorageError,
        molap_core::Error::Internal(_) => ErrorCode::Internal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_over_a_pipe() {
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, 0x01, b"hello").unwrap();
        assert_eq!(n, HEADER_LEN + 5);
        let (ty, payload, read) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!((ty, payload.as_slice(), read), (0x01, &b"hello"[..], n));
        // Clean EOF.
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn bad_magic_and_truncation_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x01, b"xy").unwrap();
        buf[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::Corrupt(_))
        ));
        buf[0] ^= 0xFF;
        let truncated = &buf[..HEADER_LEN - 3];
        assert!(read_frame(&mut &truncated[..]).is_err());
    }

    #[test]
    fn request_roundtrips() {
        for req in [
            Request::Query {
                sql: "SELECT SUM(volume) FROM sales".into(),
                measures: vec!["volume".into()],
            },
            Request::Ping,
            Request::Stats,
            Request::ListObjects,
            Request::Shutdown,
            Request::Write {
                object: "sales".into(),
                rows: vec![(vec![3, 7], vec![42]), (vec![0, 0], vec![-1, 9])],
            },
            Request::Write {
                object: "empty".into(),
                rows: vec![],
            },
        ] {
            let (ty, payload) = req.encode();
            assert_eq!(Request::decode(ty, &payload).unwrap(), req);
        }
    }

    #[test]
    fn error_response_roundtrips() {
        let resp = Response::Error {
            code: ErrorCode::ServerBusy,
            message: "queue full".into(),
        };
        let (ty, payload) = resp.encode();
        match Response::decode(ty, &payload).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::ServerBusy);
                assert_eq!(message, "queue full");
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn every_error_code_roundtrips() {
        for code in [
            ErrorCode::MalformedFrame,
            ErrorCode::UnsupportedVersion,
            ErrorCode::QueryError,
            ErrorCode::DataError,
            ErrorCode::StorageError,
            ErrorCode::ServerBusy,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code.to_u16()).unwrap(), code);
            assert!(!code.to_string().is_empty());
        }
        assert!(ErrorCode::from_u16(999).is_err());
    }

    #[test]
    fn write_ack_roundtrips() {
        let (ty, payload) = Response::WriteAck { cells_written: 17 }.encode();
        match Response::decode(ty, &payload).unwrap() {
            Response::WriteAck { cells_written } => assert_eq!(cells_written, 17),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn write_with_absurd_row_count_rejected() {
        let mut payload = Vec::new();
        put_str(&mut payload, "sales");
        put_u32(&mut payload, u32::MAX); // claims 4B rows in no bytes
        assert!(matches!(
            Request::decode(REQ_WRITE, &payload),
            Err(ProtocolError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (ty, mut payload) = Request::Ping.encode();
        payload.push(0);
        assert!(Request::decode(ty, &payload).is_err());
    }
}
