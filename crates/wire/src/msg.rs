//! Message layer: [`Request`], [`Response`], [`ErrorCode`].
//!
//! Each message is a 1-byte tag, then fixed-width little-endian fields
//! and `u32`-length-prefixed byte strings. Decoding goes through the
//! bounds-checked [`Reader`](crate::Reader) cursor and enforces the
//! field caps below before any allocation, so arbitrary bytes decode to
//! a typed [`WireError`], never a panic.

use crate::{Reader, WireError, Writer, MAX_FRAME};

/// Cap on index-name length (bytes).
pub const MAX_NAME: usize = 256;

/// Cap on a single row payload (bytes).
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// Cap on rows in a single `Rows` response. Result sets cut at this cap
/// (or at [`ROWS_BYTE_BUDGET`]) come back with the `truncated` flag set
/// so the client knows to narrow its range predicate.
pub const MAX_ROWS: usize = 4096;

/// Fixed per-row encoding overhead: i64 key (8) + u32 payload length (4).
const ROW_OVERHEAD: usize = 12;

/// Bytes of a `Rows` body before the first row: tag (1) + truncated
/// flag (1) + row count (4).
const ROWS_PREFIX: usize = 6;

/// Byte budget for the rows of one `Rows` response: a full frame body
/// minus the fixed prefix. Rows are dropped (and the truncation
/// flagged) once this is exhausted, so a legal result set can never
/// produce a body `encode_frame` would refuse.
pub const ROWS_BYTE_BUDGET: usize = MAX_FRAME - ROWS_PREFIX;

/// Encoded size of one row whose payload is `payload_len` bytes (after
/// the [`MAX_PAYLOAD`] cap). Servers building a `Rows` response sum
/// this against [`ROWS_BYTE_BUDGET`] to decide where to truncate.
pub fn encoded_row_size(payload_len: usize) -> usize {
    ROW_OVERHEAD + payload_len.min(MAX_PAYLOAD)
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; always answered, even while draining.
    Ping,
    /// Open this session's transaction (one per session; admission-
    /// controlled, may come back [`Response::Busy`]).
    Begin,
    /// Commit the session transaction.
    Commit,
    /// Abort the session transaction.
    Abort,
    /// Create (and register) an index.
    CreateIndex {
        /// Catalog name.
        name: String,
        /// Enforce key uniqueness.
        unique: bool,
    },
    /// Insert `key → payload` into `index`.
    Insert {
        /// Target index name.
        index: String,
        /// Key.
        key: i64,
        /// Heap payload stored under the key's RID.
        payload: Vec<u8>,
    },
    /// Delete `key` from `index`.
    Delete {
        /// Target index name.
        index: String,
        /// Key.
        key: i64,
    },
    /// Point lookup.
    Get {
        /// Target index name.
        index: String,
        /// Key.
        key: i64,
    },
    /// Inclusive range scan `lo..=hi`.
    Range {
        /// Target index name.
        index: String,
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Engine health verdict (serialized `Db::health`).
    Health,
    /// Robustness counters (serialized `robustness_stats()` + serve stats).
    Stats,
}

const REQ_PING: u8 = 1;
const REQ_BEGIN: u8 = 2;
const REQ_COMMIT: u8 = 3;
const REQ_ABORT: u8 = 4;
const REQ_CREATE: u8 = 5;
const REQ_INSERT: u8 = 6;
const REQ_DELETE: u8 = 7;
const REQ_GET: u8 = 8;
const REQ_RANGE: u8 = 9;
const REQ_HEALTH: u8 = 10;
const REQ_STATS: u8 = 11;

impl Request {
    /// Serialize to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Ping => Writer::new(REQ_PING).finish(),
            Request::Begin => Writer::new(REQ_BEGIN).finish(),
            Request::Commit => Writer::new(REQ_COMMIT).finish(),
            Request::Abort => Writer::new(REQ_ABORT).finish(),
            Request::CreateIndex { name, unique } => {
                let mut w = Writer::new(REQ_CREATE);
                w.bytes(name.as_bytes());
                w.u8(u8::from(*unique));
                w.finish()
            }
            Request::Insert { index, key, payload } => {
                let mut w = Writer::new(REQ_INSERT);
                w.bytes(index.as_bytes());
                w.i64(*key);
                w.bytes(payload);
                w.finish()
            }
            Request::Delete { index, key } => {
                let mut w = Writer::new(REQ_DELETE);
                w.bytes(index.as_bytes());
                w.i64(*key);
                w.finish()
            }
            Request::Get { index, key } => {
                let mut w = Writer::new(REQ_GET);
                w.bytes(index.as_bytes());
                w.i64(*key);
                w.finish()
            }
            Request::Range { index, lo, hi } => {
                let mut w = Writer::new(REQ_RANGE);
                w.bytes(index.as_bytes());
                w.i64(*lo);
                w.i64(*hi);
                w.finish()
            }
            Request::Health => Writer::new(REQ_HEALTH).finish(),
            Request::Stats => Writer::new(REQ_STATS).finish(),
        }
    }

    /// Parse a frame body. Trailing garbage after a well-formed message
    /// is rejected — a frame holds exactly one message.
    pub fn decode(body: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(body);
        let req = match r.u8()? {
            REQ_PING => Request::Ping,
            REQ_BEGIN => Request::Begin,
            REQ_COMMIT => Request::Commit,
            REQ_ABORT => Request::Abort,
            REQ_CREATE => Request::CreateIndex {
                name: r.string(MAX_NAME)?,
                unique: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("unique flag not 0/1")),
                },
            },
            REQ_INSERT => Request::Insert {
                index: r.string(MAX_NAME)?,
                key: r.i64()?,
                payload: r.bytes(MAX_PAYLOAD)?,
            },
            REQ_DELETE => Request::Delete { index: r.string(MAX_NAME)?, key: r.i64()? },
            REQ_GET => Request::Get { index: r.string(MAX_NAME)?, key: r.i64()? },
            REQ_RANGE => Request::Range {
                index: r.string(MAX_NAME)?,
                lo: r.i64()?,
                hi: r.i64()?,
            },
            REQ_HEALTH => Request::Health,
            REQ_STATS => Request::Stats,
            _ => return Err(WireError::Malformed("unknown request tag")),
        };
        if !r.done() {
            return Err(WireError::Malformed("trailing bytes after request"));
        }
        Ok(req)
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Generic success for mutations and txn control.
    Ok,
    /// Transaction opened.
    Begun,
    /// Result rows for `Get`/`Range`.
    Rows {
        /// `(key, heap payload)` pairs.
        rows: Vec<(i64, Vec<u8>)>,
        /// Set when rows were dropped to honor [`MAX_ROWS`] or
        /// [`ROWS_BYTE_BUDGET`]: the client saw a prefix of the result
        /// set and should narrow its range and re-issue.
        truncated: bool,
    },
    /// Admission control shed the request; retry after the hint.
    Busy {
        /// Client should back off at least this long before retrying.
        retry_after_ms: u32,
    },
    /// Request failed; see [`ErrorCode::retryable`] for client guidance.
    Error {
        /// Machine-readable classification.
        code: ErrorCode,
        /// Human-readable detail (capped like an index name).
        message: String,
    },
    /// Reply to [`Request::Health`].
    Health {
        /// `Healthy` / `Degraded` / `ReadOnly`.
        label: String,
        /// Degradation reasons, empty when healthy.
        reasons: Vec<String>,
    },
    /// Reply to [`Request::Stats`]: flat counter name → value pairs.
    Stats(Vec<(String, i64)>),
}

const RSP_PONG: u8 = 1;
const RSP_OK: u8 = 2;
const RSP_BEGUN: u8 = 3;
const RSP_ROWS: u8 = 4;
const RSP_BUSY: u8 = 5;
const RSP_ERROR: u8 = 6;
const RSP_HEALTH: u8 = 7;
const RSP_STATS: u8 = 8;

/// Cap on reasons / stats entries in a single response.
const MAX_ENTRIES: usize = 256;

impl Response {
    /// Serialize to a frame body. Oversized collections are truncated
    /// to their caps — `Rows` by row count *and* total bytes, with the
    /// cut reported in its `truncated` flag — so a response body never
    /// exceeds [`crate::MAX_FRAME`] and truncation is always visible to
    /// the client, never silent.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Pong => Writer::new(RSP_PONG).finish(),
            Response::Ok => Writer::new(RSP_OK).finish(),
            Response::Begun => Writer::new(RSP_BEGUN).finish(),
            Response::Rows { rows, truncated } => {
                let mut w = Writer::new(RSP_ROWS);
                // How many leading rows fit the count cap and the frame
                // byte budget. Servers construct within budget already
                // (setting `truncated` themselves); this recount makes
                // encode total even for hand-built oversized values.
                let mut fit = 0usize;
                let mut used = 0usize;
                for (_, payload) in rows.iter().take(MAX_ROWS) {
                    let sz = encoded_row_size(payload.len());
                    if used + sz > ROWS_BYTE_BUDGET {
                        break;
                    }
                    used += sz;
                    fit += 1;
                }
                w.u8(u8::from(*truncated || fit < rows.len()));
                w.u32(fit as u32);
                for (key, payload) in rows.iter().take(fit) {
                    w.i64(*key);
                    w.bytes(&payload[..payload.len().min(MAX_PAYLOAD)]);
                }
                w.finish()
            }
            Response::Busy { retry_after_ms } => {
                let mut w = Writer::new(RSP_BUSY);
                w.u32(*retry_after_ms);
                w.finish()
            }
            Response::Error { code, message } => {
                let mut w = Writer::new(RSP_ERROR);
                w.u16(*code as u16);
                let m = message.as_bytes();
                w.bytes(&m[..m.len().min(MAX_NAME)]);
                w.finish()
            }
            Response::Health { label, reasons } => {
                let mut w = Writer::new(RSP_HEALTH);
                let l = label.as_bytes();
                w.bytes(&l[..l.len().min(MAX_NAME)]);
                let n = reasons.len().min(MAX_ENTRIES);
                w.u32(n as u32);
                for reason in reasons.iter().take(n) {
                    let r = reason.as_bytes();
                    w.bytes(&r[..r.len().min(MAX_NAME)]);
                }
                w.finish()
            }
            Response::Stats(entries) => {
                let mut w = Writer::new(RSP_STATS);
                let n = entries.len().min(MAX_ENTRIES);
                w.u32(n as u32);
                for (name, value) in entries.iter().take(n) {
                    let b = name.as_bytes();
                    w.bytes(&b[..b.len().min(MAX_NAME)]);
                    w.i64(*value);
                }
                w.finish()
            }
        }
    }

    /// Parse a frame body (used by clients and the test harness).
    pub fn decode(body: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(body);
        let rsp = match r.u8()? {
            RSP_PONG => Response::Pong,
            RSP_OK => Response::Ok,
            RSP_BEGUN => Response::Begun,
            RSP_ROWS => {
                let truncated = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("truncated flag not 0/1")),
                };
                let n = r.u32()? as usize;
                if n > MAX_ROWS {
                    return Err(WireError::Malformed("row count exceeds cap"));
                }
                // Each row is at least 12 bytes (key + payload length);
                // reject counts the remaining bytes cannot possibly hold
                // before reserving anything.
                if n.saturating_mul(ROW_OVERHEAD) > r.remaining() {
                    return Err(WireError::Truncated);
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = r.i64()?;
                    let payload = r.bytes(MAX_PAYLOAD)?;
                    rows.push((key, payload));
                }
                Response::Rows { rows, truncated }
            }
            RSP_BUSY => Response::Busy { retry_after_ms: r.u32()? },
            RSP_ERROR => Response::Error {
                code: ErrorCode::from_u16(r.u16()?)?,
                message: r.string(MAX_NAME)?,
            },
            RSP_HEALTH => {
                let label = r.string(MAX_NAME)?;
                let n = r.u32()? as usize;
                if n > MAX_ENTRIES || n.saturating_mul(4) > r.remaining() {
                    return Err(WireError::Malformed("reason count exceeds cap"));
                }
                let mut reasons = Vec::with_capacity(n);
                for _ in 0..n {
                    reasons.push(r.string(MAX_NAME)?);
                }
                Response::Health { label, reasons }
            }
            RSP_STATS => {
                let n = r.u32()? as usize;
                if n > MAX_ENTRIES || n.saturating_mul(12) > r.remaining() {
                    return Err(WireError::Malformed("stats count exceeds cap"));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.string(MAX_NAME)?;
                    let value = r.i64()?;
                    entries.push((name, value));
                }
                Response::Stats(entries)
            }
            _ => return Err(WireError::Malformed("unknown response tag")),
        };
        if !r.done() {
            return Err(WireError::Malformed("trailing bytes after response"));
        }
        Ok(rsp)
    }
}

/// Machine-readable failure classification carried by
/// [`Response::Error`]. The README's error-code table documents the
/// client-facing retry contract; [`ErrorCode::retryable`] is its
/// machine form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Malformed or out-of-order bytes; the server closes the
    /// connection after sending this. Reconnect with a fresh stream.
    Protocol = 1,
    /// Operation needs an open transaction; send `Begin` first.
    TxnRequired = 2,
    /// Session already owns a transaction; `Commit`/`Abort` it first.
    TxnAlreadyOpen = 3,
    /// Named index does not exist.
    NoSuchIndex = 4,
    /// `CreateIndex` name collision.
    IndexExists = 5,
    /// Unique-index key collision.
    UniqueViolation = 6,
    /// Point lookup matched nothing.
    NotFound = 7,
    /// Transient engine conflict (deadlock victim, lock timeout).
    /// Transaction is gone; begin a new one and retry.
    Retry = 8,
    /// Engine is read-only (e.g. poisoned pool); writes are refused.
    ReadOnly = 9,
    /// The session transaction was force-aborted (drain or eviction).
    Aborted = 10,
    /// Server is draining; reconnect against a peer or after restart.
    ShuttingDown = 11,
    /// Unexpected engine error; not safe to blind-retry.
    Internal = 12,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Result<ErrorCode, WireError> {
        Ok(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::TxnRequired,
            3 => ErrorCode::TxnAlreadyOpen,
            4 => ErrorCode::NoSuchIndex,
            5 => ErrorCode::IndexExists,
            6 => ErrorCode::UniqueViolation,
            7 => ErrorCode::NotFound,
            8 => ErrorCode::Retry,
            9 => ErrorCode::ReadOnly,
            10 => ErrorCode::Aborted,
            11 => ErrorCode::ShuttingDown,
            12 => ErrorCode::Internal,
            _ => return Err(WireError::Malformed("unknown error code")),
        })
    }

    /// Whether a client may retry the *work* (in a fresh transaction)
    /// without operator involvement.
    pub fn retryable(self) -> bool {
        matches!(self, ErrorCode::Retry | ErrorCode::Aborted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Begin,
            Request::Commit,
            Request::Abort,
            Request::CreateIndex { name: "t".into(), unique: true },
            Request::Insert { index: "t".into(), key: -7, payload: vec![1, 2, 3] },
            Request::Delete { index: "t".into(), key: 9 },
            Request::Get { index: "t".into(), key: 0 },
            Request::Range { index: "t".into(), lo: i64::MIN, hi: i64::MAX },
            Request::Health,
            Request::Stats,
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Ok,
            Response::Begun,
            Response::Rows { rows: vec![(1, vec![0xAB; 32]), (-2, vec![])], truncated: false },
            Response::Rows { rows: vec![(7, vec![3; 8])], truncated: true },
            Response::Busy { retry_after_ms: 25 },
            Response::Error { code: ErrorCode::Retry, message: "deadlock victim".into() },
            Response::Health { label: "degraded".into(), reasons: vec!["admission controller saturated".into()] },
            Response::Stats(vec![("txns_active".into(), 3), ("evicted_slow".into(), -1)]),
        ]
    }

    #[test]
    fn request_roundtrip() {
        for req in all_requests() {
            let body = req.encode();
            assert_eq!(Request::decode(&body).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_roundtrip() {
        for rsp in all_responses() {
            let body = rsp.encode();
            assert_eq!(Response::decode(&body).unwrap(), rsp, "{rsp:?}");
        }
    }

    #[test]
    fn truncation_at_every_prefix_is_a_typed_error() {
        for req in all_requests() {
            let body = req.encode();
            for cut in 0..body.len() {
                // Every strict prefix must fail decode without panicking.
                Request::decode(&body[..cut]).unwrap_err();
            }
        }
        for rsp in all_responses() {
            let body = rsp.encode();
            for cut in 0..body.len() {
                Response::decode(&body[..cut]).unwrap_err();
            }
        }
    }

    #[test]
    fn unknown_tags_and_codes_rejected() {
        assert_eq!(
            Request::decode(&[0xEE]).unwrap_err(),
            WireError::Malformed("unknown request tag")
        );
        assert_eq!(
            Response::decode(&[0xEE]).unwrap_err(),
            WireError::Malformed("unknown response tag")
        );
        // RSP_ERROR with an out-of-range code.
        let mut w = Writer::new(RSP_ERROR);
        w.u16(999);
        w.bytes(b"x");
        assert_eq!(
            Response::decode(&w.finish()).unwrap_err(),
            WireError::Malformed("unknown error code")
        );
    }

    #[test]
    fn caps_enforced_before_allocation() {
        // Name longer than MAX_NAME.
        let mut w = Writer::new(REQ_GET);
        w.u32(MAX_NAME as u32 + 1);
        assert_eq!(Request::decode(&w.finish()).unwrap_err(), WireError::Truncated);
        // Row count far beyond what the body could hold.
        let mut w = Writer::new(RSP_ROWS);
        w.u8(0);
        w.u32(MAX_ROWS as u32);
        Response::decode(&w.finish()).unwrap_err();
        // Row count beyond the hard cap.
        let mut w = Writer::new(RSP_ROWS);
        w.u8(0);
        w.u32(u32::MAX);
        assert_eq!(
            Response::decode(&w.finish()).unwrap_err(),
            WireError::Malformed("row count exceeds cap")
        );
        // Truncated flag outside 0/1.
        let mut w = Writer::new(RSP_ROWS);
        w.u8(7);
        w.u32(0);
        assert_eq!(
            Response::decode(&w.finish()).unwrap_err(),
            WireError::Malformed("truncated flag not 0/1")
        );
    }

    #[test]
    fn rows_encode_respects_frame_budget_and_flags_truncation() {
        // 20 max-size rows cannot fit one frame (the bug class the
        // truncation flag exists for: 16 already exceed MAX_FRAME).
        let rows: Vec<_> = (0..20i64).map(|k| (k, vec![k as u8; MAX_PAYLOAD])).collect();
        let body = Response::Rows { rows: rows.clone(), truncated: false }.encode();
        assert!(body.len() <= MAX_FRAME, "body {} exceeds frame cap", body.len());
        assert!(crate::encode_frame(&body).is_some(), "encoded Rows must always frame");
        match Response::decode(&body).unwrap() {
            Response::Rows { rows: got, truncated } => {
                assert!(truncated, "dropped rows must be flagged");
                assert!(!got.is_empty() && got.len() < rows.len(), "{}", got.len());
                assert_eq!(got[..], rows[..got.len()], "surviving prefix intact");
            }
            other => panic!("expected Rows, got {other:?}"),
        }
        // A within-budget result set encodes losslessly, unflagged.
        let small = Response::Rows { rows: vec![(1, vec![9; 64])], truncated: false };
        assert_eq!(Response::decode(&small.encode()).unwrap(), small);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = Request::Ping.encode();
        body.push(0);
        assert_eq!(
            Request::decode(&body).unwrap_err(),
            WireError::Malformed("trailing bytes after request")
        );
    }

    #[test]
    fn nonzero_bool_rejected() {
        let mut w = Writer::new(REQ_CREATE);
        w.bytes(b"t");
        w.u8(2);
        assert_eq!(
            Request::decode(&w.finish()).unwrap_err(),
            WireError::Malformed("unique flag not 0/1")
        );
    }

    #[test]
    fn retry_guidance_matches_readme_table() {
        for code in [
            ErrorCode::Protocol,
            ErrorCode::TxnRequired,
            ErrorCode::TxnAlreadyOpen,
            ErrorCode::NoSuchIndex,
            ErrorCode::IndexExists,
            ErrorCode::UniqueViolation,
            ErrorCode::NotFound,
            ErrorCode::ReadOnly,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            assert!(!code.retryable(), "{code:?}");
        }
        assert!(ErrorCode::Retry.retryable());
        assert!(ErrorCode::Aborted.retryable());
    }
}
