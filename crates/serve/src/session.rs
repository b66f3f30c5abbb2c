//! Per-connection session loop: deadline-sliced reads, frame pump,
//! request dispatch, and the teardown that makes a vanished client
//! indistinguishable (resource-wise) from one that aborted politely.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use gist_am::{BtreeExt, I64Query};
use gist_core::{GistError, GistIndex, IndexOptions};
use gist_pagestore::Rid;
use gist_txn::TxnError;
use gist_wal::TxnId;
use gist_wire::{
    encode_frame, encoded_row_size, ErrorCode, FrameDecoder, Request, Response, MAX_ROWS,
    ROWS_BYTE_BUDGET,
};
use parking_lot::Mutex;

use crate::io::Transport;
use crate::ServerInner;

/// State a session shares with the server registry: the drain sweep
/// must be able to force-abort an owned transaction from outside the
/// session thread. `Option::take` under the mutex is the exactly-once
/// handoff — whichever of {session teardown, drain sweep, dispatch}
/// takes the `TxnId` owns the abort; everyone else sees `None`.
pub(crate) struct SessionShared {
    pub(crate) id: u64,
    pub(crate) txn: Mutex<Option<TxnId>>,
}

impl SessionShared {
    pub(crate) fn new(id: u64) -> Arc<Self> {
        Arc::new(SessionShared { id, txn: Mutex::new(None) })
    }
}

/// Why a session loop ended (stats classification).
enum SessionEnd {
    /// Peer closed cleanly.
    Eof,
    /// Transport error (reset, torn write, ...).
    Io,
    /// Malformed frame or message; error response sent best-effort.
    Protocol,
    /// Idle past the deadline; slow-client eviction.
    Evicted,
    /// Drain completed for this session (no owned transaction left).
    Drained,
    /// A chaos point killed the session mid-path.
    Injected,
}

impl From<gist_chaos::Injected> for SessionEnd {
    fn from(_: gist_chaos::Injected) -> Self {
        SessionEnd::Injected
    }
}

/// Run one session to completion, then tear it down. This is the only
/// place a session's resources are released, and it runs no matter how
/// `serve_loop` ended — EOF, reset, protocol abuse, eviction, chaos.
pub(crate) fn run(inner: &Arc<ServerInner>, mut conn: Box<dyn Transport>, shared: Arc<SessionShared>) {
    inner.stats.sessions_opened.fetch_add(1, Ordering::SeqCst);
    let end = serve_loop(inner, conn.as_mut(), &shared);
    let s = &inner.stats;
    match end {
        SessionEnd::Eof | SessionEnd::Drained => {}
        SessionEnd::Io => {
            s.io_errors.fetch_add(1, Ordering::SeqCst);
        }
        SessionEnd::Protocol => {} // counted where detected
        SessionEnd::Evicted => {} // counted where detected
        SessionEnd::Injected => {
            s.injected_ends.fetch_add(1, Ordering::SeqCst);
        }
    }
    // Teardown: abort the owned transaction (if the drain sweep or a
    // failing dispatch hasn't already taken it). The abort funnels
    // through the transaction table's single removal and its
    // `TxnEndObserver` notification, so locks, predicates and the
    // admission credit release exactly once.
    if let Some(txn) = shared.txn.lock().take() {
        let _ = inner.db.end_session_txn(txn);
        s.teardown_aborts.fetch_add(1, Ordering::SeqCst);
    }
    conn.close();
    inner.sessions.lock().remove(&shared.id);
    s.sessions_closed.fetch_add(1, Ordering::SeqCst);
}

fn serve_loop(inner: &Arc<ServerInner>, conn: &mut dyn Transport, shared: &SessionShared) -> SessionEnd {
    if gist_chaos::point("serve.session.after_accept").is_err() {
        return SessionEnd::Injected;
    }
    let cfg = &inner.cfg;
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 4096];
    let mut last_activity = Instant::now();
    loop {
        // Pump every complete frame already buffered before reading more.
        loop {
            let body = match dec.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(e) => {
                    // Stream-level garbage: say why, then hang up (the
                    // decoder is poisoned; there is no resync).
                    inner.stats.protocol_errors.fetch_add(1, Ordering::SeqCst);
                    let _ = reply(inner, conn, &protocol_error(&e.to_string()));
                    return SessionEnd::Protocol;
                }
            };
            last_activity = Instant::now();
            inner.stats.requests.fetch_add(1, Ordering::SeqCst);
            let req = match Request::decode(&body) {
                Ok(req) => req,
                Err(e) => {
                    inner.stats.protocol_errors.fetch_add(1, Ordering::SeqCst);
                    let _ = reply(inner, conn, &protocol_error(&e.to_string()));
                    return SessionEnd::Protocol;
                }
            };
            if gist_chaos::point("serve.session.before_dispatch").is_err() {
                return SessionEnd::Injected;
            }
            let rsp = dispatch(inner, shared, req);
            match reply(inner, conn, &rsp) {
                Ok(()) => {}
                Err(end) => return end,
            }
        }
        // Drain check between pump and read: buffered requests were
        // answered (liveness holds through the flag), but once this
        // session owns no transaction it leaves before blocking for
        // more input — a chatty client cannot pin a draining server,
        // and a session whose transaction the drain sweep force-aborted
        // exits on its next pass instead of idling to the deadline.
        if inner.draining.load(Ordering::SeqCst) && shared.txn.lock().is_none() {
            return SessionEnd::Drained;
        }
        match conn.recv(&mut buf, cfg.read_slice) {
            Ok(0) => return SessionEnd::Eof,
            Ok(n) => {
                last_activity = Instant::now();
                dec.feed(&buf[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                // Idle slice: where slow-client eviction acts.
                if last_activity.elapsed() >= cfg.idle_deadline {
                    inner.stats.evicted_slow.fetch_add(1, Ordering::SeqCst);
                    return SessionEnd::Evicted;
                }
            }
            Err(_) => return SessionEnd::Io,
        }
    }
}

fn protocol_error(msg: &str) -> Response {
    Response::Error { code: ErrorCode::Protocol, message: msg.to_string() }
}

fn reply(inner: &ServerInner, conn: &mut dyn Transport, rsp: &Response) -> Result<(), SessionEnd> {
    gist_chaos::point("serve.session.before_reply")?;
    // Every response encoder bounds its body below MAX_FRAME — `Rows`
    // by the frame byte budget (with its `truncated` flag), the other
    // collections by entry caps — so `None` here would be a server bug
    // and is treated as an I/O-level session end rather than a panic.
    let Some(frame) = encode_frame(&rsp.encode()) else {
        return Err(SessionEnd::Io);
    };
    conn.send(&frame, inner.cfg.write_deadline).map_err(|_| SessionEnd::Io)
}

/// Map an engine error to its wire classification.
fn map_code(e: &GistError) -> ErrorCode {
    match e {
        GistError::UniqueViolation => ErrorCode::UniqueViolation,
        GistError::NotFound => ErrorCode::NotFound,
        // Deadlock victim or lock timeout: transaction must be aborted
        // and retried — dispatch aborts it before replying.
        GistError::Lock(_) => ErrorCode::Retry,
        // The transaction vanished under us: drain or eviction
        // force-aborted it between dispatch taking the id and the
        // engine looking it up.
        GistError::Txn(TxnError::NotActive(_)) => ErrorCode::Aborted,
        GistError::Txn(_) => ErrorCode::Retry,
        GistError::StorageFailed(_) => ErrorCode::ReadOnly,
        _ => ErrorCode::Internal,
    }
}

/// Whether an engine error leaves the transaction unusable, requiring
/// dispatch to abort it before replying. Benign logical failures
/// (unique violation holds an S-lock on the duplicate per §8; NotFound
/// is just a miss) leave the transaction open.
fn fatal_to_txn(e: &GistError) -> bool {
    !matches!(e, GistError::UniqueViolation | GistError::NotFound)
}

fn error_rsp(e: &GistError) -> Response {
    Response::Error { code: map_code(e), message: e.to_string() }
}

fn dispatch(inner: &Arc<ServerInner>, shared: &SessionShared, req: Request) -> Response {
    let db = &inner.db;
    match req {
        Request::Ping => Response::Pong,
        Request::Begin => {
            let mut slot = shared.txn.lock();
            // Checked *under the slot lock*: drain sets the flag before
            // sweeping slots, so either this Begin installs its txn
            // before the sweep reads the slot (the sweep aborts it), or
            // it acquires the lock after the sweep and observes the
            // flag here. No interleaving lets a fresh transaction slip
            // past the force-abort unseen.
            if inner.draining.load(Ordering::SeqCst) {
                return Response::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining".to_string(),
                };
            }
            if slot.is_some() {
                return Response::Error {
                    code: ErrorCode::TxnAlreadyOpen,
                    message: "session already owns a transaction".to_string(),
                };
            }
            match db.try_begin() {
                Ok(txn) => {
                    *slot = Some(txn);
                    Response::Begun
                }
                Err(GistError::Overloaded) => {
                    inner.stats.busy_sheds.fetch_add(1, Ordering::SeqCst);
                    Response::Busy { retry_after_ms: inner.cfg.busy_retry_ms }
                }
                Err(e) => error_rsp(&e),
            }
        }
        Request::Commit => match shared.txn.lock().take() {
            None => txn_required(),
            Some(txn) => match db.commit(txn) {
                Ok(()) => Response::Ok,
                Err(e) => {
                    // A failed commit may leave the transaction active
                    // (e.g. injected before the decision); make sure it
                    // is gone before reporting.
                    let _ = db.end_session_txn(txn);
                    error_rsp(&e)
                }
            },
        },
        Request::Abort => match shared.txn.lock().take() {
            None => txn_required(),
            Some(txn) => match db.end_session_txn(txn) {
                Ok(()) => Response::Ok,
                Err(e) => error_rsp(&e),
            },
        },
        Request::CreateIndex { name, unique } => {
            let mut indexes = inner.indexes.lock();
            if indexes.contains_key(&name) {
                return Response::Error {
                    code: ErrorCode::IndexExists,
                    message: format!("index {name:?} already exists"),
                };
            }
            match GistIndex::create(db.clone(), &name, BtreeExt, IndexOptions { unique }) {
                Ok(handle) => {
                    indexes.insert(name, handle);
                    Response::Ok
                }
                Err(e) => error_rsp(&e),
            }
        }
        Request::Insert { index, key, payload } => {
            data_op(inner, shared, &index, |txn, idx| {
                let rid = db.heap().insert(&payload).map_err(GistError::from)?;
                idx.insert(txn, &key, rid)?;
                Ok(Response::Ok)
            })
        }
        Request::Delete { index, key } => {
            data_op(inner, shared, &index, |txn, idx| {
                let hits = idx.search(txn, &I64Query::eq(key))?;
                if hits.is_empty() {
                    return Err(GistError::NotFound);
                }
                for (k, rid) in hits {
                    idx.delete(txn, &k, rid)?;
                }
                Ok(Response::Ok)
            })
        }
        Request::Get { index, key } => {
            data_op(inner, shared, &index, |txn, idx| {
                rows_rsp(db, idx.search(txn, &I64Query::eq(key))?)
            })
        }
        Request::Range { index, lo, hi } => {
            data_op(inner, shared, &index, |txn, idx| {
                rows_rsp(db, idx.search(txn, &I64Query::range(lo, hi))?)
            })
        }
        Request::Health => {
            let state = db.health();
            Response::Health {
                label: state.label().to_string(),
                reasons: state.reasons().to_vec(),
            }
        }
        Request::Stats => Response::Stats(stats_entries(inner)),
    }
}

fn txn_required() -> Response {
    Response::Error {
        code: ErrorCode::TxnRequired,
        message: "operation requires an open transaction (send Begin)".to_string(),
    }
}

/// Shared shape of the four data operations: resolve the index, read
/// the session transaction, run the op, and on an error that poisons
/// the transaction abort it *before* replying so the client's `Retry`
/// guidance ("begin a new transaction") is already true when the
/// response hits the wire.
fn data_op(
    inner: &ServerInner,
    shared: &SessionShared,
    index: &str,
    f: impl FnOnce(TxnId, &Arc<GistIndex<BtreeExt>>) -> Result<Response, GistError>,
) -> Response {
    let Some(idx) = inner.indexes.lock().get(index).cloned() else {
        return Response::Error {
            code: ErrorCode::NoSuchIndex,
            message: format!("no index named {index:?}"),
        };
    };
    let Some(txn) = *shared.txn.lock() else {
        return txn_required();
    };
    match f(txn, &idx) {
        Ok(rsp) => rsp,
        Err(e) => {
            if fatal_to_txn(&e) {
                if let Some(txn) = shared.txn.lock().take() {
                    let _ = inner.db.end_session_txn(txn);
                }
            }
            error_rsp(&e)
        }
    }
}

fn rows_rsp(db: &gist_core::Db, hits: Vec<(i64, Rid)>) -> Result<Response, GistError> {
    // Bound the result by the wire caps here, where rows are dropped —
    // row count and the frame byte budget — so the `truncated` flag the
    // client sees is authoritative and a legal oversized result set can
    // never produce a frame `encode_frame` would refuse (which used to
    // kill the session for a valid query).
    let mut rows = Vec::with_capacity(hits.len().min(MAX_ROWS));
    let mut used = 0usize;
    let mut truncated = false;
    for (key, rid) in hits {
        let Some(payload) = db.heap().get(rid).map_err(GistError::from)? else {
            return Err(GistError::lost_heap_record(key, rid));
        };
        let sz = encoded_row_size(payload.len());
        if rows.len() >= MAX_ROWS || used + sz > ROWS_BYTE_BUDGET {
            truncated = true;
            break;
        }
        used += sz;
        rows.push((key, payload));
    }
    Ok(Response::Rows { rows, truncated })
}

/// Flatten the engine's robustness counters plus this server's own
/// into the wire `Stats` shape. Curated, not exhaustive: the counters
/// an operator needs to explain a degraded verdict.
fn stats_entries(inner: &ServerInner) -> Vec<(String, i64)> {
    let rs = inner.db.robustness_stats();
    let ss = inner.stats.snapshot();
    let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    vec![
        ("admission_in_flight".to_string(), clamp(rs.admission.in_flight)),
        ("admission_capacity".to_string(), clamp(rs.admission.capacity)),
        ("admission_shed".to_string(), clamp(rs.admission.shed)),
        ("admission_forced".to_string(), clamp(rs.admission.forced)),
        ("txn_retries".to_string(), clamp(rs.txn_retries)),
        ("lock_deadlocks".to_string(), clamp(rs.lock_deadlocks)),
        ("epoch_pending".to_string(), clamp(rs.epoch_pending)),
        ("pool_poisoned".to_string(), i64::from(rs.pool_poisoned)),
        ("serve_sessions_opened".to_string(), clamp(ss.sessions_opened)),
        ("serve_sessions_closed".to_string(), clamp(ss.sessions_closed)),
        ("serve_requests".to_string(), clamp(ss.requests)),
        ("serve_protocol_errors".to_string(), clamp(ss.protocol_errors)),
        ("serve_busy_sheds".to_string(), clamp(ss.busy_sheds)),
        ("serve_evicted_slow".to_string(), clamp(ss.evicted_slow)),
        ("serve_teardown_aborts".to_string(), clamp(ss.teardown_aborts)),
        ("serve_drain_forced_aborts".to_string(), clamp(ss.drain_forced_aborts)),
        ("serve_io_errors".to_string(), clamp(ss.io_errors)),
    ]
}
