#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # gist-serve — the fault-tolerant serving front-end
//!
//! A threaded server exposing a [`Db`](gist_core::Db) over the
//! `gist-wire` protocol, built so the **process boundary fails the
//! same way the engine does**: designed, counted, self-clearing.
//!
//! - **Session-owned transactions.** Each connection owns at most one
//!   transaction. When the session ends — clean EOF, reset mid-frame,
//!   protocol abuse, eviction, chaos injection — teardown aborts the
//!   owned transaction through the engine's `TxnEndObserver` funnel,
//!   so locks, predicate entries and the admission credit release
//!   exactly once. A vanished client leaks nothing.
//! - **Deadline-sliced I/O.** Every read and write is bounded (the
//!   `no-unbounded-read` lint rule keeps raw socket calls confined to
//!   [`io`]'s helpers). Clients idle past the deadline are evicted.
//! - **Shedding at the wire.** `Begin` uses
//!   [`try_begin`](gist_core::Db::try_begin); an admission shed comes
//!   back as a retryable [`Response::Busy`](gist_wire::Response::Busy)
//!   with a backoff hint, never a queued-forever connection.
//! - **Observability.** `Health`/`Stats` requests serialize
//!   [`Db::health`](gist_core::Db::health) and `robustness_stats()`
//!   plus the server's own counters.
//! - **Graceful drain.** [`Server::drain`] stops accepting, gives
//!   in-flight sessions a bounded window, then force-aborts stragglers
//!   (counted, via the same exactly-once funnel).
//!
//! Verification lives in `tests/serve.rs`: a deterministic
//! [`FaultTransport`] (torn writes, resets, stalls, short reads from the
//! same `gist_chaos::Plan` as `FaultStore`), chaos points across the
//! accept/decode/dispatch/drain path, and a protocol corpus asserting
//! malformed bytes can never panic the server or leak a transaction.

mod client;
mod fault;
pub mod io;
mod session;

pub use client::Client;
pub use fault::FaultTransport;
pub use io::{pipe_pair, PipeConn, TcpConn, Transport};

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use gist_am::BtreeExt;
use gist_core::{Db, GistIndex};
use parking_lot::Mutex;

use session::SessionShared;

/// Serving-layer tuning knobs. Defaults suit tests; the binary scales
/// them up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// How long one blocking read slice may park. Between slices the
    /// session notices drain and eviction; smaller = snappier shutdown,
    /// larger = fewer wakeups.
    pub read_slice: Duration,
    /// Idle time (no bytes from the client) before a session is evicted
    /// as a slow client.
    pub idle_deadline: Duration,
    /// Bound on writing one response.
    pub write_deadline: Duration,
    /// How long [`Server::drain`] waits for sessions to finish before
    /// force-aborting their transactions.
    pub drain_deadline: Duration,
    /// Backoff hint carried by `Busy` responses, milliseconds.
    pub busy_retry_ms: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            read_slice: Duration::from_millis(25),
            idle_deadline: Duration::from_secs(2),
            write_deadline: Duration::from_millis(500),
            drain_deadline: Duration::from_millis(750),
            busy_retry_ms: 25,
        }
    }
}

/// Monotonic serving-layer counters (see [`ServeStats::snapshot`]).
#[derive(Default)]
pub struct ServeStats {
    pub(crate) sessions_opened: AtomicU64,
    pub(crate) sessions_closed: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) busy_sheds: AtomicU64,
    pub(crate) evicted_slow: AtomicU64,
    pub(crate) teardown_aborts: AtomicU64,
    pub(crate) drain_forced_aborts: AtomicU64,
    pub(crate) io_errors: AtomicU64,
    pub(crate) injected_ends: AtomicU64,
}

/// Plain-value snapshot of [`ServeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStatsSnapshot {
    /// Sessions accepted.
    pub sessions_opened: u64,
    /// Sessions fully torn down.
    pub sessions_closed: u64,
    /// Frames dispatched as requests.
    pub requests: u64,
    /// Sessions ended for malformed frames/messages.
    pub protocol_errors: u64,
    /// `Begin` requests shed as `Busy`.
    pub busy_sheds: u64,
    /// Sessions evicted for idling past the deadline.
    pub evicted_slow: u64,
    /// Owned transactions aborted by session teardown.
    pub teardown_aborts: u64,
    /// Straggler transactions force-aborted by drain.
    pub drain_forced_aborts: u64,
    /// Sessions ended by transport errors.
    pub io_errors: u64,
    /// Sessions ended by chaos injection (`chaos` feature).
    pub injected_ends: u64,
}

impl ServeStats {
    /// Read every counter (each individually `SeqCst`; the set is not
    /// atomic as a whole).
    pub fn snapshot(&self) -> ServeStatsSnapshot {
        ServeStatsSnapshot {
            sessions_opened: self.sessions_opened.load(Ordering::SeqCst),
            sessions_closed: self.sessions_closed.load(Ordering::SeqCst),
            requests: self.requests.load(Ordering::SeqCst),
            protocol_errors: self.protocol_errors.load(Ordering::SeqCst),
            busy_sheds: self.busy_sheds.load(Ordering::SeqCst),
            evicted_slow: self.evicted_slow.load(Ordering::SeqCst),
            teardown_aborts: self.teardown_aborts.load(Ordering::SeqCst),
            drain_forced_aborts: self.drain_forced_aborts.load(Ordering::SeqCst),
            io_errors: self.io_errors.load(Ordering::SeqCst),
            injected_ends: self.injected_ends.load(Ordering::SeqCst),
        }
    }
}

/// What [`Server::drain`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Sessions alive when drain began.
    pub sessions_at_start: u64,
    /// Straggler transactions force-aborted at the deadline.
    pub forced_aborts: u64,
    /// Whether every session finished inside the drain window.
    pub clean: bool,
}

pub(crate) struct ServerInner {
    pub(crate) db: Arc<Db>,
    pub(crate) cfg: ServeConfig,
    pub(crate) stats: ServeStats,
    pub(crate) draining: AtomicBool,
    next_session: AtomicU64,
    pub(crate) sessions: Mutex<HashMap<u64, Arc<SessionShared>>>,
    pub(crate) indexes: Mutex<HashMap<String, Arc<GistIndex<BtreeExt>>>>,
}

/// The serving front-end. Cheap to clone-share via its inner `Arc`;
/// one instance serves many connections.
#[derive(Clone)]
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Build a server over `db`.
    pub fn new(db: Arc<Db>, cfg: ServeConfig) -> Self {
        Server {
            inner: Arc::new(ServerInner {
                db,
                cfg,
                stats: ServeStats::default(),
                draining: AtomicBool::new(false),
                next_session: AtomicU64::new(1),
                sessions: Mutex::new(HashMap::new()),
                indexes: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The underlying database.
    pub fn db(&self) -> &Arc<Db> {
        &self.inner.db
    }

    /// Serving-layer counters.
    pub fn stats(&self) -> ServeStatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Sessions currently registered (open or mid-teardown).
    pub fn session_count(&self) -> usize {
        self.inner.sessions.lock().len()
    }

    /// Whether [`Server::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Make an already-open index servable (e.g. one created before the
    /// server started, or re-opened after restart). Indexes created via
    /// the wire `CreateIndex` request register themselves.
    pub fn register_index(&self, idx: Arc<GistIndex<BtreeExt>>) {
        self.inner.indexes.lock().insert(idx.name().to_string(), idx);
    }

    /// Serve one connection on its own thread. The handle is for tests
    /// and binaries that want to join; dropping it detaches the session
    /// (teardown still runs — it is part of the session thread).
    pub fn serve_conn(&self, conn: Box<dyn Transport>) -> JoinHandle<()> {
        let id = self.inner.next_session.fetch_add(1, Ordering::SeqCst);
        let shared = SessionShared::new(id);
        self.inner.sessions.lock().insert(id, shared.clone());
        let inner = self.inner.clone();
        thread::spawn(move || session::run(&inner, conn, shared))
    }

    /// Accept TCP connections until drain. The listener is switched to
    /// non-blocking so the loop can observe [`Server::drain`] between
    /// accept attempts.
    pub fn accept_loop(&self, listener: std::net::TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        loop {
            if self.is_draining() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    // Sessions do their own deadline slicing; the stream
                    // stays blocking with per-call timeouts. A failure
                    // configuring one accepted socket drops that socket,
                    // not the accept loop — the server keeps listening.
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    self.serve_conn(Box::new(TcpConn::new(stream)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Graceful drain: stop admitting new transactions and new
    /// connections, give in-flight sessions up to the configured drain
    /// deadline to finish, then force-abort whatever transactions are
    /// still owned by live sessions (counted). Cleanup is
    /// unconditional: even a chaos injection at the drain point only
    /// gets counted, never skips the abort.
    ///
    /// The sweep cannot race a concurrent `Begin` into leaking a fresh
    /// transaction: `Begin` re-checks the draining flag *under its
    /// session's slot lock*, so a transaction either lands in the slot
    /// before the sweep takes it (and is aborted here) or is refused as
    /// `ShuttingDown`. Drain does not wait for straggler session
    /// *threads* to observe their loss — callers about to tear the
    /// `Db` down should follow with [`Server::await_sessions`].
    pub fn drain(&self) -> DrainReport {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::SeqCst);
        let sessions_at_start = inner.sessions.lock().len() as u64;
        let due = Instant::now() + inner.cfg.drain_deadline;
        while Instant::now() < due {
            if inner.sessions.lock().is_empty() {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        let stragglers: Vec<Arc<SessionShared>> =
            inner.sessions.lock().values().cloned().collect();
        let mut forced = 0u64;
        for s in &stragglers {
            let _ = gist_chaos::point("serve.drain.before_force_abort");
            if let Some(txn) = s.txn.lock().take() {
                let _ = inner.db.end_session_txn(txn);
                forced += 1;
            }
        }
        inner.stats.drain_forced_aborts.fetch_add(forced, Ordering::SeqCst);
        DrainReport { sessions_at_start, forced_aborts: forced, clean: stragglers.is_empty() }
    }

    /// Wait (up to `deadline`) for every session thread to finish its
    /// teardown, i.e. for the session registry to empty. Sessions are
    /// registered *before* their thread spawns and deregistered as the
    /// last `Db`-touching step of teardown, so a `true` return means no
    /// session is still dispatching against the engine — the guarantee
    /// a caller needs between [`Server::drain`] and `Db::shutdown`.
    /// Returns `false` if stragglers remain at the deadline.
    pub fn await_sessions(&self, deadline: Duration) -> bool {
        let due = Instant::now() + deadline;
        while !self.inner.sessions.lock().is_empty() {
            if Instant::now() >= due {
                return false;
            }
            thread::sleep(Duration::from_millis(5));
        }
        true
    }
}
