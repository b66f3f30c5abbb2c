#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Outside tests, no discarded result: a failed sync must not pass silently.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

//! Transaction manager: lifecycle, 2PL integration, savepoints.
//!
//! Ties the substrates together for the paper's protocols:
//!
//! - **begin** assigns a [`TxnId`] and takes the X lock on the
//!   transaction's own id that §10.3 assumes ("every transaction acquires
//!   an X-mode lock on its own ID when it starts up") — this is what lets
//!   other operations "block on a predicate" by S-locking that id. It
//!   logs nothing: `TxnBegin` is appended together with the
//!   transaction's first record, so a read-only transaction never
//!   touches the log.
//! - **commit** forces the log (`TxnCommit`, then
//!   [`LogManager::sync_to`] on the committer's own thread), writes
//!   `TxnEnd`, then releases predicate locks and record/signaling locks —
//!   strict two-phase locking with predicate attachments held to
//!   transaction end (§4.3) — and yields the CPU once. A transaction
//!   that logged nothing has nothing to redo or undo (§9): its commit
//!   appends and syncs nothing and only releases and yields. Its Degree 3
//!   guarantee is the locks it held, and every row it read under them
//!   was written by a commit that was forced before releasing them.
//! - **abort** performs *logical undo* through the caller-supplied
//!   [`RecoveryHandler`] (the GiST layer), one CLR per undone record,
//!   writes `TxnEnd`, then releases everything. No abort record precedes
//!   the CLRs: restart undoes a transaction without an end record the
//!   same way whether or not its abort had begun.
//! - **savepoints** (§10.2): a savepoint is the transaction's last LSN
//!   when it is taken, kept in the table and never logged; partial
//!   rollback to it keeps the transaction (and its locks) alive, and
//!   signaling locks existing at the savepoint are *pinned* so they are
//!   not released when the node is later visited — the restored cursor
//!   stacks still reference those nodes.
//! - **nested top actions** (§9.1): [`TxnManager::begin_nta`] remembers
//!   the transaction's last LSN and [`TxnManager::end_nta`] appends the
//!   `NtaEnd` dummy CLR pointing back to it, so rollback skips the unit.
//!   They wrap node splits and node deletion only: a unit of one
//!   redo-only record has nothing for rollback to skip, and index DDL is
//!   an ordinary transaction that rollback undoes.

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gist_lockmgr::{LockError, LockManager, LockMode, LockName};
use gist_pagestore::{IdMap, PageId};
use gist_predlock::PredicateManager;
use gist_wal::recovery::{rollback, RecoveryHandler};
use gist_wal::{LogManager, Lsn, Payload, RecordBody, SyncError, TxnId};

/// A leaf page that a transaction left delete-marked entries on —
/// physical reclamation is deferred to the maintenance daemon, which
/// receives these at commit through the [`TxnEndObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GcCandidate {
    /// Index the leaf belongs to.
    pub index: u32,
    /// The leaf holding delete-marked entries.
    pub leaf: PageId,
    /// The parent seen during the deleting descent, if any — a hint for
    /// BP shrinking and drain-based node deletion, never trusted blindly.
    pub parent_hint: Option<PageId>,
}

/// Observer fired exactly once when a transaction leaves the table —
/// after its end record is logged, the entry removed and every
/// predicate and lock released, on *every* termination path: commit
/// and abort (the owner's, or the serving layer's session teardown).
///
/// Registered by the embedder (`Db`) to release the admission-control
/// credit bound to the transaction — so a credit can never outlive its
/// transaction no matter how it ends — and to hand a commit's GC
/// candidates to the maintenance daemon, which may reclaim at once
/// under the Commit_LSN fast path.
pub trait TxnEndObserver: Send + Sync {
    /// `txn` terminated and was removed from the table. `gc` holds the
    /// leaves a committed `txn` delete-marked entries on; it is empty on
    /// abort, whose rollback undid the marks.
    fn txn_ended(&self, txn: TxnId, gc: Vec<GcCandidate>);
}

/// State of a transaction in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Running.
    Active,
    /// Commit record written and forced — the point of no return. The
    /// entry stays in the table only until [`TxnManager`] finishes the
    /// end record and lock release; an `abort` arriving in that window
    /// (a caller that lost the commit acknowledgement) *completes* the
    /// commit instead of undoing it.
    Committed,
    /// Abort decided; rollback in progress.
    Aborting,
}

/// Token bracketing a nested top action (§9.1).
///
/// Created when the atomic unit of work starts; carries the transaction's
/// backchain position at that point. When the unit finishes,
/// [`TxnManager::end_nta`] writes a dummy CLR whose `undo_next` points to
/// that position, so a later rollback of the surrounding transaction skips
/// every record the unit wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestedTopAction {
    /// The transaction's `last_lsn` before the unit's first record.
    pub undo_next: Lsn,
}

/// Savepoint handle (transaction-local, monotonically increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SavepointId(pub u32);

#[derive(Debug)]
struct TxnInfo {
    status: TxnStatus,
    /// The transaction's `TxnBegin`, or [`Lsn::NULL`] until its first
    /// record (a read-only transaction never gets one).
    begin_lsn: Lsn,
    last_lsn: Lsn,
    savepoints: Vec<(SavepointId, Lsn)>,
    next_savepoint: u32,
    /// Signaling locks pinned by savepoints (§10.2): never released
    /// before transaction end.
    pinned_nodes: HashSet<LockName>,
    /// Leaves this transaction delete-marked entries on; handed to the
    /// [`TxnEndObserver`] at commit, dropped at abort.
    gc_candidates: Vec<GcCandidate>,
    /// Must-abort: an operation panicked mid-flight (its [`OpGuard`]
    /// unwound), so shadow state may be torn. Further operations and
    /// commit are refused; `abort` still works and clears everything.
    poisoned: bool,
}

/// Errors from transaction operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// Unknown or already-terminated transaction.
    NotActive(TxnId),
    /// Unknown savepoint.
    NoSuchSavepoint(SavepointId),
    /// Undo failed (propagated from the recovery handler).
    Undo(String),
    /// Lock acquisition failed (deadlock victim or timeout).
    Lock(LockError),
    /// The transaction is poisoned (an operation panicked mid-flight);
    /// only `abort` is accepted.
    MustAbort(TxnId),
    /// A chaos crash point injected this failure.
    Injected(&'static str),
    /// The log crashed and refuses to sync ([`SyncError::Crashed`]).
    LogCrashed,
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::NotActive(t) => write!(f, "transaction {t} is not active"),
            TxnError::NoSuchSavepoint(s) => write!(f, "no such savepoint {s:?}"),
            TxnError::Undo(e) => write!(f, "undo failed: {e}"),
            TxnError::Lock(e) => write!(f, "{e}"),
            TxnError::MustAbort(t) => {
                write!(f, "transaction {t} is poisoned by a mid-operation panic; abort it")
            }
            TxnError::Injected(p) => write!(f, "chaos injection at crash point {p:?}"),
            TxnError::LogCrashed => write!(f, "the log crashed and refuses to sync until restart"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<LockError> for TxnError {
    fn from(e: LockError) -> Self {
        TxnError::Lock(e)
    }
}

impl From<gist_chaos::Injected> for TxnError {
    fn from(e: gist_chaos::Injected) -> Self {
        TxnError::Injected(e.0)
    }
}

impl From<SyncError> for TxnError {
    fn from(e: SyncError) -> Self {
        match e {
            SyncError::Injected(p) => TxnError::Injected(p),
            SyncError::Crashed => TxnError::LogCrashed,
        }
    }
}

/// Commit-wait histogram: bucket `i > 0` counts commits whose wait in
/// microseconds fell in `[2^(i-1), 2^i)`; bucket 0 counts waits under
/// 1 µs.
const WAIT_BUCKETS: usize = 32;

/// Commit durability counters: the commit-wait histogram and the log's
/// device syncs. Read through [`TxnManager::pipeline`].
pub struct CommitMeter {
    log: Arc<LogManager>,
    /// One entry per commit made durable; its total is the commit count.
    wait_hist: [AtomicU64; WAIT_BUCKETS],
}

/// Snapshot of a [`CommitMeter`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommitStats {
    /// Device syncs of the log, whoever asked: commits, write-backs,
    /// checkpoints, shutdown.
    pub batches_flushed: u64,
    /// Commits made durable: successful commits plus lost-ack
    /// completions by `abort`. A read-only commit has nothing to make
    /// durable and is not counted.
    pub commits_flushed: u64,
    /// Median commit wait in `sync_to`, microseconds (bucketed, upper
    /// bound).
    pub commit_wait_p50_us: u64,
    /// 99th-percentile commit wait in `sync_to`, microseconds.
    pub commit_wait_p99_us: u64,
    /// Always 0: there is no flusher thread to panic. Kept only because
    /// the benchmark's `commitpipe.flusher_panics` row reads it.
    pub flusher_panics: u64,
}

impl CommitMeter {
    fn new(log: Arc<LogManager>) -> CommitMeter {
        CommitMeter { log, wait_hist: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    fn record_commit(&self, waited: Duration) {
        let bucket = 128 - waited.as_micros().leading_zeros() as usize;
        self.wait_hist[bucket.min(WAIT_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    fn commits(&self) -> u64 {
        self.wait_hist.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Approximate percentile: the upper bound of the first bucket whose
    /// cumulative count reaches `q` of the total (0 before any commit).
    fn percentile_us(&self, q: f64) -> u64 {
        let need = (self.commits() as f64 * q).ceil() as u64;
        let mut seen = 0;
        let bucket = self.wait_hist.iter().position(|b| {
            seen += b.load(Ordering::Relaxed);
            need > 0 && seen >= need
        });
        bucket.map_or(0, |i| 1 << i)
    }

    /// Observability snapshot.
    pub fn stats(&self) -> CommitStats {
        CommitStats {
            batches_flushed: self.log.syncs(),
            commits_flushed: self.commits(),
            commit_wait_p50_us: self.percentile_us(0.50),
            commit_wait_p99_us: self.percentile_us(0.99),
            flusher_panics: 0,
        }
    }
}

/// The transaction manager.
pub struct TxnManager {
    log: Arc<LogManager>,
    meter: CommitMeter,
    locks: Arc<LockManager>,
    preds: Arc<PredicateManager>,
    table: Mutex<IdMap<TxnId, TxnInfo>>,
    next_txn: Mutex<u64>,
    /// End-of-transaction observer (admission-credit release, GC
    /// hand-off). Weak so the embedder, which owns this manager, and the
    /// manager don't keep each other alive.
    end_observer: Mutex<Option<std::sync::Weak<dyn TxnEndObserver>>>,
}

impl TxnManager {
    /// Manager over the shared log, lock manager and predicate manager.
    pub fn new(
        log: Arc<LogManager>,
        locks: Arc<LockManager>,
        preds: Arc<PredicateManager>,
    ) -> Self {
        TxnManager {
            meter: CommitMeter::new(log.clone()),
            log,
            locks,
            preds,
            table: Mutex::new(IdMap::default()),
            next_txn: Mutex::new(0),
            end_observer: Mutex::new(None),
        }
    }

    /// Register the end-of-transaction observer. Replaces any previous
    /// observer.
    pub fn set_end_observer(&self, obs: std::sync::Weak<dyn TxnEndObserver>) {
        *self.end_observer.lock() = Some(obs);
    }

    /// Fire the end observer for a transaction that just left the table.
    fn notify_ended(&self, txn: TxnId, gc: Vec<GcCandidate>) {
        let obs = self.end_observer.lock().as_ref().and_then(|w| w.upgrade());
        if let Some(obs) = obs {
            obs.txn_ended(txn, gc);
        }
    }

    /// Remember that `txn` delete-marked entries on a leaf, for deferred
    /// physical reclamation after commit. Duplicates are cheap and
    /// deduplicated here so long marking transactions don't flood the
    /// daemon.
    pub fn note_gc_candidate(&self, txn: TxnId, cand: GcCandidate) {
        let mut table = self.table.lock();
        if let Some(info) = table.get_mut(&txn) {
            if !info.gc_candidates.iter().any(|c| c.index == cand.index && c.leaf == cand.leaf) {
                info.gc_candidates.push(cand);
            }
        }
    }

    /// The shared log manager.
    pub fn log(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// The commit durability counters. The name is the benchmark's,
    /// which reads `pipeline().stats()`.
    pub fn pipeline(&self) -> &CommitMeter {
        &self.meter
    }

    /// The shared lock manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The shared predicate manager.
    pub fn preds(&self) -> &Arc<PredicateManager> {
        &self.preds
    }

    /// Start a transaction. Nothing is logged until its first record.
    pub fn begin(&self) -> TxnId {
        let id = {
            let mut n = self.next_txn.lock();
            *n += 1;
            TxnId(*n)
        };
        self.table.lock().insert(
            id,
            TxnInfo {
                status: TxnStatus::Active,
                begin_lsn: Lsn::NULL,
                last_lsn: Lsn::NULL,
                savepoints: Vec::new(),
                next_savepoint: 0,
                pinned_nodes: HashSet::new(),
                gc_candidates: Vec::new(),
                poisoned: false,
            },
        );
        // §10.3: X lock on the own id, so others can block on this txn.
        if let Err(e) = self.locks.lock(id, LockName::Txn(id), LockMode::X) {
            unreachable!("own-id lock can never conflict: {e}");
        }
        id
    }

    /// Append a log record for `txn`, maintaining its backchain, preceded
    /// by its `TxnBegin` if this is the transaction's first record.
    /// Returns the record's LSN. Compensations and nested-top-action
    /// terminators go through here too.
    ///
    /// The begin LSN is in the table before the first record reaches any
    /// page: a caller appends under the page's X latch and stamps the
    /// page after this returns. So a reader of
    /// [`TxnManager::oldest_active_begin_lsn`] that holds that latch
    /// never misses a writer of the page.
    pub fn log_update(&self, txn: TxnId, body: RecordBody) -> Result<Lsn, TxnError> {
        let mut table = self.table.lock();
        let info = table.get_mut(&txn).ok_or(TxnError::NotActive(txn))?;
        if info.begin_lsn.is_null() {
            info.begin_lsn = self.log.append(txn, Lsn::NULL, RecordBody::TxnBegin);
            info.last_lsn = info.begin_lsn;
        }
        let lsn = self.log.append(txn, info.last_lsn, body);
        info.last_lsn = lsn;
        Ok(lsn)
    }

    /// Append a compensation record (CLR) for `txn`. `redo` re-applies
    /// the revert at restart (repeat history); `undo_next` makes any
    /// later rollback resume *below* the records the compensation
    /// neutralizes, so they are never undone a second time.
    ///
    /// This is the live-failure counterpart of the CLRs the rollback
    /// driver writes: an atomic unit of work (a node split, §9.1) that
    /// fails halfway reverts its applied changes under the latches it
    /// still holds and logs the revert here, leaving the unit a no-op on
    /// every path — live abort, savepoint rollback, and restart undo.
    pub fn log_compensation(
        &self,
        txn: TxnId,
        undo_next: Lsn,
        redo: Payload,
    ) -> Result<Lsn, TxnError> {
        self.log_update(txn, RecordBody::Clr { undo_next, redo })
    }

    /// Start a nested top action for `txn` (§9.1).
    pub fn begin_nta(&self, txn: TxnId) -> Result<NestedTopAction, TxnError> {
        let table = self.table.lock();
        let info = table.get(&txn).ok_or(TxnError::NotActive(txn))?;
        Ok(NestedTopAction { undo_next: info.last_lsn })
    }

    /// Finish a nested top action for `txn`: writes the dummy CLR that
    /// makes the unit invisible to rollback.
    ///
    /// The terminator is *not* forced (ARIES does not force dummy CLRs
    /// either). The durable horizon is a contiguous prefix and pages
    /// obey WAL-before-data, so nothing that depends on the unit — a
    /// page it touched reaching disk, a later commit — can be durable
    /// unless the log up to that point is, terminator included. A crash
    /// that loses the terminator therefore loses every later record too,
    /// and restart sees exactly a crash in the middle of the unit, which
    /// its undo pass already handles (`tests/recovery_crash.rs`).
    pub fn end_nta(&self, txn: TxnId, nta: NestedTopAction) -> Result<Lsn, TxnError> {
        self.log_update(txn, RecordBody::NtaEnd { undo_next: nta.undo_next })
    }

    /// Commit: append the commit record, sync the log through it on
    /// this thread (the point of no return — every commit is forced),
    /// then write the end record, release predicates and locks, and
    /// yield the CPU once. The force and the completion are separate
    /// steps so that a caller dying *after* the commit record is durable
    /// (the `"commit.after_wal_flush"` crash point) leaves a transaction
    /// that any later `abort` completes rather than undoes; a failed
    /// sync fails the commit the same way.
    ///
    /// The yield comes after the locks are gone: a transaction woken by
    /// the release, which may be waiting for this CPU, runs now rather
    /// than after the rest of this thread's scheduler slice. It costs
    /// one syscall and at most one context switch.
    ///
    /// A transaction that logged nothing appends no commit or end record
    /// and does not sync: it only releases, notifies and yields. That
    /// includes a commit after [`LogManager::crash`], which has nothing
    /// to force and so succeeds.
    pub fn commit(&self, txn: TxnId) -> Result<(), TxnError> {
        let commit_lsn = {
            let mut table = self.table.lock();
            let info = table.get_mut(&txn).ok_or(TxnError::NotActive(txn))?;
            if info.poisoned {
                return Err(TxnError::MustAbort(txn));
            }
            if info.last_lsn.is_null() {
                drop(table);
                self.finish_commit(txn);
                std::thread::yield_now();
                return Ok(());
            }
            // Error fails the commit; Panic kills the committer before
            // its commit record exists, leaving the transaction a loser.
            gist_chaos::point("commit.pre_append")?;
            let commit_lsn = self.log.append(txn, info.last_lsn, RecordBody::TxnCommit);
            info.last_lsn = commit_lsn;
            info.status = TxnStatus::Committed;
            commit_lsn
        };
        // Sync outside the table lock: committers that append behind a
        // sync in flight queue on the device and ride the next one.
        gist_chaos::point("commit.before_durable_wait")?;
        self.make_durable(commit_lsn)?;
        gist_chaos::point("commit.after_wal_flush")?;
        self.finish_commit(txn);
        std::thread::yield_now();
        Ok(())
    }

    /// Sync the log through a commit record, timed into the commit-wait
    /// histogram. The caller holds no page latch (asserted under
    /// `latch-audit`): a latch held across a device sync would stall
    /// every reader of that page.
    fn make_durable(&self, commit_lsn: Lsn) -> Result<(), TxnError> {
        gist_audit::assert_thread_clear("waiting for commit durability");
        let started = Instant::now();
        self.log.sync_to(commit_lsn)?;
        self.meter.record_commit(started.elapsed());
        Ok(())
    }

    /// Second half of commit, idempotent: end record, table removal,
    /// predicate and lock release, GC hand-off. Safe to call again for a
    /// transaction that already finished (no-op).
    fn finish_commit(&self, txn: TxnId) {
        let gc = {
            let mut table = self.table.lock();
            let Some(info) = table.remove(&txn) else { return };
            // The end record is not forced: it only saves restart an undo
            // it would skip anyway, so riding the next sync that a commit,
            // write-back or checkpoint asks for is soon enough. A
            // transaction with no records needs none.
            if !info.last_lsn.is_null() {
                self.log.append(txn, info.last_lsn, RecordBody::TxnEnd);
            }
            info.gc_candidates
        };
        self.preds.release_txn(txn);
        self.locks.release_all(txn);
        // GC work goes out only after every lock is gone, so reclamation
        // can't deadlock against this transaction's remains.
        self.notify_ended(txn, gc);
    }

    /// Abort: logical undo through `handler`, then end and release.
    ///
    /// Absorbs two racy shapes instead of erroring: a transaction whose
    /// commit record is already durable is *completed* (the caller lost
    /// the acknowledgement, not the commit); one that is already rolling
    /// back elsewhere (the serving layer's drain sweep racing a session's
    /// own teardown) returns `Ok` and lets that rollback finish.
    pub fn abort(&self, txn: TxnId, handler: &dyn RecoveryHandler) -> Result<(), TxnError> {
        let last_lsn = {
            let mut table = self.table.lock();
            let info = table.get_mut(&txn).ok_or(TxnError::NotActive(txn))?;
            match info.status {
                TxnStatus::Committed => {
                    let commit_lsn = info.last_lsn;
                    drop(table);
                    // Lost ack: the commit record is already in the log,
                    // but the dying caller may not have reached its sync,
                    // or its sync failed — honor the promise before
                    // completing, so "abort finishes the commit" means a
                    // commit that survives a crash right after this call.
                    self.make_durable(commit_lsn)?;
                    self.finish_commit(txn);
                    return Ok(());
                }
                TxnStatus::Aborting => return Ok(()),
                // Only a rollback passes this point: an error here fails
                // the abort with the transaction still active and nothing
                // undone, and the next abort starts over.
                TxnStatus::Active => gist_chaos::point("abort.before_undo")?,
            }
            info.status = TxnStatus::Aborting;
            info.last_lsn
        };
        // Undo outside the table lock: logical undo latches pages and may
        // take time.
        let chain_end = rollback(&self.log, handler, txn, last_lsn, Lsn::NULL)
            .map_err(|e| TxnError::Undo(e.0))?;
        {
            let mut table = self.table.lock();
            // Unforced, like the commit-side end record: losing an abort's
            // end record only costs restart a re-undo of already-undone
            // work (CLRs make that idempotent). A transaction that logged
            // nothing has nothing for restart to undo, and gets none.
            if !chain_end.is_null() {
                self.log.append(txn, chain_end, RecordBody::TxnEnd);
            }
            table.remove(&txn);
        }
        self.preds.release_txn(txn);
        self.locks.release_all(txn);
        self.notify_ended(txn, Vec::new());
        Ok(())
    }

    /// Establish a savepoint (§10.2): remember the transaction's current
    /// last LSN, logging nothing. The caller (cursor layer) snapshots its
    /// stacks alongside.
    pub fn savepoint(&self, txn: TxnId) -> Result<SavepointId, TxnError> {
        let mut table = self.table.lock();
        let info = table.get_mut(&txn).ok_or(TxnError::NotActive(txn))?;
        info.next_savepoint += 1;
        let id = SavepointId(info.next_savepoint);
        info.savepoints.push((id, info.last_lsn));
        // Pin the signaling locks existing now: they must survive later
        // visits so a restored cursor's stacked pointers stay protected.
        for name in self.locks.held_by(txn) {
            if matches!(name, LockName::Node { .. }) {
                info.pinned_nodes.insert(name);
            }
        }
        Ok(id)
    }

    /// Roll back to `sp`, undoing everything logged after it. The
    /// transaction stays active; locks and predicates are retained.
    /// Savepoints established after `sp` are discarded; `sp` itself
    /// remains valid (can be rolled back to again).
    pub fn rollback_to_savepoint(
        &self,
        txn: TxnId,
        sp: SavepointId,
        handler: &dyn RecoveryHandler,
    ) -> Result<(), TxnError> {
        let (last_lsn, sp_lsn) = {
            let table = self.table.lock();
            let info = table.get(&txn).ok_or(TxnError::NotActive(txn))?;
            let sp_lsn = info
                .savepoints
                .iter()
                .find(|(id, _)| *id == sp)
                .map(|(_, l)| *l)
                .ok_or(TxnError::NoSuchSavepoint(sp))?;
            (info.last_lsn, sp_lsn)
        };
        let chain_end = rollback(&self.log, handler, txn, last_lsn, sp_lsn)
            .map_err(|e| TxnError::Undo(e.0))?;
        let mut table = self.table.lock();
        let info = table.get_mut(&txn).ok_or(TxnError::NotActive(txn))?;
        info.last_lsn = chain_end;
        info.savepoints.retain(|(id, _)| *id <= sp);
        Ok(())
    }

    /// Whether a signaling lock was pinned by a savepoint (if so, the
    /// visiting operation must not release it early).
    pub fn is_pinned(&self, txn: TxnId, name: LockName) -> bool {
        self.table
            .lock()
            .get(&txn)
            .map(|i| i.pinned_nodes.contains(&name))
            .unwrap_or(false)
    }

    /// Whether `txn` is still in the table (active or aborting).
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.table.lock().contains_key(&txn)
    }

    /// Whether `txn` has definitely committed. Transactions leave the
    /// table only after their end record: an ended transaction whose
    /// updates are still visible (e.g. a delete-marked entry) must have
    /// committed, because an abort would have undone the mark first.
    pub fn is_certainly_committed(&self, txn: TxnId) -> bool {
        !self.table.lock().contains_key(&txn)
    }

    /// Smallest `begin_lsn` among active transactions that have logged
    /// anything, or [`Lsn::MAX`] when there are none. Used for the
    /// Commit_LSN fast path of garbage collection (\[Moh90b\], §7.1
    /// footnote 11): a page whose LSN is below this cannot hold any
    /// uncommitted entry. A transaction with no record has put nothing on
    /// any page; its first record will get an LSN above every page LSN
    /// read now, and the page latch a reader holds keeps it off that page
    /// meanwhile (see [`TxnManager::log_update`]).
    pub fn oldest_active_begin_lsn(&self) -> Lsn {
        self.table
            .lock()
            .values()
            .map(|i| i.begin_lsn)
            .filter(|l| !l.is_null())
            .min()
            .unwrap_or(Lsn::MAX)
    }

    /// Last LSN of `txn`'s backchain.
    pub fn last_lsn(&self, txn: TxnId) -> Option<Lsn> {
        self.table.lock().get(&txn).map(|i| i.last_lsn)
    }

    /// Write a fuzzy checkpoint record with a caller-supplied dirty-page
    /// table (§ ARIES). Capture discipline, enforced by the caller
    /// (`MaintDaemon::checkpoint_now`):
    ///
    /// 1. read `scan_start = log.last_lsn()` **first**;
    /// 2. then sync the store and capture `dirty_pages` from the buffer
    ///    pool;
    /// 3. then this method captures the transaction table and appends.
    ///
    /// Mutators append their log record and mark the frame dirty under
    /// the same page latch, so any dirtying the DPT capture missed has an
    /// LSN > `scan_start` and is re-observed by the analysis scan.
    /// Transactions that have logged nothing are left out: restart has
    /// nothing of theirs to undo.
    ///
    /// The record is synced before this returns, so the maintenance
    /// daemon may rely on it. A failed sync fails the checkpoint and
    /// leaves the record volatile, which is safe: a crash loses it, and
    /// restart falls back to the previous durable checkpoint.
    pub fn checkpoint_with(
        &self,
        scan_start: Lsn,
        dirty_pages: Vec<(u32, Lsn)>,
    ) -> Result<Lsn, TxnError> {
        let active: Vec<(TxnId, Lsn)> = self
            .table
            .lock()
            .iter()
            .filter(|(_, i)| !i.last_lsn.is_null())
            .map(|(t, i)| (*t, i.last_lsn))
            .collect();
        let lsn = self.log.append(
            TxnId::NONE,
            Lsn::NULL,
            RecordBody::Checkpoint { scan_start, active_txns: active, dirty_pages },
        );
        self.log.sync_to(lsn)?;
        Ok(lsn)
    }

    /// Block until `owner` terminates ("blocking on a predicate",
    /// §10.3): S-lock the owner's id, then release it immediately.
    pub fn wait_for_txn(&self, me: TxnId, owner: TxnId) -> Result<(), LockError> {
        self.locks.lock(me, LockName::Txn(owner), LockMode::S)?;
        self.locks.unlock(me, LockName::Txn(owner));
        Ok(())
    }

    /// Number of transactions currently in the table.
    pub fn active_count(&self) -> usize {
        self.table.lock().len()
    }

    /// Enter an operation scope for `txn`, refusing a poisoned
    /// (must-abort) or no-longer-active transaction. If the operation
    /// panics, the returned [`OpGuard`]'s unwind marks `txn` poisoned so
    /// further work is refused until `abort`.
    pub fn op_enter(&self, txn: TxnId) -> Result<OpGuard<'_>, TxnError> {
        let table = self.table.lock();
        let info = table.get(&txn).ok_or(TxnError::NotActive(txn))?;
        if info.poisoned {
            return Err(TxnError::MustAbort(txn));
        }
        if info.status != TxnStatus::Active {
            return Err(TxnError::NotActive(txn));
        }
        Ok(OpGuard { mgr: self, txn })
    }

    /// Whether `txn` is poisoned (must-abort).
    pub fn is_poisoned(&self, txn: TxnId) -> bool {
        self.table.lock().get(&txn).map(|i| i.poisoned).unwrap_or(false)
    }
}

/// RAII operation scope from [`TxnManager::op_enter`]. Dropped by a
/// panic unwinding through the operation, it poisons the transaction
/// (shadow state may be torn); any other exit — success or a clean
/// error — leaves the transaction as the operation left it.
pub struct OpGuard<'a> {
    mgr: &'a TxnManager,
    txn: TxnId,
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Some(info) = self.mgr.table.lock().get_mut(&self.txn) {
                info.poisoned = true;
            }
        }
    }
}

#[cfg(test)]
mod tests;
