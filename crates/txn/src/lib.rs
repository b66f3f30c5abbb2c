#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Transaction manager: lifecycle, 2PL integration, savepoints.
//!
//! Ties the substrates together for the paper's protocols:
//!
//! - **begin** assigns a [`TxnId`], writes `TxnBegin`, and takes the X
//!   lock on the transaction's own id that §10.3 assumes ("every
//!   transaction acquires an X-mode lock on its own ID when it starts
//!   up") — this is what lets other operations "block on a predicate" by
//!   S-locking that id.
//! - **commit** forces the log (`TxnCommit` + flush), writes `TxnEnd`,
//!   then releases predicate locks and record/signaling locks — strict
//!   two-phase locking with predicate attachments held to transaction end
//!   (§4.3).
//! - **abort** writes `TxnAbort`, performs *logical undo* through the
//!   caller-supplied [`RecoveryHandler`] (the GiST layer), writes
//!   `TxnEnd`, then releases everything.
//! - **savepoints** (§10.2): partial rollback to a recorded LSN keeps the
//!   transaction (and its locks) alive; signaling locks existing at the
//!   savepoint are *pinned* so they are not released when the node is
//!   later visited — the restored cursor stacks still reference those
//!   nodes.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gist_commitpipe::{CommitPipeline, PipeError};
use gist_lockmgr::{LockError, LockManager, LockMode, LockName};
use gist_pagestore::PageId;
use gist_predlock::PredicateManager;
use gist_wal::recovery::{rollback, RecoveryHandler, RollbackKind};
use gist_wal::{LogManager, Lsn, NestedTopAction, Payload, RecordBody, TxnId};

pub use gist_commitpipe::Durability;

/// Per-transaction options ([`TxnManager::begin_with`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct TxnOptions {
    /// How long commit waits for the commit record to become durable
    /// (see [`Durability`]).
    pub durability: Durability,
}

/// A leaf page that a transaction left delete-marked entries on —
/// physical reclamation is deferred to the maintenance daemon, which
/// receives these at commit through the registered [`GcSink`].
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

/// Receiver for garbage-collection candidates handed off at commit.
///
/// Implemented by the maintenance daemon. The transaction manager calls
/// `committed` *after* the commit record is forced and all locks are
/// released, so the sink may immediately attempt physical reclamation
/// under the Commit_LSN fast path. Candidates of aborting transactions
/// are dropped — their delete marks are undone by rollback.
pub trait GcSink: Send + Sync {
    /// `txn` committed having delete-marked entries on these leaves.
    fn committed(&self, txn: TxnId, candidates: Vec<GcCandidate>);
}

/// Observer fired exactly once when a transaction leaves the table —
/// after its end record is logged and the entry removed, on *every*
/// termination path: commit, owner abort, and watchdog teardown.
///
/// Registered by the embedder (`Db`) to release the admission-control
/// credit bound to the transaction; because abort covers the watchdog
/// path, a credit can never outlive its transaction no matter how it
/// dies.
pub trait TxnEndObserver: Send + Sync {
    /// `txn` terminated and was removed from the table.
    fn txn_ended(&self, txn: TxnId);
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

/// Savepoint handle (transaction-local, monotonically increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SavepointId(pub u32);

#[derive(Debug)]
struct TxnInfo {
    status: TxnStatus,
    begin_lsn: Lsn,
    last_lsn: Lsn,
    savepoints: Vec<(SavepointId, Lsn)>,
    next_savepoint: u32,
    /// Signaling locks pinned by savepoints (§10.2): never released
    /// before transaction end.
    pinned_nodes: HashSet<LockName>,
    /// Leaves this transaction delete-marked entries on; handed to the
    /// [`GcSink`] at commit, dropped at abort.
    gc_candidates: Vec<GcCandidate>,
    /// Must-abort: an operation panicked mid-flight (its [`OpGuard`]
    /// unwound), so shadow state may be torn. Further operations and
    /// commit are refused; `abort` still works and clears everything.
    poisoned: bool,
    /// The watchdog selected this transaction for abort. Set under the
    /// table lock so no new operation can slip in while the watchdog is
    /// rolling the victim back outside the lock.
    doomed: bool,
    /// Operations currently inside an [`OpGuard`] scope. The watchdog
    /// never dooms a transaction with in-flight operations — "idle"
    /// means *between* operations, not parked inside one.
    ops_in_flight: u32,
    /// Last time an operation entered or left. Watchdog idle clock.
    last_activity: Instant,
    /// How long commit waits on the pipeline's durable horizon.
    durability: Durability,
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
    /// The maintenance watchdog aborted this transaction for idling past
    /// the configured deadline. Retryable: begin a fresh transaction.
    AbortedByWatchdog(TxnId),
    /// The transaction is poisoned (an operation panicked mid-flight);
    /// only `abort` is accepted.
    MustAbort(TxnId),
    /// A chaos crash point injected this failure.
    Injected(&'static str),
    /// The commit pipeline's durable horizon never reached this LSN
    /// within the park timeout (flusher dead or fenced). The commit's
    /// outcome is unknown — like a lost acknowledgement.
    PipelineStalled(Lsn),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::NotActive(t) => write!(f, "transaction {t} is not active"),
            TxnError::NoSuchSavepoint(s) => write!(f, "no such savepoint {s:?}"),
            TxnError::Undo(e) => write!(f, "undo failed: {e}"),
            TxnError::Lock(e) => write!(f, "{e}"),
            TxnError::AbortedByWatchdog(t) => {
                write!(f, "transaction {t} was aborted by the idle-transaction watchdog")
            }
            TxnError::MustAbort(t) => {
                write!(f, "transaction {t} is poisoned by a mid-operation panic; abort it")
            }
            TxnError::Injected(p) => write!(f, "chaos injection at crash point {p:?}"),
            TxnError::PipelineStalled(lsn) => {
                write!(f, "commit pipeline stalled before lsn {lsn} became durable")
            }
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

impl From<PipeError> for TxnError {
    fn from(e: PipeError) -> Self {
        match e {
            PipeError::Injected(p) => TxnError::Injected(p),
            PipeError::Stalled(lsn) => TxnError::PipelineStalled(lsn),
        }
    }
}

/// The transaction manager.
pub struct TxnManager {
    log: Arc<LogManager>,
    /// Group-commit pipeline over `log`. Owned here so every commit path
    /// parks on it; the embedder (`Db::build`) starts and stops its
    /// background flusher. Until started, requests are served inline.
    pipeline: Arc<CommitPipeline>,
    /// Durability mode for transactions begun without explicit options.
    default_durability: Mutex<Durability>,
    locks: Arc<LockManager>,
    preds: Arc<PredicateManager>,
    table: Mutex<HashMap<TxnId, TxnInfo>>,
    next_txn: Mutex<u64>,
    /// Weak so the daemon (which holds an `Arc<TxnManager>` for
    /// checkpointing) and the manager don't keep each other alive.
    gc_sink: Mutex<Option<std::sync::Weak<dyn GcSink>>>,
    /// End-of-transaction observer (admission-credit release). Weak for
    /// the same cycle-breaking reason as `gc_sink`.
    end_observer: Mutex<Option<std::sync::Weak<dyn TxnEndObserver>>>,
    /// Transactions the watchdog aborted that left the table before the
    /// victim thread noticed. Consumed by the victim's next call (its
    /// operations report [`TxnError::AbortedByWatchdog`]; its own
    /// `abort` succeeds as a no-op). A victim that never returns leaks
    /// one id here — bounded by the watchdog's own abort count.
    watchdog_tombstones: Mutex<HashSet<TxnId>>,
}

impl TxnManager {
    /// Manager over the shared log, lock manager and predicate manager.
    pub fn new(
        log: Arc<LogManager>,
        locks: Arc<LockManager>,
        preds: Arc<PredicateManager>,
    ) -> Self {
        TxnManager {
            pipeline: CommitPipeline::new(log.clone()),
            default_durability: Mutex::new(Durability::Immediate),
            log,
            locks,
            preds,
            table: Mutex::new(HashMap::new()),
            next_txn: Mutex::new(0),
            gc_sink: Mutex::new(None),
            end_observer: Mutex::new(None),
            watchdog_tombstones: Mutex::new(HashSet::new()),
        }
    }

    /// Register the receiver for commit-time GC candidates (the
    /// maintenance daemon). Replaces any previous sink.
    pub fn set_gc_sink(&self, sink: std::sync::Weak<dyn GcSink>) {
        *self.gc_sink.lock() = Some(sink);
    }

    /// Register the end-of-transaction observer. Replaces any previous
    /// observer.
    pub fn set_end_observer(&self, obs: std::sync::Weak<dyn TxnEndObserver>) {
        *self.end_observer.lock() = Some(obs);
    }

    /// Fire the end observer for a transaction that just left the table.
    fn notify_ended(&self, txn: TxnId) {
        let obs = self.end_observer.lock().as_ref().and_then(|w| w.upgrade());
        if let Some(obs) = obs {
            obs.txn_ended(txn);
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

    /// The group-commit pipeline (the embedder starts/stops its flusher
    /// and reads its stats).
    pub fn pipeline(&self) -> &Arc<CommitPipeline> {
        &self.pipeline
    }

    /// Durability mode for transactions begun via [`TxnManager::begin`].
    pub fn set_default_durability(&self, mode: Durability) {
        *self.default_durability.lock() = mode;
    }

    /// The shared lock manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The shared predicate manager.
    pub fn preds(&self) -> &Arc<PredicateManager> {
        &self.preds
    }

    /// Start a transaction with the manager's default durability.
    pub fn begin(&self) -> TxnId {
        self.begin_with(TxnOptions { durability: *self.default_durability.lock() })
    }

    /// Start a transaction with explicit per-transaction options.
    pub fn begin_with(&self, opts: TxnOptions) -> TxnId {
        let id = {
            let mut n = self.next_txn.lock();
            *n += 1;
            TxnId(*n)
        };
        let begin_lsn = self.log.append(id, Lsn::NULL, RecordBody::TxnBegin);
        self.table.lock().insert(
            id,
            TxnInfo {
                status: TxnStatus::Active,
                begin_lsn,
                last_lsn: begin_lsn,
                savepoints: Vec::new(),
                next_savepoint: 0,
                pinned_nodes: HashSet::new(),
                gc_candidates: Vec::new(),
                poisoned: false,
                doomed: false,
                ops_in_flight: 0,
                last_activity: Instant::now(),
                durability: opts.durability,
            },
        );
        // §10.3: X lock on the own id, so others can block on this txn.
        if let Err(e) = self.locks.lock(id, LockName::Txn(id), LockMode::X) {
            unreachable!("own-id lock can never conflict: {e}");
        }
        id
    }

    /// Append a content log record for `txn`, maintaining its backchain.
    /// Returns the record's LSN.
    pub fn log_update(&self, txn: TxnId, body: RecordBody) -> Result<Lsn, TxnError> {
        let mut table = self.table.lock();
        let info = table.get_mut(&txn).ok_or(TxnError::NotActive(txn))?;
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
        let mut table = self.table.lock();
        let info = table.get_mut(&txn).ok_or(TxnError::NotActive(txn))?;
        let lsn = self.log.append(txn, info.last_lsn, RecordBody::Clr { undo_next, redo });
        info.last_lsn = lsn;
        Ok(lsn)
    }

    /// Start a nested top action for `txn` (§9.1).
    pub fn begin_nta(&self, txn: TxnId) -> Result<NestedTopAction, TxnError> {
        let table = self.table.lock();
        let info = table.get(&txn).ok_or(TxnError::NotActive(txn))?;
        Ok(self.log.begin_nta(info.last_lsn))
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
        let mut table = self.table.lock();
        let info = table.get_mut(&txn).ok_or(TxnError::NotActive(txn))?;
        let lsn = self.log.end_nta(txn, info.last_lsn, nta);
        info.last_lsn = lsn;
        Ok(lsn)
    }

    /// Commit: append the commit record through the group-commit
    /// pipeline, park until it is durable per the transaction's
    /// [`Durability`] mode (the point of no return), then write the end
    /// record and release predicates and locks. The force and the
    /// completion are separate steps so that a caller dying *after* the
    /// commit record is durable (the `"commit.after_wal_flush"` crash
    /// point) leaves a transaction that any later `abort` or watchdog
    /// pass completes rather than undoes.
    pub fn commit(&self, txn: TxnId) -> Result<(), TxnError> {
        let (commit_lsn, durability) = {
            let mut table = self.table.lock();
            let info = match table.get_mut(&txn) {
                Some(info) => info,
                None => return Err(self.terminated_error(txn)),
            };
            if info.poisoned {
                return Err(TxnError::MustAbort(txn));
            }
            if info.doomed {
                return Err(TxnError::AbortedByWatchdog(txn));
            }
            let commit_lsn = self.pipeline.append_commit(txn, info.last_lsn)?;
            info.last_lsn = commit_lsn;
            info.status = TxnStatus::Committed;
            (commit_lsn, info.durability)
        };
        // Park outside the table lock: a whole batch of committers must
        // be able to reach the pipeline so one fsync covers all of them.
        gist_chaos::point("commit.before_durable_wait")?;
        self.pipeline.commit_durable(commit_lsn, durability)?;
        gist_chaos::point("commit.after_wal_flush")?;
        self.finish_commit(txn);
        Ok(())
    }

    /// Second half of commit, idempotent: end record, table removal,
    /// predicate and lock release, GC hand-off. Safe to call again for a
    /// transaction that already finished (no-op).
    fn finish_commit(&self, txn: TxnId) {
        let gc = {
            let mut table = self.table.lock();
            let Some(info) = table.get(&txn) else { return };
            // The end record is not forced: it only saves restart an undo
            // it would skip anyway, so the pipeline's idle sweep (or the
            // next commit's fsync) carrying it out is soon enough.
            self.log.append(txn, info.last_lsn, RecordBody::TxnEnd);
            table.remove(&txn).map(|i| i.gc_candidates).unwrap_or_default()
        };
        self.preds.release_txn(txn);
        self.locks.release_all(txn);
        self.notify_ended(txn);
        // Hand GC work to the daemon only after every lock is gone, so
        // reclamation can't deadlock against this transaction's remains.
        if !gc.is_empty() {
            let sink = self.gc_sink.lock().as_ref().and_then(|w| w.upgrade());
            if let Some(sink) = sink {
                sink.committed(txn, gc);
            }
        }
    }

    /// Abort: logical undo through `handler`, then end and release.
    ///
    /// Absorbs three racy shapes instead of erroring: a transaction whose
    /// commit record is already durable is *completed* (the caller lost
    /// the acknowledgement, not the commit); one that is already rolling
    /// back elsewhere (watchdog vs. owner race) returns `Ok` and lets
    /// that rollback finish; and one the watchdog already tore down
    /// returns `Ok`, consuming its tombstone.
    pub fn abort(&self, txn: TxnId, handler: &dyn RecoveryHandler) -> Result<(), TxnError> {
        gist_chaos::point("abort.before_undo")?;
        let last_lsn = {
            let mut table = self.table.lock();
            let info = match table.get_mut(&txn) {
                Some(info) => info,
                None => {
                    return if self.watchdog_tombstones.lock().remove(&txn) {
                        Ok(())
                    } else {
                        Err(TxnError::NotActive(txn))
                    };
                }
            };
            match info.status {
                TxnStatus::Committed => {
                    let (commit_lsn, durability) = (info.last_lsn, info.durability);
                    drop(table);
                    // Lost ack: the commit record is already in the log,
                    // but the dying caller may not have reached its
                    // durability wait — honor the promise before
                    // completing, so "abort finishes the commit" means a
                    // commit that survives a crash right after this call.
                    self.pipeline.commit_durable(commit_lsn, durability)?;
                    self.finish_commit(txn);
                    return Ok(());
                }
                TxnStatus::Aborting => return Ok(()),
                TxnStatus::Active => {}
            }
            info.status = TxnStatus::Aborting;
            let abort_lsn = self.log.append(txn, info.last_lsn, RecordBody::TxnAbort);
            info.last_lsn = abort_lsn;
            abort_lsn
        };
        // Undo outside the table lock: logical undo latches pages and may
        // take time.
        let chain_end = rollback(&self.log, handler, txn, last_lsn, Lsn::NULL, RollbackKind::Abort)
            .map_err(|e| TxnError::Undo(e.0))?;
        {
            let mut table = self.table.lock();
            // Unforced, like the commit-side end record: losing an abort's
            // end record only costs restart a re-undo of already-undone
            // work (CLRs make that idempotent).
            self.log.append(txn, chain_end, RecordBody::TxnEnd);
            table.remove(&txn);
        }
        self.preds.release_txn(txn);
        self.locks.release_all(txn);
        self.notify_ended(txn);
        Ok(())
    }

    /// Establish a savepoint (§10.2). The caller (cursor layer) snapshots
    /// its stacks alongside.
    pub fn savepoint(&self, txn: TxnId) -> Result<SavepointId, TxnError> {
        let mut table = self.table.lock();
        let info = table.get_mut(&txn).ok_or(TxnError::NotActive(txn))?;
        info.next_savepoint += 1;
        let id = SavepointId(info.next_savepoint);
        let lsn = self.log.append(txn, info.last_lsn, RecordBody::Savepoint { id: id.0 });
        info.last_lsn = lsn;
        info.savepoints.push((id, lsn));
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
        let chain_end =
            rollback(&self.log, handler, txn, last_lsn, sp_lsn, RollbackKind::Savepoint)
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

    /// Smallest `begin_lsn` among active transactions, or [`Lsn::MAX`]
    /// when none are active. Used for the Commit_LSN fast path of garbage
    /// collection (\[Moh90b\], §7.1 footnote 11): a page whose LSN is below
    /// this cannot hold any uncommitted entry.
    pub fn oldest_active_begin_lsn(&self) -> Lsn {
        self.table
            .lock()
            .values()
            .map(|i| i.begin_lsn)
            .min()
            .unwrap_or(Lsn::MAX)
    }

    /// Last LSN of `txn`'s backchain.
    pub fn last_lsn(&self, txn: TxnId) -> Option<Lsn> {
        self.table.lock().get(&txn).map(|i| i.last_lsn)
    }

    /// Write a fuzzy checkpoint record with a caller-supplied dirty-page
    /// table (§ ARIES). Capture discipline, enforced by the caller (the
    /// maintenance daemon):
    ///
    /// 1. read `scan_start = log.last_lsn()` **first**;
    /// 2. then capture `dirty_pages` from the buffer pool;
    /// 3. then this method captures the transaction table and appends.
    ///
    /// Mutators append their log record and mark the frame dirty under
    /// the same page latch, so any dirtying the DPT capture missed has an
    /// LSN > `scan_start` and is re-observed by the analysis scan.
    pub fn checkpoint_with(&self, scan_start: Lsn, dirty_pages: Vec<(u32, Lsn)>) -> Lsn {
        let active: Vec<(TxnId, Lsn)> =
            self.table.lock().iter().map(|(t, i)| (*t, i.last_lsn)).collect();
        let lsn = self.log.append(
            TxnId::NONE,
            Lsn::NULL,
            RecordBody::Checkpoint { scan_start, active_txns: active, dirty_pages },
        );
        // Force through the pipeline so the checkpoint is on disk before
        // the maintenance daemon trims anything that relies on it. A
        // stalled pipeline leaves the checkpoint volatile, which is safe:
        // restart just falls back to the previous durable one.
        let _ = self.pipeline.barrier(lsn);
        lsn
    }

    /// Write a fuzzy checkpoint record without dirty-page knowledge.
    ///
    /// `scan_start` is pinned to the log start: with an empty dirty-page
    /// table, claiming anything later would let redo skip pages dirtied
    /// before the checkpoint. Restart still benefits from the transaction
    /// table; use [`TxnManager::checkpoint_with`] (via the maintenance
    /// daemon) to actually bound the scans.
    pub fn checkpoint(&self) -> Lsn {
        self.checkpoint_with(Lsn(1), Vec::new())
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

    /// The error for a transaction that is no longer in the table:
    /// [`TxnError::AbortedByWatchdog`] if the watchdog tore it down
    /// (tombstone present, left for the owner's `abort` to consume),
    /// plain [`TxnError::NotActive`] otherwise.
    fn terminated_error(&self, txn: TxnId) -> TxnError {
        if self.watchdog_tombstones.lock().contains(&txn) {
            TxnError::AbortedByWatchdog(txn)
        } else {
            TxnError::NotActive(txn)
        }
    }

    /// Enter an operation scope for `txn`. Refuses poisoned (must-abort)
    /// and watchdog-doomed transactions. While the returned [`OpGuard`]
    /// is live the watchdog will not select `txn` (it is not idle), and
    /// if the operation panics the guard's unwind path marks `txn`
    /// poisoned so further work is refused until `abort`.
    pub fn op_enter(&self, txn: TxnId) -> Result<OpGuard<'_>, TxnError> {
        let mut table = self.table.lock();
        let info = match table.get_mut(&txn) {
            Some(info) => info,
            None => return Err(self.terminated_error(txn)),
        };
        if info.poisoned {
            return Err(TxnError::MustAbort(txn));
        }
        if info.doomed {
            return Err(TxnError::AbortedByWatchdog(txn));
        }
        if info.status != TxnStatus::Active {
            return Err(TxnError::NotActive(txn));
        }
        info.ops_in_flight += 1;
        info.last_activity = Instant::now();
        Ok(OpGuard { mgr: self, txn, done: false })
    }

    /// Leave an operation scope: `poison` marks the transaction
    /// must-abort (the unwind path).
    fn op_exit(&self, txn: TxnId, poison: bool) {
        let mut table = self.table.lock();
        if let Some(info) = table.get_mut(&txn) {
            info.ops_in_flight = info.ops_in_flight.saturating_sub(1);
            info.last_activity = Instant::now();
            if poison {
                info.poisoned = true;
            }
        }
    }

    /// Whether `txn` is poisoned (must-abort).
    pub fn is_poisoned(&self, txn: TxnId) -> bool {
        self.table.lock().get(&txn).map(|i| i.poisoned).unwrap_or(false)
    }

    /// One watchdog pass: abort every Active transaction with no
    /// operation in flight whose last activity is at least
    /// `idle_deadline` ago. Victims are marked *doomed* under the table
    /// lock — from that point their own operations are refused with
    /// [`TxnError::AbortedByWatchdog`] — then rolled back outside it
    /// through `handler`, releasing their locks, FIFO insert predicates
    /// and attached scan predicates so blocked queues drain. Returns the
    /// aborted ids.
    pub fn watchdog_scan(
        &self,
        idle_deadline: Duration,
        handler: &dyn RecoveryHandler,
    ) -> Vec<TxnId> {
        let now = Instant::now();
        let victims: Vec<TxnId> = {
            let mut table = self.table.lock();
            table
                .iter_mut()
                .filter(|(_, i)| {
                    i.status == TxnStatus::Active
                        && !i.doomed
                        && i.ops_in_flight == 0
                        && now.duration_since(i.last_activity) >= idle_deadline
                })
                .map(|(t, i)| {
                    i.doomed = true;
                    *t
                })
                .collect()
        };
        let mut aborted = Vec::new();
        for t in victims {
            // Tombstone first so the owner sees AbortedByWatchdog (not a
            // bare NotActive) the moment the table entry disappears.
            self.watchdog_tombstones.lock().insert(t);
            match self.abort(t, handler) {
                Ok(()) => aborted.push(t),
                Err(_) => {
                    // Rollback failed; leave the tombstone so the owner
                    // still learns why, but don't count the victim.
                    // (The transaction stays doomed: nothing new starts.)
                }
            }
        }
        aborted
    }
}

/// RAII operation scope from [`TxnManager::op_enter`]. Call
/// [`OpGuard::complete`] on every normal exit (success *or* clean
/// error); dropping the guard without completing it — i.e. a panic
/// unwinding through the operation — poisons the transaction.
pub struct OpGuard<'a> {
    mgr: &'a TxnManager,
    txn: TxnId,
    done: bool,
}

impl OpGuard<'_> {
    /// Normal exit: the operation either succeeded or failed cleanly
    /// (its error path released everything it took).
    pub fn complete(mut self) {
        self.done = true;
        self.mgr.op_exit(self.txn, false);
    }
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.mgr.op_exit(self.txn, true);
        }
    }
}

#[cfg(test)]
mod tests;
