#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Background maintenance daemon.
//!
//! The paper makes physical removal of logically deleted entries a
//! *deferred, post-commit* activity (§4.1: "physical deletion … is
//! carried out as a separate statement-level transaction") and runs
//! structure maintenance — node deletion via the drain technique (§7.2),
//! checkpoint-bounded recovery (§9) — as separately committed nested top
//! actions. This crate hosts the component that owns that work: a
//! [`MaintDaemon`] with a prioritized queue and optional worker threads,
//! processing three kinds of work:
//!
//! 1. **Deferred GC** — commit in `gist-txn` hands over the leaves a
//!    transaction delete-marked entries on (via the [`GcSink`] trait);
//!    the daemon physically reclaims the slots under the Commit_LSN fast
//!    path, inside a nested top action.
//! 2. **Drain-based node deletion** — leaves that GC emptied are
//!    scheduled for drain: the daemon probes the paper's signaling locks
//!    and, once every pointer holder has moved on, unlinks the node and
//!    returns the page to the allocator.
//! 3. **Fuzzy checkpointing** — periodically (or on request) captures
//!    `scan_start`, the buffer pool's dirty-page table and the active
//!    transaction table into a checkpoint record so restart scans start
//!    from the checkpoint instead of the log start.
//!
//! The daemon is deliberately decoupled from the core tree crate: tree
//! work is reached through the object-safe [`MaintIndex`] trait, which
//! `gist-core` implements for `GistIndex`. Work that loses a latch or
//! lock race to a foreground transaction reports [`MaintError::Retry`]
//! and is requeued with backoff, up to a bounded number of attempts.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use gist_pagestore::{BufferPool, PageId};
use gist_txn::{GcCandidate, GcSink, TxnManager};
use gist_wal::recovery::RecoveryHandler;
use gist_wal::{LogManager, Lsn, TxnId};

pub(crate) mod audit;

/// Chaos-injection shim: with the `chaos` feature, forwards to the
/// gist-chaos registry (an injected fault surfaces as a retryable
/// `MaintError::Retry`, exercising the daemon's backoff path); without
/// it, an inlined no-op.
#[cfg(feature = "chaos")]
pub(crate) mod chaos {
    pub(crate) fn point(name: &'static str) -> Result<(), super::MaintError> {
        gist_chaos::point(name)
            .map_err(|e| super::MaintError::Retry(format!("chaos injection at {}", e.0)))
    }
}

#[cfg(not(feature = "chaos"))]
pub(crate) mod chaos {
    #[inline(always)]
    pub(crate) fn point(_name: &'static str) -> Result<(), super::MaintError> {
        Ok(())
    }
}

/// Failure modes of one maintenance work item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintError {
    /// Lost a latch/lock race to a foreground transaction; requeue with
    /// backoff.
    Retry(String),
    /// Permanent failure: the item is dropped (and counted).
    Fatal(String),
}

impl std::fmt::Display for MaintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaintError::Retry(s) => write!(f, "retryable: {s}"),
            MaintError::Fatal(s) => write!(f, "fatal: {s}"),
        }
    }
}

/// Result of garbage-collecting one leaf.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcOutcome {
    /// Committed-deleted entries physically removed.
    pub reclaimed: usize,
    /// The leaf ended up with no entries — a drain candidate.
    pub leaf_empty: bool,
}

/// Result of one drain attempt on an empty leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Node unlinked and its page freed.
    Deleted,
    /// Still referenced (signaling locks held) or latches contended —
    /// worth retrying after the holders move on.
    Busy,
    /// Not eligible (non-empty again, protected root, no parent hint):
    /// dropped without retry.
    Skipped,
}

/// Result of a whole-index sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOutcome {
    /// Committed-deleted entries physically removed.
    pub entries_removed: usize,
    /// Empty nodes retired.
    pub nodes_deleted: usize,
}

/// The tree-side surface the daemon drives. Object-safe so the daemon
/// can hold indexes over any extension type; `gist-core` implements it
/// for `GistIndex<E>`. Implementations run each call as their own short
/// system transaction (begin → NTA-wrapped physical work → commit).
pub trait MaintIndex: Send + Sync {
    /// The index's catalog id (matches [`GcCandidate::index`]).
    fn maint_index_id(&self) -> u32;

    /// Physically reclaim committed delete-marked entries on `leaf`,
    /// shrinking BPs, inside a nested top action.
    fn maint_gc_leaf(
        &self,
        leaf: PageId,
        parent_hint: Option<PageId>,
    ) -> Result<GcOutcome, MaintError>;

    /// Attempt drain-based deletion (§7.2) of the empty `leaf`.
    fn maint_try_drain(
        &self,
        leaf: PageId,
        parent_hint: Option<PageId>,
    ) -> Result<DrainOutcome, MaintError>;

    /// Foreground-equivalent whole-index sweep (GC every leaf, retire
    /// empty nodes).
    fn maint_sweep(&self) -> Result<SweepOutcome, MaintError>;
}

/// One unit of queued maintenance work.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WorkItem {
    /// Write a fuzzy checkpoint record.
    Checkpoint,
    /// Try to drain-delete an empty leaf.
    Drain {
        /// Owning index.
        index: u32,
        /// The empty leaf.
        leaf: PageId,
        /// Parent seen when the leaf was found empty.
        parent_hint: Option<PageId>,
    },
    /// Reclaim committed delete-marked entries on one leaf.
    Gc {
        /// Owning index.
        index: u32,
        /// Leaf holding delete-marked entries.
        leaf: PageId,
        /// Parent seen during the deleting descent.
        parent_hint: Option<PageId>,
    },
    /// Sweep a whole index (the old foreground `vacuum`, made a work
    /// item).
    FullSweep {
        /// Index to sweep.
        index: u32,
    },
}

impl WorkItem {
    /// Queue priority: smaller runs first. Checkpoints bound recovery
    /// time and must not starve behind a GC backlog; drains unblock page
    /// reuse; per-leaf GC beats whole-index sweeps.
    fn priority(&self) -> u8 {
        match self {
            WorkItem::Checkpoint => 0,
            WorkItem::Drain { .. } => 1,
            WorkItem::Gc { .. } => 2,
            WorkItem::FullSweep { .. } => 3,
        }
    }

    /// Key for pending-work deduplication (None = never deduplicated).
    fn dedup_key(&self) -> Option<(u8, u32, u32)> {
        match self {
            WorkItem::Gc { index, leaf, .. } => Some((0, *index, leaf.0)),
            WorkItem::Drain { index, leaf, .. } => Some((1, *index, leaf.0)),
            WorkItem::FullSweep { index } => Some((2, *index, 0)),
            WorkItem::Checkpoint => None,
        }
    }
}

#[derive(Debug)]
struct Queued {
    item: WorkItem,
    attempts: u32,
    seq: u64,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.item.priority() == other.item.priority() && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert so the smallest (priority,
        // seq) — highest priority, FIFO within it — pops first.
        (other.item.priority(), other.seq).cmp(&(self.item.priority(), self.seq))
    }
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct MaintConfig {
    /// Period between automatic fuzzy checkpoints (None = only on
    /// request).
    pub checkpoint_interval: Option<Duration>,
    /// Attempts before a repeatedly-contended item is dropped.
    pub max_retries: u32,
    /// Delay before a contended item is retried (multiplied by the
    /// attempt count).
    pub retry_backoff: Duration,
    /// Worker threads spawned by [`MaintDaemon::start`].
    pub workers: usize,
    /// Transaction-watchdog deadline: an Active transaction with no
    /// operation in flight whose last activity is older than this is
    /// aborted by the daemon, releasing its locks and predicates so
    /// queues blocked behind it (§4 predicate waits, §8/§10.3 FIFO
    /// insert queues) drain. `None` (the default) disables the watchdog.
    pub txn_idle_deadline: Option<Duration>,
}

impl Default for MaintConfig {
    fn default() -> Self {
        MaintConfig {
            checkpoint_interval: None,
            max_retries: 10,
            retry_backoff: Duration::from_millis(2),
            workers: 1,
            txn_idle_deadline: None,
        }
    }
}

/// Monotonic daemon counters, readable while it runs.
#[derive(Debug, Default)]
pub struct MaintStats {
    /// GC work items enqueued (post-dedup).
    pub gc_enqueued: AtomicU64,
    /// GC work items executed.
    pub gc_runs: AtomicU64,
    /// Entries physically reclaimed (GC + sweeps).
    pub entries_reclaimed: AtomicU64,
    /// Empty leaves drain-deleted (drain items + sweeps).
    pub nodes_drained: AtomicU64,
    /// Drain attempts executed.
    pub drain_attempts: AtomicU64,
    /// Fuzzy checkpoints written.
    pub checkpoints: AtomicU64,
    /// Whole-index sweeps executed.
    pub full_sweeps: AtomicU64,
    /// Items requeued after losing a race.
    pub retries: AtomicU64,
    /// Items dropped after exhausting retries.
    pub dropped: AtomicU64,
    /// Items that failed fatally.
    pub failures: AtomicU64,
    /// Items that panicked (contained; each also counts as a failure).
    pub panics: AtomicU64,
    /// Idle transactions aborted by the watchdog.
    pub watchdog_aborts: AtomicU64,
}

/// A point-in-time copy of [`MaintStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct MaintStatsSnapshot {
    pub gc_enqueued: u64,
    pub gc_runs: u64,
    pub entries_reclaimed: u64,
    pub nodes_drained: u64,
    pub drain_attempts: u64,
    pub checkpoints: u64,
    pub full_sweeps: u64,
    pub retries: u64,
    pub dropped: u64,
    pub failures: u64,
    pub panics: u64,
    pub watchdog_aborts: u64,
}

impl MaintStats {
    /// Copy every counter.
    pub fn snapshot(&self) -> MaintStatsSnapshot {
        MaintStatsSnapshot {
            gc_enqueued: self.gc_enqueued.load(Ordering::Relaxed),
            gc_runs: self.gc_runs.load(Ordering::Relaxed),
            entries_reclaimed: self.entries_reclaimed.load(Ordering::Relaxed),
            nodes_drained: self.nodes_drained.load(Ordering::Relaxed),
            drain_attempts: self.drain_attempts.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            full_sweeps: self.full_sweeps.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            watchdog_aborts: self.watchdog_aborts.load(Ordering::Relaxed),
        }
    }
}

struct State {
    heap: BinaryHeap<Queued>,
    /// Items waiting out a backoff, with the instant they become ready.
    delayed: Vec<(Instant, Queued)>,
    /// Dedup keys of everything in `heap` + `delayed` + in flight.
    pending: HashSet<(u8, u32, u32)>,
    seq: u64,
    in_flight: usize,
    stop: bool,
    last_checkpoint: Instant,
}

/// The maintenance daemon.
///
/// Construct with [`MaintDaemon::new`], register it as the transaction
/// manager's [`GcSink`], register indexes as they are opened, then
/// either [`start`](MaintDaemon::start) worker threads or drive it
/// synchronously with [`run_until_idle`](MaintDaemon::run_until_idle)
/// (the deterministic escape hatch for tests).
pub struct MaintDaemon {
    txns: Arc<TxnManager>,
    pool: Arc<BufferPool>,
    log: Arc<LogManager>,
    config: MaintConfig,
    state: Mutex<State>,
    cond: Condvar,
    indexes: Mutex<HashMap<u32, Weak<dyn MaintIndex>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Logical-undo handler for the transaction watchdog (the database
    /// façade). Weak so the daemon does not keep the database alive.
    undo_handler: Mutex<Option<Weak<dyn RecoveryHandler + Send + Sync>>>,
    /// Last watchdog pass (rate limit for the worker-loop tick).
    last_watchdog: Mutex<Instant>,
    /// Counters.
    pub stats: MaintStats,
}

impl MaintDaemon {
    /// A daemon over the shared substrates. Does not spawn threads —
    /// call [`MaintDaemon::start`] for that, or drive it with
    /// [`MaintDaemon::run_until_idle`].
    pub fn new(
        txns: Arc<TxnManager>,
        pool: Arc<BufferPool>,
        log: Arc<LogManager>,
        config: MaintConfig,
    ) -> Arc<Self> {
        Arc::new(MaintDaemon {
            txns,
            pool,
            log,
            config,
            state: Mutex::new(State {
                heap: BinaryHeap::new(),
                delayed: Vec::new(),
                pending: HashSet::new(),
                seq: 0,
                in_flight: 0,
                stop: false,
                last_checkpoint: Instant::now(),
            }),
            cond: Condvar::new(),
            indexes: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
            undo_handler: Mutex::new(None),
            last_watchdog: Mutex::new(Instant::now()),
            stats: MaintStats::default(),
        })
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &MaintConfig {
        &self.config
    }

    /// Install the logical-undo handler the transaction watchdog needs
    /// to abort victims (rollback replays undo through the index). Held
    /// weakly so the daemon never keeps the database alive.
    pub fn set_undo_handler(&self, h: Weak<dyn RecoveryHandler + Send + Sync>) {
        *self.undo_handler.lock() = Some(h);
    }

    /// Run one watchdog pass right now: abort every Active transaction
    /// with no operation in flight that has been idle longer than
    /// [`MaintConfig::txn_idle_deadline`]. Returns the number of
    /// transactions aborted. A no-op when the deadline is unset or no
    /// undo handler is installed.
    pub fn watchdog_tick(&self) -> usize {
        let Some(deadline) = self.config.txn_idle_deadline else {
            return 0;
        };
        let handler = match self.undo_handler.lock().clone() {
            Some(w) => match w.upgrade() {
                Some(h) => h,
                None => return 0,
            },
            None => return 0,
        };
        let aborted = self.txns.watchdog_scan(deadline, handler.as_ref());
        let n = aborted.len();
        if n > 0 {
            self.stats.watchdog_aborts.fetch_add(n as u64, Ordering::Relaxed);
        }
        n
    }

    /// Worker-loop wrapper around [`Self::watchdog_tick`], rate-limited
    /// so multiple workers don't redundantly rescan the table.
    fn maybe_watchdog_tick(&self) {
        let Some(deadline) = self.config.txn_idle_deadline else {
            return;
        };
        let min_gap = (deadline / 4).max(Duration::from_millis(1));
        {
            let mut last = self.last_watchdog.lock();
            let now = Instant::now();
            if now.duration_since(*last) < min_gap {
                return;
            }
            *last = now;
        }
        self.watchdog_tick();
    }

    /// Make an index's tree work reachable. Held weakly: a dropped index
    /// silently retires its queued work.
    pub fn register_index(&self, idx: Weak<dyn MaintIndex>) {
        if let Some(strong) = idx.upgrade() {
            self.indexes.lock().insert(strong.maint_index_id(), idx);
        }
    }

    /// Enqueue one work item (deduplicated against identical pending
    /// work). Returns whether it was actually added.
    pub fn enqueue(&self, item: WorkItem) -> bool {
        let mut st = self.state.lock();
        if st.stop {
            return false;
        }
        self.enqueue_locked(&mut st, item, 0)
    }

    fn enqueue_locked(&self, st: &mut State, item: WorkItem, attempts: u32) -> bool {
        if let Some(key) = item.dedup_key() {
            if !st.pending.insert(key) {
                return false;
            }
        }
        st.seq += 1;
        let seq = st.seq;
        st.heap.push(Queued { item, attempts, seq });
        self.cond.notify_one();
        true
    }

    /// Ask for a fuzzy checkpoint at the next opportunity.
    pub fn request_checkpoint(&self) {
        self.enqueue(WorkItem::Checkpoint);
    }

    /// Queued (ready + delayed) plus in-flight item count.
    pub fn backlog(&self) -> usize {
        let st = self.state.lock();
        st.heap.len() + st.delayed.len() + st.in_flight
    }

    /// Spawn the configured number of worker threads (idempotent).
    pub fn start(self: &Arc<Self>) {
        let mut workers = self.workers.lock();
        if !workers.is_empty() {
            return;
        }
        {
            // Periodic checkpoints count from "daemon started", not from
            // construction.
            self.state.lock().last_checkpoint = Instant::now();
        }
        for i in 0..self.config.workers.max(1) {
            let me = self.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("gist-maint-{i}"))
                    .spawn(move || me.worker_loop())
                    .unwrap_or_else(|e| panic!("failed to spawn maintenance worker: {e}")),
            );
        }
    }

    /// Whether worker threads are running.
    pub fn is_running(&self) -> bool {
        !self.workers.lock().is_empty()
    }

    /// Stop the daemon. With `drain`, every queued item is processed
    /// first (on this thread once the workers exit); without, the queue
    /// is discarded — used by the crash path, which must not touch pages.
    pub fn stop(&self, drain: bool) {
        {
            let mut st = self.state.lock();
            if st.stop {
                return;
            }
            st.stop = true;
            self.cond.notify_all();
        }
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
        if drain {
            self.drain_queue(/*ignore_backoff=*/ true);
        } else {
            let mut st = self.state.lock();
            st.heap.clear();
            st.delayed.clear();
            st.pending.clear();
        }
    }

    /// Process every currently queued item synchronously on the calling
    /// thread — the `maint_sync` escape hatch that makes tests
    /// deterministic without worker threads. Backoff delays are
    /// collapsed (retries run immediately); periodic checkpoints are not
    /// triggered. Returns the number of items processed.
    pub fn run_until_idle(&self) -> usize {
        self.drain_queue(/*ignore_backoff=*/ true)
    }

    fn drain_queue(&self, ignore_backoff: bool) -> usize {
        let mut processed = 0;
        loop {
            let q = {
                let mut st = self.state.lock();
                loop {
                    let now = Instant::now();
                    if ignore_backoff {
                        let delayed = std::mem::take(&mut st.delayed);
                        for (_, q) in delayed {
                            st.heap.push(q);
                        }
                    } else {
                        Self::promote_ready(&mut st, now);
                    }
                    if let Some(q) = st.heap.pop() {
                        st.in_flight += 1;
                        break q;
                    }
                    // An empty queue is not an idle queue: a worker may
                    // still own an item whose `finish` re-enqueues it
                    // (retry backoff, follow-up work). Returning now
                    // would let "drained" race that re-enqueue, so wait
                    // for the in-flight count to settle first.
                    if st.in_flight == 0 {
                        return processed;
                    }
                    // Bounded wait (lint: no-unbounded-wait): the wakeup
                    // comes from `finish`, but a worker that died without
                    // it must not wedge the drain — the timeout re-checks
                    // the in-flight count and delayed backoffs.
                    self.cond.wait_for(&mut st, Duration::from_millis(50));
                }
            };
            self.process(q);
            // A work item must never leak a latch past its boundary.
            audit::assert_thread_clear("maint run_until_idle item");
            processed += 1;
        }
    }

    fn promote_ready(st: &mut State, now: Instant) {
        let mut i = 0;
        while i < st.delayed.len() {
            if st.delayed[i].0 <= now {
                let (_, q) = st.delayed.swap_remove(i);
                st.heap.push(q);
            } else {
                i += 1;
            }
        }
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let q = {
                let mut st = self.state.lock();
                loop {
                    if st.stop {
                        return;
                    }
                    let now = Instant::now();
                    Self::promote_ready(&mut st, now);
                    // Periodic checkpoint due?
                    if let Some(interval) = self.config.checkpoint_interval {
                        if now.duration_since(st.last_checkpoint) >= interval {
                            st.last_checkpoint = now;
                            st.seq += 1;
                            let seq = st.seq;
                            st.heap.push(Queued { item: WorkItem::Checkpoint, attempts: 0, seq });
                        }
                    }
                    if let Some(q) = st.heap.pop() {
                        st.in_flight += 1;
                        break Some(q);
                    }
                    // Sleep until the next backoff expiry, checkpoint
                    // tick, or watchdog deadline, whichever comes first.
                    let mut wait = Duration::from_millis(50);
                    if let Some(interval) = self.config.checkpoint_interval {
                        let since = now.duration_since(st.last_checkpoint);
                        wait = wait.min(interval.saturating_sub(since));
                    }
                    if let Some(deadline) = self.config.txn_idle_deadline {
                        wait = wait.min((deadline / 2).max(Duration::from_millis(1)));
                    }
                    if let Some(ready) = st.delayed.iter().map(|(t, _)| *t).min() {
                        wait = wait.min(ready.saturating_duration_since(now));
                    }
                    let timed_out = self
                        .cond
                        .wait_for(&mut st, wait.max(Duration::from_millis(1)))
                        .timed_out();
                    if timed_out {
                        // Drop the state lock for the watchdog pass: it
                        // takes the transaction table lock and may run a
                        // full logical abort.
                        break None;
                    }
                }
            };
            if let Some(q) = q {
                self.process(q);
                // A work item must never leak a latch past its boundary.
                audit::assert_thread_clear("maint worker item");
            }
            self.maybe_watchdog_tick();
        }
    }

    /// Look up a registered index; prunes dead entries.
    fn index(&self, id: u32) -> Option<Arc<dyn MaintIndex>> {
        let mut map = self.indexes.lock();
        match map.get(&id).and_then(|w| w.upgrade()) {
            Some(idx) => Some(idx),
            None => {
                map.remove(&id);
                None
            }
        }
    }

    fn finish(&self, q: Queued, result: Result<Option<WorkItem>, MaintError>) {
        let mut st = self.state.lock();
        st.in_flight -= 1;
        if let Some(key) = q.item.dedup_key() {
            st.pending.remove(&key);
        }
        match result {
            Ok(None) => {}
            Ok(Some(follow_up)) => {
                self.enqueue_locked(&mut st, follow_up, 0);
            }
            Err(MaintError::Retry(_)) => {
                if q.attempts + 1 > self.config.max_retries {
                    self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    let attempts = q.attempts + 1;
                    // Linear backoff: losing repeatedly means foreground
                    // traffic is hot; stay out of its way longer.
                    let ready = Instant::now() + self.config.retry_backoff * attempts;
                    if let Some(key) = q.item.dedup_key() {
                        st.pending.insert(key);
                    }
                    st.seq += 1;
                    let seq = st.seq;
                    st.delayed.push((ready, Queued { item: q.item, attempts, seq }));
                }
            }
            Err(MaintError::Fatal(_)) => {
                self.stats.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.cond.notify_all();
    }

    /// Run one item and report it finished, whatever it did. A panic
    /// inside the item (an engine bug surfacing on this thread) is
    /// contained and finishes the item as a fatal failure: an unwinding
    /// worker would die owning `in_flight`, and `stop(drain)` and
    /// `run_until_idle` wait for that count to reach zero.
    fn process(&self, q: Queued) {
        let result = panic::catch_unwind(AssertUnwindSafe(|| self.run_item(&q.item)))
            .unwrap_or_else(|payload| {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(MaintError::Fatal(format!("{:?} panicked: {msg}", q.item)))
            });
        self.finish(q, result);
    }

    /// The work behind one item; the follow-up item, if it produced one.
    fn run_item(&self, item: &WorkItem) -> Result<Option<WorkItem>, MaintError> {
        match item {
            WorkItem::Checkpoint => match self.checkpoint_now() {
                Ok(_) => Ok(None),
                // A poisoned (read-only) store can never checkpoint
                // again; anything else — a transient hiccup the pool's
                // own bounded retry did not outlast — may clear.
                Err(e) if gist_pagestore::is_storage_poisoned(&e) => {
                    Err(MaintError::Fatal(format!("checkpoint: {e}")))
                }
                Err(e) => Err(MaintError::Retry(format!("checkpoint: {e}"))),
            },
            WorkItem::Gc { index, leaf, parent_hint } => match self.index(*index) {
                None => Ok(None), // index dropped: work is moot
                Some(idx) => {
                    self.stats.gc_runs.fetch_add(1, Ordering::Relaxed);
                    match chaos::point("maint.before_gc")
                        .and_then(|()| idx.maint_gc_leaf(*leaf, *parent_hint))
                    {
                        Ok(out) => {
                            self.stats
                                .entries_reclaimed
                                .fetch_add(out.reclaimed as u64, Ordering::Relaxed);
                            if out.leaf_empty {
                                Ok(Some(WorkItem::Drain {
                                    index: *index,
                                    leaf: *leaf,
                                    parent_hint: *parent_hint,
                                }))
                            } else {
                                Ok(None)
                            }
                        }
                        Err(e) => Err(e),
                    }
                }
            },
            WorkItem::Drain { index, leaf, parent_hint } => match self.index(*index) {
                None => Ok(None),
                Some(idx) => {
                    self.stats.drain_attempts.fetch_add(1, Ordering::Relaxed);
                    match idx.maint_try_drain(*leaf, *parent_hint) {
                        Ok(DrainOutcome::Deleted) => {
                            self.stats.nodes_drained.fetch_add(1, Ordering::Relaxed);
                            Ok(None)
                        }
                        // Drain semantics: pointer holders exist right
                        // now; they release on their next visit, so come
                        // back later.
                        Ok(DrainOutcome::Busy) => Err(MaintError::Retry("drain busy".into())),
                        Ok(DrainOutcome::Skipped) => Ok(None),
                        Err(e) => Err(e),
                    }
                }
            },
            WorkItem::FullSweep { index } => match self.index(*index) {
                None => Ok(None),
                Some(idx) => {
                    self.stats.full_sweeps.fetch_add(1, Ordering::Relaxed);
                    match idx.maint_sweep() {
                        Ok(out) => {
                            self.stats
                                .entries_reclaimed
                                .fetch_add(out.entries_removed as u64, Ordering::Relaxed);
                            self.stats
                                .nodes_drained
                                .fetch_add(out.nodes_deleted as u64, Ordering::Relaxed);
                            Ok(None)
                        }
                        Err(e) => Err(e),
                    }
                }
            },
        }
    }

    /// Write a fuzzy checkpoint right now, on the calling thread.
    /// Capture order is the §ARIES discipline `checkpoint_with`
    /// documents: log position first, then a store sync, then the
    /// dirty-page table, then (inside `checkpoint_with`) the transaction
    /// table.
    ///
    /// The sync between capturing `scan_start` and the dirty-page table
    /// is what makes the checkpoint's DPT sound against *lost writes*: a
    /// page written back but not yet fsynced stays in the pool's
    /// `unsynced` ledger (and hence in the DPT) until a sync succeeds,
    /// so redo never trusts a volatile write the device may drop. A
    /// failed sync fails the checkpoint — the previous checkpoint, whose
    /// DPT still covers those pages, stays authoritative.
    pub fn checkpoint_now(&self) -> std::io::Result<Lsn> {
        // The *filled* watermark, not `last_lsn()`: with the reserve-
        // then-fill log buffer the reserved counter can run ahead of
        // published records, and a scan_start beyond an in-flight
        // reservation would let analysis skip it. Every record that is
        // not yet published here has an LSN > filled and is re-observed
        // by the scan (which is inclusive of scan_start).
        let scan_start = self.log.filled_lsn();
        self.pool.sync_store()?;
        let dpt = self.pool.dirty_page_table();
        // Count before publishing: `checkpoint_with` parks on the commit
        // pipeline after appending, so an observer who polls
        // `last_checkpoint()` can see the record milliseconds before the
        // daemon returns — the counter must already cover it by then.
        // The fallible part (the sync barrier) is behind us.
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(self.txns.checkpoint_with(scan_start, dpt))
    }
}

impl GcSink for MaintDaemon {
    fn committed(&self, _txn: TxnId, candidates: Vec<GcCandidate>) {
        let mut st = self.state.lock();
        if st.stop {
            return;
        }
        for c in candidates {
            let item = WorkItem::Gc { index: c.index, leaf: c.leaf, parent_hint: c.parent_hint };
            if self.enqueue_locked(&mut st, item, 0) {
                self.stats.gc_enqueued.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for MaintDaemon {
    fn drop(&mut self) {
        // Workers hold an Arc each, so reaching Drop implies none are
        // left; nothing to join. Defensive: stop flag for any racer.
        self.state.lock().stop = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_lockmgr::LockManager;
    use gist_pagestore::{InMemoryStore, PageStore};
    use gist_predlock::PredicateManager;

    struct FakeIndex {
        id: u32,
        gc_calls: AtomicU64,
        drain_calls: AtomicU64,
        /// Busy for the first N drain attempts.
        busy_until: u64,
    }

    impl MaintIndex for FakeIndex {
        fn maint_index_id(&self) -> u32 {
            self.id
        }
        fn maint_gc_leaf(
            &self,
            _leaf: PageId,
            _parent_hint: Option<PageId>,
        ) -> Result<GcOutcome, MaintError> {
            self.gc_calls.fetch_add(1, Ordering::Relaxed);
            Ok(GcOutcome { reclaimed: 3, leaf_empty: true })
        }
        fn maint_try_drain(
            &self,
            _leaf: PageId,
            _parent_hint: Option<PageId>,
        ) -> Result<DrainOutcome, MaintError> {
            let n = self.drain_calls.fetch_add(1, Ordering::Relaxed);
            if n < self.busy_until {
                Ok(DrainOutcome::Busy)
            } else {
                Ok(DrainOutcome::Deleted)
            }
        }
        fn maint_sweep(&self) -> Result<SweepOutcome, MaintError> {
            Ok(SweepOutcome { entries_removed: 1, nodes_deleted: 0 })
        }
    }

    fn daemon(config: MaintConfig) -> (Arc<MaintDaemon>, Arc<LogManager>) {
        let log = Arc::new(LogManager::new());
        let locks = Arc::new(LockManager::new());
        let preds = Arc::new(PredicateManager::new());
        let txns = Arc::new(TxnManager::new(log.clone(), locks, preds));
        let store = Arc::new(InMemoryStore::new());
        store.ensure_capacity(4).unwrap();
        let pool = BufferPool::new(store, 8);
        (MaintDaemon::new(txns, pool, log.clone(), config), log)
    }

    #[test]
    fn queue_orders_by_priority_then_fifo() {
        let a = Queued { item: WorkItem::FullSweep { index: 1 }, attempts: 0, seq: 1 };
        let b = Queued {
            item: WorkItem::Gc { index: 1, leaf: PageId(5), parent_hint: None },
            attempts: 0,
            seq: 2,
        };
        let c = Queued { item: WorkItem::Checkpoint, attempts: 0, seq: 3 };
        let mut heap = BinaryHeap::from([a, b, c]);
        assert!(matches!(heap.pop().unwrap().item, WorkItem::Checkpoint));
        assert!(matches!(heap.pop().unwrap().item, WorkItem::Gc { .. }));
        assert!(matches!(heap.pop().unwrap().item, WorkItem::FullSweep { .. }));
    }

    #[test]
    fn gc_feeds_drain_with_retry_until_deleted() {
        let (d, _log) = daemon(MaintConfig::default());
        let idx = Arc::new(FakeIndex {
            id: 7,
            gc_calls: AtomicU64::new(0),
            drain_calls: AtomicU64::new(0),
            busy_until: 2,
        });
        let weak: Weak<dyn MaintIndex> = {
            let a: Arc<dyn MaintIndex> = idx.clone();
            Arc::downgrade(&a)
        };
        d.register_index(weak);
        d.committed(
            TxnId(1),
            vec![GcCandidate { index: 7, leaf: PageId(9), parent_hint: Some(PageId(3)) }],
        );
        d.run_until_idle();
        assert_eq!(idx.gc_calls.load(Ordering::Relaxed), 1);
        assert_eq!(idx.drain_calls.load(Ordering::Relaxed), 3, "two busy, then deleted");
        let s = d.stats.snapshot();
        assert_eq!(s.entries_reclaimed, 3);
        assert_eq!(s.nodes_drained, 1);
        assert_eq!(s.retries, 2);
        assert_eq!(d.backlog(), 0);
    }

    /// A `FakeIndex` whose first GC call parks until released and then
    /// asks for a retry — holds an item *in flight* on a worker thread
    /// while the test calls `run_until_idle`.
    struct ParkedRetryIndex {
        id: u32,
        gc_calls: AtomicU64,
        entered: std::sync::mpsc::Sender<()>,
        release: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl MaintIndex for ParkedRetryIndex {
        fn maint_index_id(&self) -> u32 {
            self.id
        }
        fn maint_gc_leaf(
            &self,
            _leaf: PageId,
            _parent_hint: Option<PageId>,
        ) -> Result<GcOutcome, MaintError> {
            if self.gc_calls.fetch_add(1, Ordering::Relaxed) == 0 {
                self.entered.send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
                return Err(MaintError::Retry("parked".into()));
            }
            Ok(GcOutcome { reclaimed: 1, leaf_empty: false })
        }
        fn maint_try_drain(
            &self,
            _leaf: PageId,
            _parent_hint: Option<PageId>,
        ) -> Result<DrainOutcome, MaintError> {
            Ok(DrainOutcome::Deleted)
        }
        fn maint_sweep(&self) -> Result<SweepOutcome, MaintError> {
            Ok(SweepOutcome { entries_removed: 0, nodes_deleted: 0 })
        }
    }

    /// Regression: `run_until_idle` must not conclude "drained" while a
    /// worker still owns an item — the worker's `finish` may re-enqueue
    /// it (retry backoff), and a caller that returned early would race
    /// that re-enqueue and observe unreclaimed work after a "sync".
    #[test]
    fn run_until_idle_waits_for_in_flight_retries() {
        let (d, _log) = daemon(MaintConfig::default());
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let idx = Arc::new(ParkedRetryIndex {
            id: 4,
            gc_calls: AtomicU64::new(0),
            entered: entered_tx,
            release: std::sync::Mutex::new(release_rx),
        });
        let weak: Weak<dyn MaintIndex> = {
            let a: Arc<dyn MaintIndex> = idx.clone();
            Arc::downgrade(&a)
        };
        d.register_index(weak);
        d.start();
        d.enqueue(WorkItem::Gc { index: 4, leaf: PageId(6), parent_hint: None });
        // The worker owns the item (queue empty, in_flight = 1) ...
        entered_rx.recv().unwrap();
        // ... and is released only after the drain is underway.
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            release_tx.send(()).unwrap();
        });
        d.run_until_idle();
        releaser.join().unwrap();
        assert_eq!(
            idx.gc_calls.load(Ordering::Relaxed),
            2,
            "run_until_idle processed the retry the in-flight worker re-enqueued"
        );
        assert_eq!(d.backlog(), 0);
        d.stop(/*drain=*/ false);
    }

    #[test]
    fn duplicate_pending_work_is_coalesced() {
        let (d, _log) = daemon(MaintConfig::default());
        let item = WorkItem::Gc { index: 1, leaf: PageId(4), parent_hint: None };
        assert!(d.enqueue(item.clone()));
        assert!(!d.enqueue(item.clone()), "identical pending work deduplicated");
        assert_eq!(d.backlog(), 1);
    }

    #[test]
    fn exhausted_retries_drop_the_item() {
        let (d, _log) =
            daemon(MaintConfig { max_retries: 1, ..MaintConfig::default() });
        let idx = Arc::new(FakeIndex {
            id: 1,
            gc_calls: AtomicU64::new(0),
            drain_calls: AtomicU64::new(0),
            busy_until: u64::MAX,
        });
        let weak: Weak<dyn MaintIndex> = {
            let a: Arc<dyn MaintIndex> = idx.clone();
            Arc::downgrade(&a)
        };
        d.register_index(weak);
        d.enqueue(WorkItem::Drain { index: 1, leaf: PageId(2), parent_hint: None });
        d.run_until_idle();
        let s = d.stats.snapshot();
        assert_eq!(s.retries, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(d.backlog(), 0);
    }

    #[test]
    fn checkpoint_work_writes_a_bounded_checkpoint() {
        let (d, log) = daemon(MaintConfig::default());
        let before = log.last_lsn();
        d.request_checkpoint();
        d.run_until_idle();
        let cp = log.last_checkpoint().expect("checkpoint written");
        match log.get(cp).body {
            gist_wal::RecordBody::Checkpoint { scan_start, .. } => {
                assert_eq!(scan_start, before);
            }
            other => panic!("expected checkpoint, got {other:?}"),
        }
        assert_eq!(d.stats.snapshot().checkpoints, 1);
    }

    #[test]
    fn workers_process_in_background_and_stop_cleanly() {
        let (d, _log) = daemon(MaintConfig {
            checkpoint_interval: Some(Duration::from_millis(5)),
            ..MaintConfig::default()
        });
        let idx = Arc::new(FakeIndex {
            id: 2,
            gc_calls: AtomicU64::new(0),
            drain_calls: AtomicU64::new(0),
            busy_until: 0,
        });
        let weak: Weak<dyn MaintIndex> = {
            let a: Arc<dyn MaintIndex> = idx.clone();
            Arc::downgrade(&a)
        };
        d.register_index(weak);
        d.start();
        assert!(d.is_running());
        d.committed(
            TxnId(1),
            vec![GcCandidate { index: 2, leaf: PageId(11), parent_hint: None }],
        );
        let t0 = Instant::now();
        while d.backlog() > 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(d.backlog(), 0, "background workers drained the queue");
        assert!(idx.gc_calls.load(Ordering::Relaxed) >= 1);
        let t0 = Instant::now();
        while d.stats.snapshot().checkpoints == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(d.stats.snapshot().checkpoints >= 1, "periodic checkpoint fired");
        d.stop(true);
        assert!(!d.is_running());
        // Post-stop enqueues are refused.
        assert!(!d.enqueue(WorkItem::Checkpoint));
    }

    /// An index whose GC panics, as an engine bug surfacing on the
    /// worker thread would.
    struct PanickingIndex;

    impl MaintIndex for PanickingIndex {
        fn maint_index_id(&self) -> u32 {
            9
        }
        fn maint_gc_leaf(
            &self,
            leaf: PageId,
            _parent_hint: Option<PageId>,
        ) -> Result<GcOutcome, MaintError> {
            panic!("injected: gc of {leaf} blew up");
        }
        fn maint_try_drain(
            &self,
            _leaf: PageId,
            _parent_hint: Option<PageId>,
        ) -> Result<DrainOutcome, MaintError> {
            Ok(DrainOutcome::Skipped)
        }
        fn maint_sweep(&self) -> Result<SweepOutcome, MaintError> {
            Ok(SweepOutcome { entries_removed: 1, nodes_deleted: 0 })
        }
    }

    #[test]
    fn worker_survives_a_panicking_item_and_drains() {
        let (d, _log) = daemon(MaintConfig::default());
        let idx: Arc<dyn MaintIndex> = Arc::new(PanickingIndex);
        d.register_index(Arc::downgrade(&idx));
        // GC outranks the sweep, so the panic comes first and the sweep
        // proves a worker outlived it.
        d.enqueue(WorkItem::Gc { index: 9, leaf: PageId(3), parent_hint: None });
        d.enqueue(WorkItem::FullSweep { index: 9 });
        d.start();
        // `stop(drain)` waits for the in-flight count; a worker that died
        // mid-item would leave it at 1 forever.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let stopper = {
            let d = d.clone();
            std::thread::spawn(move || {
                d.stop(true);
                done_tx.send(()).unwrap();
            })
        };
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("stop(drain) hung behind the panicked item");
        stopper.join().unwrap();
        let stats = d.stats.snapshot();
        assert_eq!((stats.panics, stats.failures), (1, 1), "contained and counted once");
        assert_eq!(stats.full_sweeps, 1, "the queue behind the panic was served");
        assert_eq!(d.backlog(), 0);
    }

    #[test]
    fn stop_without_drain_discards_the_queue() {
        let (d, _log) = daemon(MaintConfig::default());
        d.enqueue(WorkItem::Gc { index: 1, leaf: PageId(1), parent_hint: None });
        d.stop(false);
        assert_eq!(d.backlog(), 0);
        assert_eq!(d.stats.snapshot().gc_runs, 0, "nothing ran");
    }
}
