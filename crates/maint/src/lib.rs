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
//! [`MaintDaemon`] with one FIFO queue of per-leaf work and at most one
//! worker thread, processing three kinds of work:
//!
//! 1. **Deferred GC** — when a transaction commits, the embedder's
//!    end-of-transaction hook hands the leaves it delete-marked entries
//!    on to [`MaintDaemon::enqueue_gc`]; the daemon physically reclaims
//!    the slots under the Commit_LSN fast path, inside a nested top
//!    action.
//! 2. **Drain-based node deletion** — leaves that GC emptied are
//!    scheduled for drain: the daemon probes the paper's signaling locks
//!    and, once every pointer holder has moved on, unlinks the node and
//!    returns the page to the allocator.
//! 3. **Fuzzy checkpointing** — with a `checkpoint_interval`, the worker
//!    calls [`MaintDaemon::checkpoint_now`] itself between items, so a
//!    GC backlog never starves it.
//!
//! The daemon is deliberately decoupled from the core tree crate: tree
//! work is reached through the object-safe [`MaintIndex`] trait, which
//! `gist-core` implements for `GistIndex`. Work that loses a latch or
//! lock race to a foreground transaction reports [`MaintError::Retry`]
//! and is requeued with linear backoff, up to `RETRY_BUDGET` times.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use gist_pagestore::{BufferPool, PageId};
use gist_txn::{GcCandidate, TxnManager};
use gist_wal::{LogManager, Lsn};


/// Retries a repeatedly contended item gets before it is dropped.
const RETRY_BUDGET: u32 = 10;
/// Delay before a contended item is retried, multiplied by the attempt
/// count: losing repeatedly means foreground traffic is hot.
const RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// Failure modes of one maintenance work item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintError {
    /// Lost a latch/lock race to a foreground transaction; requeue with
    /// backoff.
    Retry(String),
    /// Permanent failure: the item is dropped (and counted).
    Fatal(String),
}

/// An injected fault is retryable, exercising the daemon's backoff path.
impl From<gist_chaos::Injected> for MaintError {
    fn from(e: gist_chaos::Injected) -> Self {
        MaintError::Retry(format!("chaos injection at {}", e.0))
    }
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

/// The tree-side surface the daemon drives. Object-safe so the daemon
/// can hold indexes over any extension type; `gist-core` implements it
/// for `GistIndex<E>`. Implementations run each call as their own short
/// system transaction (begin → physical work → commit).
pub trait MaintIndex: Send + Sync {
    /// The index's catalog id (matches [`GcCandidate::index`]).
    fn maint_index_id(&self) -> u32;

    /// Physically reclaim committed delete-marked entries on `leaf`,
    /// shrinking BPs.
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
}

/// One unit of queued maintenance work.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WorkItem {
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
}

impl WorkItem {
    /// Key for pending-work deduplication: one item per kind and leaf.
    fn dedup_key(&self) -> (u8, u32, u32) {
        match self {
            WorkItem::Gc { index, leaf, .. } => (0, *index, leaf.0),
            WorkItem::Drain { index, leaf, .. } => (1, *index, leaf.0),
        }
    }
}

#[derive(Debug)]
struct Queued {
    item: WorkItem,
    attempts: u32,
}

/// Daemon tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct MaintConfig {
    /// Period between the worker's fuzzy checkpoints (None = only
    /// explicit [`MaintDaemon::checkpoint_now`] calls).
    pub checkpoint_interval: Option<Duration>,
}

/// Monotonic daemon counters, readable while it runs.
#[derive(Debug, Default)]
pub struct MaintStats {
    /// GC work items enqueued (post-dedup).
    pub gc_enqueued: AtomicU64,
    /// GC work items executed.
    pub gc_runs: AtomicU64,
    /// Entries physically reclaimed by GC items.
    pub entries_reclaimed: AtomicU64,
    /// Empty leaves drain-deleted.
    pub nodes_drained: AtomicU64,
    /// Drain attempts executed.
    pub drain_attempts: AtomicU64,
    /// Fuzzy checkpoints written and made durable.
    pub checkpoints: AtomicU64,
    /// Items requeued after losing a race.
    pub retries: AtomicU64,
    /// Items dropped after exhausting retries.
    pub dropped: AtomicU64,
    /// Items and periodic checkpoints that failed.
    pub failures: AtomicU64,
    /// Panics contained (each also counts as a failure).
    pub panics: AtomicU64,
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
    pub retries: u64,
    pub dropped: u64,
    pub failures: u64,
    pub panics: u64,
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
            retries: self.retries.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

struct State {
    queue: VecDeque<Queued>,
    /// Items waiting out a backoff, with the instant they become ready.
    delayed: Vec<(Instant, Queued)>,
    /// Dedup keys of everything in `queue` + `delayed` + in flight.
    pending: HashSet<(u8, u32, u32)>,
    in_flight: usize,
    stop: bool,
}

/// The maintenance daemon.
///
/// Construct with [`MaintDaemon::new`], feed it committed GC candidates
/// with [`MaintDaemon::enqueue_gc`], register indexes as they are
/// opened, then either [`start`](MaintDaemon::start) the worker thread
/// or drive it synchronously with
/// [`run_until_idle`](MaintDaemon::run_until_idle) (the deterministic
/// escape hatch for tests).
pub struct MaintDaemon {
    txns: Arc<TxnManager>,
    pool: Arc<BufferPool>,
    log: Arc<LogManager>,
    config: MaintConfig,
    state: Mutex<State>,
    cond: Condvar,
    indexes: Mutex<HashMap<u32, Weak<dyn MaintIndex>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    /// Counters.
    pub stats: MaintStats,
}

impl MaintDaemon {
    /// A daemon over the shared substrates. Does not spawn a thread —
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
                queue: VecDeque::new(),
                delayed: Vec::new(),
                pending: HashSet::new(),
                in_flight: 0,
                stop: false,
            }),
            cond: Condvar::new(),
            indexes: Mutex::new(HashMap::new()),
            worker: Mutex::new(None),
            stats: MaintStats::default(),
        })
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
        self.enqueue_locked(&mut st, item)
    }

    /// Queue a GC item for each leaf a committed transaction left
    /// delete-marked entries on. Called after the transaction released
    /// every lock, so reclamation can't deadlock against its remains.
    pub fn enqueue_gc(&self, candidates: Vec<GcCandidate>) {
        let mut st = self.state.lock();
        if st.stop {
            return;
        }
        for c in candidates {
            let item = WorkItem::Gc { index: c.index, leaf: c.leaf, parent_hint: c.parent_hint };
            if self.enqueue_locked(&mut st, item) {
                self.stats.gc_enqueued.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn enqueue_locked(&self, st: &mut State, item: WorkItem) -> bool {
        if !st.pending.insert(item.dedup_key()) {
            return false;
        }
        st.queue.push_back(Queued { item, attempts: 0 });
        self.cond.notify_one();
        true
    }

    /// Queued (ready + delayed) plus in-flight item count.
    pub fn backlog(&self) -> usize {
        let st = self.state.lock();
        st.queue.len() + st.delayed.len() + st.in_flight
    }

    /// Spawn the worker thread (idempotent). Fails only if the thread
    /// cannot be spawned.
    pub fn start(self: &Arc<Self>) -> std::io::Result<()> {
        let mut worker = self.worker.lock();
        if worker.is_none() {
            let me = self.clone();
            *worker = Some(
                std::thread::Builder::new()
                    .name("gist-maint".into())
                    .spawn(move || me.worker_loop())?,
            );
        }
        Ok(())
    }

    /// Whether the worker thread is running.
    pub fn is_running(&self) -> bool {
        self.worker.lock().is_some()
    }

    /// Stop the daemon. With `drain`, every queued item is processed
    /// first (on this thread once the worker exits); without, the queue
    /// is discarded — used by the crash path, which must not touch pages.
    ///
    /// Called on the worker thread itself (a `Db` whose last handle the
    /// worker's index upgrade held is dropped there), the worker is not
    /// joined: it exits at the top of its loop once the item returns.
    pub fn stop(&self, drain: bool) {
        {
            let mut st = self.state.lock();
            if st.stop {
                return;
            }
            st.stop = true;
            self.cond.notify_all();
        }
        if let Some(w) = self.worker.lock().take() {
            if w.thread().id() != std::thread::current().id() {
                let _ = w.join();
            }
        }
        if drain {
            self.run_until_idle();
        } else {
            let mut st = self.state.lock();
            st.queue.clear();
            st.delayed.clear();
            st.pending.clear();
        }
    }

    /// Process every currently queued item synchronously on the calling
    /// thread — the `maint_sync` escape hatch that makes tests
    /// deterministic without the worker thread. Backoff delays are
    /// collapsed (retries run immediately); periodic checkpoints are not
    /// triggered. Returns the number of items processed.
    pub fn run_until_idle(&self) -> usize {
        let mut processed = 0;
        loop {
            let q = {
                let mut st = self.state.lock();
                loop {
                    let delayed = std::mem::take(&mut st.delayed);
                    st.queue.extend(delayed.into_iter().map(|(_, q)| q));
                    if let Some(q) = st.queue.pop_front() {
                        st.in_flight += 1;
                        break q;
                    }
                    // An empty queue is not an idle queue: the worker may
                    // still own an item whose `finish` re-enqueues it
                    // (retry backoff, follow-up work). Returning now
                    // would let "drained" race that re-enqueue, so wait
                    // for the in-flight count to settle first.
                    if st.in_flight == 0 {
                        return processed;
                    }
                    // Bounded wait (clippy.toml disallows `wait`): the wakeup
                    // comes from `finish`, but a worker that died without
                    // it must not wedge the drain — the timeout re-checks
                    // the in-flight count and delayed backoffs.
                    self.cond.wait_for(&mut st, Duration::from_millis(50));
                }
            };
            self.process(q);
            // A work item must never leak a latch past its boundary.
            gist_audit::assert_thread_clear("maint run_until_idle item");
            processed += 1;
        }
    }

    fn promote_ready(st: &mut State, now: Instant) {
        let mut i = 0;
        while i < st.delayed.len() {
            if st.delayed[i].0 <= now {
                let (_, q) = st.delayed.swap_remove(i);
                st.queue.push_back(q);
            } else {
                i += 1;
            }
        }
    }

    fn worker_loop(self: Arc<Self>) {
        // Periodic checkpoints count from "worker started".
        let mut last_checkpoint = Instant::now();
        loop {
            // Checkpoints run between items, outside the state lock: a
            // checkpoint syncs the store.
            if let Some(interval) = self.config.checkpoint_interval {
                if last_checkpoint.elapsed() >= interval {
                    last_checkpoint = Instant::now();
                    self.periodic_checkpoint();
                }
            }
            let q = {
                let mut st = self.state.lock();
                if st.stop {
                    return;
                }
                let now = Instant::now();
                Self::promote_ready(&mut st, now);
                let q = st.queue.pop_front();
                match q {
                    Some(_) => st.in_flight += 1,
                    None => {
                        // Sleep until the next backoff expiry or checkpoint
                        // tick, whichever comes first.
                        let mut wait = Duration::from_millis(50);
                        if let Some(interval) = self.config.checkpoint_interval {
                            let since = now.duration_since(last_checkpoint);
                            wait = wait.min(interval.saturating_sub(since));
                        }
                        if let Some(ready) = st.delayed.iter().map(|(t, _)| *t).min() {
                            wait = wait.min(ready.saturating_duration_since(now));
                        }
                        self.cond.wait_for(&mut st, wait.max(Duration::from_millis(1)));
                    }
                }
                q
            };
            if let Some(q) = q {
                self.process(q);
                // A work item must never leak a latch past its boundary.
                gist_audit::assert_thread_clear("maint worker item");
            }
        }
    }

    /// The worker's timed checkpoint. A failure only counts: the next
    /// tick is its retry, and until then the previous checkpoint stays
    /// authoritative.
    fn periodic_checkpoint(&self) {
        let r = self.contain("periodic checkpoint", || {
            self.checkpoint_now().map_err(|e| MaintError::Fatal(format!("checkpoint: {e}")))
        });
        if r.is_err() {
            self.stats.failures.fetch_add(1, Ordering::Relaxed);
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
        st.pending.remove(&q.item.dedup_key());
        match result {
            Ok(None) => {}
            Ok(Some(follow_up)) => {
                self.enqueue_locked(&mut st, follow_up);
            }
            Err(MaintError::Retry(_)) => {
                if q.attempts + 1 > RETRY_BUDGET {
                    self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    let attempts = q.attempts + 1;
                    let ready = Instant::now() + RETRY_BACKOFF * attempts;
                    st.pending.insert(q.item.dedup_key());
                    st.delayed.push((ready, Queued { item: q.item, attempts }));
                }
            }
            Err(MaintError::Fatal(_)) => {
                self.stats.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.cond.notify_all();
    }

    /// Run `f`, turning a panic (an engine bug surfacing on this thread)
    /// into a counted fatal error: an unwinding worker would die owning
    /// `in_flight`, and `stop(drain)` and `run_until_idle` wait for that
    /// count to reach zero.
    fn contain<T>(
        &self,
        what: impl std::fmt::Debug,
        f: impl FnOnce() -> Result<T, MaintError>,
    ) -> Result<T, MaintError> {
        panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            self.stats.panics.fetch_add(1, Ordering::Relaxed);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(MaintError::Fatal(format!("{what:?} panicked: {msg}")))
        })
    }

    /// Run one item and report it finished, whatever it did; a panic
    /// finishes the item as a fatal failure.
    fn process(&self, q: Queued) {
        let result = self.contain(&q.item, || self.run_item(&q.item));
        self.finish(q, result);
    }

    /// The work behind one item; the follow-up item, if it produced one.
    fn run_item(&self, item: &WorkItem) -> Result<Option<WorkItem>, MaintError> {
        match item {
            WorkItem::Gc { index, leaf, parent_hint } => match self.index(*index) {
                None => Ok(None), // index dropped: work is moot
                Some(idx) => {
                    self.stats.gc_runs.fetch_add(1, Ordering::Relaxed);
                    gist_chaos::point("maint.before_gc")?;
                    let out = idx.maint_gc_leaf(*leaf, *parent_hint)?;
                    self.stats.entries_reclaimed.fetch_add(out.reclaimed as u64, Ordering::Relaxed);
                    Ok(out.leaf_empty.then_some(WorkItem::Drain {
                        index: *index,
                        leaf: *leaf,
                        parent_hint: *parent_hint,
                    }))
                }
            },
            WorkItem::Drain { index, leaf, parent_hint } => match self.index(*index) {
                None => Ok(None),
                Some(idx) => {
                    self.stats.drain_attempts.fetch_add(1, Ordering::Relaxed);
                    match idx.maint_try_drain(*leaf, *parent_hint)? {
                        DrainOutcome::Deleted => {
                            self.stats.nodes_drained.fetch_add(1, Ordering::Relaxed);
                            Ok(None)
                        }
                        // Drain semantics: pointer holders exist right
                        // now; they release on their next visit, so come
                        // back later.
                        DrainOutcome::Busy => Err(MaintError::Retry("drain busy".into())),
                        DrainOutcome::Skipped => Ok(None),
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
    /// DPT still covers those pages, stays authoritative. So does a
    /// failed sync of the log through the checkpoint record: only a
    /// checkpoint that became durable is counted.
    pub fn checkpoint_now(&self) -> std::io::Result<Lsn> {
        // Every record appended after this read has an LSN > scan_start
        // and is re-observed by the scan (which is inclusive of
        // scan_start).
        let scan_start = self.log.last_lsn();
        self.pool.sync_store()?;
        let dpt = self.pool.dirty_page_table();
        let lsn = self.txns.checkpoint_with(scan_start, dpt).map_err(std::io::Error::other)?;
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }
}

impl Drop for MaintDaemon {
    fn drop(&mut self) {
        // The worker holds an Arc, so reaching Drop implies it is gone;
        // nothing to join. Defensive: stop flag for any racer.
        self.state.lock().stop = true;
    }
}

#[cfg(test)]
mod tests;
