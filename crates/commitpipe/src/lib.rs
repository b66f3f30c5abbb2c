#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Group-commit WAL pipeline (PR 6).
//!
//! Decouples log *append* from *durability*. Appenders reserve-then-fill
//! slots in the [`LogManager`]'s buffer without any global mutex; this
//! crate adds the durability half:
//!
//! - a dedicated background **flusher** thread that drains the filled
//!   prefix to the durable horizon with one (simulated) `fsync` per batch;
//! - **group commit**: concurrent committers park on their commit LSN
//!   ([`LogManager::wait_durable`], the once-dormant `flush_cv`) and a
//!   single device sync makes the whole batch durable;
//! - per-transaction [`Durability`] modes — `Immediate` (park until the
//!   commit record is durable), `Batched { window }` (park, but let the
//!   flusher linger up to `window` to widen the batch) and `Async`
//!   (return immediately; the idle sweep bounds the loss window).
//!
//! When the flusher is not running (unit tests, a stopped pipeline,
//! post-shutdown write-back), every durability request degrades to the
//! old synchronous inline flush, so the pipeline is always safe to call.
//!
//! The WAL-before-data invariant is preserved by implementing
//! [`LogFlusher`]: the buffer pool's `flush_until` becomes a durability
//! barrier on the pipeline rather than a direct log flush.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gist_wal::{LogFlusher, LogManager, Lsn, RecordBody, TxnId};
use gist_sync::{Condvar, Mutex};

/// How long a transaction waits for its commit record to become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Park until the commit record is durable; the flusher batches
    /// whatever has accumulated but does not wait for more. This is the
    /// classic force-at-commit guarantee: a committed transaction
    /// survives any crash.
    #[default]
    Immediate,
    /// Park until durable, but allow the flusher to linger up to `window`
    /// after the first commit of a batch so more committers can join it.
    /// Same crash guarantee as `Immediate`, traded against up to `window`
    /// of extra commit latency.
    Batched {
        /// Maximum extra time a commit may wait for batch-mates.
        window: Duration,
    },
    /// Return as soon as the commit record is *filled*: durability
    /// arrives with the flusher's next sweep. A crash inside that window
    /// can lose the transaction (it is cleanly rolled back at restart —
    /// atomicity holds, only durability is deferred).
    Async,
}

/// Tuning knobs, fixed before [`CommitPipeline::start`].
#[derive(Debug, Clone, Copy)]
pub struct PipeConfig {
    /// Upper bound on one park on the pipeline. Reached only if the
    /// flusher is wedged (e.g. an abandoned reservation fencing the
    /// durable horizon); committers surface [`PipeError::Stalled`].
    pub park_timeout: Duration,
    /// Idle sweep period: with no commit requests pending, the flusher
    /// makes the filled prefix durable this often. This is the `Async`
    /// mode's bounded loss window and the latency bound for unforced
    /// records (transaction end records, aborts).
    pub idle_flush: Duration,
}

impl Default for PipeConfig {
    fn default() -> Self {
        PipeConfig {
            park_timeout: Duration::from_secs(10),
            idle_flush: Duration::from_millis(2),
        }
    }
}

/// Failure surfaced by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeError {
    /// A chaos crash point injected this failure.
    Injected(&'static str),
    /// The durable horizon did not reach the LSN within the park timeout
    /// (the flusher is dead or fenced by an abandoned reservation).
    Stalled(Lsn),
}

impl std::fmt::Display for PipeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipeError::Injected(p) => write!(f, "chaos injection at crash point {p:?}"),
            PipeError::Stalled(lsn) => {
                write!(f, "commit pipeline stalled waiting for lsn {lsn} to become durable")
            }
        }
    }
}

impl std::error::Error for PipeError {}

impl From<gist_chaos::Injected> for PipeError {
    fn from(e: gist_chaos::Injected) -> Self {
        PipeError::Injected(e.0)
    }
}

/// Wait-time histogram: bucket `i` counts parks whose wall time in
/// microseconds fell in `[2^i, 2^(i+1))` (bucket 0 covers 0–1 µs).
const WAIT_BUCKETS: usize = 32;

fn bucket_of(micros: u64) -> usize {
    (64 - micros.leading_zeros() as usize).min(WAIT_BUCKETS - 1)
}

struct Stats {
    batches: AtomicU64,
    /// The subset of `batches` that made at least one commit durable.
    commit_batches: AtomicU64,
    commits: AtomicU64,
    flusher_panics: AtomicU64,
    waits: AtomicU64,
    wait_hist: [AtomicU64; WAIT_BUCKETS],
}

impl Stats {
    fn new() -> Stats {
        Stats {
            batches: AtomicU64::new(0),
            commit_batches: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            flusher_panics: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            wait_hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// One device sync that covered `commits` pending commit requests.
    fn record_sync(&self, commits: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if commits > 0 {
            self.commit_batches.fetch_add(1, Ordering::Relaxed);
            self.commits.fetch_add(commits, Ordering::Relaxed);
        }
    }

    fn record_wait(&self, waited: Duration) {
        self.waits.fetch_add(1, Ordering::Relaxed);
        self.wait_hist[bucket_of(waited.as_micros() as u64)].fetch_add(1, Ordering::Relaxed);
    }

    /// Approximate percentile: the upper bound of the first bucket whose
    /// cumulative count reaches `q` of the total.
    fn percentile_us(&self, q: f64) -> u64 {
        let total: u64 = self.wait_hist.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        if total == 0 {
            return 0;
        }
        let need = ((total as f64) * q).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in self.wait_hist.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= need {
                return 1u64 << i;
            }
        }
        1u64 << (WAIT_BUCKETS - 1)
    }
}

/// Observability snapshot (`robustness_stats()` / gist-shell surface
/// these).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipeStats {
    /// Device syncs performed by the flusher (or inline fallbacks),
    /// whoever asked: commits, barriers, idle sweeps.
    pub batches_flushed: u64,
    /// Commit requests made durable through the pipeline.
    pub commits_flushed: u64,
    /// Mean commits per *commit-carrying* device sync (the group-commit
    /// win); syncs that served only barriers or idle sweeps do not
    /// dilute it.
    pub mean_batch_size: f64,
    /// Median commit park time, microseconds (bucketed, upper bound).
    pub commit_wait_p50_us: u64,
    /// 99th-percentile commit park time, microseconds.
    pub commit_wait_p99_us: u64,
    /// Flusher batches that panicked and were contained.
    pub flusher_panics: u64,
    /// Current durable horizon.
    pub durable_lsn: u64,
    /// Last reserved LSN; `append_lsn - durable_lsn` is the pipeline lag.
    pub append_lsn: u64,
    /// Whether the background flusher thread is running.
    pub running: bool,
}

struct PipeState {
    /// Highest LSN any committer wants durable.
    requested: Lsn,
    /// When the flusher must act for the current batch ([`None`]: no
    /// batch forming; the idle sweep governs).
    deadline: Option<Instant>,
    /// Commits submitted since the last batch was cut (batch-size stats).
    pending_commits: u64,
    /// Flusher thread liveness (set by start/stop).
    running: bool,
    /// Shutdown request and whether to drain the filled prefix first.
    stop: bool,
    drain: bool,
}

/// The group-commit pipeline over one [`LogManager`].
pub struct CommitPipeline {
    log: Arc<LogManager>,
    cfg: PipeConfig,
    state: Mutex<PipeState>,
    /// Kicks the flusher when a batch deadline is set or shutdown begins.
    work_cv: Condvar,
    handle: Mutex<Option<JoinHandle<()>>>,
    stats: Stats,
}

impl CommitPipeline {
    /// Pipeline over `log` with default tuning, flusher not yet running.
    pub fn new(log: Arc<LogManager>) -> Arc<CommitPipeline> {
        Self::with_config(log, PipeConfig::default())
    }

    /// Pipeline with explicit tuning, flusher not yet running.
    pub fn with_config(log: Arc<LogManager>, cfg: PipeConfig) -> Arc<CommitPipeline> {
        Arc::new(CommitPipeline {
            log,
            cfg,
            state: Mutex::new(PipeState {
                requested: Lsn::NULL,
                deadline: None,
                pending_commits: 0,
                running: false,
                stop: false,
                drain: false,
            }),
            work_cv: Condvar::new(),
            handle: Mutex::new(None),
            stats: Stats::new(),
        })
    }

    /// The log this pipeline drains.
    pub fn log(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// Spawn the background flusher (idempotent). Until this is called —
    /// or after [`CommitPipeline::stop`] — every durability request is
    /// served inline by the caller.
    pub fn start(self: &Arc<Self>) {
        let mut handle = self.handle.lock();
        if handle.is_some() {
            return;
        }
        {
            let mut st = self.state.lock();
            st.stop = false;
            st.drain = false;
            st.running = true;
        }
        let me = self.clone();
        match std::thread::Builder::new()
            .name("gist-commitpipe".to_string())
            .spawn(move || me.worker())
        {
            Ok(h) => *handle = Some(h),
            Err(_) => {
                // Thread spawn failed: stay in inline mode.
                self.state.lock().running = false;
            }
        }
    }

    /// Stop the flusher and join it. `drain` makes the filled prefix
    /// durable on the way out (graceful shutdown); without it the thread
    /// exits where it stands (crash simulation).
    pub fn stop(&self, drain: bool) {
        let joined = {
            let taken = self.handle.lock().take();
            match taken {
                Some(h) => {
                    {
                        let mut st = self.state.lock();
                        st.stop = true;
                        st.drain = drain;
                    }
                    self.work_cv.notify_all();
                    let _ = h.join();
                    true
                }
                None => false,
            }
        };
        self.state.lock().running = false;
        if !joined && drain {
            self.log.flush_all();
        }
    }

    /// Whether the background flusher is running.
    pub fn is_running(&self) -> bool {
        self.state.lock().running
    }

    /// Append `txn`'s commit record through the pipeline's reserve/fill
    /// seam. A graceful chaos injection between the two phases heals the
    /// reservation with a [`RecordBody::Noop`] filler (the log stays
    /// dense); a chaos *panic* unwinds in between and leaves a real hole
    /// that fences the durable horizon — the crash the fault-recovery
    /// tests exercise.
    pub fn append_commit(&self, txn: TxnId, prev_lsn: Lsn) -> Result<Lsn, PipeError> {
        let res = self.log.reserve(txn, prev_lsn);
        if let Err(e) = gist_chaos::point("commitpipe.append.post_reserve_pre_fill") {
            self.log.fill_noop(res);
            return Err(e.into());
        }
        Ok(self.log.fill(res, RecordBody::TxnCommit))
    }

    /// Make `lsn` durable under `mode`; the commit path calls this with
    /// no page latch held (asserted under `latch-audit`).
    pub fn commit_durable(&self, lsn: Lsn, mode: Durability) -> Result<(), PipeError> {
        audit::assert_thread_clear("parked on commit pipeline");
        match mode {
            Durability::Async => {
                self.request(lsn, Instant::now() + self.cfg.idle_flush, true);
                Ok(())
            }
            Durability::Immediate => self.park(lsn, Instant::now(), true),
            Durability::Batched { window } => self.park(lsn, Instant::now() + window, true),
        }
    }

    /// Durability barrier: park until `lsn` is durable (non-commit
    /// callers — checkpoints, page write-back). Does not count toward
    /// batch-size statistics.
    pub fn barrier(&self, lsn: Lsn) -> Result<(), PipeError> {
        if self.log.flushed_lsn() >= lsn {
            return Ok(());
        }
        self.park(lsn, Instant::now(), false)
    }

    /// Register a durability request; returns whether a flusher thread
    /// will serve it.
    fn request(&self, lsn: Lsn, deadline: Instant, is_commit: bool) -> bool {
        let mut st = self.state.lock();
        if lsn > st.requested {
            st.requested = lsn;
        }
        if is_commit {
            st.pending_commits += 1;
        }
        st.deadline = Some(match st.deadline {
            Some(d) => d.min(deadline),
            None => deadline,
        });
        let running = st.running;
        drop(st);
        self.work_cv.notify_all();
        running
    }

    fn park(&self, lsn: Lsn, deadline: Instant, is_commit: bool) -> Result<(), PipeError> {
        let started = Instant::now();
        if !self.request(lsn, deadline, is_commit) {
            // No flusher: the old synchronous path, one device sync per
            // caller — which also covers every commit still pending
            // behind it (Async requests nobody has flushed yet).
            let commits = std::mem::take(&mut self.state.lock().pending_commits);
            self.log.flush(lsn);
            self.stats.record_sync(commits);
            if is_commit {
                self.stats.record_wait(started.elapsed());
            }
            return Ok(());
        }
        if self.log.wait_durable(lsn, self.cfg.park_timeout) {
            if is_commit {
                self.stats.record_wait(started.elapsed());
            }
            Ok(())
        } else {
            Err(PipeError::Stalled(lsn))
        }
    }

    /// Flusher thread body.
    fn worker(self: Arc<Self>) {
        loop {
            let (commits, drain, stop) = self.next_batch();
            if stop && !drain {
                return;
            }
            // Contain a panicking batch (chaos `Panic` actions): count it
            // and keep the flusher alive — parked committers self-heal by
            // re-checking the horizon, and the idle sweep retries the
            // batch.
            let mut uncounted = commits;
            let run = panic::catch_unwind(AssertUnwindSafe(|| self.flush_batch(&mut uncounted)));
            if run.is_err() {
                self.stats.flusher_panics.fetch_add(1, Ordering::Relaxed);
            }
            if uncounted > 0 {
                // The batch died before its sync: its commits ride the
                // retry.
                self.state.lock().pending_commits += uncounted;
            }
            if stop {
                return;
            }
        }
    }

    /// Block until a batch is due (deadline reached, idle sweep found
    /// unflushed records, or shutdown). Returns `(pending_commits, drain,
    /// stop)` with the batch state consumed.
    fn next_batch(&self) -> (u64, bool, bool) {
        let mut st = self.state.lock();
        loop {
            if st.stop {
                let commits = std::mem::take(&mut st.pending_commits);
                return (commits, st.drain, true);
            }
            match st.deadline {
                Some(d) => {
                    if Instant::now() >= d {
                        st.deadline = None;
                        let commits = std::mem::take(&mut st.pending_commits);
                        return (commits, false, false);
                    }
                    self.work_cv.wait_until(&mut st, d);
                }
                None => {
                    self.work_cv.wait_for(&mut st, self.cfg.idle_flush);
                    // Idle sweep: pick up unforced records (end records,
                    // Async commits whose deadline was consumed by a
                    // failed batch).
                    if st.deadline.is_none()
                        && !st.stop
                        && self.log.filled_lsn() > self.log.flushed_lsn()
                    {
                        let commits = std::mem::take(&mut st.pending_commits);
                        return (commits, false, false);
                    }
                }
            }
        }
    }

    /// One batch: everything filled becomes durable with a single device
    /// sync, then waiters wake. The two chaos points bracket the sync so
    /// fault tests can crash a batch on either side of it. `commits` is
    /// zeroed once the batch's commits are counted.
    fn flush_batch(&self, commits: &mut u64) -> Result<(), PipeError> {
        // Overload-resilience chaos point: armed with a `Delay` it makes
        // the flusher linger at the top of every batch (a stalled
        // flusher), which is what drives committers into `Stalled` /
        // inline-flush degradation in the stall-chaos harness.
        gist_chaos::point("commitpipe.flusher.stall")?;
        let target = self.log.filled_lsn();
        gist_chaos::point("commitpipe.flusher.post_fill_pre_fsync")?;
        let commits = std::mem::take(commits);
        if target > self.log.flushed_lsn() {
            self.log.fsync_to(target);
            self.stats.record_sync(commits);
        } else {
            // Someone else's sync (an inline barrier, a backpressure
            // escalation) already covered these commits.
            self.stats.commits.fetch_add(commits, Ordering::Relaxed);
        }
        gist_chaos::point("commitpipe.flusher.post_fsync_pre_wakeup")?;
        self.log.notify_durable();
        Ok(())
    }

    /// Observability snapshot.
    pub fn stats(&self) -> PipeStats {
        let commit_batches = self.stats.commit_batches.load(Ordering::Relaxed);
        let commits = self.stats.commits.load(Ordering::Relaxed);
        PipeStats {
            batches_flushed: self.stats.batches.load(Ordering::Relaxed),
            commits_flushed: commits,
            mean_batch_size: if commit_batches == 0 {
                0.0
            } else {
                commits as f64 / commit_batches as f64
            },
            commit_wait_p50_us: self.stats.percentile_us(0.50),
            commit_wait_p99_us: self.stats.percentile_us(0.99),
            flusher_panics: self.stats.flusher_panics.load(Ordering::Relaxed),
            durable_lsn: self.log.flushed_lsn().0,
            append_lsn: self.log.last_lsn().0,
            running: self.is_running(),
        }
    }
}

impl Drop for CommitPipeline {
    fn drop(&mut self) {
        // The worker holds an `Arc<Self>`, so by the time `drop` runs the
        // thread has exited; this only covers the never-started case.
        if let Some(h) = self.handle.lock().take() {
            {
                let mut st = self.state.lock();
                st.stop = true;
            }
            self.work_cv.notify_all();
            let _ = h.join();
        }
    }
}

/// WAL-before-data: the buffer pool's pre-write-back barrier goes through
/// the pipeline so page flushes group-commit with everyone else.
impl LogFlusher for CommitPipeline {
    fn flush_until(&self, lsn: Lsn) {
        if self.barrier(lsn).is_err() {
            // The flusher is wedged (dead thread or an abandoned
            // reservation fencing the horizon). Last resort: advance the
            // horizon inline; if the fence holds below `lsn`, writing the
            // page back would break the WAL rule — refuse loudly.
            self.log.flush(lsn);
            assert!(
                self.log.flushed_lsn() >= lsn.min(self.log.filled_lsn()),
                "WAL-before-data violated: durable horizon fenced below {lsn}"
            );
        }
    }
}

#[cfg(feature = "latch-audit")]
mod audit {
    pub(crate) use gist_audit::assert_thread_clear;
}

#[cfg(not(feature = "latch-audit"))]
mod audit {
    #[inline(always)]
    pub(crate) fn assert_thread_clear(_context: &str) {}
}

#[cfg(test)]
mod tests;
