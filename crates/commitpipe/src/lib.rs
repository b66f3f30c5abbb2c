#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Group-commit WAL pipeline.
//!
//! Decouples log *append* from *durability*. Appenders push records onto
//! the [`LogManager`] under its one mutex and never wait for a sync
//! there; this crate adds the durability half:
//!
//! - a dedicated background **flusher** thread that drains the log to
//!   the durable horizon with one (simulated) `fsync` per batch;
//! - **group commit**: concurrent committers park on their commit LSN
//!   ([`LogManager::wait_durable`], the once-dormant `flush_cv`) and a
//!   single device sync makes the whole batch durable;
//! - force-at-commit: [`CommitPipeline::commit_durable`] parks until the
//!   commit record is durable, so a committed transaction survives any
//!   crash; a request cuts a batch at once, without lingering for more;
//! - an idle sweep that makes unforced records (end, abort and
//!   NTA-terminator records) durable within a few milliseconds.
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

/// Upper bound on one park on the pipeline. Reached only if the flusher
/// is wedged (e.g. stalled by a chaos `Delay`); committers surface
/// [`PipeError::Stalled`].
const PARK_TIMEOUT: Duration = Duration::from_secs(10);

/// Idle sweep period: with no durability request pending, the flusher
/// makes the whole log durable this often — the latency bound for
/// unforced records (transaction end records, aborts).
const IDLE_FLUSH: Duration = Duration::from_millis(2);

/// Failure surfaced by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeError {
    /// A chaos crash point injected this failure.
    Injected(&'static str),
    /// The durable horizon did not reach the LSN within the park timeout
    /// (the flusher is dead or stalled).
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
    /// Last appended LSN; `append_lsn - durable_lsn` is the pipeline lag.
    pub append_lsn: u64,
    /// Whether the background flusher thread is running.
    pub running: bool,
}

struct PipeState {
    /// A durability request is waiting for the flusher to cut a batch
    /// (`false`: the idle sweep governs).
    due: bool,
    /// Commits submitted since the last batch was cut (batch-size stats).
    pending_commits: u64,
    /// Flusher thread liveness (set by start/stop).
    running: bool,
    /// Shutdown request and whether to drain the log first.
    stop: bool,
    drain: bool,
}

/// The group-commit pipeline over one [`LogManager`].
pub struct CommitPipeline {
    log: Arc<LogManager>,
    state: Mutex<PipeState>,
    /// Kicks the flusher when a batch is due or shutdown begins.
    work_cv: Condvar,
    handle: Mutex<Option<JoinHandle<()>>>,
    stats: Stats,
}

impl CommitPipeline {
    /// Pipeline over `log`, flusher not yet running.
    pub fn new(log: Arc<LogManager>) -> Arc<CommitPipeline> {
        Arc::new(CommitPipeline {
            log,
            state: Mutex::new(PipeState {
                due: false,
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

    /// Stop the flusher and join it. `drain` makes the whole log
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

    /// Append `txn`'s commit record. The chaos point before the append
    /// fails the commit (`Error`) or kills the committer before its
    /// commit record exists (`Panic`), which leaves the transaction a
    /// loser — the crash the fault-recovery tests exercise.
    pub fn append_commit(&self, txn: TxnId, prev_lsn: Lsn) -> Result<Lsn, PipeError> {
        gist_chaos::point("commitpipe.append.pre_append")?;
        Ok(self.log.append(txn, prev_lsn, RecordBody::TxnCommit))
    }

    /// Park until the commit record at `lsn` is durable; the commit path
    /// calls this with no page latch held (asserted under `latch-audit`).
    pub fn commit_durable(&self, lsn: Lsn) -> Result<(), PipeError> {
        audit::assert_thread_clear("parked on commit pipeline");
        self.park(lsn, true)
    }

    /// Durability barrier: park until `lsn` is durable (non-commit
    /// callers — checkpoints, page write-back). Does not count toward
    /// batch-size statistics.
    pub fn barrier(&self, lsn: Lsn) -> Result<(), PipeError> {
        if self.log.flushed_lsn() >= lsn {
            return Ok(());
        }
        self.park(lsn, false)
    }

    /// Register a durability request (the batch it cuts covers the whole
    /// log); returns whether a flusher thread will serve it.
    fn request(&self, is_commit: bool) -> bool {
        let mut st = self.state.lock();
        if is_commit {
            st.pending_commits += 1;
        }
        st.due = true;
        let running = st.running;
        drop(st);
        self.work_cv.notify_all();
        running
    }

    fn park(&self, lsn: Lsn, is_commit: bool) -> Result<(), PipeError> {
        let started = Instant::now();
        if !self.request(is_commit) {
            // No flusher: the old synchronous path, one device sync per
            // caller — which also counts every commit still pending
            // behind it (a batch the stopped flusher never cut).
            let commits = std::mem::take(&mut self.state.lock().pending_commits);
            self.log.flush(lsn);
            self.stats.record_sync(commits);
            if is_commit {
                self.stats.record_wait(started.elapsed());
            }
            return Ok(());
        }
        if self.log.wait_durable(lsn, PARK_TIMEOUT) {
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
                // The batch may have died after its sync but before the
                // wakeup; with nothing left to flush, no later sweep would
                // notify the committers it already made durable.
                self.log.notify_durable();
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

    /// Block until a batch is due (a durability request, idle sweep found
    /// unflushed records, or shutdown). Returns `(pending_commits, drain,
    /// stop)` with the batch state consumed.
    fn next_batch(&self) -> (u64, bool, bool) {
        let mut st = self.state.lock();
        loop {
            if st.stop {
                let commits = std::mem::take(&mut st.pending_commits);
                return (commits, st.drain, true);
            }
            if st.due {
                st.due = false;
                let commits = std::mem::take(&mut st.pending_commits);
                return (commits, false, false);
            }
            self.work_cv.wait_for(&mut st, IDLE_FLUSH);
            // Idle sweep: pick up unforced records (end, abort and
            // NTA-terminator records) and the retry of a failed batch.
            if !st.due && !st.stop && self.log.last_lsn() > self.log.flushed_lsn() {
                let commits = std::mem::take(&mut st.pending_commits);
                return (commits, false, false);
            }
        }
    }

    /// One batch: everything appended becomes durable with a single device
    /// sync, then waiters wake. The two chaos points bracket the sync so
    /// fault tests can crash a batch on either side of it. `commits` is
    /// zeroed once the batch's commits are counted.
    fn flush_batch(&self, commits: &mut u64) -> Result<(), PipeError> {
        // Overload-resilience chaos point: armed with a `Delay` it makes
        // the flusher linger at the top of every batch (a stalled
        // flusher), which is what drives committers into `Stalled` /
        // inline-flush degradation in the stall-chaos harness.
        gist_chaos::point("commitpipe.flusher.stall")?;
        let target = self.log.last_lsn();
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

/// WAL-before-data: the buffer pool's pre-write-back barrier goes through
/// the pipeline so page flushes group-commit with everyone else.
impl LogFlusher for CommitPipeline {
    fn flush_until(&self, lsn: Lsn) {
        if self.barrier(lsn).is_err() {
            // The flusher is wedged (dead or stalled thread). Last
            // resort: advance the horizon inline; if it still stops below
            // `lsn`, writing the page back would break the WAL rule —
            // refuse loudly.
            self.log.flush(lsn);
            assert!(
                self.log.flushed_lsn() >= lsn.min(self.log.last_lsn()),
                "WAL-before-data violated: durable horizon below {lsn}"
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
