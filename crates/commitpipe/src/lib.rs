#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Group-commit WAL pipeline.
//!
//! Decouples log *append* from *durability*. Appenders push records onto
//! the [`LogManager`] under its one mutex and never wait for a sync
//! there; every durability wait lives in this crate:
//!
//! - a dedicated background **flusher** thread makes the whole log
//!   durable with one [`LogManager::fsync_to`] (the log's one durability
//!   primitive) per batch, then wakes the parked callers;
//! - **group commit**: a caller whose LSN is not yet durable records it
//!   in the pipeline's state, kicks the flusher and parks on a condvar of
//!   that same state mutex, so one device sync releases the whole batch;
//! - force-at-commit: [`CommitPipeline::commit_durable`] parks until the
//!   commit record is durable, so a committed transaction survives any
//!   crash; a request cuts a batch at once, without lingering for more.
//!
//! Nothing syncs unasked: end, abort and NTA-terminator records ride the
//! next sync a commit, barrier, checkpoint or drain asks for. The flusher
//! runs from [`CommitPipeline::start`] until [`CommitPipeline::stop`];
//! after `stop`, a request the horizon does not already cover fails at
//! once with [`PipeError::Stalled`].
//!
//! The WAL-before-data invariant is preserved by implementing
//! [`LogFlusher`]: the buffer pool's `flush_until` becomes a durability
//! barrier on the pipeline rather than a direct log flush.

use std::io;
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

/// Pause before the flusher retries a failed batch, so a persistent
/// failure costs a retry every few milliseconds rather than a hot spin.
const RETRY_PAUSE: Duration = Duration::from_millis(2);

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

/// Commit-wait histogram: bucket `i` counts commits whose wall time in
/// microseconds fell in `[2^i, 2^(i+1))` (bucket 0 covers 0–1 µs).
const WAIT_BUCKETS: usize = 32;

fn bucket_of(micros: u64) -> usize {
    (64 - micros.leading_zeros() as usize).min(WAIT_BUCKETS - 1)
}

struct Stats {
    syncs: AtomicU64,
    flusher_panics: AtomicU64,
    /// One entry per commit acknowledged; its total is the commit count.
    wait_hist: [AtomicU64; WAIT_BUCKETS],
}

impl Stats {
    fn new() -> Stats {
        Stats {
            syncs: AtomicU64::new(0),
            flusher_panics: AtomicU64::new(0),
            wait_hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record_commit(&self, waited: Duration) {
        self.wait_hist[bucket_of(waited.as_micros() as u64)].fetch_add(1, Ordering::Relaxed);
    }

    fn commits(&self) -> u64 {
        self.wait_hist.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Approximate percentile: the upper bound of the first bucket whose
    /// cumulative count reaches `q` of the total.
    fn percentile_us(&self, q: f64) -> u64 {
        let total = self.commits();
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
    /// Device syncs performed by the flusher, whoever asked: commits,
    /// barriers, the shutdown drain.
    pub batches_flushed: u64,
    /// Commits acknowledged: [`CommitPipeline::commit_durable`] calls
    /// that returned `Ok`.
    pub commits_flushed: u64,
    /// Median commit wait, microseconds (bucketed, upper bound).
    pub commit_wait_p50_us: u64,
    /// 99th-percentile commit wait, microseconds.
    pub commit_wait_p99_us: u64,
    /// Flusher batches that panicked and were contained.
    pub flusher_panics: u64,
}

struct PipeState {
    /// Highest LSN a parked caller needs durable; a batch is due while
    /// it is above the durable horizon.
    wanted: Lsn,
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
    /// Wakes parked callers after every batch and at shutdown.
    durable_cv: Condvar,
    handle: Mutex<Option<JoinHandle<()>>>,
    stats: Stats,
}

impl CommitPipeline {
    /// Pipeline over `log`, flusher not yet running.
    pub fn new(log: Arc<LogManager>) -> Arc<CommitPipeline> {
        Arc::new(CommitPipeline {
            log,
            state: Mutex::new(PipeState { wanted: Lsn::NULL, stop: false, drain: false }),
            work_cv: Condvar::new(),
            durable_cv: Condvar::new(),
            handle: Mutex::new(None),
            stats: Stats::new(),
        })
    }

    /// The log this pipeline drains.
    pub fn log(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// Spawn the background flusher; it runs until
    /// [`CommitPipeline::stop`]. A second call while it runs is a no-op.
    pub fn start(self: &Arc<Self>) -> io::Result<()> {
        let mut handle = self.handle.lock();
        if handle.is_none() {
            let me = self.clone();
            *handle = Some(
                std::thread::Builder::new()
                    .name("gist-commitpipe".to_string())
                    .spawn(move || while me.flush_step() {})?,
            );
        }
        Ok(())
    }

    /// Stop the flusher and join it. `drain` makes the whole log
    /// durable on the way out (graceful shutdown); without it the thread
    /// exits where it stands (crash simulation). From here on a request
    /// the horizon does not cover fails at once.
    pub fn stop(&self, drain: bool) {
        {
            let mut st = self.state.lock();
            st.stop = true;
            st.drain = drain;
        }
        self.work_cv.notify_all();
        let taken = self.handle.lock().take();
        if let Some(h) = taken {
            let _ = h.join();
        }
        // Callers still parked fail now rather than at their timeout.
        self.durable_cv.notify_all();
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
        let started = Instant::now();
        self.barrier(lsn)?;
        self.stats.record_commit(started.elapsed());
        Ok(())
    }

    /// Durability barrier: park until `lsn` is durable (non-commit
    /// callers — checkpoints, page write-back). Not counted as a commit.
    pub fn barrier(&self, lsn: Lsn) -> Result<(), PipeError> {
        if self.log.flushed_lsn() >= lsn {
            return Ok(());
        }
        let deadline = Instant::now() + PARK_TIMEOUT;
        {
            let mut st = self.state.lock();
            st.wanted = st.wanted.max(lsn);
        }
        // Kick outside the mutex, so the woken flusher does not block on
        // it (here and for every notify below).
        self.work_cv.notify_one();
        let mut st = self.state.lock();
        loop {
            // The flusher stores the horizon, then takes this mutex, then
            // notifies, so a check under the mutex cannot miss a wakeup.
            if gist_chaos::armed("commitpipe.park-unguarded") {
                // Mutation switch (model-checker self-tests): the check
                // moves out from under the mutex, and a wakeup that lands
                // between it and the park is lost.
                drop(st);
                let durable = self.log.flushed_lsn() >= lsn;
                st = self.state.lock();
                if durable {
                    return Ok(());
                }
            } else if self.log.flushed_lsn() >= lsn {
                return Ok(());
            }
            if st.stop || Instant::now() >= deadline {
                return Err(PipeError::Stalled(lsn));
            }
            self.durable_cv.wait_until(&mut st, deadline);
        }
    }

    /// One turn of the flusher thread, whose body is `while
    /// flush_step() {}`: wait for a due batch (or shutdown), run it, wake
    /// every parked caller. Returns whether the flusher carries on.
    /// Public so a model-checker scenario can run a turn on a simulated
    /// thread.
    pub fn flush_step(&self) -> bool {
        let Some(final_turn) = self.next_batch() else { return false };
        // Contain a panicking batch (chaos `Panic` actions): count it and
        // keep the flusher alive.
        let ok = match panic::catch_unwind(AssertUnwindSafe(|| self.flush_batch())) {
            Ok(res) => res.is_ok(),
            Err(_) => {
                self.stats.flusher_panics.fetch_add(1, Ordering::Relaxed);
                false
            }
        };
        // Wake every parked caller whatever became of the batch: one that
        // failed after its sync has made its waiters durable, and the rest
        // re-check the horizon and park again. Taking the mutex orders the
        // horizon store before any waiter's check-and-park.
        drop(self.state.lock());
        self.durable_cv.notify_all();
        if !ok && !final_turn {
            // A failed batch stays pending (`wanted` is still above the
            // horizon); retry it after a pause.
            self.work_cv.wait_for(&mut self.state.lock(), RETRY_PAUSE);
        }
        !final_turn
    }

    /// Block until a batch is due or shutdown begins. `None`: exit now;
    /// `Some(final_turn)`: run a batch, the final one when draining.
    fn next_batch(&self) -> Option<bool> {
        let mut st = self.state.lock();
        loop {
            if st.stop {
                return if st.drain { Some(true) } else { None };
            }
            // A barrier past the end of the log waits for records that do
            // not exist yet; it must not keep the flusher spinning.
            if st.wanted.min(self.log.last_lsn()) > self.log.flushed_lsn() {
                return Some(false);
            }
            self.work_cv.wait_for(&mut st, PARK_TIMEOUT);
        }
    }

    /// One batch: everything appended becomes durable with a single
    /// device sync. The two chaos points bracket the sync so fault tests
    /// can crash a batch on either side of it.
    // The flusher makes the sync that clippy.toml keeps everyone else from.
    #[allow(clippy::disallowed_methods)]
    fn flush_batch(&self) -> Result<(), PipeError> {
        // A plain delay point: armed with a `Delay`, the flusher lingers
        // at the top of every batch. Only the pinned-reader drill
        // (`tests/overload.rs::pinned_reader_blocks_no_reads_or_writes`)
        // arms it.
        gist_chaos::point("commitpipe.flusher.stall")?;
        let target = self.log.last_lsn();
        gist_chaos::point("commitpipe.flusher.post_fill_pre_fsync")?;
        if target > self.log.flushed_lsn() {
            self.log.fsync_to(target);
            self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        }
        gist_chaos::point("commitpipe.flusher.post_fsync_pre_wakeup")?;
        Ok(())
    }

    /// Observability snapshot.
    pub fn stats(&self) -> PipeStats {
        PipeStats {
            batches_flushed: self.stats.syncs.load(Ordering::Relaxed),
            commits_flushed: self.stats.commits(),
            commit_wait_p50_us: self.stats.percentile_us(0.50),
            commit_wait_p99_us: self.stats.percentile_us(0.99),
            flusher_panics: self.stats.flusher_panics.load(Ordering::Relaxed),
        }
    }
}

/// WAL-before-data: the buffer pool's pre-write-back barrier goes through
/// the pipeline so page flushes group-commit with everyone else.
impl LogFlusher for CommitPipeline {
    // The inline last resort when the flusher is gone (see below).
    #[allow(clippy::disallowed_methods)]
    fn flush_until(&self, lsn: Lsn) {
        if self.barrier(lsn).is_err() {
            // The flusher is wedged or stopped. Last resort: advance the
            // horizon inline; if it still stops below `lsn`, writing the
            // page back would break the WAL rule — refuse loudly.
            self.log.fsync_to(lsn);
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

// The unit tests move the durable horizon by hand.
#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests;
