#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # gist-overload — admission control and overload-health reporting
//!
//! The engine's other resource governors are all *internal*: the buffer
//! pool caps pages, the lock manager caps waits with timeouts, the
//! commit pipeline bounds how long a committer parks. None of them
//! bounds how much work is *admitted* in the first place, so under a
//! sustained arrival overload every internal queue (log buffer, epoch
//! retire bins, lock wait-for graph) grows together and the engine
//! thrashes instead of shedding.
//!
//! [`AdmissionController`] is that missing front gate: a fixed pool of
//! in-flight transaction credits. A new transaction either takes a
//! credit immediately, parks on a *deadline-bounded* condvar until one
//! frees, or — past the deadline — is either **shed** (the caller gets
//! `GistError::Overloaded` and retries through the jittered backoff in
//! `Db::run_txn`) or **force-admitted** (for the infallible
//! `Db::begin` path, which must not change signature; forced
//! admissions are counted and degrade the health verdict instead).
//!
//! Credits are released through the transaction-end observer hook in
//! `gist-txn`, which fires on commit *and* abort (including the serving
//! layer's session teardown), so a credit can never outlive its
//! transaction. Tokens are bound explicitly
//! ([`AdmissionController::bind`]) so transactions begun behind the
//! controller's back (internal maintenance, recovery, raw
//! `TxnManager::begin` in tests) release as a no-op.
//!
//! The crate also owns the unified [`HealthReport`] vocabulary
//! (`Healthy` / `Degraded { reasons }` / `ReadOnly { reasons }`) that
//! `Db::health()` assembles from the buffer pool, flusher, epoch and
//! admission heartbeats.

use gist_sync::{Condvar, Mutex};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Admission controller
// ---------------------------------------------------------------------

/// Tuning knobs for the admission gate.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Maximum transactions in flight at once. `0` disables the gate
    /// (every admission succeeds immediately; in-flight is still
    /// counted for observability).
    pub max_in_flight: usize,
    /// How long a new transaction may park waiting for a credit before
    /// it is shed (fallible path) or force-admitted (infallible path).
    pub admit_timeout: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { max_in_flight: 1024, admit_timeout: Duration::from_millis(500) }
    }
}

/// Counter snapshot for `robustness_stats()` / the shell `health` view.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdmissionStats {
    /// Transactions currently holding a credit.
    pub in_flight: u64,
    /// Configured credit pool size (`0` = unlimited).
    pub capacity: u64,
    /// Admissions that succeeded (immediately or after a park).
    pub admitted: u64,
    /// Admissions that parked at least once before resolving.
    pub parked: u64,
    /// Fallible admissions that timed out and were shed.
    pub shed: u64,
    /// Infallible admissions that timed out and barged past the cap.
    pub forced: u64,
}

struct AdmissionState {
    in_flight: usize,
    /// Transaction tokens currently bound to a credit. A release for an
    /// unbound token is a no-op, so transactions that bypassed the gate
    /// (recovery, internal maintenance) cannot corrupt the pool.
    bound: HashSet<u64>,
}

/// Bounded in-flight transaction credit pool with deadline-parked
/// waiters. See the crate docs for the admit / bind / release protocol.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    state: Mutex<AdmissionState>,
    freed: Condvar,
    admitted: AtomicU64,
    parked: AtomicU64,
    shed: AtomicU64,
    forced: AtomicU64,
}

impl AdmissionController {
    /// New controller with the given knobs.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            cfg,
            state: Mutex::new(AdmissionState { in_flight: 0, bound: HashSet::new() }),
            freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            forced: AtomicU64::new(0),
        }
    }

    /// Controller that admits everything (capacity `0`).
    pub fn unlimited() -> Self {
        AdmissionController::new(AdmissionConfig { max_in_flight: 0, ..Default::default() })
    }

    fn gated(&self) -> bool {
        self.cfg.max_in_flight > 0
    }

    /// Fallible admission: take a credit, parking up to the configured
    /// deadline for one to free. Returns `false` when the deadline
    /// expires with the pool still full — the caller must shed the
    /// transaction (`GistError::Overloaded`) rather than start it.
    pub fn try_admit(&self) -> bool {
        let mut st = self.state.lock();
        if self.gated() && st.in_flight >= self.cfg.max_in_flight {
            self.parked.fetch_add(1, Ordering::Relaxed);
            let deadline = Instant::now() + self.cfg.admit_timeout;
            while st.in_flight >= self.cfg.max_in_flight {
                if self.freed.wait_until(&mut st, deadline).timed_out() {
                    if st.in_flight < self.cfg.max_in_flight {
                        break; // credit freed in the race with the timeout
                    }
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        st.in_flight += 1;
        self.admitted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Infallible admission for the signature-stable `Db::begin` path:
    /// park like [`try_admit`](Self::try_admit), but on deadline expiry
    /// barge past the cap instead of failing. Forced admissions are
    /// counted and reported as a `Degraded` health reason.
    pub fn force_admit(&self) {
        let mut st = self.state.lock();
        if self.gated() && st.in_flight >= self.cfg.max_in_flight {
            self.parked.fetch_add(1, Ordering::Relaxed);
            let deadline = Instant::now() + self.cfg.admit_timeout;
            while st.in_flight >= self.cfg.max_in_flight {
                if self.freed.wait_until(&mut st, deadline).timed_out() {
                    break;
                }
            }
            if st.in_flight >= self.cfg.max_in_flight {
                self.forced.fetch_add(1, Ordering::Relaxed);
            }
        }
        st.in_flight += 1;
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Bind an already-acquired credit to a transaction token so the
    /// end-of-transaction observer can release it. Must follow a
    /// successful [`try_admit`](Self::try_admit) or
    /// [`force_admit`](Self::force_admit) on the same thread.
    pub fn bind(&self, token: u64) {
        self.state.lock().bound.insert(token);
    }

    /// Drop the credit bound to `token`, waking one parked waiter.
    /// Returns `false` (and does nothing) when the token never held a
    /// credit — transactions begun behind the gate release harmlessly.
    pub fn release(&self, token: u64) -> bool {
        let mut st = self.state.lock();
        if !st.bound.remove(&token) {
            return false;
        }
        st.in_flight = st.in_flight.saturating_sub(1);
        drop(st);
        self.freed.notify_one();
        true
    }

    /// Whether the credit pool is currently exhausted (new arrivals
    /// will park). Always `false` for an unlimited controller.
    pub fn is_saturated(&self) -> bool {
        self.gated() && self.state.lock().in_flight >= self.cfg.max_in_flight
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AdmissionStats {
        let st = self.state.lock();
        AdmissionStats {
            in_flight: st.in_flight as u64,
            capacity: self.cfg.max_in_flight as u64,
            admitted: self.admitted.load(Ordering::Relaxed),
            parked: self.parked.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            forced: self.forced.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Health reporting
// ---------------------------------------------------------------------

/// Aggregate engine condition, escalating `Healthy` → `Degraded` →
/// `ReadOnly`. The verdict reflects *current* subsystem state (is the
/// flusher alive? is the epoch advancing? is admission saturated?), not
/// lifetime counters, so an engine that weathered a past stall reports
/// `Healthy` again once conditions clear.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Every subsystem heartbeat is nominal.
    Healthy,
    /// Still serving reads and writes, but in a degraded regime (inline
    /// flushes, latched-fallback reads, forced admissions, ...).
    Degraded {
        /// One human-readable line per degraded subsystem.
        reasons: Vec<String>,
    },
    /// Mutations are refused (e.g. the buffer pool poisoned itself
    /// after an unrecoverable write-back failure); reads still work.
    ReadOnly {
        /// One human-readable line per read-only trigger.
        reasons: Vec<String>,
    },
}

impl HealthState {
    /// Short label for tables and the shell (`healthy` / `degraded` /
    /// `read-only`).
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded { .. } => "degraded",
            HealthState::ReadOnly { .. } => "read-only",
        }
    }

    /// All reasons carried by the verdict (empty for `Healthy`).
    pub fn reasons(&self) -> &[String] {
        match self {
            HealthState::Healthy => &[],
            HealthState::Degraded { reasons } | HealthState::ReadOnly { reasons } => reasons,
        }
    }
}

/// Builder-style aggregate of subsystem heartbeats: start `Healthy`,
/// let each subsystem [`degrade`](Self::degrade) or
/// [`read_only`](Self::read_only) the verdict, and read the final
/// [`state`](Self::state). Escalation is monotone — a `ReadOnly` reason
/// is never downgraded by a later `Degraded` one.
#[derive(Clone, Debug, Default)]
pub struct HealthReport {
    degraded: Vec<String>,
    read_only: Vec<String>,
}

impl HealthReport {
    /// Report with no findings (verdict `Healthy`).
    pub fn healthy() -> Self {
        HealthReport::default()
    }

    /// Record a degraded-regime finding.
    pub fn degrade(&mut self, reason: impl Into<String>) -> &mut Self {
        self.degraded.push(reason.into());
        self
    }

    /// Record a read-only trigger (dominates any degraded finding).
    pub fn read_only(&mut self, reason: impl Into<String>) -> &mut Self {
        self.read_only.push(reason.into());
        self
    }

    /// Final verdict. `ReadOnly` reasons dominate; `Degraded` carries
    /// every finding (including the read-only ones would be confusing,
    /// so each tier lists only its own).
    pub fn state(&self) -> HealthState {
        if !self.read_only.is_empty() {
            HealthState::ReadOnly { reasons: self.read_only.clone() }
        } else if !self.degraded.is_empty() {
            HealthState::Degraded { reasons: self.degraded.clone() }
        } else {
            HealthState::Healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn small(cap: usize, timeout_ms: u64) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            max_in_flight: cap,
            admit_timeout: Duration::from_millis(timeout_ms),
        })
    }

    #[test]
    fn admits_up_to_capacity_then_sheds() {
        let ac = small(2, 10);
        assert!(ac.try_admit());
        ac.bind(1);
        assert!(ac.try_admit());
        ac.bind(2);
        assert!(!ac.try_admit(), "third admission must shed after the deadline");
        let s = ac.stats();
        assert_eq!((s.in_flight, s.admitted, s.shed), (2, 2, 1));
        assert!(s.parked >= 1);
        assert!(ac.is_saturated());
    }

    #[test]
    fn release_frees_a_parked_waiter() {
        let ac = Arc::new(small(1, 5_000));
        assert!(ac.try_admit());
        ac.bind(7);
        let ac2 = ac.clone();
        let h = std::thread::spawn(move || ac2.try_admit());
        // Give the waiter time to park, then free the credit.
        std::thread::sleep(Duration::from_millis(20));
        assert!(ac.release(7));
        assert!(h.join().unwrap(), "waiter must be admitted once a credit frees");
        assert_eq!(ac.stats().in_flight, 1);
    }

    #[test]
    fn forced_admission_barges_past_the_cap() {
        let ac = small(1, 10);
        assert!(ac.try_admit());
        ac.bind(1);
        ac.force_admit();
        ac.bind(2);
        let s = ac.stats();
        assert_eq!((s.in_flight, s.forced), (2, 1));
        // Both credits release normally.
        assert!(ac.release(1));
        assert!(ac.release(2));
        assert_eq!(ac.stats().in_flight, 0);
    }

    #[test]
    fn unbound_release_is_a_noop() {
        let ac = small(1, 10);
        assert!(!ac.release(99));
        assert!(ac.try_admit());
        ac.bind(1);
        assert!(!ac.release(2), "never-bound token must not free the credit");
        assert_eq!(ac.stats().in_flight, 1);
    }

    #[test]
    fn unlimited_controller_never_parks() {
        let ac = AdmissionController::unlimited();
        for t in 0..64 {
            assert!(ac.try_admit());
            ac.bind(t);
        }
        let s = ac.stats();
        assert_eq!((s.in_flight, s.parked, s.shed, s.forced), (64, 0, 0, 0));
        assert!(!ac.is_saturated());
    }

    #[test]
    fn health_report_escalates_monotonically() {
        let mut r = HealthReport::healthy();
        assert_eq!(r.state(), HealthState::Healthy);
        assert_eq!(r.state().label(), "healthy");
        r.degrade("flusher stalled");
        assert_eq!(r.state().label(), "degraded");
        assert_eq!(r.state().reasons(), ["flusher stalled".to_string()]);
        r.read_only("pool poisoned");
        r.degrade("epoch stalled");
        let s = r.state();
        assert_eq!(s.label(), "read-only");
        assert_eq!(s.reasons(), ["pool poisoned".to_string()]);
    }
}
