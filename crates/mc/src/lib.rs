#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The scheduler's token hand-off parks on std condvars whose wakeups it
// pairs itself: an unbounded wait here is the mechanism, not a hang.
#![allow(clippy::disallowed_methods)]

//! # gist-mc — deterministic concurrency model checker
//!
//! A loom/shuttle-style schedule explorer built on the repo's existing
//! audit instrumentation. The hot-path crates already report every
//! latch, and (through `gist-sync`) every mutex /
//! condvar operation into `gist_audit::mc`; this crate registers a
//! scheduler there, serializes a scenario's tasks onto a single token,
//! and explores interleavings:
//!
//! - **Seeded** — uniform random choice at every scheduling point.
//! - **PCT** — probabilistic concurrency testing (random priorities +
//!   `d − 1` priority-change points) for depth-bounded bug finding.
//! - **Replay** — byte-for-byte re-execution of a recorded trace.
//!
//! Failures (deadlock, step budget, panic, failed post-condition) come
//! back as a [`Report`] carrying the serialized [`Trace`] that
//! reproduces them and a greedily minimized variant. Set
//! `MC_TRACE_DIR` to also dump failing traces as artifact files.

mod sched;
mod trace;

pub use sched::{Failure, Policy};
pub use trace::{Decision, Trace};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use sched::{McSched, PolicyRt, XorShift};

/// Explorations mutate process-global state (the registered scheduler,
/// armed mutations), so only one may run at a time even under a
/// multi-threaded test harness.
static EXPLORE_LOCK: Mutex<()> = Mutex::new(());

type TaskFn = Box<dyn FnOnce() + Send>;
type CheckFn = Box<dyn FnOnce() -> Result<(), String> + Send>;

/// Handle passed to the scenario closure once per iteration; declares
/// the tasks and post-conditions of one schedule.
#[derive(Default)]
pub struct Sim {
    tasks: Vec<(String, TaskFn)>,
    checks: Vec<CheckFn>,
}

impl Sim {
    /// Add a managed task. Spawn order fixes the task index used in
    /// traces, so keep it deterministic.
    pub fn spawn(&mut self, name: &str, f: impl FnOnce() + Send + 'static) {
        self.tasks.push((name.to_string(), Box::new(f)));
    }

    /// Add a post-condition checked by the driver after every task of
    /// the iteration has finished (skipped if the schedule already
    /// failed).
    pub fn check(&mut self, f: impl FnOnce() -> Result<(), String> + Send + 'static) {
        self.checks.push(Box::new(f));
    }
}

/// A failing schedule with everything needed to reproduce it.
#[derive(Debug)]
pub struct FailureReport {
    /// What went wrong.
    pub failure: Failure,
    /// The iteration (0-based) that failed.
    pub iteration: usize,
    /// The full recorded trace of the failing schedule.
    pub trace: Trace,
    /// Greedily minimized trace that still reproduces the failure
    /// class (equal to `trace` when minimization finds nothing).
    pub minimized: Trace,
}

/// Outcome of an exploration.
#[derive(Debug)]
pub struct Report {
    /// Scenario name (artifact file stem).
    pub scenario: String,
    /// Schedules actually executed.
    pub iterations: usize,
    /// Virtual timeouts fired across all executed schedules.
    pub timeouts_fired: usize,
    /// The first failure found, if any.
    pub failure: Option<FailureReport>,
}

impl Report {
    /// Panic with a reproducible description if any schedule failed.
    pub fn assert_no_failure(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "scenario `{}` failed on iteration {}:\n{}\nreplay trace:\n{}",
                self.scenario,
                f.iteration,
                f.failure,
                f.minimized.serialize()
            );
        }
    }
}

/// A configured exploration, ready to [`run`](Explorer::run).
pub struct Explorer {
    name: String,
    policy: Policy,
    iterations: usize,
    max_steps: usize,
}

impl Explorer {
    /// Seeded-random exploration of `iterations` schedules.
    pub fn seeded(name: &str, seed: u64, iterations: usize) -> Explorer {
        Explorer {
            name: name.to_string(),
            policy: Policy::Seeded { seed },
            iterations,
            max_steps: 20_000,
        }
    }

    /// PCT exploration with bug depth `depth` over `iterations`
    /// schedules.
    pub fn pct(name: &str, seed: u64, depth: usize, iterations: usize) -> Explorer {
        Explorer {
            name: name.to_string(),
            policy: Policy::Pct { seed, depth: depth.max(1) },
            iterations,
            max_steps: 20_000,
        }
    }

    /// Replay a single recorded trace.
    pub fn replay(name: &str, trace: Trace) -> Explorer {
        Explorer {
            name: name.to_string(),
            policy: Policy::Replay(trace),
            iterations: 1,
            max_steps: 20_000,
        }
    }

    /// Override the per-schedule step budget (default 20 000).
    pub fn max_steps(mut self, max_steps: usize) -> Explorer {
        self.max_steps = max_steps;
        self
    }

    fn policy_rt(&self, iteration: usize) -> (PolicyRt, String) {
        match &self.policy {
            Policy::Seeded { seed } => (
                PolicyRt::Seeded { rng: XorShift::new(seed.wrapping_add(iteration as u64)) },
                format!("seeded seed={seed} iter={iteration}"),
            ),
            Policy::Pct { seed, depth } => {
                let mut rng = XorShift::new(seed.wrapping_add(iteration as u64) ^ 0x9c7);
                // Distinct random priorities: start from a base, then
                // Fisher–Yates a rank permutation.
                let n = 16; // upper bound; unused slots never picked
                let mut ranks: Vec<u64> = (0..n as u64).collect();
                for i in (1..n).rev() {
                    ranks.swap(i, rng.below(i + 1));
                }
                let prios = ranks.iter().map(|r| 1_000_000 + r).collect();
                let change = (0..depth.saturating_sub(1))
                    .map(|_| rng.below(self.max_steps))
                    .collect();
                (
                    PolicyRt::Pct { prios, change, next_low: 999_999, picks: 0 },
                    format!("pct seed={seed} depth={depth} iter={iteration}"),
                )
            }
            Policy::Replay(trace) => (
                PolicyRt::Replay { decisions: trace.decisions.clone(), pos: 0, diverged: false },
                format!("replay of [{}]", trace.policy),
            ),
        }
    }

    /// Execute the exploration. The scenario closure is invoked once
    /// per schedule to build fresh state and declare tasks; see [`Sim`].
    pub fn run(&self, scenario: impl Fn(&mut Sim)) -> Report {
        let _serial = EXPLORE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let mut report = Report {
            scenario: self.name.clone(),
            iterations: 0,
            timeouts_fired: 0,
            failure: None,
        };

        for iteration in 0..self.iterations {
            let (policy_rt, desc) = self.policy_rt(iteration);
            let outcome = run_iteration(
                &scenario,
                policy_rt,
                self.max_steps,
                &desc,
            );
            report.iterations += 1;
            report.timeouts_fired += outcome.timeouts_fired;

            if let Some(failure) = outcome.failure {
                let trace = outcome.trace;
                let minimized = if matches!(self.policy, Policy::Replay(_)) {
                    trace.clone()
                } else {
                    minimize(&scenario, &trace, &failure, self.max_steps)
                };
                let fr = FailureReport { failure, iteration, trace, minimized };
                dump_artifact(&self.name, &fr);
                report.failure = Some(fr);
                return report;
            }
        }
        report
    }

    /// Replay this explorer's trace against `scenario` (honoring its
    /// step budget) and return the report plus
    /// the re-recorded trace, byte-for-byte identical to the input when
    /// the schedule reproduced without divergence. The policy must be
    /// [`Policy::Replay`].
    pub fn run_verbatim(&self, scenario: impl Fn(&mut Sim)) -> (Report, Trace) {
        let trace = match &self.policy {
            Policy::Replay(t) => t.clone(),
            _ => panic!("run_verbatim requires a replay explorer"),
        };
        let _serial = EXPLORE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let (policy_rt, _) = self.policy_rt(0);
        let outcome = run_iteration(
            &scenario,
            policy_rt,
            self.max_steps,
            &trace.policy,
        );
        let mut replayed = outcome.trace;
        replayed.policy = trace.policy.clone();
        let report = Report {
            scenario: self.name.clone(),
            iterations: 1,
            timeouts_fired: outcome.timeouts_fired,
            failure: outcome.failure.map(|failure| FailureReport {
                failure,
                iteration: 0,
                trace: replayed.clone(),
                minimized: replayed.clone(),
            }),
        };
        (report, replayed)
    }
}

fn run_iteration(
    scenario: &impl Fn(&mut Sim),
    policy_rt: PolicyRt,
    max_steps: usize,
    desc: &str,
) -> sched::IterationOutcome {
    let mut sim = Sim::default();
    scenario(&mut sim);
    let names: Vec<String> = sim.tasks.iter().map(|(n, _)| n.clone()).collect();
    let sched = Arc::new(McSched::new(names, policy_rt, max_steps));

    gist_audit::mc::set_scheduler(Some(sched.clone()));

    let handles: Vec<_> = sim
        .tasks
        .into_iter()
        .enumerate()
        .map(|(i, (name, f))| {
            let sched = sched.clone();
            std::thread::Builder::new()
                .name(format!("mc-{name}"))
                .spawn(move || {
                    sched::set_task(Some((i, sched.clone())));
                    sched.wait_initial(i);
                    let result = catch_unwind(AssertUnwindSafe(f));
                    let panic_msg = result.err().map(|p| sched::panic_message(p.as_ref()));
                    sched.finish_task(i, panic_msg);
                    sched::set_task(None);
                })
                .unwrap_or_else(|e| {
                    // Cannot degrade gracefully: the scheduler has already
                    // registered `n` tasks and would deadlock waiting on a
                    // thread that never starts.
                    panic!("spawn mc task thread: {e}")
                })
        })
        .collect();

    sched.kickoff();
    for h in handles {
        // Task panics are caught by the wrapper; join cannot fail.
        let _ = h.join();
    }
    gist_audit::mc::set_scheduler(None);

    let mut outcome = sched.take_outcome(desc);
    if outcome.failure.is_none() {
        for check in sim.checks {
            if let Err(message) = check() {
                outcome.failure = Some(Failure::PostCondition { message });
                break;
            }
        }
    }
    outcome
}

/// Greedy delta-debugging over the decision sequence: repeatedly try
/// dropping one decision (replay handles the divergence) and keep any
/// shorter schedule that still fails with the same failure class.
fn minimize(
    scenario: &impl Fn(&mut Sim),
    trace: &Trace,
    failure: &Failure,
    max_steps: usize,
) -> Trace {
    let target = std::mem::discriminant(failure);
    let mut best = trace.clone();
    let mut budget = 128usize;
    let mut progress = true;
    while progress && budget > 0 {
        progress = false;
        let mut i = 0;
        while i < best.decisions.len() && budget > 0 {
            budget -= 1;
            let mut candidate = best.clone();
            candidate.decisions.remove(i);
            let outcome = run_iteration(
                scenario,
                PolicyRt::Replay { decisions: candidate.decisions.clone(), pos: 0, diverged: false },
                max_steps,
                &best.policy,
            );
            match outcome.failure {
                Some(f) if std::mem::discriminant(&f) == target => {
                    // Keep what the replay actually recorded (it may be
                    // shorter than the candidate if the failure moved
                    // earlier).
                    best.decisions = outcome.trace.decisions;
                    best.events_hash = outcome.trace.events_hash;
                    progress = true;
                }
                _ => i += 1,
            }
        }
    }
    best
}

/// If `MC_TRACE_DIR` is set, dump the minimized trace and a failure
/// description next to it.
fn dump_artifact(name: &str, fr: &FailureReport) {
    let dir = match std::env::var("MC_TRACE_DIR") {
        Ok(d) if !d.is_empty() => std::path::PathBuf::from(d),
        _ => return,
    };
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let _ = std::fs::write(dir.join(format!("{name}.trace")), fr.minimized.serialize());
    let _ = std::fs::write(
        dir.join(format!("{name}.failure.txt")),
        format!(
            "scenario: {name}\niteration: {}\nfailure: {}\nfull trace:\n{}",
            fr.iteration,
            fr.failure,
            fr.trace.serialize()
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_audit::mc::{McObj, McOp, McScheduler, ObjKind};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// The calling task's scheduler. `gist_audit::mc::scheduler` is
    /// `None` unless gist-audit is built with its `enabled` feature.
    fn scheduler() -> Option<Arc<McSched>> {
        sched::TASK.with(|t| t.borrow().as_ref().map(|(_, s)| s.clone()))
    }

    /// `gist_audit::mc::region` against the calling task's scheduler.
    fn region(what: &'static str) {
        if let Some(s) = scheduler() {
            s.yield_point(McOp::Region, McObj::new(ObjKind::Region, 0), what);
        }
    }

    /// Two tasks each read a shared counter, yield, and write back the
    /// value plus one: a schedule that runs both reads before either
    /// write loses an increment, and the post-condition catches it.
    fn lost_update(sim: &mut Sim) {
        let counter = Arc::new(AtomicU64::new(0));
        for name in ["a", "b"] {
            let counter = counter.clone();
            sim.spawn(name, move || {
                let seen = counter.load(Ordering::SeqCst);
                region("between-read-and-write");
                counter.store(seen + 1, Ordering::SeqCst);
            });
        }
        sim.check(move || match counter.load(Ordering::SeqCst) {
            2 => Ok(()),
            n => Err(format!("lost increment: counter is {n}")),
        });
    }

    /// Same seed → same schedules: two full explorations of the racy
    /// scenario find the identical failing trace (decisions + events
    /// hash), even though raw object ids differ between runs.
    #[test]
    fn seeded_exploration_is_deterministic() {
        let run = || {
            let report = Explorer::seeded("det", 7, 16).run(lost_update);
            let failure = report.failure.expect("some schedule loses an increment");
            assert!(matches!(failure.failure, Failure::PostCondition { .. }), "{}", failure.failure);
            (failure.iteration, failure.trace.serialize(), failure.minimized.serialize())
        };
        assert_eq!(run(), run());
    }

    /// A task that parks untimed with no one to wake it is a deadlock,
    /// and the failure is found and minimized.
    #[test]
    fn untimed_orphan_park_is_deadlock() {
        let report = Explorer::seeded("orphan-park", 1, 3).run(|sim| {
            sim.spawn("sleeper", || {
                if let Some(s) = scheduler() {
                    s.park(McObj::new(ObjKind::Region, 77), None);
                }
            });
            sim.spawn("bystander", || {
                region("noop");
            });
        });
        let failure = report.failure.expect("orphan park must deadlock");
        assert!(matches!(failure.failure, Failure::Deadlock { .. }), "{}", failure.failure);
        // The minimized trace still replays to the same deadlock.
        let replay = Explorer::replay("orphan-park-replay", failure.minimized.clone());
        let (replay, _) = replay.run_verbatim(|sim| {
            sim.spawn("sleeper", || {
                if let Some(s) = scheduler() {
                    s.park(McObj::new(ObjKind::Region, 77), None);
                }
            });
            sim.spawn("bystander", || {
                region("noop");
            });
        });
        let refailure = replay.failure.expect("replay reproduces");
        assert!(matches!(refailure.failure, Failure::Deadlock { .. }));
    }

    /// A timed park with no waker fires as a *virtual* timeout — no
    /// real time passes and the schedule completes.
    #[test]
    fn timed_park_fires_virtually() {
        let started = std::time::Instant::now();
        let report = Explorer::seeded("virtual-timeout", 1, 2).run(|sim| {
            sim.spawn("sleeper", || {
                if let Some(s) = scheduler() {
                    let notified =
                        s.park(McObj::new(ObjKind::Region, 5), Some(std::time::Duration::from_secs(3600)));
                    assert!(!notified, "nobody notifies; must be a timeout");
                }
            });
        });
        report.assert_no_failure();
        assert_eq!(report.timeouts_fired, 2, "one virtual timeout per iteration");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(60),
            "an hour-long park must not take real time"
        );
    }

    /// Replay of a failing trace reproduces the identical serialized
    /// trace (decisions and events hash).
    #[test]
    fn replay_is_byte_for_byte() {
        let report = Explorer::seeded("replay-bfb", 11, 16).run(lost_update);
        let failure = report.failure.expect("some schedule loses an increment");
        let (replayed_report, replayed_trace) =
            Explorer::replay("replay-bfb", failure.minimized.clone()).run_verbatim(lost_update);
        assert!(replayed_report.failure.is_some(), "replay reproduces the failure");
        assert_eq!(
            replayed_trace.serialize(),
            failure.minimized.serialize(),
            "replay must be byte-for-byte identical"
        );
    }
}
