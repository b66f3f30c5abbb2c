//! The deterministic scheduler: token-serialized real threads under a
//! virtual clock.
//!
//! Managed tasks are ordinary OS threads, but exactly one holds the
//! *token* at a time; every instrumentation hook is a cooperative yield
//! point where the yielding task picks the next token holder according
//! to the active policy and then blocks until re-chosen. All blocking
//! is virtualized by the `gist-sync` wrappers (mutexes spin on
//! `try_lock` with virtual parking, condvars park with virtual
//! timeouts), so no managed task ever blocks the OS thread outside the
//! token handshake — schedules are fully deterministic and replayable.
//!
//! Virtual time only advances when *nothing* is runnable: the earliest
//! parked deadline fires (recorded as a [`Decision::Timeout`]). An
//! untimed park with nothing runnable and no deadline is a deadlock.
//!
//! On failure the scheduler sets an abort flag: yields become no-ops
//! and parks return immediately, so every task free-runs to completion
//! on the real primitives (still correct, no longer deterministic) and
//! the driver can always join.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use gist_audit::mc::{McObj, McOp, McScheduler};

use crate::trace::{Decision, EventHasher, Trace};

const NO_TASK: usize = usize::MAX;

thread_local! {
    /// The managed task on this thread: its index and the scheduler
    /// running it (the unit tests yield through it directly).
    pub(crate) static TASK: RefCell<Option<(usize, Arc<McSched>)>> = const { RefCell::new(None) };
}

pub(crate) fn set_task(task: Option<(usize, Arc<McSched>)>) {
    TASK.with(|t| *t.borrow_mut() = task);
}

fn current_task() -> Option<usize> {
    TASK.with(|t| t.borrow().as_ref().map(|&(me, _)| me))
}

/// Simple xorshift64* PRNG (deterministic, seedable, no deps).
#[derive(Debug, Clone)]
pub(crate) struct XorShift(u64);

impl XorShift {
    pub(crate) fn new(seed: u64) -> XorShift {
        // splitmix64 to spread weak seeds.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform pick in `[0, n)`.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Why a schedule failed.
#[derive(Debug)]
pub enum Failure {
    /// No task runnable, none parked with a deadline.
    Deadlock {
        /// Names of the stuck tasks and what they were parked on.
        parked: Vec<String>,
    },
    /// The schedule exceeded the per-iteration step budget.
    StepBudget {
        /// The budget that was exhausted.
        steps: usize,
    },
    /// A task panicked (includes audit-discipline panics).
    Panic {
        /// The panicking task's name.
        task: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A post-condition check failed after all tasks joined.
    PostCondition {
        /// The check's message.
        message: String,
    },
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Deadlock { parked } => {
                write!(f, "deadlock: all tasks parked [{}]", parked.join(", "))
            }
            Failure::StepBudget { steps } => {
                write!(f, "step budget exceeded ({steps} steps)")
            }
            Failure::Panic { task, message } => {
                write!(f, "task `{task}` panicked: {message}")
            }
            Failure::PostCondition { message } => {
                write!(f, "post-condition failed: {message}")
            }
        }
    }
}

/// Scheduling policy for one exploration.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Uniform random pick at each point, from a per-iteration seed.
    Seeded {
        /// Base seed (mixed with the iteration number).
        seed: u64,
    },
    /// Probabilistic concurrency testing: random distinct priorities
    /// plus `depth - 1` random priority-change points; always run the
    /// highest-priority runnable task.
    Pct {
        /// Base seed (mixed with the iteration number).
        seed: u64,
        /// Bug depth `d` (number of ordering constraints targeted).
        depth: usize,
    },
    /// Follow a recorded trace decision-for-decision.
    Replay(
        /// The trace to follow.
        Trace,
    ),
}

/// Per-iteration runtime state of the policy.
pub(crate) enum PolicyRt {
    Seeded {
        rng: XorShift,
    },
    Pct {
        prios: Vec<u64>,
        change: Vec<usize>,
        next_low: u64,
        picks: usize,
    },
    Replay {
        decisions: Vec<Decision>,
        pos: usize,
        diverged: bool,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    Ready,
    Parked {
        obj: McObj,
        deadline: Option<u64>,
        seq: u64,
    },
    Finished,
}

struct TaskState {
    name: String,
    status: Status,
    /// Set when the task is woken from a park: true = notified,
    /// false = virtual timeout fired.
    wake: Option<bool>,
}

pub(crate) struct SchedState {
    started: bool,
    current: usize,
    tasks: Vec<TaskState>,
    steps: usize,
    max_steps: usize,
    decisions: Vec<Decision>,
    policy: PolicyRt,
    /// Virtual clock, nanoseconds. Advances only when nothing runs.
    vtime: u64,
    park_seq: u64,
    hasher: EventHasher,
    obj_norm: HashMap<McObj, u64>,
    failure: Option<Failure>,
    abort: bool,
    timeouts_fired: usize,
}

/// Everything the driver extracts after an iteration.
pub(crate) struct IterationOutcome {
    pub(crate) failure: Option<Failure>,
    pub(crate) trace: Trace,
    pub(crate) timeouts_fired: usize,
}

/// The scheduler object registered with `gist_audit::mc` for the
/// duration of one iteration.
pub(crate) struct McSched {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl McSched {
    pub(crate) fn new(task_names: Vec<String>, policy: PolicyRt, max_steps: usize) -> McSched {
        let tasks = task_names
            .into_iter()
            .map(|name| TaskState { name, status: Status::Ready, wake: None })
            .collect();
        McSched {
            state: Mutex::new(SchedState {
                started: false,
                current: NO_TASK,
                tasks,
                steps: 0,
                max_steps,
                decisions: Vec::new(),
                policy,
                vtime: 0,
                park_seq: 0,
                hasher: EventHasher::new(),
                obj_norm: HashMap::new(),
                failure: None,
                abort: false,
                timeouts_fired: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn fail(&self, st: &mut SchedState, failure: Failure) {
        if st.failure.is_none() {
            st.failure = Some(failure);
        }
        st.abort = true;
        st.current = NO_TASK;
        self.cv.notify_all();
    }

    fn norm_id(st: &mut SchedState, obj: McObj) -> u64 {
        let next = st.obj_norm.len() as u64;
        *st.obj_norm.entry(obj).or_insert(next)
    }

    /// Pick the next token holder (or fire a timeout, or detect the end
    /// of the iteration / a deadlock). Called with the state locked by
    /// whichever task is giving up the token.
    fn pick_next(&self, st: &mut SchedState) {
        if st.abort {
            return;
        }
        let runnable: Vec<usize> = st
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Ready)
            .map(|(i, _)| i)
            .collect();

        if runnable.is_empty() {
            if st.tasks.iter().all(|t| t.status == Status::Finished) {
                st.current = NO_TASK;
                self.cv.notify_all();
                return;
            }
            // Fire the earliest virtual deadline, ties to lowest id.
            let victim = st
                .tasks
                .iter()
                .enumerate()
                .filter_map(|(i, t)| match t.status {
                    Status::Parked { deadline: Some(d), .. } => Some((d, i)),
                    _ => None,
                })
                .min();
            match victim {
                Some((deadline, t)) => {
                    // Keep replay positions aligned: a forced timeout
                    // consumes one recorded decision too.
                    if let PolicyRt::Replay { decisions, pos, diverged } = &mut st.policy {
                        if let Some(d) = decisions.get(*pos) {
                            *pos += 1;
                            if *d != Decision::Timeout(t) {
                                *diverged = true;
                            }
                        }
                    }
                    st.vtime = deadline;
                    st.tasks[t].status = Status::Ready;
                    st.tasks[t].wake = Some(false);
                    st.timeouts_fired += 1;
                    st.decisions.push(Decision::Timeout(t));
                    st.hasher.update(b"T");
                    st.hasher.update_u64(t as u64);
                    st.current = t;
                    self.cv.notify_all();
                }
                None => {
                    let parked = st
                        .tasks
                        .iter()
                        .filter_map(|t| match &t.status {
                            Status::Parked { obj, .. } => {
                                Some(format!("{} on {:?}#{}", t.name, obj.kind, obj.id))
                            }
                            _ => None,
                        })
                        .collect();
                    self.fail(st, Failure::Deadlock { parked });
                }
            }
            return;
        }

        let pick = match &mut st.policy {
            PolicyRt::Seeded { rng } => runnable[rng.below(runnable.len())],
            PolicyRt::Pct { prios, change, next_low, picks } => {
                if change.contains(picks) {
                    // Demote the currently highest-priority runnable
                    // task below everything seen so far.
                    if let Some(&hi) =
                        runnable.iter().max_by_key(|&&i| prios.get(i).copied().unwrap_or(0))
                    {
                        prios[hi] = *next_low;
                        *next_low = next_low.saturating_sub(1);
                    }
                }
                *picks += 1;
                match runnable.iter().max_by_key(|&&i| prios.get(i).copied().unwrap_or(0)) {
                    Some(&pick) => pick,
                    // pick_next only reaches the policy with a nonempty
                    // runnable set (the empty case returned above).
                    None => unreachable!("policy consulted with no runnable task"),
                }
            }
            PolicyRt::Replay { decisions, pos, diverged } => {
                let recorded = decisions.get(*pos).copied();
                *pos += 1;
                match recorded {
                    Some(Decision::Run(t)) if runnable.contains(&t) => t,
                    None => runnable[0],
                    Some(_) => {
                        *diverged = true;
                        runnable[0]
                    }
                }
            }
        };

        st.decisions.push(Decision::Run(pick));
        st.hasher.update(b"R");
        st.hasher.update_u64(pick as u64);
        st.current = pick;
        self.cv.notify_all();
    }

    /// Block the calling task until it holds the token again (or the
    /// iteration aborted).
    fn wait_for_token<'a>(
        &'a self,
        mut st: MutexGuard<'a, SchedState>,
        me: usize,
    ) -> MutexGuard<'a, SchedState> {
        while !st.abort && st.current != me {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        st
    }

    /// Driver: mark the iteration started and pick the first task.
    pub(crate) fn kickoff(&self) {
        let mut st = self.lock();
        st.started = true;
        self.pick_next(&mut st);
    }

    /// Task wrapper: wait for the first time this task is scheduled.
    pub(crate) fn wait_initial(&self, me: usize) {
        let st = self.lock();
        let mut st = st;
        while !(st.abort || (st.started && st.current == me)) {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Task wrapper: the task's closure returned (or unwound).
    pub(crate) fn finish_task(&self, me: usize, panic_msg: Option<String>) {
        let mut st = self.lock();
        st.tasks[me].status = Status::Finished;
        if let Some(message) = panic_msg {
            let task = st.tasks[me].name.clone();
            self.fail(&mut st, Failure::Panic { task, message });
            return;
        }
        if st.current == me {
            st.current = NO_TASK;
            self.pick_next(&mut st);
        }
        self.cv.notify_all();
    }

    /// Driver: extract the outcome after every task has joined.
    pub(crate) fn take_outcome(&self, policy_desc: &str) -> IterationOutcome {
        let mut st = self.lock();
        IterationOutcome {
            failure: st.failure.take(),
            trace: Trace {
                policy: policy_desc.to_string(),
                decisions: std::mem::take(&mut st.decisions),
                events_hash: st.hasher.finish(),
            },
            timeouts_fired: st.timeouts_fired,
        }
    }
}

impl McScheduler for McSched {
    fn managed(&self) -> bool {
        current_task().is_some()
    }

    fn yield_point(&self, op: McOp, obj: McObj, what: &'static str) {
        let me = match current_task() {
            Some(m) => m,
            None => return,
        };
        let mut st = self.lock();
        if st.abort {
            return;
        }
        debug_assert_eq!(st.current, me, "yield from task without the token");
        st.steps += 1;
        let norm = Self::norm_id(&mut st, obj);
        st.hasher.update_u64(op as u64);
        st.hasher.update_u64(obj.kind as u64);
        st.hasher.update_u64(norm);
        st.hasher.update(what.as_bytes());
        if st.steps > st.max_steps {
            let steps = st.max_steps;
            self.fail(&mut st, Failure::StepBudget { steps });
            return;
        }
        self.pick_next(&mut st);
        let _st = self.wait_for_token(st, me);
    }

    fn park(&self, obj: McObj, timeout: Option<Duration>) -> bool {
        let me = match current_task() {
            Some(m) => m,
            None => return false,
        };
        let mut st = self.lock();
        if st.abort {
            return false;
        }
        let seq = st.park_seq;
        st.park_seq += 1;
        let deadline =
            timeout.map(|d| st.vtime.saturating_add(d.as_nanos().min(u64::MAX as u128) as u64));
        st.tasks[me].status = Status::Parked { obj, deadline, seq };
        st.current = NO_TASK;
        self.pick_next(&mut st);
        loop {
            if st.abort {
                return st.tasks[me].wake.take().unwrap_or(false);
            }
            if st.current == me && st.tasks[me].status == Status::Ready {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        st.tasks[me].wake.take().unwrap_or(false)
    }

    fn unpark(&self, obj: McObj, all: bool) {
        let mut st = self.lock();
        if st.abort {
            return;
        }
        let mut waiters: Vec<(u64, usize)> = st
            .tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t.status {
                Status::Parked { obj: o, seq, .. } if o == obj => Some((seq, i)),
                _ => None,
            })
            .collect();
        waiters.sort_unstable();
        if !all {
            waiters.truncate(1);
        }
        for (_, i) in waiters {
            st.tasks[i].status = Status::Ready;
            st.tasks[i].wake = Some(true);
        }
    }
}

/// Extract a printable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
