//! One fault plan for the whole GiST stack.
//!
//! Every injector in the workspace reads the same schedule: a [`Plan`]
//! addressed by *(site, op index)* — the Nth time execution reaches a
//! named site since the plan was [armed](Plan::arm). The sites are:
//!
//! - the crash points of [`POINTS`], threaded through the insert, delete,
//!   cursor, transaction, log-sync, maintenance and serving paths
//!   as one call, `gist_chaos::point("insert.split.after_sibling_write")?`;
//! - the mutation switches at the end of [`CATALOG`], each
//!   reintroducing one historical concurrency bug behind
//!   `if gist_chaos::armed("...")` so the model checker can prove it
//!   finds the bug;
//! - `store.read`, `store.write` and `store.sync`, the I/O of a
//!   `pagestore::FaultStore`;
//! - `wire.recv` and `wire.send`, the I/O of a `serve::FaultTransport`.
//!
//! A site acts on the [`Action`]s documented for it and counts (and logs)
//! any other as a no-op. Crash points and mutation switches consult the
//! process-wide plan ([`install`]); the I/O wrappers hold the `Arc<Plan>`
//! they were built with. Handing one plan to all three is how one seed
//! replays a scenario that crosses layers — a torn page write, a failed
//! log sync and a client reset in the same run.
//!
//! Operations are counted only while the plan is armed, so set-up I/O
//! never shifts a schedule. Without the `enabled` feature [`point`] and
//! [`armed`] are `#[inline(always)]` constants (`Ok(())` and `false`):
//! release builds compile every crash point and mutation branch away.
//! [`Plan`] itself, and the I/O wrappers built on it, work either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Duration;

/// Every crash point and mutation switch in the source tree, one entry
/// per `gist_chaos::point("...")` / `gist_chaos::armed("...")` call site.
/// The `chaos-point-registry` lint rule cross-checks this list against
/// the code: a call site whose name is missing here, a duplicated name,
/// or a stale entry with no call site all fail the lint.
pub const CATALOG: &[&str] = &[
    "insert.before_descent",
    "insert.before_leaf_add",
    "insert.after_leaf_add",
    "insert.before_predicate_check",
    "insert.split.after_sibling_write",
    "insert.split.before_parent_install",
    "insert.split.after_parent_install",
    "delete.before_mark",
    "delete.after_mark",
    "cursor.after_register",
    "cursor.before_next",
    "commit.after_wal_flush",
    "abort.before_undo",
    "maint.before_gc",
    // Fires on the committer's thread just before its commit record is
    // appended (Error fails the commit; Panic kills the committer,
    // leaving its transaction a loser).
    "commit.pre_append",
    // The log's device sync (`LogManager::sync_to`), one point on each
    // side, on whichever thread syncs: a committer, a page write-back, a
    // checkpoint. Error after the sync leaves the records durable; the
    // pinned-reader drill (`tests/overload.rs`) arms the first with a
    // `Delay` to make every sync crawl.
    "log.sync.before",
    "log.sync.after",
    // Plain delays: an optimistic reader that holds its epoch pin far
    // past a traversal's natural length (the pinned-reader drill), and
    // the step between a committer's commit append and its sync, which
    // `tests/chaos_ops.rs` arms as a lost-ack crash point.
    "cursor.optimistic.pinned",
    "commit.before_durable_wait",
    // Serving layer: kill a session right after accept, between decode
    // and dispatch, or before the reply hits the wire; the drain point
    // fires per force-aborted straggler (cleanup is unconditional — the
    // injection is only counted).
    "serve.session.after_accept",
    "serve.session.before_dispatch",
    "serve.session.before_reply",
    "serve.drain.before_force_abort",
    // Mutation switches, last. Any action arms one. In order: a sync
    // follower that finds the device busy returns as if the leader's
    // sync covered it (`LogManager::sync_to`); §7.2 reclamation without
    // the epoch grace period (`EpochGc::retire` frees at once, so a
    // drained page can be reallocated under a pinned optimistic reader).
    "log.sync-follower-early",
    "epoch.skip-retire",
];

/// The crash points: every [`CATALOG`] entry before the two mutation
/// switches.
pub const POINTS: &[&str] = CATALOG.split_at(CATALOG.len() - 2).0;

/// The I/O sites of the storage and wire wrappers.
pub const IO_SITES: &[&str] =
    &["store.read", "store.write", "store.sync", "wire.recv", "wire.send"];

/// Seeded one-shot faults land at an op index below this.
const SEED_SPAN: u64 = 8;

/// What a site does when its schedule fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Crash point: panic the calling thread (a code bug, a kill
    /// mid-operation).
    Panic,
    /// Crash point: return [`Injected`], which the layer surfaces as its
    /// own error type.
    Error,
    /// Crash point, `wire.*`: sleep this many milliseconds, then carry on.
    Delay(u64),
    /// Crash point: yield the scheduler slice, then carry on.
    Yield,
    /// `store.*`: this operation and the next `n - 1` of its class fail
    /// with `Interrupted`, then the device recovers.
    Transient(u32),
    /// `store.*`: this and every later operation of the class fail.
    Permanent,
    /// `store.write`: only the first `n` bytes of the image land, in
    /// whole sectors (at least one), and the write reports success.
    /// `wire.send`: `n` bytes reach the peer, then the connection resets.
    Torn(usize),
    /// `store.write`: acknowledged, but held in a volatile cache that
    /// `FaultStore::crash_disk` rolls back unless a sync succeeds first.
    Lost,
    /// `store.sync`: fails without draining the volatile cache.
    FailedSync,
    /// `wire.recv`: deliver at most `n` bytes.
    Short(usize),
    /// `wire.*`: fail with `ConnectionReset`.
    Reset,
}

/// When a scheduled action fires, in terms of the site's op index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// At op index `i` (0-based, counted while armed).
    At(u64),
    /// On each of the next `n` occurrences.
    Next(u32),
    /// On every occurrence until [`Plan::clear`].
    Always,
}

/// One entry of a plan's fired log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fired {
    /// The site reached.
    pub site: &'static str,
    /// The site's op index at the time.
    pub index: u64,
    /// The action it performed.
    pub action: Action,
}

/// The error a crash point armed with [`Action::Error`] returns; carries
/// the point name so failures are attributable in test output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injected(pub &'static str);

impl fmt::Display for Injected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chaos injection at crash point {:?}", self.0)
    }
}

impl std::error::Error for Injected {}

#[derive(Default)]
struct State {
    schedule: Vec<(&'static str, Trigger, Action)>,
    ops: HashMap<&'static str, u64>,
    fired: Vec<Fired>,
    /// Set by [`Plan::only_on`]: the one thread the plan acts on.
    only_on: Option<ThreadId>,
}

/// A fault schedule keyed by (site, op index), plus its fired log.
#[derive(Default)]
pub struct Plan {
    armed: AtomicBool,
    state: Mutex<State>,
}

/// An armed panic fires after the guard drops, but its victim dies by
/// design, so recover from poisoning anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// SplitMix64 — the standard 64-bit mixer; deterministic and seedable.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Plan {
    /// An empty, disarmed plan.
    pub fn new() -> Arc<Plan> {
        Arc::default()
    }

    /// A disarmed plan drawn from `seed`. `menu` lists candidate
    /// (site, action) pairs; every distinct site in it gets one of its
    /// listed actions, chosen by the seed — `Delay` and `Yield` on every
    /// occurrence, anything else once, at a seeded op index below 8. The
    /// same seed and menu always give the same plan.
    pub fn from_seed(seed: u64, menu: &[(&'static str, Action)]) -> Arc<Plan> {
        let plan = Plan::new();
        let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
        for (i, &(site, _)) in menu.iter().enumerate() {
            if menu[..i].iter().any(|(s, _)| *s == site) {
                continue;
            }
            let choices: Vec<Action> =
                menu.iter().filter(|(s, _)| *s == site).map(|(_, a)| *a).collect();
            let roll = splitmix64(&mut state);
            let action = choices[(roll % choices.len() as u64) as usize];
            let trigger = match action {
                Action::Delay(_) | Action::Yield => Trigger::Always,
                _ => Trigger::At((roll >> 32) % SEED_SPAN),
            };
            plan.add(site, trigger, action);
        }
        plan
    }

    /// Schedule `action` at `site`. Panics if `site` is neither in
    /// [`CATALOG`] nor in [`IO_SITES`].
    pub fn add(&self, site: &'static str, trigger: Trigger, action: Action) {
        assert!(
            CATALOG.contains(&site) || IO_SITES.contains(&site),
            "chaos: {site:?} is not a cataloged site (see gist_chaos::CATALOG)"
        );
        assert_ne!(trigger, Trigger::Next(0), "chaos: Next(0) never fires");
        lock(&self.state).schedule.push((site, trigger, action));
    }

    /// Act on `thread` only: every other thread passes each site as if no
    /// plan were installed, uncounted. A test whose victim is one thread
    /// scopes the process-wide plan this way, so that other tests in the
    /// same binary neither take its trigger nor shift its op indexes.
    pub fn only_on(&self, thread: ThreadId) {
        lock(&self.state).only_on = Some(thread);
    }

    /// Drop every scheduled action at `site`.
    pub fn clear(&self, site: &str) {
        lock(&self.state).schedule.retain(|(s, ..)| *s != site);
    }

    /// Start counting operations and firing scheduled actions.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stop counting and firing; the schedule and the fired log stay.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Whether the plan is counting and firing.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// One occurrence of `site`: when armed, count it and return the
    /// action that fires there, if any (logged in [`Plan::fired`]).
    pub fn hit(&self, site: &'static str) -> Option<Action> {
        if !self.is_armed() {
            return None;
        }
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        if st.only_on.is_some_and(|t| t != std::thread::current().id()) {
            return None;
        }
        let ops = st.ops.entry(site).or_insert(0);
        let index = *ops;
        *ops += 1;
        let pos = st.schedule.iter().position(|(s, trigger, _)| {
            *s == site && !matches!(trigger, Trigger::At(i) if *i != index)
        })?;
        let (_, trigger, action) = st.schedule[pos];
        match trigger {
            Trigger::Next(1) => {
                st.schedule.remove(pos);
            }
            Trigger::Next(n) => st.schedule[pos].1 = Trigger::Next(n - 1),
            _ => {}
        }
        st.fired.push(Fired { site, index, action });
        Some(action)
    }

    /// A crash point reached under this plan: [`Action::Panic`] panics,
    /// [`Action::Error`] returns [`Injected`], [`Action::Delay`] and
    /// [`Action::Yield`] stall and carry on; anything else is a no-op.
    pub fn point(&self, site: &'static str) -> Result<(), Injected> {
        match self.hit(site) {
            Some(Action::Panic) => panic!("chaos: armed panic at crash point {site:?}"),
            Some(Action::Error) => return Err(Injected(site)),
            Some(Action::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(Action::Yield) => std::thread::yield_now(),
            _ => {}
        }
        Ok(())
    }

    /// The fired log, in firing order.
    pub fn fired(&self) -> Vec<Fired> {
        lock(&self.state).fired.clone()
    }

    /// How many times `site` has fired.
    pub fn fires(&self, site: &str) -> usize {
        lock(&self.state).fired.iter().filter(|f| f.site == site).count()
    }
}

/// One scheduled action per line: `site trigger action`.
impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (site, trigger, action) in &lock(&self.state).schedule {
            writeln!(f, "{site} {trigger:?} {action:?}")?;
        }
        Ok(())
    }
}

/// The process-wide plan consulted by [`point`] and [`armed`].
static INSTALLED: Mutex<Option<Arc<Plan>>> = Mutex::new(None);

/// Fast-path gate: whether [`INSTALLED`] holds a plan. Relaxed loads
/// suffice: the plan itself is read under `INSTALLED`'s mutex, and a
/// point racing `install` may miss it like one reached just before.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Make `plan` the process-wide plan (replacing any other) and return
/// it. It is process-global, so a test can arm a point in one thread and
/// have a worker elsewhere trip it; tests that install plans must
/// serialize against each other.
pub fn install(plan: Arc<Plan>) -> Arc<Plan> {
    *lock(&INSTALLED) = Some(plan.clone());
    ACTIVE.store(true, Ordering::SeqCst);
    plan
}

/// Remove the process-wide plan: every point and switch goes quiet.
pub fn uninstall() {
    ACTIVE.store(false, Ordering::SeqCst);
    *lock(&INSTALLED) = None;
}

#[cfg(feature = "enabled")]
#[inline]
fn installed() -> Option<Arc<Plan>> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    lock(&INSTALLED).clone()
}

/// A crash point: [`Plan::point`] under the process-wide plan, or
/// `Ok(())` with none installed. Call sites pass a [`POINTS`] name.
#[cfg(feature = "enabled")]
#[inline]
pub fn point(site: &'static str) -> Result<(), Injected> {
    installed().map_or(Ok(()), |plan| plan.point(site))
}

/// A crash point; compiled to `Ok(())` without the `enabled` feature.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn point(_site: &'static str) -> Result<(), Injected> {
    Ok(())
}

/// A mutation switch: whether the process-wide plan fires any action at
/// `site` (one of the last [`CATALOG`] entries) on this occurrence.
#[cfg(feature = "enabled")]
#[inline]
pub fn armed(site: &'static str) -> bool {
    installed().is_some_and(|plan| plan.hit(site).is_some())
}

/// A mutation switch; compiled to `false` without the `enabled` feature.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn armed(_site: &'static str) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed_plan() -> Arc<Plan> {
        let plan = Plan::new();
        plan.arm();
        plan
    }

    #[test]
    fn disarmed_points_are_silent() {
        let plan = Plan::new();
        for &site in CATALOG {
            plan.add(site, Trigger::Always, Action::Error);
        }
        for &site in CATALOG {
            assert_eq!(plan.point(site), Ok(()));
        }
        assert!(plan.fired().is_empty());
    }

    #[test]
    fn a_thread_scoped_plan_ignores_other_threads() {
        let plan = armed_plan();
        plan.add("commit.pre_append", Trigger::Next(1), Action::Error);
        plan.only_on(std::thread::current().id());
        let other = plan.clone();
        let elsewhere = std::thread::spawn(move || other.point("commit.pre_append"));
        assert_eq!(elsewhere.join().unwrap(), Ok(()), "another thread took the trigger");
        assert!(plan.fired().is_empty(), "another thread was counted");
        assert_eq!(plan.point("commit.pre_append"), Err(Injected("commit.pre_append")));
        let fired = Fired { site: "commit.pre_append", index: 0, action: Action::Error };
        assert_eq!(plan.fired(), vec![fired]);
    }

    #[test]
    fn counts_only_while_armed() {
        let plan = Plan::new();
        plan.add("store.write", Trigger::At(1), Action::Lost);
        // Set-up traffic before arming shifts nothing.
        for _ in 0..5 {
            assert_eq!(plan.hit("store.write"), None);
        }
        plan.arm();
        assert_eq!(plan.hit("store.write"), None, "index 0");
        plan.disarm();
        assert_eq!(plan.hit("store.write"), None, "disarmed: not counted");
        plan.arm();
        assert_eq!(plan.hit("store.write"), Some(Action::Lost), "index 1");
        let fired = Fired { site: "store.write", index: 1, action: Action::Lost };
        assert_eq!(plan.fired(), vec![fired]);
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &name in CATALOG.iter().chain(IO_SITES) {
            assert!(seen.insert(name), "duplicate site {name:?}");
        }
        let mutations = &CATALOG[POINTS.len()..];
        assert!(POINTS.len() >= 12, "at least 12 crash points");
        assert!(mutations.iter().all(|m| m.contains('-')), "mutations sit last: {mutations:?}");
        assert!(POINTS.iter().all(|p| !p.contains('-')), "crash points sit first: {POINTS:?}");
    }

    #[test]
    fn error_arm_fires_and_counts() {
        let plan = armed_plan();
        plan.add("delete.after_mark", Trigger::At(2), Action::Error);
        assert_eq!(plan.point("delete.after_mark"), Ok(()));
        assert_eq!(plan.point("delete.after_mark"), Ok(()));
        assert_eq!(plan.point("delete.after_mark"), Err(Injected("delete.after_mark")));
        assert_eq!(plan.point("delete.after_mark"), Ok(()), "At fires once");
        assert_eq!(plan.point("delete.before_mark"), Ok(()));
        assert_eq!(plan.fires("delete.after_mark"), 1);
    }

    #[test]
    fn next_trigger_expires() {
        let plan = armed_plan();
        plan.add("commit.after_wal_flush", Trigger::Next(2), Action::Error);
        assert!(plan.point("commit.after_wal_flush").is_err());
        assert!(plan.point("commit.after_wal_flush").is_err());
        assert_eq!(plan.point("commit.after_wal_flush"), Ok(()));
        assert_eq!(plan.fires("commit.after_wal_flush"), 2);
        assert_eq!(plan.to_string(), "", "a spent Next leaves the schedule");
    }

    #[test]
    fn always_fires_until_cleared() {
        let plan = armed_plan();
        plan.add("wire.recv", Trigger::Always, Action::Reset);
        for _ in 0..3 {
            assert_eq!(plan.hit("wire.recv"), Some(Action::Reset));
        }
        plan.clear("wire.recv");
        assert_eq!(plan.hit("wire.recv"), None);
        assert_eq!(plan.fires("wire.recv"), 3);
    }

    #[test]
    fn fired_log_keeps_firing_order() {
        let plan = armed_plan();
        plan.add("store.sync", Trigger::At(0), Action::FailedSync);
        plan.add("wire.send", Trigger::At(1), Action::Torn(3));
        plan.add("store.read", Trigger::Next(1), Action::Transient(2));
        plan.hit("wire.send");
        plan.hit("store.read");
        plan.hit("wire.send");
        plan.hit("store.sync");
        let log: Vec<_> = plan.fired().iter().map(|f| (f.site, f.index)).collect();
        assert_eq!(log, vec![("store.read", 0), ("wire.send", 1), ("store.sync", 0)]);
    }

    #[test]
    fn panic_arm_panics_without_poisoning_registry() {
        let plan = armed_plan();
        plan.add("insert.before_descent", Trigger::Next(1), Action::Panic);
        let p = plan.clone();
        let result = std::panic::catch_unwind(move || p.point("insert.before_descent"));
        assert!(result.is_err());
        // The plan must still be usable after the armed panic.
        assert_eq!(plan.fires("insert.before_descent"), 1);
        assert_eq!(plan.point("insert.before_descent"), Ok(()));
    }

    #[test]
    fn delay_and_yield_continue() {
        let plan = armed_plan();
        plan.add("cursor.before_next", Trigger::Always, Action::Delay(1));
        plan.add("cursor.after_register", Trigger::Always, Action::Yield);
        assert_eq!(plan.point("cursor.before_next"), Ok(()));
        assert_eq!(plan.point("cursor.after_register"), Ok(()));
        assert_eq!(plan.fires("cursor.before_next"), 1);
        assert_eq!(plan.fires("cursor.after_register"), 1);
    }

    #[test]
    #[should_panic(expected = "not a cataloged site")]
    fn arming_unknown_point_panics() {
        Plan::new().add("no.such.point", Trigger::Always, Action::Error);
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_recoverable() {
        let menu: Vec<_> = POINTS
            .iter()
            .flat_map(|&p| [Action::Error, Action::Delay(1), Action::Yield].map(|a| (p, a)))
            .collect();
        let a = Plan::from_seed(1, &menu).to_string();
        assert_eq!(a, Plan::from_seed(1, &menu).to_string(), "same seed, same plan");
        let c = Plan::from_seed(2, &menu).to_string();
        assert_ne!(a, c, "different seeds should differ (true for 1 vs 2)");
        assert_eq!(c.lines().count(), POINTS.len(), "one action per site");
        assert!(!c.contains("Panic"), "the menu never offers a panic");
        assert!(c.lines().all(|l| !l.contains("Error") || l.contains("At(")), "errors fire once");
    }

    // One test per build touches the process-wide plan, so none races.
    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_ignores_installed_plan() {
        let plan = install(armed_plan());
        plan.add("delete.after_mark", Trigger::Always, Action::Error);
        plan.add("epoch.skip-retire", Trigger::Always, Action::Error);
        assert_eq!(point("delete.after_mark"), Ok(()));
        assert!(!armed("epoch.skip-retire"));
        uninstall();
        assert!(plan.fired().is_empty(), "nothing consulted the plan");
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn enabled_build_consults_installed_plan() {
        let plan = install(armed_plan());
        plan.add("delete.after_mark", Trigger::Next(1), Action::Error);
        plan.add("epoch.skip-retire", Trigger::Always, Action::Error);
        assert_eq!(point("delete.after_mark"), Err(Injected("delete.after_mark")));
        assert_eq!(point("delete.after_mark"), Ok(()));
        assert!(armed("epoch.skip-retire"));
        uninstall();
        assert!(!armed("epoch.skip-retire"), "uninstalled: quiet again");
        assert_eq!(plan.fires("epoch.skip-retire"), 1);
    }
}
