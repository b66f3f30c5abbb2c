#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # gist-audit — dynamic latch/lock discipline analyzer
//!
//! The paper's concurrency argument (§5) rests on disciplines the code
//! itself nowhere enforces:
//!
//! 1. **Latch count** — an operation holds at most *one* latch at a time;
//!    two (or, inside a split's atomic unit, a short bottom-up chain) are
//!    legal only in blessed parent/child windows, which the instrumented
//!    code marks with [`enter_scope`] / [`enter_scope_rel`].
//! 2. **No latch across I/O** — a thread must not hold a latch on one
//!    page while a *different* page is read from or written to the store
//!    (the `LoadPending` window included). The blessed parent/child
//!    scopes may opt out (the split path may fault the parent in, a
//!    bounded exception the paper's ARIES/IM heritage shares).
//! 3. **No latch while blocking on a record lock** — the insert/scan
//!    coupling steps acquire record (RID) locks *before* latches are
//!    released only when the acquisition cannot block; a blocking wait
//!    must happen latch-free (§5: re-push the node, drop the latch,
//!    wait, re-visit).
//! 4. **NSN sanity** — node sequence numbers drawn from a tree-global
//!    counter are never reissued (a duplicate means the counter
//!    regressed, which would break split detection).
//! 5. **Latch-order acyclicity** — blocking latch acquisitions made
//!    while other latches are held contribute edges to a cross-thread
//!    acquisition-order graph; a cycle is a potential deadlock.
//!    Try-acquisitions (node deletion's deliberate parent→child probe)
//!    are excluded, exactly because they cannot deadlock.
//!
//! The analyzer keeps a **thread-local shadow state** (held latches,
//! active allowance scopes) plus small global registries (order graph,
//! NSN sets, counters). Instrumented crates call the hooks through
//! no-op shims unless built with their `latch-audit` feature, so release
//! hot paths are untouched.
//!
//! A violation **panics by default** (tests fail loudly, with the
//! acquisition backtrace). Deliberate-fault harnesses wrap the faulty
//! code in [`capture`], which collects [`Violation`]s on the calling
//! thread instead of panicking.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard};

pub mod mc;

/// One reported discipline violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired (e.g. `"latch-count"`, `"latch-across-io"`).
    pub rule: &'static str,
    /// Human-readable description with the offending state.
    pub message: String,
    /// Backtrace captured where the violation was detected.
    pub backtrace: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.message)
    }
}

#[derive(Debug, Clone, Copy)]
struct HeldLatch {
    pool: u64,
    page: u64,
    exclusive: bool,
}

#[derive(Debug, Clone, Copy)]
struct Scope {
    name: &'static str,
    allowance: usize,
    io_ok: bool,
    lock_wait_ok: bool,
}

#[derive(Default)]
struct ThreadState {
    held: Vec<HeldLatch>,
    scopes: Vec<Scope>,
    /// Open optimistic read sections: `(pool, page)` per live
    /// `OptimisticReadGuard` on this thread.
    optimistic: Vec<(u64, u64)>,
    /// Live epoch-reclamation pins (nested guards counted individually).
    epoch_pins: usize,
    capture: Option<Vec<Violation>>,
}

thread_local! {
    static TS: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

/// Global counters, exposed through [`summary`].
#[derive(Debug, Default)]
struct Stats {
    latch_acquires: AtomicU64,
    max_held: AtomicU64,
    io_events: AtomicU64,
    lock_waits: AtomicU64,
    nsn_draws: AtomicU64,
    optimistic_enters: AtomicU64,
    epoch_pins: AtomicU64,
    violations: AtomicU64,
}

static STATS: Stats = Stats {
    latch_acquires: AtomicU64::new(0),
    max_held: AtomicU64::new(0),
    io_events: AtomicU64::new(0),
    lock_waits: AtomicU64::new(0),
    nsn_draws: AtomicU64::new(0),
    optimistic_enters: AtomicU64::new(0),
    epoch_pins: AtomicU64::new(0),
    violations: AtomicU64::new(0),
};

static IDS: AtomicU64 = AtomicU64::new(0);

/// Latch-acquisition order graph: `(pool, page) → set of (pool, page)`
/// acquired (blocking) while the key was held.
type OrderGraph = HashMap<(u64, u64), HashSet<(u64, u64)>>;

static ORDER: LazyLock<Mutex<OrderGraph>> = LazyLock::new(|| Mutex::new(HashMap::new()));

/// NSN values drawn per counter instance (uniqueness check).
static NSN_SEEN: LazyLock<Mutex<HashMap<u64, HashSet<u64>>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The audit layer must not hide evidence behind poisoning: a panic
    // in one thread (often an audit violation itself) must not cascade
    // into unrelated lock failures.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocate a fresh instance id for a buffer pool or NSN counter, so
/// events from independent databases (e.g. parallel tests in one
/// process) never alias in the global registries.
pub fn new_instance_id() -> u64 {
    IDS.fetch_add(1, Ordering::Relaxed) + 1
}

fn effective(scopes: &[Scope]) -> Scope {
    let mut eff =
        Scope { name: "(default)", allowance: 1, io_ok: false, lock_wait_ok: false };
    for s in scopes {
        if s.allowance > eff.allowance {
            eff.allowance = s.allowance;
            eff.name = s.name;
        }
        eff.io_ok |= s.io_ok;
        eff.lock_wait_ok |= s.lock_wait_ok;
    }
    eff
}

fn report(ts: &mut ThreadState, rule: &'static str, message: String) {
    STATS.violations.fetch_add(1, Ordering::Relaxed);
    let backtrace = std::backtrace::Backtrace::force_capture().to_string();
    match &mut ts.capture {
        Some(sink) => sink.push(Violation { rule, message, backtrace }),
        None => panic!("gist-audit[{rule}]: {message}\nacquisition backtrace:\n{backtrace}"),
    }
}

fn held_desc(held: &[HeldLatch]) -> String {
    let items: Vec<String> = held
        .iter()
        .map(|h| {
            format!("{}:{}{}", h.pool, h.page, if h.exclusive { "(X)" } else { "(S)" })
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// Record a latch acquisition on `(pool, page)`.
///
/// `blocking` marks acquisitions that may wait for another holder
/// (plain `fetch_read`/`fetch_write`); try-acquisitions and fresh-frame
/// latches pass `false` and contribute no order-graph edges.
pub fn latch_acquired(pool: u64, page: u64, exclusive: bool, blocking: bool) {
    mc::on_latch_acquired(pool, page);
    STATS.latch_acquires.fetch_add(1, Ordering::Relaxed);
    TS.with(|cell| {
        let mut ts = cell.borrow_mut();
        if !ts.optimistic.is_empty() {
            let msg = format!(
                "latch acquisition of {pool}:{page} inside an optimistic read \
                 section (open sections: {:?}) — the fast path must stay \
                 latch-free; exit the section (fall back) before latching",
                ts.optimistic,
            );
            report(&mut ts, "latch-in-optimistic", msg);
        }
        if blocking && !ts.held.is_empty() {
            let held: Vec<(u64, u64)> = ts.held.iter().map(|h| (h.pool, h.page)).collect();
            if let Some(cycle) = add_order_edges(&held, (pool, page)) {
                let msg = format!(
                    "blocking acquisition of {pool}:{page} closes a latch-order cycle \
                     (potential deadlock): {}",
                    cycle
                        .iter()
                        .map(|(pl, pg)| format!("{pl}:{pg}"))
                        .collect::<Vec<_>>()
                        .join(" -> "),
                );
                report(&mut ts, "latch-order-cycle", msg);
            }
        }
        ts.held.push(HeldLatch { pool, page, exclusive });
        let n = ts.held.len();
        STATS.max_held.fetch_max(n as u64, Ordering::Relaxed);
        let eff = effective(&ts.scopes);
        if n > eff.allowance {
            let msg = format!(
                "thread holds {n} latches after acquiring {pool}:{page} \
                 ({} allowed by scope {:?}); held: {}",
                eff.allowance,
                eff.name,
                held_desc(&ts.held),
            );
            report(&mut ts, "latch-count", msg);
        }
    });
}

/// Whether the calling thread is managed by a registered model-check
/// scheduler. Blocking frame-latch acquisitions consult this: a managed
/// task must not block inside the raw rwlock (the scheduler cannot see
/// the block and the exploration would freeze) and virtualizes the wait
/// through [`latch_contended`] instead. One relaxed load when no
/// scheduler is registered.
pub fn latch_managed() -> bool {
    mc::latch_managed()
}

/// A managed task's `try_` frame-latch acquisition failed inside its
/// virtualized blocking loop: park virtually until the holder releases
/// (or a short virtual timeout retries). No-op outside model checking.
pub fn latch_contended(pool: u64, page: u64) {
    mc::on_latch_contended(pool, page);
}

/// Record a latch release on `(pool, page)`. Only the buffer pool's
/// RAII guards call this, so the latch is always held.
pub fn latch_released(pool: u64, page: u64) {
    mc::on_latch_released(pool, page);
    TS.with(|cell| {
        let mut ts = cell.borrow_mut();
        if let Some(i) = ts.held.iter().rposition(|h| h.pool == pool && h.page == page) {
            ts.held.remove(i);
        }
    });
}

/// Record an X→S downgrade of a held latch (the latch stays held).
pub fn latch_downgraded(pool: u64, page: u64) {
    // Shared waiters may now proceed, exactly as after a release.
    mc::on_latch_released(pool, page);
    TS.with(|cell| {
        let mut ts = cell.borrow_mut();
        if let Some(i) = ts.held.iter().rposition(|h| h.pool == pool && h.page == page) {
            ts.held[i].exclusive = false;
        }
    });
}

/// A page was freshly formatted (allocation or reuse): drop its
/// order-graph node, because acquisition orders observed against the
/// page's previous life are meaningless for its new one.
pub fn latch_page_fresh(pool: u64, page: u64) {
    let key = (pool, page);
    let mut order = lock(&ORDER);
    order.remove(&key);
    for targets in order.values_mut() {
        targets.remove(&key);
    }
}

/// Record store I/O (or a `LoadPending`-style blocking load) on
/// `(pool, page)`. Any *other* latch held by the thread violates the
/// no-latch-across-I/O discipline, unless an active scope allows it.
pub fn io_event(pool: u64, page: u64, what: &'static str) {
    mc::on_io_event(pool, page, what);
    STATS.io_events.fetch_add(1, Ordering::Relaxed);
    TS.with(|cell| {
        let mut ts = cell.borrow_mut();
        let foreign: Vec<HeldLatch> = ts
            .held
            .iter()
            .filter(|h| !(h.pool == pool && h.page == page))
            .copied()
            .collect();
        if foreign.is_empty() {
            return;
        }
        let eff = effective(&ts.scopes);
        if !eff.io_ok {
            let msg = format!(
                "store I/O ({what}) on {pool}:{page} while holding latches {} \
                 outside an I/O-permitting scope",
                held_desc(&foreign),
            );
            report(&mut ts, "latch-across-io", msg);
        }
    });
}

/// Record that a lock-manager request is about to block. `is_record`
/// marks record (RID) locks — the §5 coupling discipline says those
/// waits must be latch-free; other lock classes (signaling locks on
/// nodes, transaction waits) have their own protocols.
pub fn lock_wait(is_record: bool, desc: &str) {
    STATS.lock_waits.fetch_add(1, Ordering::Relaxed);
    if !is_record {
        return;
    }
    TS.with(|cell| {
        let mut ts = cell.borrow_mut();
        if ts.held.is_empty() {
            return;
        }
        let eff = effective(&ts.scopes);
        if !eff.lock_wait_ok {
            let msg = format!(
                "blocking record-lock wait ({desc}) while holding latches {}",
                held_desc(&ts.held),
            );
            report(&mut ts, "latch-during-lock-wait", msg);
        }
    });
}

/// Record the opening of an optimistic read section on `(pool, page)`
/// (an `OptimisticReadGuard` was created). Until the matching
/// [`optimistic_exit`], the thread must not acquire any latch
/// (`latch-in-optimistic`), and the section must be covered by a live
/// epoch pin (`optimistic-unpinned`): an unpinned optimistic reader
/// races page reclamation.
pub fn optimistic_enter(pool: u64, page: u64) {
    mc::on_optimistic(pool, page, "optimistic-enter");
    STATS.optimistic_enters.fetch_add(1, Ordering::Relaxed);
    TS.with(|cell| {
        let mut ts = cell.borrow_mut();
        if ts.epoch_pins == 0 {
            let msg = format!(
                "optimistic read section on {pool}:{page} opened with no epoch \
                 pin — a drained page could be recycled under this reader",
            );
            report(&mut ts, "optimistic-unpinned", msg);
        }
        ts.optimistic.push((pool, page));
    });
}

/// Record the close of an optimistic read section on `(pool, page)`
/// (guard dropped — whether validation succeeded or not).
pub fn optimistic_exit(pool: u64, page: u64) {
    mc::on_optimistic(pool, page, "optimistic-exit");
    TS.with(|cell| {
        let mut ts = cell.borrow_mut();
        if let Some(i) = ts.optimistic.iter().rposition(|&s| s == (pool, page)) {
            ts.optimistic.remove(i);
        }
    });
}

/// Record one optimistic dereference (`read_with`) on `(pool, page)`:
/// the epoch pin must still be live at the moment of the copy-out, not
/// just at guard creation.
pub fn optimistic_read(pool: u64, page: u64) {
    mc::on_optimistic(pool, page, "optimistic-read");
    TS.with(|cell| {
        let mut ts = cell.borrow_mut();
        if ts.epoch_pins == 0 {
            let msg = format!(
                "optimistic dereference of {pool}:{page} with no epoch pin \
                 (the guard outlived its pin)",
            );
            report(&mut ts, "optimistic-unpinned", msg);
        }
    });
}

/// Record an epoch-reclamation pin on domain `gc` (a `Guard` was
/// created; nested guards each count).
pub fn epoch_pinned(gc: u64) {
    mc::on_epoch(gc, "epoch-pin");
    STATS.epoch_pins.fetch_add(1, Ordering::Relaxed);
    TS.with(|cell| cell.borrow_mut().epoch_pins += 1);
}

/// Record an epoch-reclamation unpin (a `Guard` dropped).
pub fn epoch_unpinned(gc: u64) {
    mc::on_epoch(gc, "epoch-unpin");
    TS.with(|cell| {
        let mut ts = cell.borrow_mut();
        ts.epoch_pins = ts.epoch_pins.saturating_sub(1);
    });
}

/// Record an epoch collection attempt on domain `gc` (pure model-checker
/// yield point: collection is where deferred frees race live pins).
pub fn epoch_collect(gc: u64) {
    mc::on_epoch(gc, "epoch-collect");
}

/// Record an NSN drawn from counter instance `counter`. Each value must
/// be issued at most once per counter; a duplicate means the counter
/// regressed or was reissued, which would break split detection.
pub fn nsn_drawn(counter: u64, value: u64) {
    STATS.nsn_draws.fetch_add(1, Ordering::Relaxed);
    let fresh = lock(&NSN_SEEN).entry(counter).or_default().insert(value);
    if !fresh {
        TS.with(|cell| {
            let mut ts = cell.borrow_mut();
            let msg =
                format!("NSN {value} drawn twice from counter instance {counter}");
            report(&mut ts, "nsn-duplicate", msg);
        });
    }
}

/// RAII guard for a discipline scope; pops the scope when dropped.
#[must_use = "the scope ends when this guard is dropped"]
pub struct ScopeGuard {
    _priv: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        TS.with(|cell| {
            cell.borrow_mut().scopes.pop();
        });
    }
}

/// Enter a discipline scope with an absolute latch allowance.
///
/// `io_ok` permits store I/O while latches are held; `lock_wait_ok`
/// permits blocking record-lock waits under latches. Baseline protocols
/// (which deliberately violate §5 for the paper's comparison
/// experiments) enter a fully permissive scope.
pub fn enter_scope(
    name: &'static str,
    allowance: usize,
    io_ok: bool,
    lock_wait_ok: bool,
) -> ScopeGuard {
    TS.with(|cell| {
        cell.borrow_mut().scopes.push(Scope { name, allowance, io_ok, lock_wait_ok });
    });
    ScopeGuard { _priv: () }
}

/// Enter a discipline scope allowing `extra` more latches than the
/// thread currently holds — the blessed parent/child window: "I hold a
/// child and may latch its parent". Implies `io_ok` (the parent may
/// have to be faulted in).
pub fn enter_scope_rel(name: &'static str, extra: usize) -> ScopeGuard {
    TS.with(|cell| {
        let mut ts = cell.borrow_mut();
        let allowance = ts.held.len() + extra;
        ts.scopes.push(Scope { name, allowance, io_ok: true, lock_wait_ok: false });
    });
    ScopeGuard { _priv: () }
}

/// Assert the calling thread holds no latches (leak detection between
/// work items / at operation boundaries).
pub fn assert_thread_clear(context: &str) {
    TS.with(|cell| {
        let mut ts = cell.borrow_mut();
        if !ts.held.is_empty() {
            let msg = format!("{context}: thread still holds latches {}", held_desc(&ts.held));
            report(&mut ts, "latch-leak", msg);
        }
        if !ts.optimistic.is_empty() {
            let msg = format!(
                "{context}: thread still has open optimistic sections {:?}",
                ts.optimistic,
            );
            report(&mut ts, "optimistic-leak", msg);
        }
        if ts.epoch_pins != 0 {
            let msg =
                format!("{context}: thread still holds {} epoch pin(s)", ts.epoch_pins);
            report(&mut ts, "epoch-pin-leak", msg);
        }
    });
}

/// After containing a panic (`catch_unwind`), assert the unwind left no
/// shadow-state residue on this thread: every latch and discipline
/// scope must have been released by RAII guards during
/// unwinding. Residue is reported under rule `unwind-residue` and then
/// *cleared*, so a worker thread that contained one dead operation
/// audits its next operation from a clean slate instead of cascading
/// false positives.
pub fn assert_unwind_clear(context: &str) {
    TS.with(|cell| {
        let mut ts = cell.borrow_mut();
        if !ts.held.is_empty() {
            let msg =
                format!("{context}: unwind left latches held {}", held_desc(&ts.held));
            ts.held.clear();
            report(&mut ts, "unwind-residue", msg);
        }
        if !ts.scopes.is_empty() {
            let names: Vec<&'static str> = ts.scopes.iter().map(|s| s.name).collect();
            let msg = format!("{context}: unwind left discipline scopes {names:?}");
            ts.scopes.clear();
            report(&mut ts, "unwind-residue", msg);
        }
        if !ts.optimistic.is_empty() {
            let msg = format!(
                "{context}: unwind left optimistic sections open {:?}",
                ts.optimistic,
            );
            ts.optimistic.clear();
            report(&mut ts, "unwind-residue", msg);
        }
        if ts.epoch_pins != 0 {
            let msg =
                format!("{context}: unwind left {} epoch pin(s) held", ts.epoch_pins);
            ts.epoch_pins = 0;
            report(&mut ts, "unwind-residue", msg);
        }
    });
}

/// Run `f` with violations on this thread *captured* instead of
/// panicking. Used by deliberate-fault harnesses that prove the
/// analyzer fires. Nested captures compose (inner wins).
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Violation>) {
    let prev = TS.with(|cell| cell.borrow_mut().capture.replace(Vec::new()));
    let result = f();
    let captured = TS.with(|cell| {
        let mut ts = cell.borrow_mut();
        let captured = ts.capture.take().unwrap_or_default();
        ts.capture = prev;
        captured
    });
    (result, captured)
}

fn add_order_edges(
    held: &[(u64, u64)],
    new: (u64, u64),
) -> Option<Vec<(u64, u64)>> {
    let mut order = lock(&ORDER);
    for &h in held {
        if h != new {
            order.entry(h).or_default().insert(new);
        }
    }
    // A cycle exists iff some held node is reachable from `new` (the
    // edge held→new was just added). BFS with parent links so the
    // cycle can be reported.
    let targets: HashSet<(u64, u64)> = held.iter().copied().filter(|&h| h != new).collect();
    if targets.is_empty() {
        return None;
    }
    let mut parent: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
    let mut queue = std::collections::VecDeque::from([new]);
    let mut seen: HashSet<(u64, u64)> = HashSet::from([new]);
    while let Some(node) = queue.pop_front() {
        let Some(nexts) = order.get(&node) else { continue };
        for &n in nexts {
            if targets.contains(&n) {
                // Reconstruct new → … → node → n (the cycle closes with
                // the just-added held-edge n → new).
                let mut path = vec![node];
                let mut cur = node;
                while let Some(&p) = parent.get(&cur) {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                path.push(n);
                return Some(path);
            }
            if seen.insert(n) {
                parent.insert(n, node);
                queue.push_back(n);
            }
        }
    }
    None
}

/// Number of edges currently in the latch-order graph.
pub fn order_edge_count() -> usize {
    lock(&ORDER).values().map(|s| s.len()).sum()
}

/// A snapshot of the analyzer's global counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditSummary {
    /// Latch acquisitions recorded.
    pub latch_acquires: u64,
    /// Maximum latches held by any one thread at once.
    pub max_held: u64,
    /// Store I/O events recorded.
    pub io_events: u64,
    /// Lock-manager blocking waits recorded.
    pub lock_waits: u64,
    /// NSN draws recorded.
    pub nsn_draws: u64,
    /// Optimistic read sections opened.
    pub optimistic_enters: u64,
    /// Epoch-reclamation pins recorded.
    pub epoch_pins: u64,
    /// Order-graph edges accumulated.
    pub order_edges: u64,
    /// Violations detected (captured or panicked).
    pub violations: u64,
}

impl fmt::Display for AuditSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "gist-audit summary")?;
        writeln!(f, "  latch acquisitions   {:>10}", self.latch_acquires)?;
        writeln!(f, "  max latches held     {:>10}", self.max_held)?;
        writeln!(f, "  store I/O events     {:>10}", self.io_events)?;
        writeln!(f, "  lock waits           {:>10}", self.lock_waits)?;
        writeln!(f, "  NSN draws            {:>10}", self.nsn_draws)?;
        writeln!(f, "  optimistic sections  {:>10}", self.optimistic_enters)?;
        writeln!(f, "  epoch pins           {:>10}", self.epoch_pins)?;
        writeln!(f, "  order-graph edges    {:>10}", self.order_edges)?;
        write!(f, "  violations           {:>10}", self.violations)
    }
}

/// Snapshot the analyzer's global counters.
pub fn summary() -> AuditSummary {
    AuditSummary {
        latch_acquires: STATS.latch_acquires.load(Ordering::Relaxed),
        max_held: STATS.max_held.load(Ordering::Relaxed),
        io_events: STATS.io_events.load(Ordering::Relaxed),
        lock_waits: STATS.lock_waits.load(Ordering::Relaxed),
        nsn_draws: STATS.nsn_draws.load(Ordering::Relaxed),
        optimistic_enters: STATS.optimistic_enters.load(Ordering::Relaxed),
        epoch_pins: STATS.epoch_pins.load(Ordering::Relaxed),
        order_edges: order_edge_count() as u64,
        violations: STATS.violations.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share one process: every test uses its own pool/counter ids
    // from `new_instance_id()` so global registries never alias.

    #[test]
    fn single_latch_is_fine_and_released() {
        let pool = new_instance_id();
        let ((), v) = capture(|| {
            latch_acquired(pool, 1, true, true);
            latch_released(pool, 1);
            assert_thread_clear("test");
        });
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn second_latch_without_scope_fires() {
        let pool = new_instance_id();
        let ((), v) = capture(|| {
            latch_acquired(pool, 1, false, true);
            latch_acquired(pool, 2, false, true);
            latch_released(pool, 2);
            latch_released(pool, 1);
        });
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "latch-count");
    }

    #[test]
    fn parent_child_scope_allows_exactly_one_more() {
        let pool = new_instance_id();
        let ((), v) = capture(|| {
            latch_acquired(pool, 1, true, true);
            let _scope = enter_scope_rel("parent-child", 1);
            latch_acquired(pool, 2, true, true); // fine: allowance 2
            latch_acquired(pool, 3, true, true); // third: violation
            latch_released(pool, 3);
            latch_released(pool, 2);
            latch_released(pool, 1);
        });
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "latch-count");
        assert!(v[0].message.contains("3 latches"), "{}", v[0].message);
    }

    #[test]
    fn io_under_foreign_latch_fires_and_scope_permits() {
        let pool = new_instance_id();
        let ((), v) = capture(|| {
            latch_acquired(pool, 1, true, true);
            io_event(pool, 2, "page-load"); // foreign: violation
            io_event(pool, 1, "page-load"); // own page: fine
            {
                let _scope = enter_scope("split-unit", 64, true, false);
                io_event(pool, 3, "page-load"); // permitted by scope
            }
            latch_released(pool, 1);
        });
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "latch-across-io");
    }

    #[test]
    fn record_lock_wait_under_latch_fires() {
        let pool = new_instance_id();
        let ((), v) = capture(|| {
            lock_wait(true, "free-standing"); // no latch: fine
            latch_acquired(pool, 1, false, true);
            lock_wait(false, "node signal"); // non-record: fine
            lock_wait(true, "rid"); // violation
            latch_released(pool, 1);
        });
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "latch-during-lock-wait");
    }

    #[test]
    fn leaked_latch_detected() {
        let pool = new_instance_id();
        let ((), v) = capture(|| {
            latch_acquired(pool, 9, true, true);
            assert_thread_clear("op end");
            latch_released(pool, 9); // clean up for the next test
        });
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "latch-leak");
    }

    #[test]
    fn nsn_duplicate_detected() {
        let ctr = new_instance_id();
        let ((), v) = capture(|| {
            nsn_drawn(ctr, 1);
            nsn_drawn(ctr, 2);
            nsn_drawn(ctr, 1);
        });
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "nsn-duplicate");
    }

    #[test]
    fn order_cycle_detected_across_operations() {
        let pool = new_instance_id();
        let ((), v) = capture(|| {
            let _scope = enter_scope("test-harness", usize::MAX, true, true);
            // Op 1: holds 10, blocking-acquires 20 → edge 10→20.
            latch_acquired(pool, 10, true, true);
            latch_acquired(pool, 20, true, true);
            latch_released(pool, 20);
            latch_released(pool, 10);
            // Op 2: holds 20, blocking-acquires 10 → edge 20→10: cycle.
            latch_acquired(pool, 20, true, true);
            latch_acquired(pool, 10, true, true);
            latch_released(pool, 10);
            latch_released(pool, 20);
        });
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "latch-order-cycle");
    }

    #[test]
    fn fresh_page_resets_order_edges() {
        let pool = new_instance_id();
        let ((), v) = capture(|| {
            let _scope = enter_scope("test-harness", usize::MAX, true, true);
            latch_acquired(pool, 30, true, true);
            latch_acquired(pool, 40, true, true); // edge 30→40
            latch_released(pool, 40);
            latch_released(pool, 30);
            // Page 40 is freed and reformatted: orders reset.
            latch_page_fresh(pool, 40);
            latch_acquired(pool, 40, true, true);
            latch_acquired(pool, 30, true, true); // no cycle: 30→40 was dropped
            latch_released(pool, 30);
            latch_released(pool, 40);
        });
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn try_acquisitions_contribute_no_edges() {
        let pool = new_instance_id();
        let before = order_edge_count();
        let ((), v) = capture(|| {
            let _scope = enter_scope("test-harness", usize::MAX, true, true);
            latch_acquired(pool, 50, true, true);
            latch_acquired(pool, 60, true, false); // try: no edge
            latch_released(pool, 60);
            latch_released(pool, 50);
            // Reverse order, also try-only: would be a cycle if edges
            // were recorded.
            latch_acquired(pool, 60, true, true);
            latch_acquired(pool, 50, true, false);
            latch_released(pool, 50);
            latch_released(pool, 60);
        });
        assert!(v.is_empty(), "unexpected: {v:?}");
        assert_eq!(order_edge_count(), before, "try-acquisitions added edges");
    }

    #[test]
    fn downgrade_keeps_latch_held() {
        let pool = new_instance_id();
        let ((), v) = capture(|| {
            latch_acquired(pool, 70, true, true);
            latch_downgraded(pool, 70);
            io_event(pool, 71, "page-load"); // still held: violation
            latch_released(pool, 70);
        });
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "latch-across-io");
    }

    #[test]
    fn capture_nests_and_restores() {
        let pool = new_instance_id();
        let ((), outer) = capture(|| {
            latch_acquired(pool, 80, true, true);
            let ((), inner) = capture(|| {
                latch_acquired(pool, 81, true, true);
                latch_released(pool, 81);
            });
            assert_eq!(inner.len(), 1, "inner capture got the latch-count violation");
            latch_released(pool, 80);
        });
        assert!(outer.is_empty(), "inner violations must not leak out: {outer:?}");
    }

    #[test]
    fn unwind_residue_detected_and_cleared() {
        let pool = new_instance_id();
        let ((), v) = capture(|| {
            // Simulate an unwind that somehow skipped its RAII releases:
            // a latch and a scope are still recorded.
            latch_acquired(pool, 5, true, true);
            std::mem::forget(enter_scope("doomed-op", 8, true, true));
            assert_unwind_clear("after contained panic");
            // The residue was cleared: the thread is clean again.
            assert_thread_clear("post-clear");
        });
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "unwind-residue"), "{v:?}");
        assert!(v[0].message.contains("after contained panic"), "{}", v[0].message);
    }

    #[test]
    fn unwind_clear_is_silent_when_raii_did_its_job() {
        let pool = new_instance_id();
        let ((), v) = capture(|| {
            latch_acquired(pool, 6, true, true);
            latch_released(pool, 6);
            assert_unwind_clear("clean unwind");
        });
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn latch_inside_optimistic_section_fires() {
        let pool = new_instance_id();
        let gc = new_instance_id();
        let ((), v) = capture(|| {
            epoch_pinned(gc);
            optimistic_enter(pool, 7);
            latch_acquired(pool, 8, false, true); // violation
            latch_released(pool, 8);
            optimistic_exit(pool, 7);
            epoch_unpinned(gc);
        });
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "latch-in-optimistic");
    }

    #[test]
    fn latch_after_optimistic_exit_is_fine() {
        let pool = new_instance_id();
        let gc = new_instance_id();
        let ((), v) = capture(|| {
            epoch_pinned(gc);
            optimistic_enter(pool, 7);
            optimistic_read(pool, 7);
            optimistic_exit(pool, 7);
            epoch_unpinned(gc);
            // Fallback after the section closed: perfectly legal.
            latch_acquired(pool, 7, false, true);
            latch_released(pool, 7);
            assert_thread_clear("test");
        });
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn unpinned_optimistic_section_fires() {
        let pool = new_instance_id();
        let ((), v) = capture(|| {
            optimistic_enter(pool, 3); // no epoch pin: violation
            optimistic_exit(pool, 3);
        });
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "optimistic-unpinned");
    }

    #[test]
    fn dereference_after_unpin_fires() {
        let pool = new_instance_id();
        let gc = new_instance_id();
        let ((), v) = capture(|| {
            epoch_pinned(gc);
            optimistic_enter(pool, 4);
            epoch_unpinned(gc); // pin dropped while the guard lives
            optimistic_read(pool, 4); // violation
            optimistic_exit(pool, 4);
        });
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "optimistic-unpinned");
    }

    #[test]
    fn optimistic_leak_and_epoch_leak_detected() {
        let pool = new_instance_id();
        let gc = new_instance_id();
        let ((), v) = capture(|| {
            epoch_pinned(gc);
            optimistic_enter(pool, 5);
            assert_thread_clear("op end"); // both leaked
            optimistic_exit(pool, 5); // clean up for the next test
            epoch_unpinned(gc);
        });
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].rule, "optimistic-leak");
        assert_eq!(v[1].rule, "epoch-pin-leak");
    }

    #[test]
    fn unwind_clears_optimistic_residue() {
        let pool = new_instance_id();
        let gc = new_instance_id();
        let ((), v) = capture(|| {
            epoch_pinned(gc);
            optimistic_enter(pool, 6);
            assert_unwind_clear("after contained panic");
            assert_thread_clear("post-clear");
        });
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "unwind-residue"), "{v:?}");
    }

    #[test]
    fn summary_counts_accumulate() {
        let pool = new_instance_id();
        let before = summary();
        latch_acquired(pool, 90, false, true);
        latch_released(pool, 90);
        let after = summary();
        assert!(after.latch_acquires > before.latch_acquires);
        let shown = format!("{after}");
        assert!(shown.contains("latch acquisitions"), "{shown}");
    }
}
