//! Model-checker hook layer: the seam between the instrumentation
//! points and a deterministic scheduler.
//!
//! The audit hooks (latch/NSN/IO events) and the `gist-sync`
//! wrappers (mutex/condvar operations) all report here. When a
//! [`McScheduler`] is registered — `crates/mc` installs one for the
//! duration of an exploration — every hook on a *managed* thread becomes
//! a cooperative yield point: the scheduler serializes the managed
//! threads, picks which one runs next at each point, and virtualizes
//! condvar parking (including timeouts, so no real time passes).
//!
//! With no scheduler registered (every production and ordinary-test
//! configuration) the fast path is one relaxed atomic load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LazyLock, RwLock};
use std::time::Duration;

/// What kind of synchronization object an event refers to. Object
/// identity is the `(kind, id)` pair, so id counters of different
/// layers never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// A `gist-sync` mutex.
    Mutex,
    /// A `gist-sync` condition variable.
    Condvar,
    /// A buffer-pool page latch, id = `pool ⊕ page` packed.
    Latch,
    /// A named code region (explicit `yield_now`-style points).
    Region,
}

/// Identity of a synchronization object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct McObj {
    /// Object kind (namespaces the id).
    pub kind: ObjKind,
    /// Object id, unique within its kind.
    pub id: u64,
}

impl McObj {
    /// Object of `kind` with `id`.
    pub fn new(kind: ObjKind, id: u64) -> McObj {
        McObj { kind, id }
    }
}

/// The operation about to run at a yield point (recorded into the
/// schedule trace; the scheduler may switch tasks before it executes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McOp {
    /// About to acquire a mutex (or retry after a virtual park).
    MutexLock,
    /// Just released a mutex.
    MutexUnlock,
    /// About to notify a condition variable.
    CvNotify,
    /// A latch event forwarded from the buffer-pool hooks.
    Latch,
    /// A store I/O event.
    Io,
    /// An explicit named region or epoch transition.
    Region,
}

/// A deterministic scheduler driving managed threads. Implemented by
/// `crates/mc`; everything here is called from the *managed* thread
/// itself, between two of its operations.
pub trait McScheduler: Send + Sync {
    /// Whether the calling thread is one of the scheduler's managed
    /// tasks. Hooks on unmanaged threads must behave as if no scheduler
    /// were registered.
    fn managed(&self) -> bool;

    /// Cooperative scheduling point: the calling task is about to
    /// perform `op` on `obj`. Blocks until the scheduler picks this
    /// task to run again.
    fn yield_point(&self, op: McOp, obj: McObj, what: &'static str);

    /// Park the calling task until [`McScheduler::unpark`] on `obj` or
    /// the *virtual* timeout elapses; returns whether it was notified
    /// (false = timed out). No real time passes.
    fn park(&self, obj: McObj, timeout: Option<Duration>) -> bool;

    /// Mark tasks parked on `obj` runnable (one in park order, or all).
    fn unpark(&self, obj: McObj, all: bool);
}

/// Fast-path gate: true only while a scheduler is registered.
static MC_ACTIVE: AtomicBool = AtomicBool::new(false);

#[allow(clippy::type_complexity)]
static SCHEDULER: LazyLock<RwLock<Option<Arc<dyn McScheduler>>>> =
    LazyLock::new(|| RwLock::new(None));

/// Install (or clear) the process-global scheduler. Explorations are
/// expected to serialize themselves; the last call wins.
pub fn set_scheduler(sched: Option<Arc<dyn McScheduler>>) {
    let mut slot = SCHEDULER.write().unwrap_or_else(|p| p.into_inner());
    MC_ACTIVE.store(sched.is_some(), Ordering::SeqCst);
    *slot = sched;
}

/// The registered scheduler, if the calling thread is one of its
/// managed tasks (the common fast path is one relaxed load + `None`).
pub fn scheduler() -> Option<Arc<dyn McScheduler>> {
    if !MC_ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let slot = SCHEDULER.read().unwrap_or_else(|p| p.into_inner());
    match &*slot {
        Some(s) if s.managed() => Some(s.clone()),
        _ => None,
    }
}

/// Explicit named yield point (scenario code uses this to widen the
/// interleaving surface around un-instrumented steps).
pub fn region(what: &'static str) {
    if let Some(s) = scheduler() {
        s.yield_point(McOp::Region, McObj::new(ObjKind::Region, 0), what);
    }
}

/// Pack a `(hi, lo)` pair into one object id (latches: pool/page).
fn pack(hi: u64, lo: u64) -> u64 {
    (hi << 32) ^ (lo & 0xffff_ffff)
}

/// Forward a latch acquisition from the buffer-pool hooks as a yield
/// point on the latch object.
pub(crate) fn on_latch_acquired(pool: u64, page: u64) {
    if let Some(s) = scheduler() {
        let obj = McObj::new(ObjKind::Latch, pack(pool, page));
        s.yield_point(McOp::Latch, obj, "latch-acquire");
    }
}

/// Forward a latch release (or X→S downgrade, which lets shared waiters
/// in) from the buffer-pool hooks. Waiters spinning virtually in
/// [`on_latch_contended`] are unparked so the token handoff reaches
/// them promptly.
pub(crate) fn on_latch_released(pool: u64, page: u64) {
    if let Some(s) = scheduler() {
        let obj = McObj::new(ObjKind::Latch, pack(pool, page));
        s.unpark(obj, true);
        s.yield_point(McOp::Latch, obj, "latch-release");
    }
}

/// Whether the calling thread is a managed model-check task. The buffer
/// pool consults this before a *blocking* frame-latch acquisition: a
/// managed task must never block inside the raw rwlock while holding
/// the scheduler token (the exploration would freeze on a block the
/// scheduler cannot see) and spins on the `try_` variant instead,
/// reporting each failed attempt through [`on_latch_contended`].
pub(crate) fn latch_managed() -> bool {
    scheduler().is_some()
}

/// A managed task failed a `try_` frame-latch acquisition inside its
/// virtualized blocking loop: park on the latch object until the
/// holder's release unparks us. The short *virtual* timeout covers
/// guard drops that bypass the release hook (load-error paths, evicted
/// frames) — no real time passes either way.
pub(crate) fn on_latch_contended(pool: u64, page: u64) {
    if let Some(s) = scheduler() {
        let obj = McObj::new(ObjKind::Latch, pack(pool, page));
        s.park(obj, Some(Duration::from_millis(1)));
    }
}

/// Forward a store I/O event as a yield point.
pub(crate) fn on_io_event(pool: u64, page: u64, what: &'static str) {
    if let Some(s) = scheduler() {
        s.yield_point(McOp::Io, McObj::new(ObjKind::Latch, pack(pool, page)), what);
    }
}

/// Forward an optimistic read-path event (section enter/exit, each
/// dereference) as a pure yield point on the page's latch object.
pub(crate) fn on_optimistic(pool: u64, page: u64, what: &'static str) {
    if let Some(s) = scheduler() {
        s.yield_point(McOp::Latch, McObj::new(ObjKind::Latch, pack(pool, page)), what);
    }
}

/// Forward an epoch-reclamation event (pin/unpin/collect) as a yield
/// point on the domain object — these are exactly the points where a
/// deferred free races a live reader.
pub(crate) fn on_epoch(gc: u64, what: &'static str) {
    if let Some(s) = scheduler() {
        s.yield_point(McOp::Region, McObj::new(ObjKind::Region, gc), what);
    }
}
