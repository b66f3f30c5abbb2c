#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # gist-sync — audit-instrumented synchronization wrappers
//!
//! Thin wrappers over the `parking_lot` mutex and condition variable
//! that the hot-path crates (lockmgr, predlock, wal) use instead of
//! constructing raw ones. The `no-raw-std-sync` gist-lint rule enforces
//! this statically for wal, the crate the mc scenarios drive; lockmgr
//! and predlock keep to it by convention. There is
//! no reader/writer lock wrapper: none of those crates takes one, and
//! the buffer pool's frame latches stay on `parking_lot`, covered by
//! the audit latch hooks instead. The point of the indirection is the
//! deterministic model checker (`crates/mc`):
//!
//! - **Normally** (no scheduler registered, or `gist-audit` built
//!   without its `enabled` feature) every operation is a direct
//!   passthrough to `parking_lot`.
//! - **Under an exploration** (a `gist_audit::mc::McScheduler` is
//!   registered and the calling thread is one of its managed tasks)
//!   every operation becomes a cooperative yield point and all blocking
//!   is *virtualized*: `lock` spins on `try_lock` with virtual parking
//!   between attempts, and condvar waits park on the scheduler with
//!   *virtual* timeouts — no OS-level blocking, no real time, so the
//!   scheduler fully controls the interleaving and can replay a
//!   recorded schedule byte-for-byte.
//!
//! Each object carries a process-unique id so the schedule trace can
//! name the exact mutex/condvar involved.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gist_audit::mc::{self, McObj, McOp, McScheduler, ObjKind};

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed) + 1
}

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// Instrumented mutual exclusion over `T` (see the crate docs).
pub struct Mutex<T: ?Sized> {
    id: u64,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// New mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex { id: next_id(), inner: parking_lot::Mutex::new(value) }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex, blocking (or virtually parking) until held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(s) = mc::scheduler() {
            let inner = self.lock_virtual(&*s);
            return MutexGuard { lock: self, inner: Some(inner) };
        }
        MutexGuard { lock: self, inner: Some(self.inner.lock()) }
    }

    /// Acquire the mutex if it is free right now (a yield point under
    /// the scheduler, but never a virtual park).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if let Some(s) = mc::scheduler() {
            let obj = McObj::new(ObjKind::Mutex, self.id);
            s.yield_point(McOp::MutexLock, obj, "mutex-try-lock");
            let g = self.inner.try_lock()?;
            return Some(MutexGuard { lock: self, inner: Some(g) });
        }
        let g = self.inner.try_lock()?;
        Some(MutexGuard { lock: self, inner: Some(g) })
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Cooperative acquisition loop under the virtual scheduler: yield
    /// before each attempt, park on the mutex object between failed
    /// attempts (an unlock unparks all waiters, who re-race the lock —
    /// the schedule decides the winner deterministically).
    fn lock_virtual(&self, s: &dyn McScheduler) -> parking_lot::MutexGuard<'_, T> {
        let obj = McObj::new(ObjKind::Mutex, self.id);
        loop {
            s.yield_point(McOp::MutexLock, obj, "mutex-lock");
            if let Some(g) = self.inner.try_lock() {
                return g;
            }
            s.park(obj, None);
        }
    }
}

/// Guard returned by [`Mutex::lock`]; releases (and reports) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    // Option so condvar waits can temporarily give the lock up.
    inner: Option<parking_lot::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self.inner.as_ref() {
            Some(g) => g,
            // `inner` is only None *inside* a condvar wait, which holds
            // `&mut` on this guard for its whole duration — no deref can
            // observe the gap.
            None => unreachable!("mutex guard dereferenced during a condvar wait"),
        }
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self.inner.as_mut() {
            Some(g) => g,
            None => unreachable!("mutex guard dereferenced during a condvar wait"),
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            if let Some(s) = mc::scheduler() {
                let obj = McObj::new(ObjKind::Mutex, self.lock.id);
                self.inner = None;
                s.unpark(obj, true);
                s.yield_point(McOp::MutexUnlock, obj, "mutex-unlock");
            }
        }
        // Dropping `inner` (if still present) performs the real unlock.
    }
}

// ---------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------

/// Result of a timed wait.
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Instrumented condition variable working with [`MutexGuard`].
///
/// Under the virtual scheduler, waits park on the scheduler with a
/// *virtual* timeout: if every task is parked, the scheduler advances
/// virtual time to the earliest deadline instead of sleeping, so a
/// schedule that loses a wakeup is detected as a deterministic virtual
/// timeout (or deadlock), never as a flaky slow test.
pub struct Condvar {
    id: u64,
    inner: parking_lot::Condvar,
}

impl Condvar {
    /// New condition variable.
    pub fn new() -> Self {
        Condvar { id: next_id(), inner: parking_lot::Condvar::new() }
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        if let Some(s) = mc::scheduler() {
            let notified = self.wait_virtual(&*s, guard, timeout);
            return WaitTimeoutResult(!notified);
        }
        let res = match guard.inner.as_mut() {
            Some(g) => self.inner.wait_for(g, timeout),
            None => unreachable!("condvar wait on an emptied guard"),
        };
        WaitTimeoutResult(res.timed_out())
    }

    /// Block until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        self.wait_for(guard, timeout)
    }

    /// Wake one waiter (park order under the scheduler).
    pub fn notify_one(&self) {
        if let Some(s) = mc::scheduler() {
            let obj = McObj::new(ObjKind::Condvar, self.id);
            s.yield_point(McOp::CvNotify, obj, "cv-notify-one");
            s.unpark(obj, false);
        }
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        if let Some(s) = mc::scheduler() {
            let obj = McObj::new(ObjKind::Condvar, self.id);
            s.yield_point(McOp::CvNotify, obj, "cv-notify-all");
            s.unpark(obj, true);
        }
        self.inner.notify_all();
    }

    /// Virtualized wait: release the mutex and park in one model-atomic
    /// step (no yield point separates them, so a notify cannot slip
    /// between the unlock and the park registration — matching the
    /// atomicity `parking_lot` guarantees), then cooperatively
    /// reacquire the mutex. Returns whether the wait was notified.
    fn wait_virtual<T>(
        &self,
        s: &dyn McScheduler,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> bool {
        let mobj = McObj::new(ObjKind::Mutex, guard.lock.id);
        let cobj = McObj::new(ObjKind::Condvar, self.id);
        guard.inner = None;
        s.unpark(mobj, true);
        let notified = s.park(cobj, Some(timeout));
        guard.inner = Some(guard.lock.lock_virtual(s));
        notified
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

// ---------------------------------------------------------------------
// Device I/O
// ---------------------------------------------------------------------

/// Mark a device I/O about to run (the log's sync): a yield point under
/// the model checker, so an exploration can schedule other tasks while
/// the device is busy; nothing otherwise.
pub fn device_io(what: &'static str) {
    if let Some(s) = mc::scheduler() {
        s.yield_point(McOp::Io, McObj::new(ObjKind::Region, 0), what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_passthrough_roundtrip() {
        let m = Mutex::new(0);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
        assert!(m.try_lock().is_some());
        let _held = m.lock();
        assert!(m.try_lock().is_none());
    }

    #[test]
    fn condvar_passthrough_times_out_and_wakes() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        drop(g);

        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while !*g {
            assert!(!cv.wait_for(&mut g, Duration::from_secs(10)).timed_out());
        }
        drop(g);
        h.join().unwrap();
    }
}
