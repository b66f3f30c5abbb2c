#![forbid(unsafe_code)]

//! Quiescent-state (epoch-based) reclamation for the optimistic read
//! path.
//!
//! The latched protocol keeps a deleted node alive with §7.2 signaling
//! locks: a drain only proceeds once no operation has the node's pointer
//! stacked. The optimistic path takes no locks at all, so it needs a
//! different liveness guarantee — this crate provides the classic
//! epoch/QSBR one:
//!
//! - Every optimistic traversal runs inside a [`Guard`] obtained from
//!   [`EpochGc::pin`]. The guard stamps the thread's *slot* with the
//!   current global epoch; dropping it clears the slot.
//! - A drained page's slot on the free list must not be recycled under
//!   a live reader, so §7.2 page frees are not run directly but
//!   [`EpochGc::retire`]d: the free callback is parked in a bin stamped
//!   with the global epoch. Nothing else goes through the bin: an
//!   evicted buffer frame is owned by its last `Arc` and dies with it.
//! - A retired callback only runs once every pinned slot has moved past
//!   its stamp epoch ([`EpochGc::try_collect`]); with no reader pinned
//!   it runs immediately, so single-threaded behavior is unchanged.
//!
//! The guard protects *logical identity*, not memory: all data is safe
//! Rust behind `Arc`s, so nothing dangles — but a page id reallocated
//! to a new tenant while a reader still chases a copied pointer to it
//! would make the reader accept the tenant's content as its node. The
//! pin makes that reallocation impossible until the reader unpins; the
//! reader instead observes the drained (empty, available-flagged) page
//! and skips it, exactly as the signaling-lock protocol would have
//! arranged.
//!
//! Pins are expected to be short (one traversal, never across a
//! blocking wait — the audit layer's `optimistic-unpinned` /
//! `latch-in-optimistic` rules enforce the discipline); the bin is
//! collected opportunistically on every retire and by the maintenance
//! daemon's sync sweeps. A long pin holds back only the page frees
//! retired during it; nothing else waits on the epoch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A deferred reclamation callback.
type Retired = Box<dyn FnOnce() + Send>;

/// Per-thread pin slot: 0 = quiescent, otherwise the global epoch the
/// thread pinned at (nested pins share the outermost stamp).
struct Slot {
    epoch: AtomicU64,
    /// Nesting depth of live guards on the owning thread (only that
    /// thread writes it, so a plain atomic is enough bookkeeping).
    depth: AtomicU64,
}

/// Point-in-time reclamation counters ([`EpochGc::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Current global epoch.
    pub global_epoch: u64,
    /// Callbacks retired so far (lifetime total).
    pub retired: u64,
    /// Callbacks actually run (lifetime total).
    pub reclaimed: u64,
    /// Callbacks still parked in the bin.
    pub pending: u64,
    /// Threads currently pinned.
    pub pinned_threads: u64,
    /// `global_epoch - min(pinned epoch)` — how far the slowest live
    /// reader lags the present (0 with no reader pinned).
    pub epoch_lag: u64,
}

/// One reclamation domain (one per `Db`-like owner). Cheap to clone
/// through an `Arc`; all methods take `&self`.
pub struct EpochGc {
    /// Global epoch, advanced by [`EpochGc::try_collect`] whenever no
    /// pinned slot still sits at the current value.
    global: AtomicU64,
    /// Every slot ever registered (one per thread that pinned; threads
    /// are few and slots are two words, so no unregistration).
    slots: Mutex<Vec<Arc<Slot>>>,
    /// Retired callbacks, each stamped with the epoch at retire time.
    bin: Mutex<Vec<(u64, Retired)>>,
    retired: AtomicU64,
    reclaimed: AtomicU64,
    /// gist-audit instance id (0 when auditing is off).
    audit_id: u64,
}

impl std::fmt::Debug for EpochGc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochGc").field("stats", &self.stats()).finish()
    }
}

thread_local! {
    /// This thread's slot in each domain it has pinned, keyed by the
    /// domain's audit/instance identity (the `Arc` pointer survives the
    /// domain: stale entries are inert).
    static SLOTS: std::cell::RefCell<Vec<(usize, Arc<Slot>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl Default for EpochGc {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochGc {
    /// A fresh domain at epoch 1 with an empty bin.
    pub fn new() -> EpochGc {
        EpochGc {
            global: AtomicU64::new(1),
            slots: Mutex::new(Vec::new()),
            bin: Mutex::new(Vec::new()),
            retired: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            audit_id: gist_audit::new_instance_id(),
        }
    }

    /// The calling thread's slot in this domain, registering one on
    /// first use. Domain identity is the `EpochGc` allocation address,
    /// which is stable for the owning `Arc`'s lifetime.
    fn my_slot(self: &Arc<Self>) -> Arc<Slot> {
        let key = Arc::as_ptr(self) as usize;
        SLOTS.with(|cell| {
            let mut local = cell.borrow_mut();
            if let Some((_, s)) = local.iter().find(|(k, _)| *k == key) {
                return s.clone();
            }
            let slot = Arc::new(Slot {
                epoch: AtomicU64::new(0),
                depth: AtomicU64::new(0),
            });
            self.slots.lock().push(slot.clone());
            local.push((key, slot.clone()));
            slot
        })
    }

    /// Pin the calling thread: until the returned [`Guard`] drops, no
    /// callback retired from now on will run. Reentrant — nested pins
    /// keep the outermost stamp.
    pub fn pin(self: &Arc<Self>) -> Guard {
        let slot = self.my_slot();
        if slot.depth.load(Ordering::Relaxed) == 0 {
            // Stamp, then re-read the global epoch: if a collector
            // advanced it between the load and the store it may have
            // missed this pin, but the re-check makes the stamp at most
            // one epoch stale, which the collection rule (strictly
            // older than every pin) already tolerates.
            let e = self.global.load(Ordering::SeqCst);
            slot.epoch.store(e, Ordering::SeqCst);
        }
        slot.depth.fetch_add(1, Ordering::Relaxed);
        gist_audit::epoch_pinned(self.audit_id);
        Guard { gc: self.clone(), slot }
    }

    /// Defer `free` until every epoch pinned right now has unpinned.
    /// With nothing pinned the callback runs inline, so untouched
    /// single-threaded paths keep their eager-free behavior.
    pub fn retire(self: &Arc<Self>, free: impl FnOnce() + Send + 'static) {
        self.retired.fetch_add(1, Ordering::Relaxed);
        if gist_chaos::armed("epoch.skip-retire") {
            // Mutation: the historical bug shape — free eagerly, as the
            // pre-epoch drain path did, recycling pages under live
            // optimistic readers.
            self.reclaimed.fetch_add(1, Ordering::Relaxed);
            free();
            return;
        }
        let e = self.global.load(Ordering::SeqCst);
        self.bin.lock().push((e, Box::new(free)));
        self.try_collect();
    }

    /// Advance the global epoch if possible and run every callback whose
    /// stamp is strictly older than all current pins. Returns how many
    /// callbacks ran.
    pub fn try_collect(self: &Arc<Self>) -> usize {
        gist_audit::epoch_collect(self.audit_id);
        let global = self.global.load(Ordering::SeqCst);
        let min_pinned = self.min_pinned();
        // Advance once every live pin has observed the current epoch, so
        // the next collect can tell old pins (stuck below `global`) from
        // readers that arrived after the garbage was already unlinked.
        if min_pinned.map(|m| m >= global).unwrap_or(true) {
            let _ = self.global.compare_exchange(
                global,
                global + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        // Safe horizon: every callback stamped before the oldest live
        // pin predates anything that pin could still reference.
        let horizon = self.min_pinned().unwrap_or(u64::MAX);
        let ready: Vec<Retired> = {
            let mut bin = self.bin.lock();
            let mut ready = Vec::new();
            bin.retain_mut(|(stamp, cb)| {
                if *stamp < horizon {
                    // retain_mut gives &mut; swap the box out with a
                    // no-op so the closure can move to `ready`.
                    ready.push(std::mem::replace(cb, Box::new(|| {})));
                    false
                } else {
                    true
                }
            });
            ready
        };
        let n = ready.len();
        self.reclaimed.fetch_add(n as u64, Ordering::Relaxed);
        for cb in ready {
            cb();
        }
        n
    }

    /// The smallest epoch any thread is currently pinned at.
    fn min_pinned(&self) -> Option<u64> {
        self.slots
            .lock()
            .iter()
            .map(|s| s.epoch.load(Ordering::SeqCst))
            .filter(|&e| e != 0)
            .min()
    }

    /// Reclamation counters.
    pub fn stats(&self) -> EpochStats {
        let global = self.global.load(Ordering::SeqCst);
        let (pinned, min) = {
            let slots = self.slots.lock();
            let pinned =
                slots.iter().filter(|s| s.epoch.load(Ordering::SeqCst) != 0).count() as u64;
            let min = slots
                .iter()
                .map(|s| s.epoch.load(Ordering::SeqCst))
                .filter(|&e| e != 0)
                .min();
            (pinned, min)
        };
        EpochStats {
            global_epoch: global,
            retired: self.retired.load(Ordering::Relaxed),
            reclaimed: self.reclaimed.load(Ordering::Relaxed),
            pending: self.bin.lock().len() as u64,
            pinned_threads: pinned,
            epoch_lag: min.map(|m| global.saturating_sub(m)).unwrap_or(0),
        }
    }
}

/// An active pin (see [`EpochGc::pin`]). `!Send` by construction intent:
/// it references the pinning thread's slot, so keep it on that thread.
pub struct Guard {
    /// Keeps the domain (and with it the slot registry the pinned slot
    /// lives in) alive for the guard's whole life; only read directly by
    /// the audit hooks.
    gc: Arc<EpochGc>,
    slot: Arc<Slot>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.slot.depth.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.slot.epoch.store(0, Ordering::SeqCst);
        }
        gist_audit::epoch_unpinned(self.gc.audit_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn unpinned_retire_runs_inline() {
        let gc = Arc::new(EpochGc::new());
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        gc.retire(move || r.store(true, Ordering::SeqCst));
        assert!(ran.load(Ordering::SeqCst), "no pin → eager free");
        let s = gc.stats();
        assert_eq!((s.retired, s.reclaimed, s.pending), (1, 1, 0));
    }

    #[test]
    fn pinned_reader_defers_reclamation() {
        let gc = Arc::new(EpochGc::new());
        let guard = gc.pin();
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        gc.retire(move || r.store(true, Ordering::SeqCst));
        for _ in 0..4 {
            gc.try_collect();
        }
        assert!(!ran.load(Ordering::SeqCst), "pinned → deferred");
        assert_eq!(gc.stats().pending, 1);
        assert!(gc.stats().epoch_lag >= 1, "collector advanced past the pin");
        drop(guard);
        gc.try_collect();
        assert!(ran.load(Ordering::SeqCst), "unpin → reclaimed");
        assert_eq!(gc.stats().pending, 0);
    }

    #[test]
    fn nested_pins_share_one_stamp() {
        let gc = Arc::new(EpochGc::new());
        let outer = gc.pin();
        let stamp = outer.slot.epoch.load(Ordering::SeqCst);
        let inner = gc.pin();
        assert_eq!(inner.slot.epoch.load(Ordering::SeqCst), stamp);
        drop(inner);
        assert_eq!(outer.slot.epoch.load(Ordering::SeqCst), stamp, "outer still pinned");
        drop(outer);
        assert_eq!(gc.stats().pinned_threads, 0);
    }

    #[test]
    fn later_pins_do_not_block_older_garbage() {
        let gc = Arc::new(EpochGc::new());
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        {
            let _g = gc.pin();
            gc.retire(move || r.store(true, Ordering::SeqCst));
        }
        // A reader that pins *after* the retire unpinned must not keep
        // the old callback hostage forever.
        let _late = gc.pin();
        gc.try_collect();
        gc.try_collect();
        assert!(ran.load(Ordering::SeqCst), "old garbage freed under a late pin");
    }

    #[test]
    fn cross_thread_pin_blocks_collection() {
        let gc = Arc::new(EpochGc::new());
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let gc2 = gc.clone();
        let h = std::thread::spawn(move || {
            let _g = gc2.pin();
            ready_tx.send(()).unwrap();
            rx.recv().unwrap();
        });
        ready_rx.recv().unwrap();
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        gc.retire(move || r.store(true, Ordering::SeqCst));
        gc.try_collect();
        assert!(!ran.load(Ordering::SeqCst), "remote pin defers");
        tx.send(()).unwrap();
        h.join().unwrap();
        gc.try_collect();
        assert!(ran.load(Ordering::SeqCst));
    }
}
