//! Deterministic storage fault injection.
//!
//! [`FaultStore`] wraps any [`PageStore`] and injects faults from a
//! [`gist_chaos::Plan`] at the sites `store.read`, `store.write` and
//! `store.sync`: the Nth read, write or sync issued while the plan is
//! armed. Because the schedule is data, a harness can enumerate fault
//! points one at a time and replay the identical workload against each —
//! the crash-point enumeration used by `tests/fault_recovery.rs`.
//!
//! The actions each site acts on:
//!
//! - **Transient errors** ([`Action::Transient`], any site): this and
//!   the next `n - 1` operations of the class fail with
//!   [`io::ErrorKind::Interrupted`], then the device recovers — exercises
//!   the bounded retry path.
//! - **Permanent errors** ([`Action::Permanent`], any site): every
//!   operation of the class fails from this point on — exercises
//!   read-only degradation (pool poisoning).
//! - **Torn writes** ([`Action::Torn`], `store.write`): only a prefix of
//!   the page image lands (whole 512-byte sectors); the write *reports
//!   success*. Detected later by the page checksum.
//! - **Lost writes** ([`Action::Lost`], `store.write`): the write reports
//!   success and reads observe it, but it sits in a volatile device
//!   cache: a [`crash_disk`](FaultStore::crash_disk) before the next
//!   successful `sync` rolls the page back to its pre-write image.
//!   Undetectable by checksums (the stale image is internally
//!   consistent) — survived via the dirty-page-table sync barrier.
//! - **Failed fsync** ([`Action::FailedSync`], `store.sync`): the sync
//!   fails *without* draining the device cache, so pending lost writes
//!   stay lost.
//!
//! `ensure_capacity` and `page_count` pass through unfaulted: capacity
//! growth is metadata, and the interesting failures are on the data
//! path.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use gist_chaos::{Action, Plan};
use parking_lot::Mutex;

use crate::page::{Page, PageId, PAGE_SIZE};
use crate::store::PageStore;

/// Torn writes land whole sectors; the header (including the checksum)
/// always lands, so a tear is detectable whenever the tail differs.
const SECTOR: usize = 512;

/// The three faultable operation classes, indexed as in the state arrays.
const SITES: [&str; 3] = ["store.read", "store.write", "store.sync"];

/// A [`PageStore`] wrapper injecting the faults a [`Plan`] schedules.
/// See the module docs for the fault model.
pub struct FaultStore {
    inner: Arc<dyn PageStore>,
    plan: Arc<Plan>,
    /// Remaining forced transient failures per class.
    transient: [AtomicU32; 3],
    /// Class has permanently failed.
    permanent: [AtomicBool; 3],
    /// Pre-write disk images of writes sitting in the volatile cache
    /// (oldest pre-image wins if a page is lost-written twice).
    pending_lost: Mutex<HashMap<u32, Page>>, // lint: allow-global-sync-map — test harness
}

impl FaultStore {
    /// Wrap `inner` under `plan`. Operations pass through uncounted until
    /// the plan is armed, so set-up I/O does not shift the schedule.
    pub fn new(inner: Arc<dyn PageStore>, plan: Arc<Plan>) -> Arc<Self> {
        Arc::new(FaultStore {
            inner,
            plan,
            transient: Default::default(),
            permanent: Default::default(),
            pending_lost: Mutex::new(HashMap::new()),
        })
    }

    /// Simulate a machine crash plus a reboot onto a healthy device: the
    /// plan is disarmed, pending lost writes are rolled back to their
    /// pre-write images, and tripped error state is cleared so recovery
    /// runs against a working (but possibly corrupt) disk.
    ///
    /// The plan itself is not reset: its op counters, fired log and
    /// unfired entries stay, so re-arming it continues the old indices.
    /// A harness that runs another scenario afterwards builds a fresh
    /// plan and a `FaultStore` over it.
    pub fn crash_disk(&self) -> io::Result<()> {
        self.plan.disarm();
        let lost = std::mem::take(&mut *self.pending_lost.lock());
        for (id, img) in lost {
            self.inner.write(PageId(id), &img)?;
        }
        for class in 0..3 {
            self.transient[class].store(0, Ordering::SeqCst);
            self.permanent[class].store(false, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Common fault gate for class `c`: consult the plan, then fail the
    /// operation or hand the caller the action to apply. A tripped
    /// permanent failure outlasts a disarm; a transient window, like the
    /// plan, counts only while armed.
    fn gate(&self, c: usize) -> io::Result<Option<Action>> {
        let action = if self.permanent[c].load(Ordering::SeqCst) {
            Some(Action::Permanent)
        } else if self.plan.is_armed() {
            self.plan.hit(SITES[c])
        } else {
            return Ok(None);
        };
        match action {
            Some(Action::Permanent) => {
                self.permanent[c].store(true, Ordering::SeqCst);
                let msg = format!("injected permanent {} failure: device gone", SITES[c]);
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, msg));
            }
            Some(Action::Transient(n)) => {
                self.transient[c].fetch_add(n, Ordering::SeqCst);
            }
            _ => {}
        }
        // Counted-down transient window (opened above or on an earlier
        // armed operation of this class).
        let window = self.transient[c]
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        if window.is_ok() {
            let msg = format!("injected transient {} failure", SITES[c]);
            return Err(io::Error::new(io::ErrorKind::Interrupted, msg));
        }
        Ok(action)
    }
}

/// The current disk image of `id`, or all-zero bytes if unreadable.
fn disk_image(inner: &Arc<dyn PageStore>, id: PageId) -> Page {
    let mut img = Page::zeroed();
    if inner.read(id, &mut img).is_err() {
        img.as_bytes_mut().fill(0);
    }
    img
}

impl PageStore for FaultStore {
    fn read(&self, id: PageId, page: &mut Page) -> io::Result<()> {
        self.gate(0)?;
        self.inner.read(id, page)
    }

    fn write(&self, id: PageId, page: &Page) -> io::Result<()> {
        match self.gate(1)? {
            Some(Action::Torn(keep)) => {
                // Land whole sectors of the new image, keep the old tail.
                let keep = keep.clamp(SECTOR, PAGE_SIZE) / SECTOR * SECTOR;
                let mut torn = disk_image(&self.inner, id);
                torn.as_bytes_mut()[..keep].copy_from_slice(&page.as_bytes()[..keep]);
                self.inner.write(id, &torn)
            }
            Some(Action::Lost) => {
                let pre = disk_image(&self.inner, id);
                self.pending_lost.lock().entry(id.0).or_insert(pre);
                self.inner.write(id, page)
            }
            _ => self.inner.write(id, page),
        }
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn ensure_capacity(&self, count: u32) -> io::Result<()> {
        self.inner.ensure_capacity(count)
    }

    fn sync(&self) -> io::Result<()> {
        if let Some(Action::FailedSync) = self.gate(2)? {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected fsync failure: device cache not drained",
            ));
        }
        self.inner.sync()?;
        // A successful fsync drains the volatile cache: pending lost
        // writes become durable.
        self.pending_lost.lock().clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InMemoryStore;
    use gist_chaos::Trigger;

    /// A store of `n` pages under a fresh plan carrying `schedule`.
    fn store_with_pages(
        n: u32,
        schedule: &[(&'static str, Trigger, Action)],
    ) -> (Arc<InMemoryStore>, Arc<Plan>, Arc<FaultStore>) {
        let inner = Arc::new(InMemoryStore::new());
        inner.ensure_capacity(n).unwrap();
        let plan = Plan::new();
        for &(site, trigger, action) in schedule {
            plan.add(site, trigger, action);
        }
        let fs = FaultStore::new(inner.clone(), plan.clone());
        (inner, plan, fs)
    }

    fn page_with(byte: u8) -> Page {
        let mut p = Page::zeroed();
        p.as_bytes_mut().fill(byte);
        p
    }

    #[test]
    fn disarmed_store_passes_through() {
        let (_, plan, fs) =
            store_with_pages(4, &[("store.write", Trigger::At(0), Action::Permanent)]);
        fs.write(PageId(1), &page_with(7)).unwrap();
        let mut back = Page::zeroed();
        fs.read(PageId(1), &mut back).unwrap();
        assert_eq!(back.as_bytes()[0], 7);
        assert!(plan.fired().is_empty(), "disarmed: nothing fires");
    }

    #[test]
    fn transient_fails_then_recovers() {
        let (_, plan, fs) =
            store_with_pages(4, &[("store.read", Trigger::At(1), Action::Transient(2))]);
        plan.arm();
        let mut p = Page::zeroed();
        fs.read(PageId(0), &mut p).unwrap(); // index 0: clean
        let e1 = fs.read(PageId(0), &mut p).unwrap_err(); // index 1: fires
        assert_eq!(e1.kind(), io::ErrorKind::Interrupted);
        let e2 = fs.read(PageId(0), &mut p).unwrap_err(); // index 2: still down
        assert_eq!(e2.kind(), io::ErrorKind::Interrupted);
        fs.read(PageId(0), &mut p).unwrap(); // recovered
        assert_eq!(plan.fires("store.read"), 1);
    }

    #[test]
    fn transient_window_stops_at_disarm() {
        let (_, plan, fs) =
            store_with_pages(4, &[("store.read", Trigger::At(0), Action::Transient(3))]);
        plan.arm();
        let mut p = Page::zeroed();
        assert!(fs.read(PageId(0), &mut p).is_err(), "window opened");
        plan.disarm();
        fs.read(PageId(0), &mut p).unwrap();
        fs.read(PageId(0), &mut p).unwrap();
    }

    #[test]
    fn permanent_fails_forever() {
        let (_, plan, fs) =
            store_with_pages(4, &[("store.write", Trigger::At(0), Action::Permanent)]);
        plan.arm();
        assert!(fs.write(PageId(1), &page_with(1)).is_err());
        assert!(fs.write(PageId(1), &page_with(1)).is_err());
        assert!(fs.write(PageId(2), &page_with(1)).is_err());
        // Reads are a separate class and keep working.
        let mut p = Page::zeroed();
        fs.read(PageId(1), &mut p).unwrap();
    }

    #[test]
    fn torn_write_keeps_old_tail() {
        let (inner, plan, fs) =
            store_with_pages(4, &[("store.write", Trigger::At(0), Action::Torn(1024))]);
        inner.write(PageId(1), &page_with(0xAA)).unwrap();
        plan.arm();
        fs.write(PageId(1), &page_with(0xBB)).unwrap();
        let mut back = Page::zeroed();
        inner.read(PageId(1), &mut back).unwrap();
        assert!(back.as_bytes()[..1024].iter().all(|&b| b == 0xBB), "head landed");
        assert!(back.as_bytes()[1024..].iter().all(|&b| b == 0xAA), "tail is old");
    }

    #[test]
    fn lost_write_rolls_back_at_crash_unless_synced() {
        let (inner, plan, fs) =
            store_with_pages(4, &[("store.write", Trigger::Next(1), Action::Lost)]);
        inner.write(PageId(1), &page_with(0x11)).unwrap();
        plan.arm();
        fs.write(PageId(1), &page_with(0x22)).unwrap();
        // Reads observe the cached write...
        let mut back = Page::zeroed();
        fs.read(PageId(1), &mut back).unwrap();
        assert_eq!(back.as_bytes()[0], 0x22);
        // ...but a crash rolls it back.
        fs.crash_disk().unwrap();
        inner.read(PageId(1), &mut back).unwrap();
        assert_eq!(back.as_bytes()[0], 0x11, "lost write rolled back");

        // Same again with an intervening sync: the write sticks.
        plan.add("store.write", Trigger::Next(1), Action::Lost);
        plan.arm();
        fs.write(PageId(1), &page_with(0x33)).unwrap();
        fs.sync().unwrap();
        fs.crash_disk().unwrap();
        inner.read(PageId(1), &mut back).unwrap();
        assert_eq!(back.as_bytes()[0], 0x33, "synced write survived the crash");
        assert_eq!(plan.fires("store.write"), 2);
    }

    #[test]
    fn failed_sync_keeps_writes_lost() {
        let (inner, plan, fs) = store_with_pages(
            4,
            &[
                ("store.write", Trigger::At(0), Action::Lost),
                ("store.sync", Trigger::At(0), Action::FailedSync),
            ],
        );
        inner.write(PageId(1), &page_with(0x11)).unwrap();
        plan.arm();
        fs.write(PageId(1), &page_with(0x44)).unwrap();
        assert!(fs.sync().is_err(), "fsync failure injected");
        fs.crash_disk().unwrap();
        let mut back = Page::zeroed();
        inner.read(PageId(1), &mut back).unwrap();
        assert_eq!(back.as_bytes()[0], 0x11, "failed fsync did not drain the cache");
    }
}
