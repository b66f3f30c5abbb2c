//! Model-checker scenario suite (`--features model-check`).
//!
//! Drives the `gist-mc` deterministic schedule explorer against the real
//! log, buffer-pool and epoch code, instrumented through the audit hook
//! layer. Two scenarios live here, each paired with the mutation switch
//! that proves it fires:
//!
//! 1. **The log's sync path** — two committers and a page write-back
//!    sync through `LogManager::sync_to`, as leader or as follower, and
//!    no schedule lets one return before its LSN is durable; arming
//!    `log.sync-follower-early` makes PCT find one.
//! 2. **Epoch pin vs §7.2 drain-free-reuse** — no schedule shows a pinned
//!    optimistic reader a reused page; arming `epoch.skip-retire` makes
//!    seeded exploration find one.
//!
//! Each fixed-code test explores the current code and requires every
//! schedule to pass; each mutation test arms its `gist_chaos::armed`
//! switch, requires a failing schedule within a fixed budget, and
//! requires the minimized trace to replay byte-for-byte.
//!
//! The fault plan is process-global, and the test harness runs tests on
//! parallel threads, so every test serializes on [`suite_lock`] (the
//! explorer's own lock only covers a single exploration, not the
//! arm/explore/disarm span).

use std::collections::BTreeSet;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use gist_chaos::{Action, Plan, Trigger};
use gist_mc::{Explorer, Failure, Report, Sim};
use gist_wal::{LogManager, Lsn, RecordBody, TxnId};

use gist_epoch::EpochGc;
use gist_pagestore::{BufferPool, InMemoryStore, Page, PageId, PageStore};

/// Serializes the whole suite: the installed fault plan is global state.
fn suite_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Arms a mutation switch for the guard's lifetime (a process-wide plan
/// firing at every occurrence); uninstalls on drop even if the test
/// panics, so a failure cannot poison later tests.
struct Armed;

impl Armed {
    fn new(name: &'static str) -> Armed {
        let plan = gist_chaos::install(Plan::new());
        plan.add(name, Trigger::Always, Action::Error);
        plan.arm();
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        gist_chaos::uninstall();
    }
}

/// A mutation-detection failure must replay byte-for-byte: re-running the
/// minimized trace (with the mutation still armed) reproduces the same
/// failure class and re-records the identical serialized trace.
fn assert_replays_byte_for_byte(report: &Report, scenario: impl Fn(&mut Sim)) {
    let failure = report.failure.as_ref().expect("caller found a failure");
    let explorer =
        Explorer::replay(&format!("{}-replay", report.scenario), failure.minimized.clone());
    let (replayed, trace) = explorer.run_verbatim(scenario);
    let refailure = replayed.failure.expect("replay must reproduce the failure");
    assert_eq!(
        std::mem::discriminant(&refailure.failure),
        std::mem::discriminant(&failure.failure),
        "replayed failure class differs: {} vs {}",
        refailure.failure,
        failure.failure
    );
    assert_eq!(
        trace.serialize(),
        failure.minimized.serialize(),
        "replay must re-record the identical trace"
    );
}

// ---------------------------------------------------------------------------
// The log's sync path: leader and follower.
// ---------------------------------------------------------------------------

/// A store that flags any page written back ahead of the log
/// (WAL-before-data: the page LSN must already be durable).
struct WalCheckedStore {
    inner: InMemoryStore,
    log: Arc<LogManager>,
    ahead_of_log: AtomicBool,
}

impl PageStore for WalCheckedStore {
    fn read(&self, id: PageId, page: &mut Page) -> io::Result<()> {
        self.inner.read(id, page)
    }

    fn write(&self, id: PageId, page: &Page) -> io::Result<()> {
        if page.page_lsn() > self.log.flushed_lsn() {
            self.ahead_of_log.store(true, Ordering::SeqCst);
        }
        self.inner.write(id, page)
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn ensure_capacity(&self, count: u32) -> io::Result<()> {
        self.inner.ensure_capacity(count)
    }

    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }
}

/// Two committers each append a commit record and sync through it with
/// the production `LogManager::sync_to`; a writer loads a page into a
/// one-frame pool, which evicts a dirty page whose write-back syncs the
/// log through that page's LSN first. Whoever takes the device first leads and syncs the whole log;
/// the others either queue behind it and find themselves covered, or
/// lead a later sync. In every schedule each committer must return with
/// its record durable and the page must not reach the store ahead of
/// the log. `syncs` collects each schedule's device-sync count, so a
/// test can see that schedules with one leader and with several were
/// both explored.
fn log_sync_scenario(sim: &mut Sim, syncs: &Arc<Mutex<BTreeSet<u64>>>) {
    let log = Arc::new(LogManager::new());
    let store = Arc::new(WalCheckedStore {
        inner: InMemoryStore::new(),
        log: log.clone(),
        ahead_of_log: AtomicBool::new(false),
    });
    store.ensure_capacity(4).unwrap();
    let pool = BufferPool::new(store.clone(), 1);
    pool.set_log(log.clone());
    let page_lsn = log.append(TxnId(3), Lsn::NULL, RecordBody::Noop);
    {
        let mut g = pool.new_page_write(PageId(1), 0).unwrap();
        g.insert_cell(b"dirty").unwrap();
        g.mark_dirty(page_lsn);
    }

    let covered: Arc<[AtomicBool; 2]> = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
    for (i, name) in ["committer-a", "committer-b"].into_iter().enumerate() {
        let (log, covered) = (log.clone(), covered.clone());
        sim.spawn(name, move || {
            let lsn = log.append(TxnId(i as u64 + 1), Lsn::NULL, RecordBody::TxnCommit);
            let durable = log.sync_to(lsn).is_ok() && log.flushed_lsn() >= lsn;
            covered[i].store(durable, Ordering::SeqCst);
        });
    }
    sim.spawn("writer", move || {
        drop(pool.new_page_write(PageId(2), 0).unwrap());
    });

    let syncs = syncs.clone();
    sim.check(move || {
        syncs.lock().unwrap().insert(log.syncs());
        for (i, c) in covered.iter().enumerate() {
            if !c.load(Ordering::SeqCst) {
                return Err(format!("committer {i} returned before its commit was durable"));
            }
        }
        if store.ahead_of_log.load(Ordering::SeqCst) {
            return Err("a page was written back ahead of the log".to_string());
        }
        Ok(())
    });
}

/// Fixed code: every schedule passes, and the explored schedules include
/// one where a single sync served all three callers and one where
/// several syncs ran.
#[test]
fn log_sync_leader_and_followers_are_durable() {
    let _serial = suite_lock();
    let syncs = Arc::new(Mutex::new(BTreeSet::new()));
    for explorer in [
        Explorer::seeded("log-sync-seeded", 0x5EED, 64),
        Explorer::pct("log-sync-pct", 0x9C7, 3, 64),
    ] {
        explorer.run(|sim| log_sync_scenario(sim, &syncs)).assert_no_failure();
    }
    let seen = syncs.lock().unwrap().clone();
    assert!(seen.contains(&1), "no schedule had one sync serve everyone: {seen:?}");
    assert!(seen.iter().any(|&n| n > 1), "no schedule ran several syncs: {seen:?}");
}

/// Arm `log.sync-follower-early` (a caller that finds the device busy
/// returns as if the leader's sync covered it): the explorer must find
/// a schedule where a committer returns with its record not yet durable,
/// or a page reaches the store ahead of the log, and the minimized trace
/// must replay byte for byte.
///
/// The window is the leader's device sync, between taking the device and
/// storing the horizon; a follower must try the device inside it, so
/// PCT with one priority-change point finds it.
#[test]
fn log_sync_follower_early_mutation_is_found() {
    let _serial = suite_lock();
    let _armed = Armed::new("log.sync-follower-early");
    let syncs = Arc::new(Mutex::new(BTreeSet::new()));
    let scenario = |sim: &mut Sim| log_sync_scenario(sim, &syncs);
    let report = Explorer::pct("log-sync-follower-early", 0x5EED, 2, 2048)
        .max_steps(128)
        .run(scenario);
    let failure = report.failure.as_ref().expect("mutation must be detected within budget");
    assert!(
        matches!(failure.failure, Failure::PostCondition { .. }),
        "expected a post-condition failure, got {}",
        failure.failure
    );
    assert_replays_byte_for_byte(&report, scenario);
}

// ---------------------------------------------------------------------------
// Optimistic read path: epoch pin vs §7.2 drain-free-reuse.
// ---------------------------------------------------------------------------

/// The type-confusion race the epoch bin exists to prevent. Node 1 is a
/// parent holding a pointer to child node 2. The reader pins an epoch,
/// takes a validated copy of the parent, and — if the pointer was still
/// present — follows it to the child under the same pin. The drainer
/// detaches the child from the parent, empties it, and retires the
/// "free + reuse by an unrelated node" through the epoch bin.
///
/// Invariant: a validated parent copy containing the pointer proves the
/// detach (and therefore the retire, which the drainer issues after it)
/// had not happened when the reader pinned — so the reuse must be
/// deferred past the reader's unpin, and a validated copy of the child
/// can never show the reused identity.
fn optimistic_reader_vs_drain_scenario(sim: &mut Sim) {
    let store = Arc::new(InMemoryStore::new());
    store.ensure_capacity(16).unwrap();
    let pool = BufferPool::new(store, 8);
    {
        let mut g = pool.new_page_write(PageId(1), 1).unwrap();
        g.insert_cell(&[2]).unwrap(); // "pointer" to the child
        g.mark_dirty_unlogged();
    }
    {
        let mut g = pool.new_page_write(PageId(2), 0).unwrap();
        g.insert_cell(b"live").unwrap();
        g.mark_dirty_unlogged();
    }
    let gc = Arc::new(EpochGc::new());

    let saw_reused = Arc::new(AtomicBool::new(false));
    let (p, g2, saw) = (pool.clone(), gc.clone(), saw_reused.clone());
    sim.spawn("reader", move || {
        let _pin = g2.pin();
        let og = p.fetch_optimistic(PageId(1)).unwrap();
        let Some(ptr) = og.read_with(|pg| pg.cell(0).map(|c| c[0])) else { return };
        drop(og);
        if ptr.is_none() {
            return; // validated copy says the drain already detached it
        }
        let og = p.fetch_optimistic(PageId(2)).unwrap();
        if let Some(Some(marker)) = og.read_with(|pg| pg.cell(0).map(<[u8]>::to_vec)) {
            if marker == b"reused" {
                saw.store(true, Ordering::SeqCst);
            }
        }
    });
    let (p, g2) = (pool.clone(), gc.clone());
    sim.spawn("drainer", move || {
        // §7.2 order: detach from the parent first ...
        {
            let mut g = p.fetch_write(PageId(1)).unwrap();
            g.delete_cell(0);
            g.mark_dirty_unlogged();
        }
        // ... drain the child empty ...
        {
            let mut g = p.fetch_write(PageId(2)).unwrap();
            g.clear_cells();
            g.mark_dirty_unlogged();
        }
        // ... then retire the free; the closure models the allocator
        // handing the page straight to an unrelated node.
        let p2 = p.clone();
        g2.retire(move || {
            let mut g = p2.fetch_write(PageId(2)).unwrap();
            g.clear_cells();
            g.insert_cell(b"reused").unwrap();
            g.mark_dirty_unlogged();
        });
    });

    let gc2 = gc.clone();
    sim.check(move || {
        // Both tasks are done (reader unpinned): the deferred free must
        // now be collectable — nothing may leak in the bin.
        gc2.try_collect();
        let pending = gc2.stats().pending;
        if pending != 0 {
            return Err(format!("epoch bin leaked {pending} frees at quiescence"));
        }
        if saw_reused.load(Ordering::SeqCst) {
            Err("validated copy of a reused page taken under a live pin".to_string())
        } else {
            Ok(())
        }
    });
}

/// Fixed code: in every schedule the reuse stays invisible to the
/// pinned reader and the bin drains at quiescence.
#[test]
fn optimistic_reader_never_sees_reused_page() {
    let _serial = suite_lock();
    for explorer in [
        Explorer::seeded("opt-drain-seeded", 0xD7A1, 128),
        Explorer::pct("opt-drain-pct", 0xD7A2, 3, 128),
    ] {
        let report = explorer.run(optimistic_reader_vs_drain_scenario);
        report.assert_no_failure();
    }
}

/// Arm `epoch.skip-retire` (frees run inline, ignoring live pins): the
/// explorer must find a schedule where the pinned reader's validated
/// child copy shows the reused identity, and the minimized trace must
/// replay byte-for-byte.
#[test]
fn epoch_skip_retire_mutation_is_found() {
    let _serial = suite_lock();
    let _armed = Armed::new("epoch.skip-retire");
    let report =
        Explorer::seeded("opt-drain-mut", 0xD7A3, 512).run(optimistic_reader_vs_drain_scenario);
    let failure = report.failure.as_ref().expect("mutation must be detected within budget");
    assert!(
        matches!(failure.failure, Failure::PostCondition { .. }),
        "expected a post-condition failure, got {}",
        failure.failure
    );
    assert!(failure.failure.to_string().contains("reused"), "{}", failure.failure);
    assert_replays_byte_for_byte(&report, optimistic_reader_vs_drain_scenario);
}
