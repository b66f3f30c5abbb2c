//! Model-checker scenario suite (`--features model-check`).
//!
//! Drives the `gist-mc` deterministic schedule explorer against the real
//! commit-pipeline, buffer-pool and epoch code, instrumented through the
//! audit hook layer. Two scenarios live here, each paired with the
//! mutation switch that proves it fires:
//!
//! 1. **The commit pipeline's park** — no schedule loses the flusher's
//!    wakeup; arming `commitpipe.park-unguarded` makes PCT find one.
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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use gist_chaos::{Action, Plan, Trigger};
use gist_commitpipe::CommitPipeline;
use gist_mc::{Explorer, Failure, Report, Sim};
use gist_wal::{LogManager, Lsn, RecordBody, TxnId};

use gist_epoch::EpochGc;
use gist_pagestore::{BufferPool, InMemoryStore, PageId, PageStore};

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
/// `deadline_is_failure` must match the exploration that found the
/// failure — a lost-wakeup trace only fails again if the replay also
/// treats fired timeouts as failures.
fn assert_replays_byte_for_byte(
    report: &Report,
    deadline_is_failure: bool,
    scenario: impl Fn(&mut Sim),
) {
    let failure = report.failure.as_ref().expect("caller found a failure");
    let mut explorer =
        Explorer::replay(&format!("{}-replay", report.scenario), failure.minimized.clone());
    if deadline_is_failure {
        explorer = explorer.deadline_is_failure();
    }
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
// The commit pipeline's park (lost wakeup).
// ---------------------------------------------------------------------------

/// One committer parks on LSN 1 through the production
/// `commit_durable`; one flusher runs the production flusher turn
/// (`flush_step`, the whole body of the real flusher thread's loop). The
/// park's timeout is real time, far longer than any exploration, so in a
/// correct implementation its *virtual* timeout never fires: the
/// committer checks the horizon under the state mutex the flusher takes
/// to notify, so the notify cannot be missed. `woke` records whether the
/// commit was acknowledged.
fn commit_park_scenario(sim: &mut Sim) {
    let log = Arc::new(LogManager::new());
    let lsn = log.append(TxnId(1), Lsn::NULL, RecordBody::TxnCommit);
    let pipe = CommitPipeline::new(log);
    let woke = Arc::new(AtomicBool::new(false));

    let (p, w) = (pipe.clone(), woke.clone());
    sim.spawn("committer", move || {
        w.store(p.commit_durable(lsn).is_ok(), Ordering::SeqCst);
    });
    sim.spawn("flusher", move || {
        pipe.flush_step();
    });

    sim.check(move || {
        if woke.load(Ordering::SeqCst) {
            Ok(())
        } else {
            Err("committer missed the durability notification".to_string())
        }
    });
}

/// Fixed code: no schedule may lose the wakeup — the committer's virtual
/// timeout never fires (`deadline_is_failure` turns any firing into a
/// [`Failure::LostWakeup`]) and every schedule acknowledges the commit.
#[test]
fn commit_park_never_loses_wakeup() {
    let _serial = suite_lock();
    for (name, explorer) in [
        ("commit-park-seeded", Explorer::seeded("commit-park-seeded", 0x5EED, 64)),
        ("commit-park-pct", Explorer::pct("commit-park-pct", 0x9C7, 3, 64)),
    ] {
        let report = explorer.deadline_is_failure().run(commit_park_scenario);
        report.assert_no_failure();
        assert_eq!(report.timeouts_fired, 0, "{name}: a virtual timeout fired");
    }
}

/// Reintroduce the lost wakeup (the park checks the horizon before
/// taking the state mutex): the explorer must find a schedule that loses
/// the wakeup, and the trace must replay.
///
/// This is a textbook depth-2 bug — the flusher's sync and notify must
/// land inside the window between the committer's unguarded horizon
/// check and its park — so PCT (one priority-change point) finds it
/// where uniform random choice would need luck. The small `max_steps`
/// keeps the change-point sampling dense.
#[test]
fn commit_park_mutation_lost_wakeup_is_found() {
    let _serial = suite_lock();
    let _armed = Armed::new("commitpipe.park-unguarded");
    let report = Explorer::pct("commit-park-lost-wakeup", 0x5EED, 2, 2048)
        .max_steps(128)
        .deadline_is_failure()
        .run(commit_park_scenario);
    let failure = report.failure.as_ref().expect("mutation must be detected within budget");
    assert!(
        matches!(failure.failure, Failure::LostWakeup { .. }),
        "expected a lost wakeup, got {}",
        failure.failure
    );
    assert_replays_byte_for_byte(&report, true, commit_park_scenario);
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
        let Some(og) = p.fetch_optimistic(PageId(1)).unwrap() else { return };
        let Some(ptr) = og.read_with(|pg| pg.cell(0).map(|c| c[0])) else { return };
        drop(og);
        if ptr.is_none() {
            return; // validated copy says the drain already detached it
        }
        let Some(og) = p.fetch_optimistic(PageId(2)).unwrap() else { return };
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
    assert_replays_byte_for_byte(&report, false, optimistic_reader_vs_drain_scenario);
}
