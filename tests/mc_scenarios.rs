//! Model-checker scenario suite (`--features model-check`).
//!
//! Drives the `gist-mc` deterministic schedule explorer against the real
//! lock-manager / predicate-manager / WAL / commit-pipeline code,
//! instrumented through the audit hook layer. Three kinds of test live
//! here:
//!
//! 1. **Regression pins** — two races the lock and predicate managers
//!    once had (orphan grant in `release_all` vs `replicate_shared`;
//!    duplicate FIFO attach), which their one-mutex tables now rule out,
//!    and the commit pipeline's park, explored on the current code: every
//!    schedule must satisfy the post-conditions, and the happens-before
//!    detector must report zero races.
//! 2. **Mutation detection** — the commit park's lost wakeup and the
//!    skipped epoch grace period are compiled back in behind `gist_chaos::armed`
//!    switches; the explorer must find a failing schedule within a fixed
//!    budget, and replaying the recorded trace must reproduce it
//!    byte-for-byte.
//! 3. **Exhaustive invariants** — WAL append visibility (every LSN a
//!    reader sees is readable) and the watermark ordering
//!    (`durable ≤ last`), checked at every scheduling point of a
//!    bounded-DFS-enumerated scenario.
//!
//! The fault plan is process-global, and the test harness runs tests on
//! parallel threads, so every test serializes on [`suite_lock`] (the
//! explorer's own lock only covers a single exploration, not the
//! arm/explore/disarm span).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use gist_chaos::{Action, Plan, Trigger};
use gist_commitpipe::CommitPipeline;
use gist_lockmgr::{LockManager, LockMode, LockName};
use gist_mc::{Explorer, Failure, Report, Sim};
use gist_predlock::{NodeKey, PredKind, PredicateManager};
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
// Satellite 1: the commit pipeline's park (lost wakeup).
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
// Satellite 2a: lockmgr orphan grant (release_all vs replicate_shared).
// ---------------------------------------------------------------------------

/// Transaction 7 holds S on node A (pre-seeded on the driver thread).
/// One task terminates it (`release_all`) while another replicates A's
/// signaling locks to a new split sibling B. In every schedule the
/// terminated transaction must end up holding nothing: either the
/// replication happened first and the release swept B too, or the
/// release purged A first and the replication saw no granted owners.
fn lockmgr_orphan_scenario(sim: &mut Sim) {
    let lm = Arc::new(LockManager::with_timeout(Duration::from_secs(5)));
    let txn = TxnId(7);
    let from = LockName::Custom(1);
    let to = LockName::Custom(2);
    lm.lock(txn, from, LockMode::S).expect("uncontended grant");

    let l = lm.clone();
    sim.spawn("terminator", move || l.release_all(txn));
    let l = lm.clone();
    sim.spawn("splitter", move || l.replicate_shared(from, to));

    sim.check(move || {
        for name in [from, to] {
            if let Some(mode) = lm.holds(txn, name) {
                return Err(format!("orphaned {mode:?} grant on {name:?} after release_all"));
            }
        }
        let held = lm.held_by(txn);
        if held.is_empty() {
            Ok(())
        } else {
            Err(format!("held set not empty after release_all: {held:?}"))
        }
    });
}

/// Grant, replication and release each run under the one table lock,
/// so no schedule leaves an orphaned grant (and the HB detector sees no
/// races).
#[test]
fn lockmgr_release_all_never_orphans_replicated_grant() {
    let _serial = suite_lock();
    let report = Explorer::seeded("lockmgr-orphan", 0xA11, 128).run(lockmgr_orphan_scenario);
    report.assert_no_failure();
}

// ---------------------------------------------------------------------------
// Satellite 2b: predlock duplicate FIFO attach (attach vs replicate).
// ---------------------------------------------------------------------------

/// A scan predicate is attached to node A (driver thread). One task
/// attaches it to node B directly while another replicates A's
/// attachments to B (a split). B's FIFO list must never end up with two
/// entries for the same predicate.
fn predlock_duplicate_scenario(sim: &mut Sim) {
    let pm = Arc::new(PredicateManager::new());
    let node_a: NodeKey = (1, PageId(10));
    let node_b: NodeKey = (1, PageId(11));
    let pred = pm.register(TxnId(3), PredKind::Scan, vec![0xAB]);
    assert!(pm.attach(pred, node_a), "fresh attachment");

    let p = pm.clone();
    sim.spawn("attacher", move || {
        p.attach(pred, node_b);
    });
    let p = pm.clone();
    sim.spawn("splitter", move || {
        p.replicate(node_a, node_b, &|_, _| true);
    });

    sim.check(move || {
        let entries = pm.predicates_on(node_b);
        let mut ids: Vec<_> = entries.iter().map(|e| e.id).collect();
        let total = ids.len();
        ids.sort();
        ids.dedup();
        if ids.len() == total {
            Ok(())
        } else {
            Err(format!("duplicate FIFO entries on split sibling: {total} entries, {} distinct", ids.len()))
        }
    });
}

/// Attach and replication each run under the one manager lock, so every
/// schedule stays duplicate-free.
#[test]
fn predlock_attach_never_duplicates_fifo_entry() {
    let _serial = suite_lock();
    let report = Explorer::seeded("predlock-dup", 0xF1F0, 128).run(predlock_duplicate_scenario);
    report.assert_no_failure();
}

// ---------------------------------------------------------------------------
// Satellite 3: WAL append visibility, exhaustively.
// ---------------------------------------------------------------------------

/// LSN 1 is appended on the driver thread. One task appends LSN 2; the
/// other reads `last_lsn()`, requires the record it names to be readable,
/// and syncs to it. At every scheduling point `durable ≤ last` must
/// hold, and no schedule may show the syncer an LSN whose record is not
/// in the log yet — an append takes its LSN and stores its record in one
/// critical section. Kept to two short tasks so bounded DFS can
/// enumerate *every* schedule.
fn wal_append_visibility_scenario(sim: &mut Sim) {
    let log = Arc::new(LogManager::new());
    assert_eq!(log.append(TxnId(1), Lsn::NULL, RecordBody::TxnBegin), Lsn(1));

    let l = log.clone();
    sim.spawn("appender", move || {
        l.append(TxnId(2), Lsn::NULL, RecordBody::TxnBegin);
    });
    let l = log.clone();
    sim.spawn("syncer", move || {
        let last = l.last_lsn();
        assert!(l.try_get(last).is_some(), "an LSN was visible before its record: {last:?}");
        l.fsync_to(last);
    });

    let l = log.clone();
    sim.invariant(move || {
        // Two atomic loads (hooks are suppressed while an invariant runs,
        // so these do not re-enter the scheduler).
        let (durable, last) = (l.flushed_lsn().0, l.last_lsn().0);
        if durable <= last {
            Ok(())
        } else {
            Err(format!("watermark order violated: durable={durable} last={last}"))
        }
    });
    sim.check(move || {
        if log.last_lsn() != Lsn(2) {
            return Err(format!("two appends but last is {:?}", log.last_lsn()));
        }
        if log.get(Lsn(1)).txn == log.get(Lsn(2)).txn {
            return Err("both LSNs hold the same record".to_string());
        }
        let durable = log.fsync_to(Lsn(2));
        if durable == Lsn(2) {
            Ok(())
        } else {
            Err(format!("final sync stopped short: durable={durable:?}"))
        }
    });
}

/// Bounded DFS enumerates *every* schedule of the append/sync race; the
/// watermark invariant holds at each scheduling point, every visible LSN
/// is readable, and the happens-before detector reports zero races.
#[test]
fn wal_appends_publish_atomically_exhaustively() {
    let _serial = suite_lock();
    let report = Explorer::dfs("wal-append-visibility", 200_000).run(wal_append_visibility_scenario);
    report.assert_no_failure();
    assert!(
        report.exhausted,
        "DFS must exhaust the bounded scenario (ran {} schedules)",
        report.iterations
    );
    assert!(report.iterations > 10, "scenario too small to mean anything");
}

// ---------------------------------------------------------------------------
// Optimistic read path 1: seqlock copies vs a concurrent split.
// ---------------------------------------------------------------------------

/// An optimistic reader copies two coupled cells plus the NSN out of a
/// node while a writer applies a split-style update (both cells, the
/// NSN and the rightlink move together under one `PageWriteGuard`).
/// Every copy the reader manages to take must be one of the two
/// coherent states — the version word must make torn copies impossible
/// in every schedule.
fn optimistic_reader_vs_split_scenario(sim: &mut Sim) {
    let store = Arc::new(InMemoryStore::new());
    store.ensure_capacity(16).unwrap();
    let pool = BufferPool::new(store, 8);
    {
        let mut g = pool.new_page_write(PageId(1), 0).unwrap();
        g.insert_cell(&[0]).unwrap();
        g.insert_cell(&[0]).unwrap();
        g.mark_dirty_unlogged();
    }
    let gc = Arc::new(EpochGc::new());

    let observed = Arc::new(Mutex::new(Vec::new()));
    let (p, g2, obs) = (pool.clone(), gc.clone(), observed.clone());
    sim.spawn("reader", move || {
        let _pin = g2.pin();
        for _ in 0..3 {
            let Some(og) = p.fetch_optimistic(PageId(1)).unwrap() else { break };
            let copy = og.read_with(|pg| {
                (
                    pg.cell(0).unwrap()[0],
                    pg.cell(1).unwrap()[0],
                    pg.nsn(),
                )
            });
            if let Some(c) = copy {
                obs.lock().unwrap().push(c);
                break;
            }
        }
    });
    let p = pool.clone();
    sim.spawn("splitter", move || {
        let mut g = p.fetch_write(PageId(1)).unwrap();
        g.update_cell(0, &[7]).unwrap();
        g.update_cell(1, &[7]).unwrap();
        g.set_nsn(1);
        g.set_rightlink(PageId(2));
        g.mark_dirty_unlogged();
    });

    sim.check(move || {
        for (a, b, nsn) in observed.lock().unwrap().iter() {
            let coherent = (*a == 0 && *b == 0 && *nsn == 0) || (*a == 7 && *b == 7 && *nsn == 1);
            if !coherent {
                return Err(format!("torn optimistic copy: a={a} b={b} nsn={nsn}"));
            }
        }
        Ok(())
    });
}

/// Fixed code: no schedule yields a torn copy, under both seeded-random
/// and PCT exploration, and the happens-before detector is quiet.
#[test]
fn optimistic_reader_never_sees_torn_split() {
    let _serial = suite_lock();
    for explorer in [
        Explorer::seeded("opt-split-seeded", 0x0511, 128),
        Explorer::pct("opt-split-pct", 0x0512, 3, 128),
    ] {
        let report = explorer.run(optimistic_reader_vs_split_scenario);
        report.assert_no_failure();
    }
}

// ---------------------------------------------------------------------------
// Optimistic read path 2: epoch pin vs §7.2 drain-free-reuse.
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
