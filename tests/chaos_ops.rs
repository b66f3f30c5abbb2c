//! Operation-level chaos harness (`--features chaos`).
//!
//! Enumerates the chaos crate's crash points (`POINTS`) and, for every
//! point, drives a victim transaction into it with the point armed to
//! inject an error or a panic. The contract under test is the PR-5
//! robustness tentpole:
//!
//! - nothing hangs: peers keep making progress while a victim dies
//!   mid-operation (its latches are RAII, its locks/predicates are
//!   released by the abort the error/panic forces);
//! - the victim rolls back completely (logical undo through partial
//!   splits included) — except `commit.after_wal_flush`, where the
//!   commit record is durable and the transaction's effects must
//!   *persist* (the "lost ack" case: the failure happened after the
//!   point of no return);
//! - the tree passes `check_tree` afterwards;
//! - a crash + restart right after the chaos recovers to the same
//!   committed state.
//!
//! The installed fault plan is process-global, so every test in this
//! binary serializes on one mutex and uninstalls on entry/exit.

#![cfg(feature = "chaos")]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use gist_repro::am::{BtreeExt, I64Query};
use gist_repro::chaos::{self, Action, Plan, Trigger};
use gist_repro::core::check::check_tree;
use gist_repro::core::{Db, DbConfig, GistError, GistIndex, IndexOptions};
use gist_repro::pagestore::{InMemoryStore, PageId, Rid};
use gist_repro::txn::TxnError;
use gist_repro::wal::{LogManager, TxnId};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A poisoned mutex only means an earlier chaos test panicked, which
    // some of them legitimately do under test; the guard is still good.
    let g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    chaos::uninstall();
    g
}

/// Install a fresh, armed process-wide plan firing `action` at `point`
/// under `trigger`.
fn arm(point: &'static str, trigger: Trigger, action: Action) -> Arc<Plan> {
    let plan = chaos::install(Plan::new());
    plan.add(point, trigger, action);
    plan.arm();
    plan
}

fn rid(n: u64) -> Rid {
    Rid::new(PageId((n >> 16) as u32 + 100_000), (n & 0xFFFF) as u16)
}

const BASELINE: i64 = 400;
const VICTIM_LO: i64 = 10_000;

struct Harness {
    store: Arc<InMemoryStore>,
    log: Arc<LogManager>,
    config: DbConfig,
}

impl Harness {
    fn new(config: DbConfig) -> Self {
        Harness { store: Arc::new(InMemoryStore::new()), log: Arc::new(LogManager::new()), config }
    }

    /// Fresh database with `BASELINE` committed keys `0..BASELINE`.
    fn open(&self) -> (Arc<Db>, Arc<GistIndex<BtreeExt>>) {
        let db = Db::open(self.store.clone(), self.log.clone(), self.config.clone()).unwrap();
        let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        let txn = db.begin();
        for k in 0..BASELINE {
            idx.insert(txn, &k, rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();
        (db, idx)
    }

    fn restart(&self) -> (Arc<Db>, Arc<GistIndex<BtreeExt>>) {
        let (db, _report) =
            Db::restart(self.store.clone(), self.log.clone(), self.config.clone()).unwrap();
        let idx = GistIndex::open(db.clone(), "t", BtreeExt).unwrap();
        (db, idx)
    }
}

fn keys_in(db: &Arc<Db>, idx: &Arc<GistIndex<BtreeExt>>, lo: i64, hi: i64) -> Vec<i64> {
    let txn = db.begin();
    let mut ks: Vec<i64> =
        idx.search(txn, &I64Query::range(lo, hi)).unwrap().into_iter().map(|(k, _)| k).collect();
    db.commit(txn).unwrap();
    ks.sort();
    ks
}

/// What a victim transaction does to reach a given chaos point. The
/// bodies run inside [`Db::contained`], so a `Panic` arm surfaces as
/// [`GistError::Panicked`] with the transaction already aborted.
fn victim_body(
    idx: &Arc<GistIndex<BtreeExt>>,
    txn: TxnId,
    point: &'static str,
    plan: &Plan,
) -> gist_repro::core::Result<()> {
    if point.starts_with("insert.") {
        // Enough sequential inserts to force leaf splits, so the
        // `insert.split.*` points fire inside this transaction too; the
        // plain insert points fire on the first key.
        for i in 0..2000i64 {
            let k = VICTIM_LO + i;
            idx.insert(txn, &k, rid(k as u64))?;
            if plan.fires(point) > 0 {
                // The injection already happened on an *earlier* key
                // (a spent trigger lets later keys through); stop so
                // the test's "rolled back" assertion sees a doomed txn.
                unreachable!("an armed point always surfaces as an error");
            }
        }
        Ok(())
    } else if point.starts_with("delete.") {
        for k in 0..10i64 {
            idx.delete(txn, &k, rid(k as u64))?;
        }
        Ok(())
    } else if point == "cursor.before_next" {
        // A latched-path point: with optimistic reads on (the default)
        // a quiescent search drains latch-free and never reaches
        // `next_inner`, so drive the latched cursor directly.
        let mut c = idx.cursor(txn, I64Query::range(0, BASELINE))?;
        let hits = c.collect_all()?;
        assert_eq!(hits.len(), BASELINE as usize);
        Ok(())
    } else if point.starts_with("cursor.") {
        let hits = idx.search(txn, &I64Query::range(0, BASELINE))?;
        assert_eq!(hits.len(), BASELINE as usize);
        Ok(())
    } else {
        unreachable!("victim_body does not drive point {point}")
    }
}

/// Expected location of the victim's (un)done work once the dust settles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Victim aborted: none of its writes survive, baseline intact.
    RolledBack,
    /// `commit.after_wal_flush`: the commit is durable, effects persist.
    Committed,
}

/// Drive one `(point, action)` scenario deterministically (no peers) and
/// assert rollback/commit semantics, tree health, and restart recovery.
fn run_point_scenario(point: &'static str, action: Action) {
    let h = Harness::new(DbConfig::default());
    let (db, idx) = h.open();

    let plan;
    let expect;
    if point.starts_with("commit.") {
        // Victim inserts, then the injection hits inside commit — after
        // the commit record is appended and the transaction is marked
        // committed (`commit.before_durable_wait` fires before the
        // durability park, `commit.after_wal_flush` after it), i.e.
        // after the point of no return. The error (or unwind) must not
        // un-commit it; the lost-ack abort below completes the commit
        // including its durability promise.
        let txn = db.begin();
        for k in VICTIM_LO..VICTIM_LO + 3 {
            idx.insert(txn, &k, rid(k as u64)).unwrap();
        }
        plan = arm(point, Trigger::Next(1), action);
        let r = db.contained(txn, || db.commit(txn));
        assert!(r.is_err(), "armed commit point must surface: {r:?}");
        // The lost-ack protocol: a retrying caller aborts before retry,
        // and abort on a committed transaction completes the commit
        // instead of undoing it. Under the Panic arm, `contained` already
        // issued that abort internally, so ours may find the transaction
        // gone — also fine, the commit stands either way.
        match action {
            Action::Error => db.abort(txn).unwrap(),
            _ => {
                let _ = db.abort(txn);
            }
        }
        expect = Expect::Committed;
    } else if point == "abort.before_undo" {
        let txn = db.begin();
        for k in VICTIM_LO..VICTIM_LO + 3 {
            idx.insert(txn, &k, rid(k as u64)).unwrap();
        }
        plan = arm(point, Trigger::Next(1), action);
        let r = db.contained(txn, || db.abort(txn));
        match action {
            // The Error arm fires before any undo: abort fails cleanly
            // and must be retryable as-is.
            Action::Error => {
                assert!(r.is_err(), "armed abort point must surface");
                db.abort(txn).unwrap();
            }
            // The Panic arm unwinds out of abort; `contained` catches it
            // and its own internal abort (the point is now disarmed)
            // finishes the rollback.
            Action::Panic => {
                assert!(matches!(r, Err(GistError::Panicked(_))), "{r:?}");
                let _ = db.abort(txn);
            }
            _ => unreachable!("scenario only arms Error/Panic"),
        }
        expect = Expect::RolledBack;
    } else {
        let txn = db.begin();
        plan = arm(point, Trigger::Next(1), action);
        let r = db.contained(txn, || victim_body(&idx, txn, point, &plan));
        assert!(r.is_err(), "armed point {point} must surface an error: {r:?}");
        match action {
            Action::Panic => {
                assert!(
                    matches!(r, Err(GistError::Panicked(_))),
                    "panic arm surfaces as Panicked: {r:?}"
                );
                // `contained` already aborted the poisoned transaction;
                // every further use must be refused as must-abort/ended.
                let reuse = idx.insert(txn, &(VICTIM_LO + 5000), rid(5000));
                assert!(reuse.is_err(), "poisoned txn must refuse new operations");
            }
            Action::Error => {
                db.abort(txn).unwrap();
            }
            _ => unreachable!("scenario only arms Error/Panic"),
        }
        expect = Expect::RolledBack;
    }
    assert_eq!(plan.fires(point), 1, "the armed point fired exactly once");
    chaos::uninstall();

    // Post-state: baseline intact, victim writes per `expect`.
    let assert_state = |db: &Arc<Db>, idx: &Arc<GistIndex<BtreeExt>>, phase: &str| {
        check_tree(idx).unwrap().assert_ok();
        let base = keys_in(db, idx, 0, BASELINE);
        assert_eq!(base, (0..BASELINE).collect::<Vec<i64>>(), "{point}/{phase}: baseline");
        let victim = keys_in(db, idx, VICTIM_LO, VICTIM_LO + 100_000);
        match expect {
            Expect::RolledBack => {
                assert!(victim.is_empty(), "{point}/{phase}: victim rolled back, got {victim:?}")
            }
            Expect::Committed => {
                assert_eq!(victim.len(), 3, "{point}/{phase}: lost-ack commit persists")
            }
        }
    };
    assert_state(&db, &idx, "live");

    // Crash + restart right on the heels of the chaos: recovery replays
    // to exactly the same committed state.
    db.crash();
    let (db2, idx2) = h.restart();
    assert_state(&db2, &idx2, "restarted");
}

/// The catalog points drivable by a foreground victim transaction.
/// `maint.before_gc` fires on the maintenance daemon and has its own
/// test below; the `log.sync.*` points fire on whichever thread syncs
/// (a peer's commit, a write-back) and, with `commit.pre_append`, are
/// covered by the sync crash tests in `tests/fault_recovery.rs`; the
/// `serve.*` points fire on the serving layer's accept/dispatch/drain
/// path and are swept by the session-teardown drill in `tests/serve.rs`.
fn foreground_points() -> Vec<&'static str> {
    chaos::POINTS
        .iter()
        .copied()
        .filter(|p| {
            !p.starts_with("maint.")
                && !p.starts_with("log.")
                && *p != "commit.pre_append"
                && !p.starts_with("serve.")
        })
        .collect()
}

#[test]
fn per_point_error_injection_rolls_back_cleanly() {
    let _g = serial();
    for point in foreground_points() {
        run_point_scenario(point, Action::Error);
    }
}

/// Suppress the default panic printout for the *intentional* chaos
/// panics (they are the test subject and would drown the output);
/// genuine test failures still print normally.
fn quiet_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("chaos: armed panic"));
            if !injected {
                prev(info);
            }
        }));
    });
}

#[test]
fn per_point_panic_is_contained_and_rolls_back() {
    let _g = serial();
    quiet_chaos_panics();
    for point in foreground_points() {
        run_point_scenario(point, Action::Panic);
    }
}

#[test]
fn maint_gc_point_retries_and_recovers() {
    let _g = serial();
    let h = Harness::new(DbConfig::default());
    let (db, idx) = h.open();
    // A committed delete hands the leaf to the daemon as a GC candidate.
    let txn = db.begin();
    for k in 0..5i64 {
        idx.delete(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    assert!(db.maint().backlog() > 0, "GC candidates enqueued at commit");

    // The injection surfaces as MaintError::Retry: the daemon backs off
    // and the retry (point disarmed after one fire) succeeds.
    let plan = arm("maint.before_gc", Trigger::Next(1), Action::Error);
    let processed = db.maint_sync();
    assert_eq!(plan.fires("maint.before_gc"), 1);
    chaos::uninstall();
    assert!(processed > 0, "daemon drained its queue");
    let stats = db.maint_stats();
    assert!(stats.retries >= 1, "injected fault took the retry path: {stats:?}");
    assert!(stats.gc_runs >= 2, "GC ran again after the injected failure: {stats:?}");
    check_tree(&idx).unwrap().assert_ok();
    let base = keys_in(&db, &idx, 0, BASELINE);
    assert_eq!(base, (5..BASELINE).collect::<Vec<i64>>(), "deletes GC'd, rest intact");
}

/// Chaos-tolerant retry loop for peers: injected faults and contained
/// panics abort-and-retry like deadlocks do.
fn peer_insert(db: &Arc<Db>, idx: &Arc<GistIndex<BtreeExt>>, k: i64) {
    loop {
        let txn = db.begin();
        let insert = db.contained(txn, || idx.insert(txn, &k, rid(k as u64)));
        let insert_ok = insert.is_ok();
        let r = insert.and_then(|()| db.commit(txn));
        match r {
            Ok(()) => return,
            Err(e) => {
                let _ = db.abort(txn);
                // An error surfaced by `commit` itself is ambiguous: the
                // commit record may already be durable (a lost ack, not a
                // lost commit). Resolve it the way a client re-driving a
                // network commit must — probe before retrying. The probe
                // ends with `abort` so it can't trip the armed commit
                // point itself.
                if insert_ok {
                    let probe = db.begin();
                    let present = idx
                        .search(probe, &I64Query::range(k, k))
                        .map(|hits| !hits.is_empty())
                        .unwrap_or(false);
                    let _ = db.abort(probe);
                    if present {
                        return;
                    }
                }
                match e {
                    GistError::Injected(_)
                    | GistError::Panicked(_)
                    | GistError::Txn(TxnError::Injected(_))
                    | GistError::Txn(TxnError::MustAbort(_)) => continue,
                    e if e.is_retryable() => continue,
                    e => panic!("peer hit a non-chaos error: {e}"),
                }
            }
        }
    }
}

#[test]
fn per_point_peers_survive_concurrent_chaos() {
    let _g = serial();
    quiet_chaos_panics();
    {
        // Debug aid: `CHAOS_POINT=<name>` narrows the sweep to one point.
        let only = std::env::var("CHAOS_POINT").ok();
        for (pi, point) in foreground_points().into_iter().enumerate() {
            if only.as_deref().is_some_and(|p| p != point) {
                continue;
            }
            let h = Harness::new(DbConfig::default());
            let (db, idx) = h.open();
            // Both actions, several fires: whoever trips the point dies
            // and retries; everyone must finish and the tree must hold.
            arm(point, Trigger::Next(2), Action::Error);
            let mut workers = Vec::new();
            for t in 0..4i64 {
                let (db, idx) = (db.clone(), idx.clone());
                workers.push(std::thread::spawn(move || {
                    for i in 0..40i64 {
                        let k = VICTIM_LO + t * 1000 + i;
                        peer_insert(&db, &idx, k);
                        if i == 20 {
                            // Mixed workload: scans and deletes too.
                            let txn = db.begin();
                            let _ = db
                                .contained(txn, || {
                                    idx.search(txn, &I64Query::range(0, BASELINE)).map(|_| ())
                                })
                                .and_then(|()| db.commit(txn));
                            let _ = db.abort(txn);
                        }
                    }
                }));
            }
            for w in workers {
                w.join().unwrap();
            }
            chaos::uninstall();
            check_tree(&idx).unwrap().assert_ok();
            let got = keys_in(&db, &idx, VICTIM_LO, VICTIM_LO + 100_000);
            assert_eq!(got.len(), 160, "point {pi} {point}: every peer insert committed");
        }
    }
}

#[test]
fn run_txn_resolves_eight_thread_deadlock_storm() {
    let _g = serial();
    let h = Harness::new(DbConfig::default());
    let (db, idx) = h.open();
    const THREADS: usize = 8;

    // Ring records: key 20_000+t with its own RID. Thread t deletes its
    // own record (X-locking r_t), rendezvouses, then deletes its
    // neighbor's (asking for r_{t+1}) — a guaranteed 8-cycle. Every
    // thread uses run_txn and nothing else: victims abort, back off with
    // jitter, and retry internally. A retry may find a record its
    // neighbor already reaped; delete-if-present keeps the closure
    // idempotent, exactly as `run_txn` requires.
    let ring: Vec<Rid> = (0..THREADS as u64).map(|i| rid(900_000 + i)).collect();
    {
        let txn = db.begin();
        for (t, r) in ring.iter().enumerate() {
            idx.insert(txn, &(20_000 + t as i64), *r).unwrap();
        }
        db.commit(txn).unwrap();
    }
    let barrier = Arc::new(Barrier::new(THREADS));
    let storms = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let (db, idx, ring, barrier, storms) =
            (db.clone(), idx.clone(), ring.clone(), barrier.clone(), storms.clone());
        workers.push(std::thread::spawn(move || {
            let first = Arc::new(AtomicBool::new(true));
            let reap = |txn, k: i64, r: Rid| match idx.delete(txn, &k, r) {
                Err(GistError::NotFound) => Ok(()),
                other => other,
            };
            db.run_txn(|txn| {
                // Each thread also commits one unique insert, so the
                // storm exercises the write path alongside the deletes.
                idx.insert(txn, &(21_000 + t as i64), rid(910_000 + t as u64))?;
                reap(txn, 20_000 + t as i64, ring[t])?;
                if first.swap(false, Ordering::SeqCst) {
                    // Rendezvous only on the first attempt, with every
                    // ring lock held — the cycle is now inevitable.
                    barrier.wait();
                    storms.fetch_add(1, Ordering::SeqCst);
                }
                reap(txn, 20_000 + ((t + 1) % THREADS) as i64, ring[(t + 1) % THREADS])?;
                Ok(())
            })
            .unwrap();
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(storms.load(Ordering::SeqCst), THREADS as u64);
    let stats = db.robustness_stats();
    assert!(stats.lock_deadlocks >= 1, "the ring produced deadlock victims: {stats:?}");
    assert!(stats.txn_retries >= 1, "victims retried inside run_txn: {stats:?}");
    assert!(stats.backoff_micros > 0, "retries slept a jittered backoff: {stats:?}");
    let reaped = keys_in(&db, &idx, 20_000, 20_999);
    assert!(reaped.is_empty(), "every ring record was reaped exactly once: {reaped:?}");
    let grown = keys_in(&db, &idx, 21_000, 21_999);
    assert_eq!(grown.len(), THREADS, "every storm participant committed its insert: {grown:?}");
    check_tree(&idx).unwrap().assert_ok();
}

/// The crash points after the commit record is appended: an error there
/// loses the acknowledgement, not the commit. The two around the log
/// sync fire on every sync, but only a commit's surfaces as an injected
/// transaction error (a write-back's is an I/O error the eviction path
/// absorbs), and `run_txn`'s abort then completes that commit — unless
/// the abort's own sync draws the error, which the soak's worker loop
/// handles.
const LOST_ACK_POINTS: [&str; 4] =
    ["commit.before_durable_wait", "log.sync.before", "log.sync.after", "commit.after_wal_flush"];

/// Whether `k` is in the index, retrying searches an injection fails.
/// The probe ends with `abort` so it cannot trip an armed commit point,
/// repeated until it ends (an injected error can fail it once).
fn present(db: &Arc<Db>, idx: &Arc<GistIndex<BtreeExt>>, k: i64) -> bool {
    loop {
        let probe = db.begin();
        let hits = db.contained(probe, || idx.search(probe, &I64Query::range(k, k)));
        finish(db, probe);
        if let Ok(hits) = hits {
            return !hits.is_empty();
        }
    }
}

/// Abort `txn` until it has ended; each injected error fires once, so
/// this ends.
fn finish(db: &Db, txn: TxnId) {
    while db.txns().is_active(txn) {
        let _ = db.abort(txn);
    }
}

#[test]
fn seeded_chaos_soak_stays_consistent_and_recovers() {
    let _g = serial();
    let seed: u64 = std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
    let h = Harness::new(DbConfig::default());
    let (db, idx) = h.open();

    // Every crash point draws a perturbation or a one-shot error.
    let menu: Vec<(&'static str, Action)> = chaos::POINTS
        .iter()
        .flat_map(|&p| [Action::Delay(1), Action::Yield, Action::Error].map(|a| (p, a)))
        .collect();
    let plan = chaos::install(Plan::from_seed(seed, &menu));
    println!("seed {seed} plan:\n{plan}");
    plan.arm();

    let committed: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut workers = Vec::new();
    for t in 0..4i64 {
        let (db, idx, committed) = (db.clone(), idx.clone(), committed.clone());
        workers.push(std::thread::spawn(move || {
            for i in 0..60i64 {
                let k = 30_000 + t * 1000 + i;
                match db.run_txn(|txn| {
                    idx.insert(txn, &k, rid(k as u64))?;
                    if i % 7 == 0 {
                        idx.search(txn, &I64Query::range(k - 5, k + 5))?;
                    }
                    Ok(())
                }) {
                    Ok(()) => committed.lock().unwrap().push(k),
                    // Injected faults are not retryable by design (they
                    // model faults, not contention); the workload moves
                    // on. An error after the commit record is a lost
                    // acknowledgement: the commit stands. Any other
                    // injected error must have rolled the key back.
                    Err(GistError::Injected(p)) | Err(GistError::Txn(TxnError::Injected(p))) => {
                        let lost_ack = LOST_ACK_POINTS.contains(&p);
                        assert_eq!(
                            present(&db, &idx, k),
                            lost_ack,
                            "key {k} after an injected error at {p:?}"
                        );
                        if lost_ack {
                            committed.lock().unwrap().push(k);
                        }
                    }
                    // `run_txn`'s abort failed, leaving the transaction
                    // open with its locks held; finish it as the error
                    // asks. The cause says what the abort was doing: an
                    // error before its undo leaves a rollback to finish,
                    // one at a `log.sync.*` point the sync of a lost-ack
                    // commit it was completing.
                    Err(GistError::TxnUnfinished { txn, cause }) => {
                        let (GistError::Injected(p) | GistError::Txn(TxnError::Injected(p))) =
                            *cause
                        else {
                            panic!("transaction {txn} unfinished by an uninjected error: {cause}");
                        };
                        let commit = match p {
                            "abort.before_undo" => false,
                            p if p.starts_with("log.sync.") => true,
                            p => panic!("transaction {txn} unfinished by an error at {p:?}"),
                        };
                        finish(&db, txn);
                        let msg = format!("key {k} after {p:?} failed an abort");
                        assert_eq!(present(&db, &idx, k), commit, "{msg}");
                        if commit {
                            committed.lock().unwrap().push(k);
                        }
                    }
                    Err(e) => panic!("seeded soak hit an unexpected error: {e}"),
                }
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    chaos::uninstall();

    // Exactly the acknowledged commits are visible — no torn state from
    // any injected abort — and the tree is structurally sound.
    let mut expected = committed.lock().unwrap().clone();
    expected.sort();
    assert_eq!(keys_in(&db, &idx, 30_000, 40_000), expected);
    check_tree(&idx).unwrap().assert_ok();

    // And the same holds across a crash + restart.
    db.crash();
    let (db2, idx2) = h.restart();
    assert_eq!(keys_in(&db2, &idx2, 30_000, 40_000), expected);
    assert_eq!(keys_in(&db2, &idx2, 0, BASELINE), (0..BASELINE).collect::<Vec<i64>>());
    check_tree(&idx2).unwrap().assert_ok();
}
