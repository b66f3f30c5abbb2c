//! Crash-point enumeration over injected storage faults.
//!
//! Each case wires the database over a [`FaultStore`] whose fault plan
//! carries exactly one (or one pair of) scheduled fault point(s) at the
//! `store.*` sites, replays the same mixed
//! workload until the point fires, crashes (buffer pool dropped, log
//! truncated to its durable prefix, the faulted device's volatile cache
//! rolled back), restarts, and verifies the full contract: the tree
//! passes the structural checker, every committed key survives, and no
//! uncommitted key does.
//!
//! Fault classes enumerated (the census test asserts the ≥50-point
//! floor):
//!
//! - **torn writes** — detected by the page checksum at restart,
//!   quarantined, rebuilt by redoing from the log start;
//! - **lost writes** — the device acks a write it never made durable;
//!   survived because unsynced write-backs stay in the dirty-page table
//!   until a sync succeeds (the checkpoint's sync barrier);
//! - **failed fsyncs** — the checkpoint aborts and the pool degrades,
//!   so no checkpoint ever vouches for a page the device may still drop;
//! - **WAL tail corruption** — torn/bit-flipped tail frames of the
//!   persisted log are truncated (a transaction whose commit record was
//!   in the lost tail becomes a loser); interior damage stays fatal.
//!
//! Deterministic transient-retry and permanent-degradation behavior get
//! their own tests at the bottom.

use std::sync::Arc;

use gist_repro::am::{BtreeExt, I64Query};
use gist_repro::core::check::check_tree;
use gist_repro::core::{Db, DbConfig, GistError, GistIndex, IndexOptions};
use gist_repro::chaos::{Action, Plan, Trigger};
use gist_repro::pagestore::{FaultStore, InMemoryStore, PageId, PageStore, Rid};
use gist_repro::wal::{faults as wal_faults, LogManager, Lsn, RecordBody, TxnId};

fn rid(n: u64) -> Rid {
    Rid::new(PageId(640_000), n as u16)
}

const TORN_POINTS: u64 = 10;
const LOST_POINTS: u64 = 10;
const SYNC_POINTS: u64 = 5;
/// Each combo case fires two points: a lost write and the failed fsync
/// that would have drained it.
const COMBO_POINTS: u64 = 5;
const WAL_TRUNCATE_POINTS: &[u64] = &[1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 48];
const WAL_FLIP_BACKS: &[u64] = &[0, 1, 2, 3, 4, 5, 6, 7];
const WAL_DEEP_FRACTIONS: &[u64] = &[4, 3, 2];

#[test]
fn fault_point_census_meets_the_floor() {
    let total = TORN_POINTS
        + LOST_POINTS
        + SYNC_POINTS
        + 2 * COMBO_POINTS
        + WAL_TRUNCATE_POINTS.len() as u64
        + WAL_FLIP_BACKS.len() as u64
        + WAL_DEEP_FRACTIONS.len() as u64;
    assert!(total >= 50, "crash-point enumeration covers only {total} fault points");
}

struct CaseOutcome {
    triggered: usize,
    repaired: usize,
}

/// One store-fault crash point: identical workload, one schedule.
///
/// Setup (baseline keys, flush, sync) runs disarmed so the schedule's
/// op indices address only workload I/O; the workload runs committed
/// batches with a flush + checkpoint per round until the schedule
/// fires, then a loser transaction goes durable-but-uncommitted, the
/// machine crashes, and restart must restore exactly the committed set.
/// One scheduled store fault: `action` at op index `index` of `site`.
type StorePoint = (&'static str, u64, Action);

fn run_store_fault_case(points: &[StorePoint], fail_final_sync: bool, label: &str) -> CaseOutcome {
    let plan = Plan::new();
    let faults = FaultStore::new(Arc::new(InMemoryStore::new()), plan.clone());
    let store: Arc<dyn PageStore> = faults.clone();
    let log = Arc::new(LogManager::new());
    let config = DbConfig::default();
    let db = Db::open(store.clone(), log.clone(), config.clone()).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();

    // Durable, synced baseline the schedule can never touch.
    let txn = db.begin();
    for k in 0..100i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    db.pool().flush_all().unwrap();
    db.pool().sync_store().unwrap();

    for &(site, index, action) in points {
        plan.add(site, Trigger::At(index), action);
    }
    plan.arm();

    // Mixed workload: one committed batch, a flush (write faults), a
    // checkpoint (sync faults) per round, until the schedule fires.
    // Operations may fail once a fault has tripped the pool; a batch
    // counts as expected only if its commit went through.
    let mut expected: Vec<i64> = (0..100).collect();
    let mut next = 1000i64;
    for _ in 0..40 {
        if !plan.fired().is_empty() {
            break;
        }
        let range = next..next + 20;
        next += 20;
        let txn = db.begin();
        let mut ok = true;
        for k in range.clone() {
            if idx.insert(txn, &k, rid(k as u64)).is_err() {
                ok = false;
                break;
            }
        }
        if ok && db.commit(txn).is_ok() {
            expected.extend(range);
        } else {
            let _ = db.abort(txn);
        }
        let _ = db.pool().flush_all();
        if !plan.fired().is_empty() {
            break;
        }
        let _ = db.checkpoint();
    }
    assert!(!plan.fired().is_empty(), "{label}: schedule {points:?} never fired");

    if fail_final_sync {
        // The device develops an fsync failure *after* the lost write:
        // nothing may drain the volatile cache, and the unsynced
        // write-backs must stay in the dirty-page table.
        plan.add("store.sync", Trigger::Next(1), Action::FailedSync);
        assert!(db.pool().sync_store().is_err(), "{label}: final sync must fail");
    }

    // Loser transaction: records durable, commit never written.
    let loser = db.begin();
    for k in 9000..9020i64 {
        let _ = idx.insert(loser, &k, rid(k as u64));
    }
    db.log().flush_all();

    let triggered = plan.fired().len();
    db.crash();
    faults.crash_disk().unwrap();

    let (db2, report) = Db::restart(store, log, config).unwrap();
    let idx2 = GistIndex::open(db2.clone(), "t", BtreeExt).unwrap();
    check_tree(&idx2).unwrap().assert_ok();
    let txn = db2.begin();
    let mut got: Vec<i64> = idx2
        .search(txn, &I64Query::range(0, 20_000))
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    db2.commit(txn).unwrap();
    got.sort();
    expected.sort();
    assert_eq!(got, expected, "{label}: committed keys must survive, losers must not");
    CaseOutcome { triggered, repaired: report.repaired_pages.len() }
}

#[test]
fn torn_write_crash_points_recover() {
    let mut repaired_total = 0;
    for i in 0..TORN_POINTS {
        let keep = 512 * (1 + (i as usize % 8));
        let out = run_store_fault_case(
            &[("store.write", i, Action::Torn(keep))],
            false,
            &format!("torn@w{i}/keep{keep}"),
        );
        assert_eq!(out.triggered, 1);
        repaired_total += out.repaired;
    }
    // A tear whose old tail happens to equal the new one is harmless
    // (and undetectable), but across the enumeration some tears must
    // have produced — and the checksums caught — real corruption.
    assert!(repaired_total > 0, "no torn page was ever quarantined");
}

#[test]
fn lost_write_crash_points_recover() {
    for i in 0..LOST_POINTS {
        let out = run_store_fault_case(
            &[("store.write", i, Action::Lost)],
            false,
            &format!("lost@w{i}"),
        );
        assert_eq!(out.triggered, 1);
    }
}

#[test]
fn failed_fsync_crash_points_recover() {
    for j in 0..SYNC_POINTS {
        let out = run_store_fault_case(
            &[("store.sync", j, Action::FailedSync)],
            false,
            &format!("fsync@s{j}"),
        );
        assert_eq!(out.triggered, 1);
    }
}

#[test]
fn lost_write_with_failed_fsync_crash_points_recover() {
    for i in 0..COMBO_POINTS {
        let out = run_store_fault_case(
            &[("store.write", 2 * i, Action::Lost)],
            true,
            &format!("lost+fsync@w{}", 2 * i),
        );
        assert_eq!(out.triggered, 2, "lost write and failed fsync must both fire");
    }
}

enum WalDamage {
    /// Cut `n` bytes off the end (crash mid-append).
    Truncate(u64),
    /// Flip a bit `back` bytes from the end (tail media corruption).
    FlipTail(u64),
    /// Cut `len / d` bytes: deep tail loss spanning whole records.
    TruncateFraction(u64),
}

/// One WAL-tail crash point: commit several batches, persist the log,
/// damage its tail, reload with truncation, restart. A batch survives
/// iff its commit record survived the damage.
fn run_wal_tail_case(damage: WalDamage, tag: &str) {
    let dir = std::env::temp_dir().join(format!("gist-fault-wal-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");

    let store: Arc<dyn PageStore> = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let config = DbConfig::default();
    let db = Db::open(store.clone(), log.clone(), config.clone()).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    // Catalog + root durable and synced; every later update lives only
    // in the log, so tail damage never violates the WAL rule.
    db.pool().flush_all().unwrap();
    db.pool().sync_store().unwrap();

    let mut batches: Vec<(TxnId, std::ops::Range<i64>)> = Vec::new();
    let mut next = 0i64;
    for _ in 0..3 {
        let range = next..next + 20;
        next += 20;
        let txn = db.begin();
        for k in range.clone() {
            idx.insert(txn, &k, rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();
        batches.push((txn, range));
    }
    let loser = db.begin();
    for k in 9000..9010i64 {
        idx.insert(loser, &k, rid(k as u64)).unwrap();
    }
    db.log().flush_all();
    let durable_records = log.len();
    log.persist_file(&path).unwrap();
    db.crash();

    let len = wal_faults::file_len(&path).unwrap();
    let expect_tear = match damage {
        WalDamage::Truncate(n) => {
            wal_faults::truncate_tail(&path, n).unwrap();
            true
        }
        WalDamage::FlipTail(back) => {
            wal_faults::flip_tail_byte(&path, back, 0x20).unwrap();
            true
        }
        // A fractional cut may coincidentally land on a frame boundary
        // (clean prefix, nothing torn), so only record loss is asserted.
        WalDamage::TruncateFraction(d) => {
            wal_faults::truncate_tail(&path, len / d).unwrap();
            false
        }
    };

    let (log2, report) = LogManager::load_file_report(&path).unwrap();
    if expect_tear {
        assert!(report.tail_truncated, "{tag}: tail damage must be classified as a tear");
    }
    assert!(log2.len() < durable_records, "{tag}: damage must have cost records");
    let log2 = Arc::new(log2);

    let (db2, _) = Db::restart(store, log2.clone(), config).unwrap();
    let idx2 = GistIndex::open(db2.clone(), "t", BtreeExt).unwrap();
    check_tree(&idx2).unwrap().assert_ok();

    let mut expected = Vec::new();
    for (txn, range) in &batches {
        let committed = log2
            .scan_from(Lsn(1))
            .iter()
            .any(|r| r.txn == *txn && matches!(r.body, RecordBody::TxnCommit));
        if committed {
            expected.extend(range.clone());
        }
    }
    let txn = db2.begin();
    let mut got: Vec<i64> = idx2
        .search(txn, &I64Query::range(0, 20_000))
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    db2.commit(txn).unwrap();
    got.sort();
    expected.sort();
    assert_eq!(got, expected, "{tag}: exactly the batches whose commit survived");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_torn_tail_crash_points_recover() {
    for &n in WAL_TRUNCATE_POINTS {
        run_wal_tail_case(WalDamage::Truncate(n), &format!("cut{n}"));
    }
}

#[test]
fn wal_flipped_tail_crash_points_recover() {
    for &back in WAL_FLIP_BACKS {
        run_wal_tail_case(WalDamage::FlipTail(back), &format!("flip{back}"));
    }
}

#[test]
fn wal_deep_truncation_crash_points_recover() {
    for &d in WAL_DEEP_FRACTIONS {
        run_wal_tail_case(WalDamage::TruncateFraction(d), &format!("frac{d}"));
    }
}

// ---- deterministic transient / permanent behavior at the Db level ----

#[test]
fn transient_read_faults_are_retried_invisibly() {
    let plan = Plan::new();
    let faults = FaultStore::new(Arc::new(InMemoryStore::new()), plan.clone());
    let store: Arc<dyn PageStore> = faults.clone();
    let log = Arc::new(LogManager::new());
    let config = DbConfig::default();
    {
        let db = Db::open(store.clone(), log.clone(), config.clone()).unwrap();
        let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        let txn = db.begin();
        for k in 0..300i64 {
            idx.insert(txn, &k, rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();
        db.shutdown().unwrap();
    }
    // A flaky device: reads fail twice then recover, at two points of
    // the cold reopen (catalog load, then mid rebuild). Each window is
    // 2 consecutive failures — within the pool's bounded retry — and
    // the windows are spaced so they never overlap.
    for i in [0, 3] {
        plan.add("store.read", Trigger::At(i), Action::Transient(2));
    }
    plan.arm();
    let db = Db::open(store, log, config).unwrap();
    let idx = GistIndex::open(db.clone(), "t", BtreeExt).unwrap();
    let txn = db.begin();
    assert_eq!(idx.search(txn, &I64Query::range(0, 1000)).unwrap().len(), 300);
    db.commit(txn).unwrap();
    assert!(!db.pool().is_poisoned(), "transient faults must not degrade the pool");
    assert_eq!(plan.fired().len(), 2, "every scheduled hiccup fired and was absorbed");
    check_tree(&idx).unwrap().assert_ok();
}

#[test]
fn permanent_write_failure_degrades_to_read_only_database() {
    let plan = Plan::new();
    let faults = FaultStore::new(Arc::new(InMemoryStore::new()), plan.clone());
    let store: Arc<dyn PageStore> = faults.clone();
    let log = Arc::new(LogManager::new());
    let db = Db::open(store, log, DbConfig::default()).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    let txn = db.begin();
    for k in 0..100i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    db.pool().flush_all().unwrap();
    db.pool().sync_store().unwrap();

    plan.add("store.write", Trigger::At(0), Action::Permanent);
    plan.arm();
    // More committed work, still only in the pool — then the device dies
    // on the first write-back and the pool degrades to read-only.
    let txn = db.begin();
    for k in 100..120i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    assert!(db.pool().flush_all().is_err());
    assert!(db.pool().is_poisoned());

    // Mutations are refused with the dedicated read-only error...
    let txn = db.begin();
    let err = idx.insert(txn, &500, rid(500)).unwrap_err();
    assert!(matches!(err, GistError::StorageFailed(_)), "got: {err}");
    let _ = db.abort(txn);
    assert!(db.checkpoint().is_err(), "a read-only pool cannot checkpoint");
    assert!(db.shutdown().is_err(), "a clean shutdown cannot be vouched for");

    // ...but reads are still served from the intact cache.
    let txn = db.begin();
    assert_eq!(idx.search(txn, &I64Query::range(0, 1000)).unwrap().len(), 120);
    db.commit(txn).unwrap();
}

#[test]
fn failed_fsync_aborts_the_checkpoint_and_keeps_the_dpt() {
    let plan = Plan::new();
    let faults = FaultStore::new(Arc::new(InMemoryStore::new()), plan.clone());
    let store: Arc<dyn PageStore> = faults.clone();
    let log = Arc::new(LogManager::new());
    let db = Db::open(store, log, DbConfig::default()).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    let txn = db.begin();
    for k in 0..100i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    // Write-backs land but remain unsynced: candidates for loss.
    db.pool().flush_all().unwrap();
    assert!(!db.pool().dirty_page_table().is_empty(), "unsynced write-backs stay in the DPT");

    plan.add("store.sync", Trigger::At(0), Action::FailedSync);
    plan.arm();
    assert!(db.checkpoint().is_err(), "the sync barrier failed, so the checkpoint must too");
    assert_eq!(db.log().last_checkpoint(), None, "no checkpoint record was written");
    assert!(
        !db.pool().dirty_page_table().is_empty(),
        "pages the device may still drop stay in the DPT"
    );
    // Post-fsyncgate policy: a failed fsync's write-back state is
    // unknowable, so the pool degrades rather than retrying.
    assert!(db.pool().is_poisoned());
}

/// Flusher crash points (`--features chaos`): the commit pipeline's
/// three crash points from the chaos catalog, driven here rather than in
/// `tests/chaos_ops.rs` because they need crash + restart plumbing (and
/// two of them fire on the background flusher thread, not the victim's).
///
/// Contract under test (PR 6 tentpole):
///
/// - `Immediate` / `Batched` committers survive a flusher crash *after*
///   the batch fsync even if the wakeup is lost — the commit record is
///   already durable, the parked committer self-heals off the horizon;
/// - a reserved-but-never-filled slot (committer dies between reserve
///   and fill) leaves a hole that fences the durable horizon: nothing
///   past it ever becomes durable, so a crash discards exactly the
///   suffix the hole poisoned, and everything committed before the hole
///   survives;
/// - a *graceful* failure between reserve and fill heals the hole with
///   a `Noop` filler: the log stays dense and later commits proceed;
/// - an fsync-path error makes the flusher retry the batch; parked
///   committers just wait one idle sweep longer;
/// - `Async` loss is bounded and clean: a crash inside the window loses
///   the transaction entirely (atomicity holds trivially — its records
///   never reached the durable prefix), and once the idle sweep has run
///   the transaction is as durable as an `Immediate` one.
#[cfg(feature = "chaos")]
mod flusher_crash {
    use std::sync::{Arc, Mutex, MutexGuard};
    use std::time::Duration;

    use gist_repro::am::{BtreeExt, I64Query};
    use gist_repro::chaos::{self, Action, Plan, Trigger};
    use gist_repro::core::check::check_tree;
    use gist_repro::core::{
        Db, DbConfig, Durability, GistIndex, IndexOptions, TxnOptions,
    };
    use gist_repro::pagestore::{InMemoryStore, PageStore};
    use gist_repro::wal::LogManager;

    use super::rid;

    /// The installed fault plan is process-global; serialize and start
    /// clean.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        let g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        chaos::uninstall();
        g
    }

    /// Install a fresh, armed process-wide plan firing `action` at
    /// `point` under `trigger`.
    fn arm(point: &'static str, trigger: Trigger, action: Action) {
        let plan = chaos::install(Plan::new());
        plan.add(point, trigger, action);
        plan.arm();
    }

    struct Rig {
        store: Arc<dyn PageStore>,
        log: Arc<LogManager>,
        config: DbConfig,
        db: Arc<Db>,
        idx: Arc<GistIndex<BtreeExt>>,
        /// Keys whose commit acknowledged a durability guarantee.
        expected: Vec<i64>,
    }

    impl Rig {
        /// Group-commit database with `baseline` keys committed
        /// `Immediate` and the pipeline quiesced (everything filled is
        /// durable, so the next armed trigger hits our victim's batch).
        fn new(baseline: i64) -> Rig {
            let store: Arc<dyn PageStore> = Arc::new(InMemoryStore::new());
            let log = Arc::new(LogManager::new());
            let config = DbConfig::default();
            let db = Db::open(store.clone(), log.clone(), config.clone()).unwrap();
            let idx =
                GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
            let txn = db.begin();
            for k in 0..baseline {
                idx.insert(txn, &k, rid(k as u64)).unwrap();
            }
            db.commit(txn).unwrap();
            let mut rig =
                Rig { store, log, config, db, idx, expected: (0..baseline).collect() };
            rig.quiesce();
            rig
        }

        /// Wait for the idle sweep to drain unforced records (end
        /// records) so the filled prefix is fully durable.
        fn quiesce(&mut self) {
            for _ in 0..200 {
                if self.log.flushed_lsn() >= self.log.filled_lsn() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            panic!("pipeline did not quiesce");
        }

        /// One single-key transaction under `mode`; returns commit result.
        fn commit_one(&self, k: i64, mode: Durability) -> Result<(), gist_repro::core::GistError> {
            let txn = self.db.begin_with(TxnOptions { durability: mode });
            self.idx.insert(txn, &k, rid(k as u64)).unwrap();
            let out = self.db.commit(txn);
            if out.is_err() {
                let _ = self.db.abort(txn);
            }
            out
        }

        /// Crash, restart, structural check, and assert the surviving
        /// key set is exactly `self.expected`.
        fn crash_and_verify(self) {
            self.db.crash();
            chaos::uninstall();
            let (db2, _report) = Db::restart(self.store, self.log, self.config).unwrap();
            let idx2 = GistIndex::open(db2.clone(), "t", BtreeExt).unwrap();
            check_tree(&idx2).unwrap().assert_ok();
            let txn = db2.begin();
            let mut got: Vec<i64> = idx2
                .search(txn, &I64Query::range(0, 20_000))
                .unwrap()
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            db2.commit(txn).unwrap();
            got.sort();
            let mut expected = self.expected.clone();
            expected.sort();
            assert_eq!(got, expected, "exactly the acknowledged commits survive the crash");
            db2.shutdown().unwrap();
        }
    }

    /// Crash point between the batch fsync and the waiter wakeup: the
    /// flusher dies *after* the device sync. The parked committer must
    /// still get its acknowledgement (it self-heals by rechecking the
    /// durable horizon — the dormant-`flush_cv` wakeup is an
    /// optimization, not a correctness dependency), and the commit must
    /// survive a subsequent crash. Exercised for both parking modes.
    #[test]
    fn flusher_crash_after_fsync_before_wakeup_keeps_commits() {
        let _g = serial();
        for mode in
            [Durability::Immediate, Durability::Batched { window: Duration::from_millis(1) }]
        {
            let mut rig = Rig::new(50);
            arm("commitpipe.flusher.post_fsync_pre_wakeup", Trigger::Next(1), Action::Panic);
            rig.commit_one(10_000, mode).expect("commit must succeed despite the lost wakeup");
            rig.expected.push(10_000);
            chaos::uninstall();
            rig.quiesce();
            let stats = rig.db.robustness_stats();
            assert!(
                stats.wal_flusher_panics >= 1,
                "the armed panic must have fired on the flusher thread"
            );
            assert!(stats.wal_flusher_running, "a contained panic must not kill the flusher");
            rig.crash_and_verify();
        }
    }

    /// Crash point between LSN reservation and record fill, armed to
    /// panic: the committing thread dies holding a reservation it never
    /// fills. The hole must fence the durable horizon — later appends
    /// (an `Async` commit here) can never become durable — and a crash
    /// discards the whole fenced suffix while everything committed
    /// before the hole survives.
    #[test]
    fn abandoned_reservation_fences_the_durable_horizon() {
        let _g = serial();
        let rig = Rig::new(50);
        arm("commitpipe.append.post_reserve_pre_fill", Trigger::Next(1), Action::Panic);
        let db = rig.db.clone();
        let idx = rig.idx.clone();
        let victim = std::thread::spawn(move || {
            let txn = db.begin();
            idx.insert(txn, &10_000, rid(10_000)).unwrap();
            db.commit(txn)
        });
        assert!(victim.join().is_err(), "the victim must die between reserve and fill");
        chaos::uninstall();

        // An Async commit past the hole returns (it only needs the fill),
        // but its durability can never arrive: the horizon is fenced.
        // The key sits inside the already-widened bounding predicate so
        // the insert itself runs no nested top action (an NTA terminator
        // barriers on the pipeline, which the hole has wedged — that
        // stall is the *correct* behavior, but not what this test is
        // about).
        rig.commit_one(9_999, Durability::Async).expect("async commit returns at fill");
        std::thread::sleep(Duration::from_millis(20));
        let fence = rig.log.flushed_lsn();
        assert!(
            fence < rig.log.last_lsn(),
            "the durable horizon must be fenced below the reserved hole"
        );
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rig.log.flushed_lsn(), fence, "no idle sweep may move past the hole");
        let stats = rig.db.robustness_stats();
        assert!(stats.wal_append_lsn > stats.wal_durable_lsn, "pipeline lag is observable");

        // Neither the victim (no commit record) nor the async commit
        // (record behind the fence) survives the crash.
        rig.crash_and_verify();
    }

    /// Same crash point armed to *error* instead of panic: the graceful
    /// path heals the reservation with a `Noop` filler, the commit call
    /// fails, the transaction aborts cleanly, and — because the log
    /// stayed dense — later commits are completely unaffected.
    #[test]
    fn healed_reservation_keeps_the_log_dense() {
        let _g = serial();
        let mut rig = Rig::new(50);
        arm("commitpipe.append.post_reserve_pre_fill", Trigger::Next(1), Action::Error);
        let err = rig.commit_one(10_000, Durability::Immediate);
        assert!(err.is_err(), "the injected error must surface through commit");
        chaos::uninstall();

        // The Noop filler keeps the log dense: an Immediate commit right
        // after must park, flush and acknowledge normally.
        rig.commit_one(10_001, Durability::Immediate).expect("the healed log must stay usable");
        rig.expected.push(10_001);
        rig.quiesce();
        assert_eq!(
            rig.log.flushed_lsn(),
            rig.log.filled_lsn(),
            "after healing, the durable horizon catches the filled prefix"
        );
        rig.crash_and_verify();
    }

    /// Crash point between fill and fsync, armed to error twice: the
    /// batch fails before the device sync, parked committers stay
    /// parked, and the idle sweep retries until the batch lands. The
    /// committer sees nothing but a little extra latency.
    #[test]
    fn flusher_fsync_error_retries_until_durable() {
        let _g = serial();
        let mut rig = Rig::new(50);
        arm("commitpipe.flusher.post_fill_pre_fsync", Trigger::Next(2), Action::Error);
        rig.commit_one(10_000, Durability::Immediate)
            .expect("commit must outlast two failed flush attempts");
        rig.expected.push(10_000);
        chaos::uninstall();
        rig.quiesce();
        rig.crash_and_verify();
    }

    /// `Async` durability: with every flush attempt failing, a crash
    /// inside the loss window drops the acknowledged-but-unflushed
    /// transaction entirely — bounded, documented loss, and clean (its
    /// records never reached the durable prefix, so restart owes no
    /// undo). Without interference the idle sweep closes the window and
    /// the same transaction survives.
    #[test]
    fn async_commit_loss_window_is_bounded_by_the_idle_sweep() {
        // Lost half: flusher errors on every batch from the moment the
        // insert's records (and its structure-modification terminator)
        // are down, so the commit record itself never becomes durable.
        // The point stays armed until after the crash — one successful
        // sweep would close the window.
        {
            let _g = serial();
            let rig = Rig::new(50);
            let txn = rig.db.begin_with(TxnOptions { durability: Durability::Async });
            rig.idx.insert(txn, &10_000, rid(10_000)).unwrap();
            arm("commitpipe.flusher.post_fill_pre_fsync", Trigger::Always, Action::Error);
            rig.db.commit(txn).expect("async commit returns at fill");
            // `expected` does not include 10_000: that is the documented
            // loss window. The insert's records may well be durable —
            // restart sees a transaction with no commit record and rolls
            // it back cleanly.
            rig.crash_and_verify();
        }
        // Durable half: one idle sweep later the window is closed.
        {
            let _g = serial();
            let mut rig = Rig::new(50);
            rig.commit_one(10_000, Durability::Async).expect("async commit returns at fill");
            rig.expected.push(10_000);
            rig.quiesce();
            rig.crash_and_verify();
        }
    }

    /// Under `latch-audit`, `commit_durable` asserts the committing
    /// thread holds no page latch while parked on the pipeline (a latch
    /// held across a park would stall every reader of that page for a
    /// full device sync). Hammering concurrent parking commits proves
    /// the whole commit path reaches the pipeline latch-clean.
    #[cfg(feature = "latch-audit")]
    #[test]
    fn no_page_latch_is_held_while_parked_on_commit() {
        let _g = serial();
        let rig = Rig::new(50);
        let mut workers = Vec::new();
        for t in 0..4i64 {
            let db = rig.db.clone();
            let idx = rig.idx.clone();
            workers.push(std::thread::spawn(move || {
                for i in 0..25i64 {
                    let k = 20_000 + t * 1_000 + i;
                    let txn = db.begin_with(TxnOptions { durability: Durability::Immediate });
                    idx.insert(txn, &k, rid(k as u64)).unwrap();
                    db.commit(txn).unwrap();
                }
            }));
        }
        for w in workers {
            w.join().expect("a latch held across a park would have tripped the audit");
        }
        rig.db.shutdown().unwrap();
    }
}
