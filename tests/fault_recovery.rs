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
/// - committers survive a flusher crash *after* the batch fsync even if
///   the wakeup is lost — the commit record is already durable, and the
///   flusher's panic containment wakes the parked committer at once;
/// - a committer that dies just before appending its commit record
///   leaves a loser and a usable log: later commits are acknowledged at
///   once, and a crash keeps exactly the acknowledged keys;
/// - a *graceful* failure at the same point fails that one commit, and
///   later commits proceed;
/// - an fsync-path error makes the flusher retry the batch; parked
///   committers just wait one retry pause longer.
#[cfg(feature = "chaos")]
mod flusher_crash {
    use std::sync::{Arc, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    use gist_repro::am::{BtreeExt, I64Query};
    use gist_repro::chaos::{self, Action, Plan, Trigger};
    use gist_repro::core::check::check_tree;
    use gist_repro::core::{Db, DbConfig, GistIndex, IndexOptions};
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
        /// Group-commit database with `baseline` keys committed and the
        /// pipeline quiesced (the whole log is durable, so the next
        /// armed trigger hits our victim's batch).
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
            let rig = Rig { store, log, config, db, idx, expected: (0..baseline).collect() };
            rig.quiesce();
            rig
        }

        /// Make the whole log durable, unforced records (end records)
        /// included, with one barrier through the pipeline.
        fn quiesce(&self) {
            let last = self.log.last_lsn();
            self.db.txns().pipeline().barrier(last).expect("pipeline did not quiesce");
        }

        /// One single-key transaction; returns commit result.
        fn commit_one(&self, k: i64) -> Result<(), gist_repro::core::GistError> {
            let txn = self.db.begin();
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
    /// durable horizon, woken by the flusher's panic containment rather
    /// than the park timeout), and the commit must survive a subsequent
    /// crash.
    #[test]
    fn flusher_crash_after_fsync_before_wakeup_keeps_commits() {
        let _g = serial();
        let mut rig = Rig::new(50);
        arm("commitpipe.flusher.post_fsync_pre_wakeup", Trigger::Next(1), Action::Panic);
        let started = Instant::now();
        rig.commit_one(10_000).expect("commit must succeed despite the lost wakeup");
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "committer stranded for {elapsed:?}");
        rig.expected.push(10_000);
        chaos::uninstall();
        rig.quiesce();
        let stats = rig.db.robustness_stats();
        assert!(
            stats.wal_flusher_panics >= 1,
            "the armed panic must have fired on the flusher thread"
        );
        // A contained panic must not kill the flusher: the next commit
        // is served by it at once.
        let started = Instant::now();
        rig.commit_one(10_001).expect("the flusher must outlive the contained panic");
        assert!(started.elapsed() < Duration::from_secs(1), "the flusher is gone");
        rig.expected.push(10_001);
        rig.crash_and_verify();
    }

    /// Crash point just before the commit record is appended, armed to
    /// panic: the committing thread dies before its commit record
    /// exists, so its transaction is a loser. Nothing is left half
    /// written in the log: a later commit is acknowledged at once, the
    /// durable horizon catches up with the whole log, and a crash keeps
    /// exactly the acknowledged keys.
    #[test]
    fn panic_before_commit_append_leaves_a_loser_and_the_log_usable() {
        let _g = serial();
        let mut rig = Rig::new(50);
        arm("commitpipe.append.pre_append", Trigger::Next(1), Action::Panic);
        let db = rig.db.clone();
        let idx = rig.idx.clone();
        let victim = std::thread::spawn(move || {
            let txn = db.begin();
            idx.insert(txn, &10_000, rid(10_000)).unwrap();
            db.commit(txn)
        });
        assert!(victim.join().is_err(), "the victim must die before its commit append");
        chaos::uninstall();

        let started = Instant::now();
        rig.commit_one(10_001).expect("the log must stay usable after the victim died");
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "committer stalled for {elapsed:?}");
        rig.expected.push(10_001);
        rig.quiesce();
        assert_eq!(rig.log.flushed_lsn(), rig.log.last_lsn(), "the whole log becomes durable");

        // The victim wrote no commit record: restart undoes its insert.
        rig.crash_and_verify();
    }

    /// Same crash point armed to *error* instead of panic: the commit
    /// call fails, the transaction aborts cleanly, and later commits are
    /// completely unaffected.
    #[test]
    fn error_before_commit_append_aborts_cleanly() {
        let _g = serial();
        let mut rig = Rig::new(50);
        arm("commitpipe.append.pre_append", Trigger::Next(1), Action::Error);
        let err = rig.commit_one(10_000);
        assert!(err.is_err(), "the injected error must surface through commit");
        chaos::uninstall();

        rig.commit_one(10_001).expect("the log must stay usable");
        rig.expected.push(10_001);
        rig.quiesce();
        assert_eq!(
            rig.log.flushed_lsn(),
            rig.log.last_lsn(),
            "the durable horizon catches up with the whole log"
        );
        rig.crash_and_verify();
    }

    /// Crash point between fill and fsync, armed to error twice: the
    /// batch fails before the device sync, parked committers stay
    /// parked, and the flusher retries after a pause until the batch
    /// lands. The committer sees nothing but a little extra latency.
    #[test]
    fn flusher_fsync_error_retries_until_durable() {
        let _g = serial();
        let mut rig = Rig::new(50);
        arm("commitpipe.flusher.post_fill_pre_fsync", Trigger::Next(2), Action::Error);
        rig.commit_one(10_000).expect("commit must outlast two failed flush attempts");
        rig.expected.push(10_000);
        chaos::uninstall();
        rig.quiesce();
        rig.crash_and_verify();
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
                    let txn = db.begin();
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
