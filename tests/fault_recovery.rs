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

/// After `Db::crash` the log refuses to sync: a thread of the crashed
/// incarnation that still commits gets an error, and restart sees
/// nothing of that transaction.
#[test]
fn commit_after_crash_fails_and_restart_sees_nothing_of_it() {
    let store: Arc<dyn PageStore> = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let db = Db::open(store.clone(), log.clone(), DbConfig::default()).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    let txn = db.begin();
    idx.insert(txn, &1, rid(1)).unwrap();
    db.commit(txn).unwrap();
    let late = db.begin();
    idx.insert(late, &2, rid(2)).unwrap();
    db.crash();
    assert!(db.commit(late).is_err(), "a crashed log acknowledged a commit");

    let (db2, report) = Db::restart(store, log, DbConfig::default()).unwrap();
    assert!(report.outcome.losers.is_empty(), "{:?}", report.outcome);
    let idx2 = GistIndex::open(db2.clone(), "t", BtreeExt).unwrap();
    let t = db2.begin();
    let keys: Vec<i64> =
        idx2.search(t, &I64Query::range(0, 10)).unwrap().into_iter().map(|(k, _)| k).collect();
    db2.commit(t).unwrap();
    assert_eq!(keys, vec![1]);
}

/// Commit and log-sync crash points (`--features chaos`):
/// `commit.pre_append` and the two points around the log's device sync,
/// driven here rather than in `tests/chaos_ops.rs` because they need
/// crash + restart plumbing. Each fires on the thread that syncs — here,
/// the committing thread itself.
///
/// Contract under test:
///
/// - a committer that dies *after* its sync leaves a commit that is
///   durable: `abort` completes it (lost ack) and a crash keeps it;
/// - a committer that dies just before appending its commit record
///   leaves a loser and a usable log: later commits are acknowledged at
///   once, and a crash keeps exactly the acknowledged keys;
/// - a *graceful* failure at the same point fails that one commit, and
///   later commits proceed;
/// - a failed sync fails the commit, and `abort`'s lost-ack path syncs
///   again and completes it;
/// - `run_txn` never leaves a commit it could not finish behind
///   silently;
/// - no engine path drops an abort's error: when the abort that should
///   end a transaction fails (`abort.before_undo`), `run_txn`,
///   `Db::contained` and the maintenance units return an error naming
///   the still-open transaction, and a later abort ends it.
///
/// Each plan acts on its victim's thread only ([`Plan::only_on`]): the
/// plan is process-wide, and other tests in this binary commit too.
///
/// [`Plan::only_on`]: gist_repro::chaos::Plan::only_on
#[cfg(feature = "chaos")]
mod sync_crash {
    use std::sync::{Arc, Mutex, MutexGuard};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    use gist_repro::am::{BtreeExt, I64Query};
    use gist_repro::chaos::{self, Action, Plan, Trigger};
    use gist_repro::core::check::check_tree;
    use gist_repro::core::{
        Db, DbConfig, GistError, GistIndex, IndexOptions, InternalEntryRef, LeafEntryRef,
        MaintError, MaintIndex,
    };
    use gist_repro::pagestore::{FaultStore, InMemoryStore, PageId, PageStore};
    use gist_repro::wal::{LogManager, LogRecord, RecordBody, TxnId};

    use super::rid;

    /// The installed fault plan is process-global; serialize and start
    /// clean.
    static SERIAL: Mutex<()> = Mutex::new(());

    pub(super) fn serial() -> MutexGuard<'static, ()> {
        let g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        chaos::uninstall();
        g
    }

    /// Install a fresh, armed process-wide plan firing `action` at
    /// `point` under `trigger`, on `victim`'s thread only.
    pub(super) fn arm(
        point: &'static str,
        trigger: Trigger,
        action: Action,
        victim: ThreadId,
    ) -> Arc<Plan> {
        let plan = chaos::install(Plan::new());
        plan.add(point, trigger, action);
        plan.only_on(victim);
        plan.arm();
        plan
    }

    /// Spawn a victim that begins a transaction, inserts `k`, reports
    /// the transaction, then commits once the test has armed its plan.
    fn spawn_victim(
        rig: &Rig,
        k: i64,
    ) -> (std::thread::JoinHandle<Result<(), GistError>>, gist_repro::wal::TxnId, impl FnOnce()) {
        let (db, idx) = (rig.db.clone(), rig.idx.clone());
        let (inserted, go) = (std::sync::mpsc::channel(), std::sync::mpsc::channel::<()>());
        let victim = std::thread::spawn(move || {
            let txn = db.begin();
            idx.insert(txn, &k, rid(k as u64)).unwrap();
            inserted.0.send(txn).unwrap();
            go.1.recv().unwrap();
            db.commit(txn)
        });
        let txn = inserted.1.recv().unwrap();
        (victim, txn, move || go.0.send(()).unwrap())
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
        /// Database with `baseline` keys committed and the whole log
        /// durable, so the next armed sync trigger hits our victim's
        /// commit.
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
        /// included, with one sync.
        fn quiesce(&self) {
            self.log.sync_to(self.log.last_lsn()).expect("the log did not sync");
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

    /// Crash point right after the device sync, armed to panic: the
    /// committer dies with its commit record durable, before it writes
    /// the end record or releases anything. Its `abort` (the lost-ack
    /// path) completes the commit at once, the log stays usable, and the
    /// commit survives a crash.
    #[test]
    fn panic_after_log_sync_keeps_the_commit() {
        let _g = serial();
        let mut rig = Rig::new(50);
        let (victim, txn, go) = spawn_victim(&rig, 10_000);
        arm("log.sync.after", Trigger::Next(1), Action::Panic, victim.thread().id());
        go();
        assert!(victim.join().is_err(), "the victim must die after its sync");
        chaos::uninstall();
        assert!(rig.log.flushed_lsn() >= rig.log.last_lsn(), "the commit record is durable");
        rig.db.abort(txn).expect("abort completes a durable commit");
        assert!(!rig.db.txns().is_active(txn), "the commit finished");
        rig.expected.push(10_000);

        let started = Instant::now();
        rig.commit_one(10_001).expect("the log must stay usable after the victim died");
        assert!(started.elapsed() < Duration::from_secs(1), "the next commit stalled");
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
        let (victim, _txn, go) = spawn_victim(&rig, 10_000);
        arm("commit.pre_append", Trigger::Next(1), Action::Panic, victim.thread().id());
        go();
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
        let me = std::thread::current().id();
        arm("commit.pre_append", Trigger::Next(1), Action::Error, me);
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

    /// Crash point before the device sync, armed to error once: the
    /// commit fails with its record appended but not durable. The
    /// transaction is committed-but-unacknowledged, so `abort` takes the
    /// lost-ack path: it syncs again, which now succeeds, and completes
    /// the commit rather than undoing it.
    #[test]
    fn sync_error_fails_the_commit_and_abort_completes_it() {
        let _g = serial();
        let mut rig = Rig::new(50);
        arm("log.sync.before", Trigger::Next(1), Action::Error, std::thread::current().id());
        let txn = rig.db.begin();
        rig.idx.insert(txn, &10_000, rid(10_000)).unwrap();
        let err = rig.db.commit(txn).expect_err("the injected sync failure fails the commit");
        assert!(err.to_string().contains("log.sync.before"), "{err}");
        assert!(rig.log.flushed_lsn() < rig.log.last_lsn(), "nothing was synced");
        rig.db.abort(txn).expect("abort completes the commit");
        assert!(!rig.db.txns().is_active(txn));
        rig.expected.push(10_000);
        chaos::uninstall();
        rig.crash_and_verify();
    }

    /// A `run_txn` whose commit sync fails, and whose completing abort's
    /// sync fails as well: the commit record stands and the transaction
    /// still holds its locks. `run_txn` says so instead of retrying or
    /// returning the commit's error; the caller's `abort` then finishes
    /// the commit, and it survives a crash.
    #[test]
    fn run_txn_reports_a_commit_it_could_not_finish() {
        let _g = serial();
        let mut rig = Rig::new(50);
        let me = std::thread::current().id();
        let plan = arm("log.sync.before", Trigger::Next(2), Action::Error, me);
        let attempts = std::cell::Cell::new(0);
        let err = rig
            .db
            .run_txn(|txn| {
                attempts.set(attempts.get() + 1);
                rig.idx.insert(txn, &10_000, rid(10_000))
            })
            .expect_err("both syncs failed");
        assert_eq!(plan.fires("log.sync.before"), 2, "the commit's sync, then the abort's");
        let GistError::TxnUnfinished { txn, cause } = err else {
            panic!("the transaction was left open without saying so: {err}");
        };
        assert!(cause.to_string().contains("log.sync.before"), "{cause}");
        assert_eq!(attempts.get(), 1, "run_txn retried over an open transaction");
        assert!(rig.db.txns().is_active(txn), "the error names an open transaction");
        rig.db.abort(txn).expect("abort finishes the commit");
        assert!(!rig.db.txns().is_active(txn));
        rig.expected.push(10_000);
        rig.crash_and_verify();
    }

    /// `run_txn` whose operation fails, and whose abort then fails too:
    /// the transaction is still open with its locks held. `run_txn`
    /// returns an error naming it instead of dropping the abort's error;
    /// a later abort ends it and rolls its insert back.
    #[test]
    fn run_txn_reports_a_rollback_it_could_not_finish() {
        let _g = serial();
        let rig = Rig::new(50);
        let plan = arm("abort.before_undo", Trigger::Next(1), Action::Error, thread_id());
        let err = rig
            .db
            .run_txn(|txn| {
                rig.idx.insert(txn, &10_000, rid(10_000))?;
                Err::<(), _>(GistError::NotFound)
            })
            .expect_err("the operation failed");
        assert_eq!(plan.fires("abort.before_undo"), 1);
        let GistError::TxnUnfinished { txn, cause } = err else {
            panic!("the transaction was left open without saying so: {err}");
        };
        assert!(cause.to_string().contains("abort.before_undo"), "{cause}");
        assert!(rig.db.txns().is_active(txn), "the error names an open transaction");
        rig.db.abort(txn).expect("a later abort ends it");
        assert!(!rig.db.txns().is_active(txn));
        rig.crash_and_verify();
    }

    /// `Db::contained` catches a panic, and the abort it then runs
    /// fails: it returns an error naming the still-open transaction
    /// instead of `Panicked`, and a later abort ends it.
    #[test]
    fn contained_reports_a_rollback_it_could_not_finish() {
        let _g = serial();
        let rig = Rig::new(50);
        arm("abort.before_undo", Trigger::Next(1), Action::Error, thread_id());
        let txn = rig.db.begin();
        let err = rig
            .db
            .contained(txn, || -> Result<(), GistError> {
                rig.idx.insert(txn, &10_000, rid(10_000))?;
                panic!("an operation bug after its insert")
            })
            .expect_err("the operation panicked");
        let GistError::TxnUnfinished { txn: named, cause } = err else {
            panic!("the transaction was left open without saying so: {err}");
        };
        assert_eq!(named, txn);
        assert!(cause.to_string().contains("abort.before_undo"), "{cause}");
        assert!(rig.db.txns().is_active(txn), "the error names an open transaction");
        rig.db.abort(txn).expect("a later abort ends it");
        assert!(!rig.db.txns().is_active(txn));
        rig.crash_and_verify();
    }

    fn thread_id() -> ThreadId {
        std::thread::current().id()
    }

    /// A database over a store whose writes can be made to fail for
    /// good, holding `n` committed keys, and that store's own plan.
    fn poisonable(n: i64) -> (Arc<Db>, Arc<GistIndex<BtreeExt>>, Arc<Plan>) {
        let store_plan = Plan::new();
        let store = FaultStore::new(Arc::new(InMemoryStore::new()), store_plan.clone());
        let db = Db::open(store, Arc::new(LogManager::new()), DbConfig::default()).unwrap();
        let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        let txn = db.begin();
        for k in 0..n {
            idx.insert(txn, &k, rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();
        (db, idx, store_plan)
    }

    /// Fail the next page write-back for good: the pool turns read-only,
    /// so every maintenance unit fails once it asks for an X latch.
    fn poison(db: &Db, store_plan: &Plan) {
        store_plan.add("store.write", Trigger::At(0), Action::Permanent);
        store_plan.arm();
        assert!(db.pool().flush_all().is_err());
        assert!(db.pool().is_poisoned());
    }

    /// The transaction a maintenance unit's error names ("abort of T<n>
    /// failed ...").
    fn named_txn(err: &MaintError) -> TxnId {
        let MaintError::Fatal(msg) = err else { panic!("not fatal: {err}") };
        let n = msg
            .strip_prefix("abort of T")
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|n| n.parse().ok());
        TxnId(n.unwrap_or_else(|| panic!("the error names no transaction: {msg}")))
    }

    /// The root's children, in slot order.
    fn root_children(db: &Db, idx: &GistIndex<BtreeExt>) -> Vec<PageId> {
        let g = db.pool().fetch_read(idx.root().unwrap()).unwrap();
        g.iter_cells()
            .filter(|(slot, _)| *slot != 0)
            .map(|(_, cell)| InternalEntryRef::new(cell).child())
            .collect()
    }

    /// The maintenance GC unit fails (the pool is read-only), and so
    /// does the abort of its own transaction: it returns a fatal error
    /// naming that transaction, and a later abort ends it.
    #[test]
    fn maint_gc_reports_a_transaction_it_could_not_abort() {
        let _g = serial();
        let (db, idx, store_plan) = poisonable(600);
        let leaf = root_children(&db, &idx)[0];
        poison(&db, &store_plan);
        let plan = arm("abort.before_undo", Trigger::Next(1), Action::Error, thread_id());
        let err = idx.maint_gc_leaf(leaf, None).expect_err("a read-only pool refuses GC");
        assert_eq!(plan.fires("abort.before_undo"), 1);
        let txn = named_txn(&err);
        assert!(db.txns().is_active(txn), "{err}");
        db.abort(txn).expect("a later abort ends it");
        assert_eq!(db.txns().active_count(), 0);
    }

    /// The maintenance drain unit fails on an empty leaf (the pool is
    /// read-only), and so does the abort of its own transaction: it
    /// returns a fatal error naming that transaction, and a later abort
    /// ends it.
    #[test]
    fn maint_drain_reports_a_transaction_it_could_not_abort() {
        let _g = serial();
        let (db, idx, store_plan) = poisonable(600);
        let root = idx.root().unwrap();
        let children = root_children(&db, &idx);
        assert!(children.len() >= 3, "{children:?}");
        let leaf = children[1];
        // Empty the leaf and reclaim its entries, leaving it linked.
        let rids: Vec<_> = {
            let g = db.pool().fetch_read(leaf).unwrap();
            g.iter_cells()
                .filter(|(slot, _)| *slot != 0)
                .map(|(_, cell)| LeafEntryRef::new(cell).rid())
                .collect()
        };
        let txn = db.begin();
        for &r in &rids {
            idx.delete(txn, &i64::from(r.slot), r).unwrap();
        }
        db.commit(txn).unwrap();
        assert!(idx.maint_gc_leaf(leaf, Some(root)).unwrap().leaf_empty);
        poison(&db, &store_plan);
        let plan = arm("abort.before_undo", Trigger::Next(1), Action::Error, thread_id());
        let err = idx.maint_try_drain(leaf, Some(root)).expect_err("a read-only pool refuses it");
        assert_eq!(plan.fires("abort.before_undo"), 1);
        let txn = named_txn(&err);
        assert!(db.txns().is_active(txn), "{err}");
        db.abort(txn).expect("a later abort ends it");
        assert_eq!(db.txns().active_count(), 0);
    }

    /// Delete every entry of `leaf` in one committed transaction: the
    /// marks wait for the maintenance GC unit.
    fn delete_all(db: &Db, idx: &Arc<GistIndex<BtreeExt>>, leaf: PageId) {
        let rids: Vec<_> = {
            let g = db.pool().fetch_read(leaf).unwrap();
            g.iter_cells()
                .filter(|(slot, _)| *slot != 0)
                .map(|(_, cell)| LeafEntryRef::new(cell).rid())
                .collect()
        };
        let txn = db.begin();
        for &r in &rids {
            idx.delete(txn, &i64::from(r.slot), r).unwrap();
        }
        db.commit(txn).unwrap();
    }

    /// Run one maintenance unit with its commit's sync failing once, then
    /// another with that sync and the completing abort's both failing.
    /// The first aborts its own transaction, which completes the commit,
    /// so none stays open. The second returns a fatal error naming the
    /// transaction it could not end, and a later abort ends it.
    fn commit_failures_end_the_unit_transaction(
        db: &Db,
        mut unit: impl FnMut(usize) -> Result<(), MaintError>,
    ) {
        let plan = arm("log.sync.before", Trigger::Next(1), Action::Error, thread_id());
        let err = unit(0).expect_err("the unit's commit fails");
        assert_eq!(plan.fires("log.sync.before"), 1);
        assert!(err.to_string().contains("log.sync.before"), "{err}");
        assert_eq!(db.txns().active_count(), 0, "the unit left its transaction open");

        let plan = arm("log.sync.before", Trigger::Next(2), Action::Error, thread_id());
        let err = unit(1).expect_err("the unit's commit fails");
        assert_eq!(plan.fires("log.sync.before"), 2, "the commit's sync, then the abort's");
        chaos::uninstall();
        let txn = named_txn(&err);
        assert!(db.txns().is_active(txn), "{err}");
        db.abort(txn).expect("a later abort ends it");
        assert_eq!(db.txns().active_count(), 0);
    }

    /// The maintenance GC unit whose commit fails ends its transaction.
    #[test]
    fn maint_gc_ends_its_transaction_when_the_commit_fails() {
        let _g = serial();
        let (db, idx, _) = poisonable(600);
        let root = idx.root().unwrap();
        let leaves = root_children(&db, &idx);
        for &leaf in &leaves[..2] {
            delete_all(&db, &idx, leaf);
        }
        commit_failures_end_the_unit_transaction(&db, |i| {
            idx.maint_gc_leaf(leaves[i], Some(root)).map(drop)
        });
    }

    /// The maintenance drain unit whose commit fails ends its
    /// transaction.
    #[test]
    fn maint_drain_ends_its_transaction_when_the_commit_fails() {
        let _g = serial();
        let (db, idx, _) = poisonable(600);
        let root = idx.root().unwrap();
        let leaves = root_children(&db, &idx);
        assert!(leaves.len() >= 4, "{leaves:?}");
        for &leaf in &leaves[1..3] {
            delete_all(&db, &idx, leaf);
            assert!(idx.maint_gc_leaf(leaf, Some(root)).unwrap().leaf_empty);
        }
        commit_failures_end_the_unit_transaction(&db, |i| {
            idx.maint_try_drain(leaves[1 + i], Some(root)).map(drop)
        });
    }

    /// Fail `ddl`'s commit once with a `log.sync.before` error on this
    /// thread: the call fails, its transaction ends (the abort completes
    /// the commit), and the catalog it leaves cached is the one restart
    /// recovers after a crash.
    fn ddl_commit_failure_ends_its_transaction(
        rig: Rig,
        ddl: impl FnOnce(&Db) -> Result<(), GistError>,
    ) {
        let active = rig.db.txns().active_count();
        let plan = arm("log.sync.before", Trigger::Next(1), Action::Error, thread_id());
        let err = ddl(&rig.db).expect_err("the commit fails");
        assert_eq!(plan.fires("log.sync.before"), 1);
        chaos::uninstall();
        assert!(err.to_string().contains("log.sync.before"), "{err}");
        assert_eq!(rig.db.txns().active_count(), active, "the transaction was left open");
        let names = rig.db.catalog_names();
        rig.db.crash();
        let (db2, _report) = Db::restart(rig.store, rig.log, rig.config).unwrap();
        assert_eq!(db2.catalog_names(), names, "the cached catalog is not the recovered one");
    }

    /// An index create whose commit fails ends its transaction.
    #[test]
    fn index_create_ends_its_transaction_when_the_commit_fails() {
        let _g = serial();
        ddl_commit_failure_ends_its_transaction(Rig::new(10), |db| {
            db.create_index_raw("u", false).map(drop)
        });
    }

    /// An index drop whose commit fails ends its transaction.
    #[test]
    fn index_drop_ends_its_transaction_when_the_commit_fails() {
        let _g = serial();
        ddl_commit_failure_ends_its_transaction(Rig::new(10), |db| {
            db.drop_index_raw("t").map(drop)
        });
    }

    /// `Db::crash` between a commit's append and its sync: the crash
    /// cuts the commit record off, so the commit fails rather than being
    /// acknowledged, and restart sees nothing of it.
    #[test]
    fn crash_between_commit_append_and_sync_fails_the_commit() {
        let _g = serial();
        let rig = Rig::new(50);
        let (victim, txn, go) = spawn_victim(&rig, 10_000);
        let delay = Action::Delay(300);
        arm("commit.before_durable_wait", Trigger::Always, delay, victim.thread().id());
        go();
        let started = Instant::now();
        let is_victims_commit = |r: &LogRecord| r.txn == txn && r.body == RecordBody::TxnCommit;
        while !rig.log.scan_from(rig.log.flushed_lsn()).iter().any(is_victims_commit) {
            assert!(started.elapsed() < Duration::from_secs(10), "the victim never appended");
            std::thread::yield_now();
        }
        rig.db.crash();
        let out = victim.join().unwrap();
        assert!(out.is_err(), "a commit whose record the crash cut off was acknowledged");
        rig.crash_and_verify();
    }

    /// Under `latch-audit`, commit asserts the committing thread holds
    /// no page latch while it waits for durability (a latch held across
    /// a device sync would stall every reader of that page). Hammering
    /// concurrent commits proves the whole commit path reaches the sync
    /// latch-clean.
    #[cfg(feature = "latch-audit")]
    #[test]
    fn no_page_latch_is_held_while_a_commit_syncs() {
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
            w.join().expect("a latch held across a sync would have tripped the audit");
        }
        rig.db.shutdown().unwrap();
    }
}

/// In-unit split reverts (§9.1): a split that fails at one of its crash
/// points reverts its pages under the latches it still holds, logging
/// each revert as a compensation record, and the transaction then
/// aborts. Replaying the whole log onto an empty store must rebuild
/// exactly the pages the forward run left — for a root split and a
/// non-root split, failed at each of the split's three crash points.
#[cfg(feature = "chaos")]
mod split_revert {
    use std::sync::Arc;

    use gist_repro::am::{BtreeExt, I64Query};
    use gist_repro::chaos::{self, Action, Trigger};
    use gist_repro::core::check::check_tree;
    use gist_repro::core::{Db, DbConfig, GistIndex, IndexOptions};
    use gist_repro::pagestore::{InMemoryStore, Page, PageId, PageStore, PAGE_SIZE};
    use gist_repro::wal::LogManager;

    use super::rid;
    use super::sync_crash::{arm, serial};

    /// The ids of the pages whose images differ between two stores (a
    /// page one store lacks reads as zeroes).
    fn differing_pages(a: &dyn PageStore, b: &dyn PageStore) -> Vec<u32> {
        let image = |s: &dyn PageStore, id: u32| {
            let mut p = Page::zeroed();
            if id >= s.page_count() {
                return vec![0; PAGE_SIZE];
            }
            s.read(PageId(id), &mut p).unwrap();
            p.as_bytes().to_vec()
        };
        (0..a.page_count().max(b.page_count())).filter(|&id| image(a, id) != image(b, id)).collect()
    }

    /// Commit keys `0..committed` (none: the root is a leaf, and the
    /// next split is a root split), fail the next split once at `point`,
    /// abort, and compare the forward pages with a replay of the log.
    fn fail_one_split(point: &'static str, committed: i64) {
        let _g = serial();
        let store = Arc::new(InMemoryStore::new());
        let log = Arc::new(LogManager::new());
        let db = Db::open(store.clone(), log.clone(), DbConfig::default()).unwrap();
        let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        let txn = db.begin();
        for k in 0..committed {
            idx.insert(txn, &k, rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();
        let height = idx.stats().unwrap().height;
        assert_eq!(height, if committed == 0 { 1 } else { 2 });

        let plan = arm(point, Trigger::Next(1), Action::Error, std::thread::current().id());
        let txn = db.begin();
        let mut k = committed;
        let err = loop {
            match idx.insert(txn, &k, rid(k as u64)) {
                Ok(()) => k += 1,
                Err(e) => break e,
            }
            assert!(k < committed + 2000, "no split reached {point}");
        };
        assert_eq!(plan.fires(point), 1);
        chaos::uninstall();
        assert!(err.to_string().contains(point), "{err}");
        db.abort(txn).unwrap();
        assert_eq!(idx.stats().unwrap().height, height, "the failed split was reverted");
        check_tree(&idx).unwrap().assert_ok();
        let txn = db.begin();
        let found = idx.search(txn, &I64Query::range(0, committed + 2000)).unwrap().len();
        db.commit(txn).unwrap();
        assert_eq!(found, committed as usize);

        db.flush().unwrap();
        db.crash();
        let replayed = Arc::new(InMemoryStore::new());
        let (db2, _report) =
            Db::restart(replayed.clone(), log.clone(), DbConfig::default()).unwrap();
        db2.flush().unwrap();
        assert_eq!(
            differing_pages(&*store, &*replayed),
            Vec::<u32>::new(),
            "pages whose replayed image is not the forward one after a split failed at {point}"
        );
    }

    #[test]
    fn root_split_failed_after_sibling_write() {
        fail_one_split("insert.split.after_sibling_write", 0);
    }

    #[test]
    fn root_split_failed_before_parent_install() {
        fail_one_split("insert.split.before_parent_install", 0);
    }

    #[test]
    fn root_split_failed_after_parent_install() {
        fail_one_split("insert.split.after_parent_install", 0);
    }

    #[test]
    fn leaf_split_failed_after_sibling_write() {
        fail_one_split("insert.split.after_sibling_write", 1000);
    }

    #[test]
    fn leaf_split_failed_before_parent_install() {
        fail_one_split("insert.split.before_parent_install", 1000);
    }

    #[test]
    fn leaf_split_failed_after_parent_install() {
        fail_one_split("insert.split.after_parent_install", 1000);
    }
}
