//! Overload resilience: admission control (shed and barge), the
//! `run_txn` retry budget, appends that never sync, and the
//! health-state machine — including the chaos-driven pinned-reader
//! drill (`--features chaos`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gist_repro::core::{
    AdmissionConfig, Db, DbConfig, GistError, GistIndex, HealthState, IndexOptions,
};
use gist_repro::lockmgr::LockError;
use gist_repro::pagestore::{InMemoryStore, PageId, Rid};
use gist_repro::wal::{LogManager, Lsn, RecordBody, TxnId};

use gist_repro::am::BtreeExt;

fn rid(n: u64) -> Rid {
    Rid::new(PageId(910_000 + (n >> 16) as u32), (n & 0xFFFF) as u16)
}

fn open(config: DbConfig) -> (Arc<Db>, Arc<GistIndex<BtreeExt>>) {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let db = Db::open(store, log, config).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    (db, idx)
}

fn reasons(state: &HealthState) -> String {
    state.reasons().join("; ")
}

/// At capacity, `try_begin` sheds with `Overloaded` (retryable, nothing
/// started), health reads degraded, and both clear once a credit frees.
#[test]
fn try_begin_sheds_at_capacity_and_recovers() {
    let config = DbConfig {
        admission: AdmissionConfig {
            max_in_flight: 2,
            admit_timeout: Duration::from_millis(5),
        },
        ..DbConfig::default()
    };
    let (db, idx) = open(config);

    let t1 = db.begin();
    let t2 = db.begin();
    let err = db.try_begin().unwrap_err();
    assert!(matches!(err, GistError::Overloaded), "expected shed, got {err:?}");
    assert!(err.is_retryable(), "Overloaded must be retryable for run_txn");

    let s = db.admission().stats();
    assert_eq!(s.in_flight, 2);
    assert_eq!(s.capacity, 2);
    assert!(s.shed >= 1, "shed not counted: {s:?}");

    // Saturation is an operator-visible degradation, not a failure.
    let health = db.health();
    assert_eq!(health.label(), "degraded", "saturated controller: {health:?}");
    assert!(
        reasons(&health).contains("admission"),
        "degradation should name admission: {health:?}"
    );

    // The admitted transactions still do real work while the controller
    // sheds newcomers.
    idx.insert(t1, &1i64, rid(1)).unwrap();
    db.commit(t1).unwrap();
    db.commit(t2).unwrap();

    // Credits released at commit: admission is open and healthy again.
    let t3 = db.try_begin().expect("credit freed by commit");
    db.commit(t3).unwrap();
    let s = db.admission().stats();
    assert_eq!(s.in_flight, 0, "credits leaked: {s:?}");
    assert_eq!(db.health().label(), "healthy");
}

/// `begin` never fails: when the park times out it barges past the cap
/// (counted), and the credit accounting still balances at the end.
#[test]
fn begin_barges_past_saturated_controller() {
    let config = DbConfig {
        admission: AdmissionConfig {
            max_in_flight: 1,
            admit_timeout: Duration::from_millis(10),
        },
        ..DbConfig::default()
    };
    let (db, idx) = open(config);

    let t1 = db.begin();
    // Infallible path: parks ~10ms, then forces admission.
    let t2 = db.begin();
    let s = db.admission().stats();
    assert!(s.forced >= 1, "expected a forced admission: {s:?}");
    assert!(s.in_flight >= 2);

    idx.insert(t2, &2i64, rid(2)).unwrap();
    db.commit(t2).unwrap();
    db.abort(t1).unwrap();
    let s = db.admission().stats();
    assert_eq!(s.in_flight, 0, "credits leaked after barge: {s:?}");
}

/// Satellite regression: when every attempt fails with a retryable
/// error, `run_txn` burns its whole budget, returns the *last
/// underlying error* (not a wrapper), and increments
/// `retries_exhausted` exactly once.
#[test]
fn run_txn_exhausted_budget_returns_last_error() {
    let (db, _idx) = open(DbConfig::default());
    let calls = AtomicU64::new(0);

    let err = db
        .run_txn(|_txn| -> gist_repro::core::Result<()> {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(GistError::Lock(LockError::Deadlock))
        })
        .unwrap_err();

    assert!(
        matches!(err, GistError::Lock(LockError::Deadlock)),
        "caller must see the last underlying error, got {err:?}"
    );
    assert_eq!(calls.load(Ordering::Relaxed), 10, "budget is 10 attempts");
    let s = db.robustness_stats();
    assert_eq!(s.txn_retries, 9, "10 attempts = 9 retries: {s:?}");
    assert_eq!(s.retries_exhausted, 1, "exhaustion counted once: {s:?}");
    // Every attempt's transaction was cleaned up — no leaked credits.
    assert_eq!(db.admission().stats().in_flight, 0);
}

/// An append never waits for or forces the durable horizon, however
/// long the volatile tail grows: 70,000 appends and no request leave
/// `flushed_lsn()` where it was and health healthy. Durability comes
/// from `LogManager::sync_to`, which one call makes the whole tail.
#[test]
fn appends_never_sync_the_log() {
    let store = Arc::new(InMemoryStore::new());
    let db = Db::open(store, Arc::new(LogManager::new()), DbConfig::default()).unwrap();
    let log = db.log();
    let durable = log.flushed_lsn();

    let mut last = Lsn::NULL;
    for _ in 0..70_000 {
        last = log.append(TxnId(1), last, RecordBody::Noop);
    }

    assert_eq!(log.flushed_lsn(), durable, "an append synced the log");
    let health = db.health();
    assert_eq!(health.label(), "healthy", "{health:?}");

    log.sync_to(last).unwrap();
    assert_eq!(log.flushed_lsn(), last, "one sync made the whole tail durable");
}

/// The pinned-reader drill (chaos builds only): a reader parks inside
/// the optimistic path holding its epoch pin while every log sync
/// crawls. A pin holds back only the §7.2 page frees retired
/// during it, so nothing else may wait on it: while the reader is
/// parked, reads stay exact, writes commit and health stays healthy.
#[cfg(feature = "chaos")]
#[test]
fn pinned_reader_blocks_no_reads_or_writes() {
    use gist_repro::am::I64Query;
    use gist_repro::chaos::{self, Action, Plan, Trigger};
    use std::time::Instant;

    let (db, idx) = open(DbConfig::default());
    let txn = db.begin();
    for k in 0..200i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    // A slow log device (every sync crawls) plus one reader that parks
    // 100ms inside the optimistic path, epoch pin held.
    let plan = chaos::install(Plan::new());
    plan.add("log.sync.before", Trigger::Always, Action::Delay(5));
    plan.add("cursor.optimistic.pinned", Trigger::Next(1), Action::Delay(100));
    plan.arm();
    let reader = {
        let (db, idx) = (db.clone(), idx.clone());
        std::thread::spawn(move || {
            let t = db.begin();
            let hits = idx.search(t, &I64Query::range(0, 199)).unwrap();
            db.commit(t).unwrap();
            hits.len()
        })
    };

    // Bounded poll for the parked reader's pin.
    let deadline = Instant::now() + Duration::from_secs(2);
    while db.epoch().stats().pinned_threads < 1 {
        assert!(Instant::now() < deadline, "reader never pinned: {:?}", db.epoch().stats());
        std::thread::sleep(Duration::from_millis(1));
    }

    let health = db.health();
    assert_eq!(health.label(), "healthy", "a pinned reader changed health: {health:?}");
    let t = db.begin();
    let hits = idx.search(t, &I64Query::range(0, 199)).unwrap();
    assert_eq!(hits.len(), 200, "search beside the pinned reader lost rows");
    idx.insert(t, &1_000i64, rid(1_000)).unwrap();
    db.commit(t).unwrap();

    chaos::uninstall();
    assert_eq!(reader.join().unwrap(), 200, "parked reader still answers exactly");
}
