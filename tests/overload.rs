//! Overload resilience: admission control (shed and barge), the
//! `run_txn` retry budget, appends that never sync, and the
//! health-state machine — including the chaos-driven epoch-stall
//! degradation drill (`--features chaos`).

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
/// long the volatile tail grows: with the flusher running, 70,000
/// appends and no request leave `flushed_lsn()` where it was and health
/// healthy. Durability comes from the commit pipeline, here a barrier.
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

    db.txns().pipeline().barrier(last).unwrap();
    assert_eq!(log.flushed_lsn(), last, "the barrier made the whole tail durable");
}

/// The epoch-stall drill (chaos builds only): a reader parks inside the
/// optimistic path holding its epoch pin while the group-commit flusher
/// crawls. The database must *degrade, not hang* — health flips to
/// degraded with the stall named, reads stay exact, writes keep
/// committing — and once the pin drops it walks back to healthy on its
/// own.
#[cfg(feature = "chaos")]
#[test]
fn epoch_stall_degrades_and_recovers() {
    use gist_repro::am::I64Query;
    use gist_repro::chaos::{self, Action, Plan, Trigger};
    use std::time::Instant;

    let config = DbConfig {
        // A pin is "stalled" after 10ms so the drill converges fast.
        epoch_stall_age: Duration::from_millis(10),
        ..DbConfig::default()
    };
    let (db, idx) = open(config);
    let txn = db.begin();
    for k in 0..200i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    // A slow flusher (every batch crawls) plus one reader that parks
    // 100ms inside the optimistic path, epoch pin held.
    let plan = chaos::install(Plan::new());
    plan.add("commitpipe.flusher.stall", Trigger::Always, Action::Delay(5));
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

    // The pin ages past the budget: health must reach "degraded" with
    // the epoch stall named — bounded poll, because the acceptance is
    // degradation *instead of* a hang.
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut saw_degraded = false;
    while Instant::now() < deadline {
        let health = db.health();
        if health.label() == "degraded" && reasons(&health).contains("epoch") {
            saw_degraded = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_degraded, "epoch stall never surfaced: {:?}", db.health());

    // Degraded, not broken: reads stay exact; writes still commit.
    let t = db.begin();
    let hits = idx.search(t, &I64Query::range(0, 199)).unwrap();
    assert_eq!(hits.len(), 200, "search during the stall lost rows");
    idx.insert(t, &1_000i64, rid(1_000)).unwrap();
    db.commit(t).unwrap();

    chaos::uninstall();
    assert_eq!(reader.join().unwrap(), 200, "stalled reader still answers exactly");

    // Pin released: the stall clears and health self-recovers.
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut recovered = false;
    while Instant::now() < deadline {
        if db.health().label() == "healthy" {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(recovered, "health stuck after the pin dropped: {:?}", db.health());

    let s = db.robustness_stats();
    assert!(s.epoch_stalls >= 1, "stall transition not counted: {s:?}");
}
