//! Isolation-level semantics: Degree 3 vs Degree 2 vs latching-only, plus
//! DDL (drop index) and checkpoint-based restart.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gist_repro::am::{BtreeExt, I64Query};
use gist_repro::core::check::check_tree;
use gist_repro::core::{Db, DbConfig, GistIndex, IndexOptions, IsolationLevel};
use gist_repro::pagestore::{InMemoryStore, PageId, Rid};
use gist_repro::wal::{LogManager, Lsn};

fn setup(isolation: IsolationLevel) -> (Arc<Db>, Arc<GistIndex<BtreeExt>>) {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let db = Db::open(store, log, DbConfig { isolation, ..DbConfig::default() }).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    (db, idx)
}

fn rid(n: u64) -> Rid {
    Rid::new(PageId(660_000), n as u16)
}

#[test]
fn degree2_never_reads_uncommitted() {
    let (db, idx) = setup(IsolationLevel::ReadCommitted);
    let txn = db.begin();
    for k in 0..10i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    // Uncommitted delete: a Degree 2 scan must wait for the decision,
    // not read past the mark.
    let deleter = db.begin();
    idx.delete(deleter, &5, rid(5)).unwrap();
    let t = {
        let (db, idx) = (db.clone(), idx.clone());
        std::thread::spawn(move || {
            let s = db.begin();
            let n = idx.search(s, &I64Query::range(0, 9)).unwrap().len();
            db.commit(s).unwrap();
            n
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(100));
    db.abort(deleter).unwrap();
    assert_eq!(t.join().unwrap(), 10, "aborted delete invisible at Degree 2");
}

#[test]
fn degree2_releases_read_locks_immediately() {
    let (db, idx) = setup(IsolationLevel::ReadCommitted);
    let txn = db.begin();
    for k in 0..20i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    let scanner = db.begin();
    let hits = idx.search(scanner, &I64Query::range(0, 19)).unwrap();
    assert_eq!(hits.len(), 20);
    // No residual record locks: a concurrent deleter's X locks are
    // granted instantly while the scanner is still open.
    let deleter = db.begin();
    idx.delete(deleter, &3, rid(3)).unwrap();
    db.commit(deleter).unwrap();
    // And the scanner, still open, sees the change on re-scan (no
    // repeatable read at Degree 2 — that is the point).
    let second = idx.search(scanner, &I64Query::range(0, 19)).unwrap();
    assert_eq!(second.len(), 19, "Degree 2 permits non-repeatable reads");
    db.commit(scanner).unwrap();
}

#[test]
fn degree2_allows_phantoms_degree3_blocks_them() {
    // Phantom check, side by side.
    for (isolation, expect_blocked) in
        [(IsolationLevel::ReadCommitted, false), (IsolationLevel::RepeatableRead, true)]
    {
        let (db, idx) = setup(isolation);
        let txn = db.begin();
        idx.insert(txn, &10, rid(10)).unwrap();
        db.commit(txn).unwrap();

        let scanner = db.begin();
        let _ = idx.search(scanner, &I64Query::range(0, 100)).unwrap();
        let inserted = Arc::new(AtomicBool::new(false));
        let t = {
            let (db, idx, inserted) = (db.clone(), idx.clone(), inserted.clone());
            std::thread::spawn(move || {
                let w = db.begin();
                idx.insert(w, &50, rid(50)).unwrap();
                inserted.store(true, Ordering::SeqCst);
                db.commit(w).unwrap();
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(150));
        assert_eq!(
            !inserted.load(Ordering::SeqCst),
            expect_blocked,
            "{isolation:?}: insert-blocked state wrong"
        );
        db.commit(scanner).unwrap();
        t.join().unwrap();
    }
}

#[test]
fn drop_index_frees_pages_and_name() {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let db = Db::open(store.clone(), log.clone(), DbConfig::default()).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    let txn = db.begin();
    for k in 0..2_000i64 {
        idx.insert(txn, &k, rid(k as u64 % 60_000)).unwrap();
    }
    db.commit(txn).unwrap();
    let nodes = idx.stats().unwrap().nodes;
    assert!(nodes > 3);
    drop(idx);

    let freed = db.drop_index_raw("t").unwrap();
    assert_eq!(freed, nodes, "every tree page freed");
    assert!(db.open_index_raw("t").is_none());
    assert!(db.alloc().free_count() >= nodes);

    // The name is reusable and the freed pages get recycled.
    let idx2 = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    let txn = db.begin();
    for k in 0..500i64 {
        idx2.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    check_tree(&idx2).unwrap().assert_ok();

    // Durability: the drop + recreate survives a crash.
    db.crash();
    let (db2, _) = Db::restart(store, log, DbConfig::default()).unwrap();
    let idx3 = GistIndex::open(db2.clone(), "t", BtreeExt).unwrap();
    let txn = db2.begin();
    assert_eq!(idx3.search(txn, &I64Query::range(0, 10_000)).unwrap().len(), 500);
    db2.commit(txn).unwrap();
    check_tree(&idx3).unwrap().assert_ok();
}

#[test]
fn checkpoint_bounds_analysis_and_recovery_stays_correct() {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let db = Db::open(store.clone(), log.clone(), DbConfig::default()).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    let txn = db.begin();
    for k in 0..500i64 {
        idx.insert(txn, &k, rid(k as u64 % 60_000)).unwrap();
    }
    db.commit(txn).unwrap();

    // Checkpoint while a transaction is in flight; it must survive in the
    // checkpoint's active list and still be undone at restart.
    let loser = db.begin();
    for k in 500..600i64 {
        idx.insert(loser, &k, rid(k as u64 % 60_000)).unwrap();
    }
    db.txns().checkpoint_with(Lsn(1), Vec::new()).unwrap();
    for k in 600..700i64 {
        idx.insert(loser, &k, rid(k as u64 % 60_000)).unwrap();
    }
    db.log().flush_all();
    db.crash();

    let (db2, report) = Db::restart(store, log, DbConfig::default()).unwrap();
    assert_eq!(report.outcome.losers.len(), 1);
    // All 200 loser inserts undone — including the 100 logged *before*
    // the checkpoint (the checkpoint's active-transaction list carries
    // the backchain across the analysis start).
    assert_eq!(report.outcome.clrs_written, 200);
    let idx2 = GistIndex::open(db2.clone(), "t", BtreeExt).unwrap();
    let txn = db2.begin();
    assert_eq!(idx2.search(txn, &I64Query::range(0, 10_000)).unwrap().len(), 500);
    db2.commit(txn).unwrap();
    check_tree(&idx2).unwrap().assert_ok();
}

#[test]
fn latching_mode_still_recovers() {
    // Even without isolation, logging and recovery are unconditional.
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let db = Db::open(
        store.clone(),
        log.clone(),
        DbConfig { isolation: IsolationLevel::Latching, ..DbConfig::default() },
    )
    .unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    let txn = db.begin();
    for k in 0..300i64 {
        idx.insert(txn, &k, rid(k as u64 % 60_000)).unwrap();
    }
    db.commit(txn).unwrap();
    db.crash();
    let (db2, _) = Db::restart(
        store,
        log,
        DbConfig { isolation: IsolationLevel::Latching, ..DbConfig::default() },
    )
    .unwrap();
    let idx2 = GistIndex::open(db2.clone(), "t", BtreeExt).unwrap();
    let txn = db2.begin();
    assert_eq!(idx2.search(txn, &I64Query::range(0, 10_000)).unwrap().len(), 300);
    db2.commit(txn).unwrap();
}
