//! Sustained mixed stress: concurrent inserts, deletes, scans, vacuums
//! and crash/restart cycles, with the invariant checker as the referee.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gist_repro::am::{BtreeExt, I64Query};
use gist_repro::core::check::check_tree;
use gist_repro::core::{Db, DbConfig, GistError, GistIndex, IndexOptions};
use gist_repro::pagestore::{InMemoryStore, PageId, Rid};
use gist_repro::wal::LogManager;

fn rid(n: u64) -> Rid {
    Rid::new(PageId(670_000 + (n >> 16) as u32), (n & 0xFFFF) as u16)
}

#[test]
fn sustained_mixed_workload_with_vacuum() {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let db = Db::open(store, log, DbConfig::default()).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();

    let txn = db.begin();
    for k in 0..2_000i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let committed_inserts = Arc::new(AtomicU64::new(0));
    let committed_deletes = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();

    // Two insert/delete writers with private key regions.
    for t in 0..2u64 {
        let (db, idx, stop, ci, cd) = (
            db.clone(),
            idx.clone(),
            stop.clone(),
            committed_inserts.clone(),
            committed_deletes.clone(),
        );
        handles.push(std::thread::spawn(move || {
            let mut mine: Vec<(i64, Rid)> = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let txn = db.begin();
                let res: gist_repro::core::Result<bool> = if i % 4 == 3 && !mine.is_empty() {
                    let (k, r) = mine[0];
                    idx.delete(txn, &k, r).map(|_| false)
                } else {
                    let k = 10_000 + (t as i64) * 1_000_000 + i as i64;
                    let r = rid(1_000_000 + t * 100_000_000 + i);
                    idx.insert(txn, &k, r).map(|_| true)
                };
                match res {
                    Ok(was_insert) => {
                        db.commit(txn).unwrap();
                        if was_insert {
                            let k = 10_000 + (t as i64) * 1_000_000 + i as i64;
                            mine.push((k, rid(1_000_000 + t * 100_000_000 + i)));
                            ci.fetch_add(1, Ordering::Relaxed);
                        } else {
                            mine.remove(0);
                            cd.fetch_add(1, Ordering::Relaxed);
                        }
                        i += 1;
                    }
                    Err(e) if e.is_retryable() => db.abort(txn).unwrap(),
                    Err(e) => panic!("{e}"),
                }
            }
        }));
    }
    // A scanner that checks the stable baseline plus repeatability.
    {
        let (db, idx, stop) = (db.clone(), idx.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let txn = db.begin();
                let a = match idx.search(txn, &I64Query::range(0, 1_999)) {
                    Ok(v) => v,
                    Err(e) if e.is_retryable() => {
                        db.abort(txn).unwrap();
                        continue;
                    }
                    Err(e) => panic!("{e}"),
                };
                assert_eq!(a.len(), 2_000, "baseline stable");
                db.commit(txn).unwrap();
            }
        }));
    }
    // A periodic vacuum.
    {
        let (db, idx, stop) = (db.clone(), idx.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                let txn = db.begin();
                match idx.vacuum_sync(txn) {
                    Ok(_) => db.commit(txn).unwrap(),
                    Err(e) if e.is_retryable() => db.abort(txn).unwrap(),
                    Err(e) => panic!("{e}"),
                }
            }
        }));
    }

    std::thread::sleep(Duration::from_secs(3));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    let txn = db.begin();
    let total = idx.search(txn, &I64Query::range(i64::MIN, i64::MAX)).unwrap().len() as u64;
    db.commit(txn).unwrap();
    assert_eq!(
        total,
        2_000 + committed_inserts.load(Ordering::Relaxed)
            - committed_deletes.load(Ordering::Relaxed),
        "content accounting exact"
    );
    check_tree(&idx).unwrap().assert_ok();
}

#[test]
fn repeated_crash_cycles_with_work_between() {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let mut expected: Vec<i64> = Vec::new();
    {
        let db = Db::open(store.clone(), log.clone(), DbConfig::default()).unwrap();
        let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        let txn = db.begin();
        for k in 0..100i64 {
            idx.insert(txn, &k, rid(k as u64)).unwrap();
            expected.push(k);
        }
        db.commit(txn).unwrap();
        db.crash();
    }
    for round in 1..=4i64 {
        let (db, _) = Db::restart(store.clone(), log.clone(), DbConfig::default()).unwrap();
        let idx = GistIndex::open(db.clone(), "t", BtreeExt).unwrap();
        // Verify, then add a committed batch and a doomed batch.
        let txn = db.begin();
        let mut got: Vec<i64> = idx
            .search(txn, &I64Query::range(i64::MIN, i64::MAX))
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        db.commit(txn).unwrap();
        got.sort();
        let mut want = expected.clone();
        want.sort();
        assert_eq!(got, want, "round {round}");
        check_tree(&idx).unwrap().assert_ok();

        let txn = db.begin();
        for j in 0..50i64 {
            let k = round * 1_000 + j;
            idx.insert(txn, &k, rid(200_000 + (round * 100 + j) as u64)).unwrap();
            expected.push(k);
        }
        db.commit(txn).unwrap();
        let doomed = db.begin();
        for j in 0..30i64 {
            let k = round * 1_000 + 500 + j;
            idx.insert(doomed, &k, rid(300_000 + (round * 100 + j) as u64)).unwrap();
        }
        match round % 2 {
            0 => {
                // Crash with the doomed txn in flight (records forced).
                db.log().flush_all();
            }
            _ => {
                // Explicit abort, then crash.
                db.abort(doomed).unwrap();
            }
        }
        db.crash();
    }
}

/// Optimistic scans racing vacuum-driven node drains and heavy buffer
/// eviction. A tiny pool keeps knocking pages out from under the
/// latch-free readers (`Validation::Evicted` → seeded latched
/// fallback), while drains push §7.2 frees through the epoch bin; the
/// scanners must still see the stable baseline exactly. Under
/// `--features latch-audit` this also proves the no-latch and
/// pin-coverage rules hold on the fast path at stress volume.
#[test]
fn optimistic_scans_race_drains_and_eviction() {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let config = DbConfig { pool_capacity: 24, ..DbConfig::default() };
    let db = Db::open(store, log, config).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();

    let txn = db.begin();
    for k in 0..1_500i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    // One writer churning a private region above the baseline; the
    // delete half of the churn leaves nodes for vacuum to drain.
    {
        let (db, idx, stop) = (db.clone(), idx.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            let mut mine: Vec<(i64, Rid)> = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let txn = db.begin();
                let res: gist_repro::core::Result<()> = if i % 2 == 1 && !mine.is_empty() {
                    let (k, r) = mine[0];
                    idx.delete(txn, &k, r).map(|_| ())
                } else {
                    let k = 50_000 + i as i64;
                    idx.insert(txn, &k, rid(3_000_000 + i)).map(|_| ())
                };
                match res {
                    Ok(()) => {
                        db.commit(txn).unwrap();
                        if i % 2 == 1 && !mine.is_empty() {
                            mine.remove(0);
                        } else {
                            mine.push((50_000 + i as i64, rid(3_000_000 + i)));
                        }
                        i += 1;
                    }
                    Err(e) if e.is_retryable() => db.abort(txn).unwrap(),
                    Err(e) => panic!("{e}"),
                }
            }
        }));
    }
    // Two optimistic scanners over the stable baseline.
    for _ in 0..2 {
        let (db, idx, stop) = (db.clone(), idx.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let txn = db.begin();
                let a = match idx.search(txn, &I64Query::range(0, 1_499)) {
                    Ok(v) => v,
                    Err(e) if e.is_retryable() => {
                        db.abort(txn).unwrap();
                        continue;
                    }
                    Err(e) => panic!("{e}"),
                };
                assert_eq!(a.len(), 1_500, "baseline stable under eviction races");
                db.commit(txn).unwrap();
            }
        }));
    }
    // A periodic vacuum to keep drains flowing.
    {
        let (db, idx, stop) = (db.clone(), idx.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(50));
                let txn = db.begin();
                match idx.vacuum_sync(txn) {
                    Ok(_) => db.commit(txn).unwrap(),
                    Err(e) if e.is_retryable() => db.abort(txn).unwrap(),
                    Err(e) => panic!("{e}"),
                }
            }
        }));
    }

    std::thread::sleep(Duration::from_secs(2));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    let s = db.robustness_stats();
    assert!(
        s.opt_read_hits + s.opt_read_retries + s.opt_read_fallbacks > 0,
        "fast path never engaged under eviction stress: {s:?}"
    );
    check_tree(&idx).unwrap().assert_ok();
}

#[test]
fn unique_index_under_concurrent_mixed_load() {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let db = Db::open(store, log, DbConfig::default()).unwrap();
    let idx =
        GistIndex::create(db.clone(), "u", BtreeExt, IndexOptions { unique: true }).unwrap();
    let winners = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let (db, idx, winners) = (db.clone(), idx.clone(), winners.clone());
        handles.push(std::thread::spawn(move || {
            for k in 0..100i64 {
                loop {
                    let txn = db.begin();
                    match idx.insert(txn, &k, rid(10_000 + t * 1_000 + k as u64)) {
                        Ok(()) => {
                            db.commit(txn).unwrap();
                            winners.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        Err(GistError::UniqueViolation) => {
                            db.abort(txn).unwrap();
                            break;
                        }
                        Err(e) if e.is_retryable() => db.abort(txn).unwrap(),
                        Err(e) => panic!("{e}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(winners.load(Ordering::Relaxed), 100);
    let txn = db.begin();
    for k in 0..100i64 {
        assert_eq!(idx.search(txn, &I64Query::eq(k)).unwrap().len(), 1, "key {k}");
    }
    db.commit(txn).unwrap();
    check_tree(&idx).unwrap().assert_ok();
}

// --------------------------------------------------------------------
// Table stress: hammer the lock manager, the predicate manager and a
// small buffer pool (each one mutex-guarded table) from several threads
// at once. Under `--features latch-audit` every latch and lock wait is
// discipline-checked and any violation panics the offending thread, so
// a clean join IS the assertion.
// --------------------------------------------------------------------

mod table_stress {
    use super::*;
    use gist_repro::lockmgr::{LockManager, LockMode, LockName};
    use gist_repro::pagestore::BufferPool;
    use gist_repro::predlock::{NodeKey, PredKind, PredicateManager};
    use gist_repro::wal::TxnId;

    #[test]
    fn lock_pred_and_pool_tables_zero_violations() {
        const THREADS: u64 = 4;
        const ITERS: u64 = 150;

        let lm = Arc::new(LockManager::with_timeout(Duration::from_secs(20)));
        let pm = Arc::new(PredicateManager::new());
        let store = Arc::new(InMemoryStore::new());
        let pool = BufferPool::new(store, 6);
        // Capacity 6 << 32 pages keeps the eviction scan constantly
        // active.
        for p in 1..=32u32 {
            pool.new_page_write(PageId(p), 0).unwrap().mark_dirty_unlogged();
        }
        pool.flush_all().unwrap();

        let names: Vec<LockName> = (0..8).map(|n| LockName::Rid(rid(900_000 + n))).collect();
        let nodes: Vec<NodeKey> = (0..8).map(|n| (7, PageId(1_000 + n))).collect();

        let mut handles = Vec::new();
        for t in 0..THREADS {
            let (lm, pm, pool) = (lm.clone(), pm.clone(), pool.clone());
            let (names, nodes) = (names.clone(), nodes.clone());
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    let txn = TxnId(1 + t * 1_000_000 + i);
                    // Everyone S-locks the whole set (all compatible).
                    for name in &names {
                        lm.lock(txn, *name, LockMode::S).unwrap();
                    }
                    // Attach, replicate, cross-check.
                    let p = pm.register(txn, PredKind::Scan, vec![t as u8]);
                    let first = (i as usize) % nodes.len();
                    for k in 0..4 {
                        pm.attach(p, nodes[(first + k) % nodes.len()]);
                    }
                    pm.replicate(nodes[first], nodes[(first + 5) % nodes.len()], &|_, _| true);
                    pm.check_insert(nodes[first], txn, &[t as u8], &|a, b| a == b);
                    // Read pages while eviction churns.
                    for p in 0..4u32 {
                        let id = PageId(1 + (t as u32 * 7 + i as u32 + p) % 32);
                        let g = pool.fetch_read(id).unwrap();
                        drop(g);
                    }
                    pm.release_txn(txn);
                    lm.release_all(txn);
                    #[cfg(feature = "latch-audit")]
                    gist_repro::audit::assert_thread_clear("table stress iteration");
                }
            }));
        }
        // A latch/lock discipline violation panics inside the thread
        // (latch-audit) — the joins below are the zero-violation check.
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pm.stats().predicates, 0);
        assert_eq!(pm.stats().nodes, 0);
        assert!(names.iter().all(|n| lm.holders(*n).is_empty()));
        #[cfg(feature = "latch-audit")]
        println!("{}", gist_repro::audit::summary());
    }

    #[test]
    fn table_db_mixed_ops() {
        // Whole-database run on the default configuration: concurrent
        // inserts and scans through every table at once, then a full
        // structural check.
        let store = Arc::new(InMemoryStore::new());
        let log = Arc::new(LogManager::new());
        let db = Db::open(store, log, DbConfig::default()).unwrap();
        let idx =
            GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        let txn = db.begin();
        for k in 0..1_500i64 {
            idx.insert(txn, &k, rid(500_000 + k as u64)).unwrap();
        }
        db.commit(txn).unwrap();

        let mut handles = Vec::new();
        for t in 0..4u64 {
            let (db, idx) = (db.clone(), idx.clone());
            handles.push(std::thread::spawn(move || {
                for i in 0..120u64 {
                    let txn = db.begin();
                    let r = if i % 2 == 0 {
                        let k = 100_000 + t as i64 * 1_000_000 + i as i64;
                        idx.insert(txn, &k, rid(700_000 + t * 10_000 + i)).map(|_| ())
                    } else {
                        let lo = (t as i64 * 97 + i as i64 * 13) % 1_500;
                        idx.search(txn, &I64Query::range(lo, lo + 20)).map(|_| ())
                    };
                    match r {
                        Ok(()) => db.commit(txn).unwrap(),
                        Err(e) if e.is_retryable() => db.abort(txn).unwrap(),
                        Err(e) => panic!("{e}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        check_tree(&idx).unwrap().assert_ok();
    }
}
