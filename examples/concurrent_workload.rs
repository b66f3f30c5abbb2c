//! Concurrent mixed workload demo: multiple writer and reader threads
//! against one B-tree GiST, exercising the link protocol, hybrid
//! repeatable-read locking, and logical deletes reclaimed by the
//! background maintenance daemon while the workload runs.
//! Prints throughput and protocol statistics.
//!
//! ```sh
//! cargo run --release --example concurrent_workload
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gist_repro::am::{BtreeExt, I64Query};
use gist_repro::core::check::check_tree;
use gist_repro::core::{Db, DbConfig, GistIndex, IndexOptions};
use gist_repro::pagestore::{InMemoryStore, PageId, Rid};
use gist_repro::wal::LogManager;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let db = Db::open(store, log, DbConfig::default())?;
    let idx = GistIndex::create(db.clone(), "hot", BtreeExt, IndexOptions::default())?;
    // Background maintenance: every committed delete below is physically
    // reclaimed by the daemon's worker, concurrent with the workload.
    db.start_maint()?;

    // Preload.
    let txn = db.begin();
    for k in 0..5_000i64 {
        idx.insert(txn, &k, Rid::new(PageId(1_000_000 + (k >> 12) as u32), (k & 0xFFF) as u16))?;
    }
    db.commit(txn)?;

    let stop = Arc::new(AtomicBool::new(false));
    let inserts = Arc::new(AtomicU64::new(0));
    let scans = Arc::new(AtomicU64::new(0));
    let deletes = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));

    let mut threads = Vec::new();
    // Writers: insert into their own key region, occasionally delete.
    for t in 0..4u64 {
        let (db, idx, stop, inserts, deletes, retries) = (
            db.clone(),
            idx.clone(),
            stop.clone(),
            inserts.clone(),
            deletes.clone(),
            retries.clone(),
        );
        threads.push(std::thread::spawn(move || {
            let mut i = 0u64;
            let mut mine: Vec<(i64, Rid)> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let txn = db.begin();
                let key = 10_000 + (t as i64) * 1_000_000 + i as i64;
                let rid = Rid::new(PageId(2_000_000 + t as u32), (i % 60_000) as u16);
                let res = if i % 7 == 6 && !mine.is_empty() {
                    let (k, r) = mine.remove(0);
                    idx.delete(txn, &k, r).map(|_| None)
                } else {
                    idx.insert(txn, &key, rid).map(|_| Some((key, rid)))
                };
                match res {
                    Ok(change) => {
                        db.commit(txn).unwrap();
                        match change {
                            Some(pair) => {
                                mine.push(pair);
                                inserts.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                deletes.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        i += 1;
                    }
                    Err(e) if e.is_retryable() => {
                        db.abort(txn).unwrap();
                        retries.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        }));
    }
    // Readers: repeatable-read range scans over the preloaded region.
    for t in 0..4u64 {
        let (db, idx, stop, scans) = (db.clone(), idx.clone(), stop.clone(), scans.clone());
        threads.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let lo = ((t * 811 + i * 127) % 4_900) as i64;
                let txn = db.begin();
                let a = idx.search(txn, &I64Query::range(lo, lo + 100)).unwrap();
                let b = idx.search(txn, &I64Query::range(lo, lo + 100)).unwrap();
                assert_eq!(a.len(), b.len(), "repeatable read violated");
                db.commit(txn).unwrap();
                scans.fetch_add(1, Ordering::Relaxed);
                i += 1;
            }
        }));
    }

    let t0 = Instant::now();
    std::thread::sleep(Duration::from_secs(2));
    stop.store(true, Ordering::Relaxed);
    for th in threads {
        th.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();

    println!("== 2s mixed workload, 4 writers + 4 repeatable-read readers ==");
    println!(
        "inserts: {} ({:.0}/s)",
        inserts.load(Ordering::Relaxed),
        inserts.load(Ordering::Relaxed) as f64 / secs
    );
    println!(
        "deletes: {} | scans: {} ({:.0}/s) | deadlock retries: {}",
        deletes.load(Ordering::Relaxed),
        scans.load(Ordering::Relaxed),
        scans.load(Ordering::Relaxed) as f64 / secs,
        retries.load(Ordering::Relaxed)
    );
    let lock_stats = &db.locks().stats;
    println!(
        "lock manager: {} immediate grants, {} waits, {} deadlocks",
        lock_stats.immediate_grants.load(Ordering::Relaxed),
        lock_stats.waits.load(Ordering::Relaxed),
        lock_stats.deadlocks.load(Ordering::Relaxed)
    );
    println!("buffer pool: {:?}", db.pool().stats);

    // No foreground sweep: drain whatever the daemon hasn't gotten to yet
    // and report what it reclaimed while the workload ran.
    db.maint_sync();
    if idx.stats()?.marked_entries > 0 {
        // Items dropped after retry exhaustion under contention, if any,
        // are picked up by a whole-index sweep.
        db.run_txn(|t| idx.vacuum_sync(t))?;
    }
    println!("maintenance: {:?}", db.maint_stats());
    assert_eq!(idx.stats()?.marked_entries, 0, "daemon reclaimed every committed delete");
    db.shutdown().unwrap();
    check_tree(&idx)?.assert_ok();
    println!("tree invariants OK; final stats {:?}", idx.stats()?);
    Ok(())
}
