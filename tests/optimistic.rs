//! The optimistic latch-free node access: equivalence with the latched
//! cursor, repeatability under a concurrent writer storm, the in-place
//! flip to the latched access that keeps result sets exact, evicted
//! frames that die with their last `Arc` instead of waiting out a pin,
//! and a walk that never revisits a pointer it stacked before a wait.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gist_repro::am::{BtreeExt, I64Query};
use gist_repro::core::check::check_tree;
use gist_repro::core::{Db, DbConfig, GistIndex, IndexOptions, InternalEntryRef, LeafEntryRef};
use gist_repro::pagestore::{InMemoryStore, PageId, Rid};
use gist_repro::wal::LogManager;

fn rid(n: u64) -> Rid {
    Rid::new(PageId(810_000 + (n >> 16) as u32), (n & 0xFFFF) as u16)
}

fn open() -> (Arc<Db>, Arc<GistIndex<BtreeExt>>) {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let db = Db::open(store, log, DbConfig::default()).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    (db, idx)
}

/// The two node accesses must be observationally identical: the same
/// committed content answers the same queries with the same result sets
/// whether `search` walks it (optimistic) or a cursor does (always
/// latched).
#[test]
fn optimistic_and_latched_return_identical_result_sets() {
    let (db, idx) = open();
    let txn = db.begin();
    for k in 0..3_000i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    // Punch some holes so delete-marked entries are in play too.
    for k in (0..3_000i64).step_by(7) {
        idx.delete(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    let queries = [
        I64Query::range(0, 2_999),
        I64Query::range(-50, 10),
        I64Query::range(1_490, 1_510),
        I64Query::range(2_999, 9_999),
        I64Query::range(4_000, 5_000), // empty
    ];
    for q in &queries {
        let t1 = db.begin();
        let mut a = idx.search(t1, q).unwrap();
        db.commit(t1).unwrap();
        let before = db.robustness_stats();
        let t2 = db.begin();
        let mut b = idx.cursor(t2, *q).unwrap().collect_all().unwrap();
        db.commit(t2).unwrap();
        let after = db.robustness_stats();
        assert_eq!(
            (before.opt_read_hits, before.opt_read_retries, before.opt_read_fallbacks),
            (after.opt_read_hits, after.opt_read_retries, after.opt_read_fallbacks),
            "a cursor drain touched the optimistic access"
        );
        a.sort();
        b.sort();
        assert_eq!(a, b, "optimistic and latched result sets diverge");
    }
    let s = db.robustness_stats();
    assert!(s.opt_read_hits > 0, "search never validated an optimistic copy: {s:?}");
}

/// A forced fallback: a writer holds the X latch of a leaf in the middle
/// of the scanned range, so the optimistic access burns its retry budget
/// on that leaf (after delivering the leaves before it) and the same walk
/// flips to latched. The result must be exact and duplicate-free, and the
/// search must have registered exactly one scan predicate.
#[test]
fn forced_fallback_keeps_one_predicate_and_exact_rows() {
    let (db, idx) = open();
    let txn = db.begin();
    for k in 0..1_000i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    assert!(idx.stats().unwrap().leaves >= 3);

    // The leaf holding key 500, found through the locked record's page.
    let store_pages = db.pool().store().page_count();
    let target = (1..store_pages)
        .map(PageId)
        .find(|&pid| {
            let g = db.pool().fetch_read(pid).unwrap();
            !g.is_available()
                && g.is_leaf()
                && g.iter_cells().filter(|(slot, _)| *slot != 0).any(|(_, cell)| {
                    LeafEntryRef::new(cell).rid() == rid(500)
                })
        })
        .expect("some leaf holds key 500");

    let preds_before = db.preds().stats().predicates;
    let fallbacks_before = db.robustness_stats().opt_read_fallbacks;
    let latch = db.pool().fetch_write(target).unwrap();
    let reader = {
        let (db, idx) = (db.clone(), idx.clone());
        std::thread::spawn(move || {
            let txn = db.begin();
            let rows = idx.search(txn, &I64Query::range(0, 999)).unwrap();
            let preds = db.preds().stats().predicates;
            db.commit(txn).unwrap();
            (rows, preds)
        })
    };
    // The reader cannot get past the latched leaf: once it has given up
    // on the optimistic access it is queued on the latch (or about to
    // be), and releasing it lets the latched walk finish.
    while db.robustness_stats().opt_read_fallbacks == fallbacks_before {
        std::thread::yield_now();
    }
    drop(latch);
    let (rows, preds_during) = reader.join().unwrap();

    assert_eq!(db.robustness_stats().opt_read_fallbacks, fallbacks_before + 1);
    assert_eq!(preds_during, preds_before + 1, "one search, one scan predicate");
    let mut keys: Vec<i64> = rows.iter().map(|(k, _)| *k).collect();
    keys.sort_unstable();
    assert_eq!(keys, (0..1_000).collect::<Vec<_>>(), "rows lost or duplicated across the flip");
}

/// Under a sustained insert/delete storm the optimistic drain must
/// still deliver exact, duplicate-free, repeatable result sets — the
/// stable baseline region in full, and never a phantom inside it.
#[test]
fn optimistic_scans_stay_exact_under_writer_storm() {
    let (db, idx) = open();
    let txn = db.begin();
    for k in 0..1_000i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let scans = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();

    // Writers churn private key regions far above the baseline, with
    // enough delete traffic to drive splits, marks and drains.
    for t in 0..2u64 {
        let (db, idx, stop) = (db.clone(), idx.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            let mut mine: Vec<(i64, Rid)> = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let txn = db.begin();
                let res: gist_repro::core::Result<()> = if i % 3 == 2 && !mine.is_empty() {
                    let (k, r) = mine[0];
                    idx.delete(txn, &k, r).map(|_| ())
                } else {
                    let k = 100_000 + (t as i64) * 1_000_000 + i as i64;
                    idx.insert(txn, &k, rid(2_000_000 + t * 100_000_000 + i)).map(|_| ())
                };
                match res {
                    Ok(()) => {
                        db.commit(txn).unwrap();
                        if i % 3 == 2 && !mine.is_empty() {
                            mine.remove(0);
                        } else {
                            let k = 100_000 + (t as i64) * 1_000_000 + i as i64;
                            mine.push((k, rid(2_000_000 + t * 100_000_000 + i)));
                        }
                        i += 1;
                    }
                    Err(e) if e.is_retryable() => db.abort(txn).unwrap(),
                    Err(e) => panic!("{e}"),
                }
            }
        }));
    }

    // Readers: every scan of the baseline returns it exactly, and a
    // repeated scan inside one Degree 3 transaction is identical.
    for _ in 0..2 {
        let (db, idx, stop, scans) = (db.clone(), idx.clone(), stop.clone(), scans.clone());
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let txn = db.begin();
                let q = I64Query::range(0, 999);
                let a = match idx.search(txn, &q) {
                    Ok(v) => v,
                    Err(e) if e.is_retryable() => {
                        db.abort(txn).unwrap();
                        continue;
                    }
                    Err(e) => panic!("{e}"),
                };
                assert_eq!(a.len(), 1_000, "baseline must be stable and phantom-free");
                let mut rids: Vec<Rid> = a.iter().map(|(_, r)| *r).collect();
                rids.sort();
                rids.dedup();
                assert_eq!(rids.len(), 1_000, "duplicate delivery");
                let b = match idx.search(txn, &q) {
                    Ok(v) => v,
                    Err(e) if e.is_retryable() => {
                        db.abort(txn).unwrap();
                        continue;
                    }
                    Err(e) => panic!("{e}"),
                };
                // Delivery order is traversal order and may legally
                // differ between the two drains (splits reorder the
                // stack); repeatability is about the *set*.
                let (mut a, mut b) = (a, b);
                a.sort();
                b.sort();
                assert_eq!(a, b, "Degree 3 repeatability violated");
                db.commit(txn).unwrap();
                scans.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    std::thread::sleep(Duration::from_secs(2));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    assert!(scans.load(Ordering::Relaxed) > 0, "no scan completed");
    let s = db.robustness_stats();
    assert!(s.opt_read_hits > 0, "storm test never exercised the fast path: {s:?}");
    check_tree(&idx).unwrap().assert_ok();
    db.shutdown().unwrap();
}

/// Epoch reclamation under the storm: after everything quiesces, a
/// collect cycle leaves no pending frees behind (nothing leaks from
/// the retire bin).
#[test]
fn optimistic_epoch_bin_drains_at_quiescence() {
    let (db, idx) = open();
    let txn = db.begin();
    for k in 0..2_000i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    for k in 500..1_500i64 {
        idx.delete(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    // Vacuum + maintenance drain emptied nodes; their §7.2 frees go
    // through the epoch bin.
    let txn = db.begin();
    idx.vacuum_sync(txn).unwrap();
    db.commit(txn).unwrap();
    db.maint_sync();

    let s = db.robustness_stats();
    assert_eq!(s.epoch_pending, 0, "retire bin not drained at quiescence: {s:?}");
    check_tree(&idx).unwrap().assert_ok();
}

/// Eviction under a live epoch pin parks nothing: the epoch bin stays
/// empty however many frames leave the pool, and an optimistic guard
/// taken before the flood still owns its dead frame and fails validation.
#[test]
fn evictions_under_a_pin_park_nothing_in_the_epoch_bin() {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let config = DbConfig { pool_capacity: 8, ..DbConfig::default() };
    let db = Db::open(store, log, config).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    let txn = db.begin();
    for k in 0..3_000i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let root = idx.root().unwrap();
    drop(db.pool().fetch_read(root).unwrap());

    let pin = db.epoch().pin();
    let og = db.pool().fetch_optimistic(root).unwrap();
    assert!(og.validate());

    // The flood latches pages, so it runs on another thread: this one
    // has an optimistic section open.
    let evictions = |db: &Db| db.pool().stats.evictions.load(Ordering::Relaxed);
    let before = evictions(&db);
    let flood = {
        let db = db.clone();
        std::thread::spawn(move || {
            let pages = db.pool().store().page_count();
            while evictions(&db) - before <= 100 {
                for p in 1..pages {
                    drop(db.pool().fetch_read(PageId(p)).unwrap());
                }
            }
        })
    };
    flood.join().unwrap();

    assert!(evictions(&db) - before > 100);
    assert_eq!(db.epoch().stats().pending, 0, "an eviction parked its frame behind the pin");
    assert!(!og.validate(), "the guard must see its frame die");
    assert!(og.read_with(|p| p.page_lsn()).is_none(), "a dead frame refuses to copy");
    drop(og);
    drop(pin);
}

/// A search that waits must not come back to a pointer it stacked
/// before the wait. Height-2 tree; the search blocks on a record lock in
/// the first leaf it pops while another leaf is still stacked. During the
/// wait that leaf is emptied, drained and freed (no pin is live, so the
/// free runs at once) and its page becomes the root of a second index
/// holding keys in the searched range. Once the lock is released the
/// search must return exactly its own index's rows.
#[test]
fn optimistic_walk_never_revisits_a_pointer_stacked_before_a_wait() {
    let (db, idx) = open();
    let txn = db.begin();
    for k in 0..600i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let stats = idx.stats().unwrap();
    assert_eq!(stats.height, 2);
    assert!(stats.leaves >= 3, "{stats:?}");

    // The walk stacks the root's children in slot order and pops the
    // last one first; the stacked leaf must not be the former root, which
    // node deletion never drains. Keys equal their rid's slot.
    let children: Vec<PageId> = {
        let g = db.pool().fetch_read(idx.root().unwrap()).unwrap();
        g.iter_cells()
            .filter(|(slot, _)| *slot != 0)
            .map(|(_, cell)| InternalEntryRef::new(cell).child())
            .collect()
    };
    let keys_of = |leaf: PageId| -> Vec<i64> {
        let g = db.pool().fetch_read(leaf).unwrap();
        g.iter_cells()
            .filter(|(slot, _)| *slot != 0)
            .map(|(_, cell)| i64::from(LeafEntryRef::new(cell).rid().slot))
            .collect()
    };
    let (&first, rest) = children.split_last().unwrap();
    let &stacked = rest.iter().find(|&&p| !db.is_protected_root(p)).unwrap();
    let blocker = keys_of(first)[0];
    let drained = keys_of(stacked);

    let t3 = db.begin();
    idx.delete(t3, &blocker, rid(blocker as u64)).unwrap();
    let waits_before = db.locks().stats.waits.load(Ordering::Relaxed);
    let search = {
        let (db, idx) = (db.clone(), idx.clone());
        std::thread::spawn(move || {
            let txn = db.begin();
            let rows = idx.search(txn, &I64Query::range(0, 599)).unwrap();
            db.commit(txn).unwrap();
            rows
        })
    };
    while db.locks().stats.waits.load(Ordering::Relaxed) == waits_before {
        std::thread::yield_now();
    }

    // While the search waits: empty the stacked leaf, let maintenance
    // drain and free it, and hand its page to a second index whose keys
    // fall inside the searched range.
    let t2 = db.begin();
    for &k in &drained {
        idx.delete(t2, &k, rid(k as u64)).unwrap();
    }
    db.commit(t2).unwrap();
    db.maint_sync();
    assert_eq!(db.alloc().free_count(), 1, "the emptied leaf was drained and freed");
    let other = GistIndex::create(db.clone(), "u", BtreeExt, IndexOptions::default()).unwrap();
    assert_eq!(other.root().unwrap(), stacked, "the freed page roots the second index");
    let t4 = db.begin();
    for k in 0..50i64 {
        other.insert(t4, &k, rid(50_000 + k as u64)).unwrap();
    }
    db.commit(t4).unwrap();

    db.commit(t3).unwrap();
    let rows = search.join().unwrap();
    for (k, r) in &rows {
        assert_eq!(*r, rid(*k as u64), "row {k} belongs to another index");
    }
    let mut keys: Vec<i64> = rows.iter().map(|(k, _)| *k).collect();
    keys.sort_unstable();
    let expected: Vec<i64> = (0..600).filter(|k| *k != blocker && !drained.contains(k)).collect();
    assert_eq!(keys, expected);
}
