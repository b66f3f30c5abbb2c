//! Mutation checks for the gist-audit dynamic analyzer: deliberately
//! violate each §5 discipline and assert the analyzer fires, then run a
//! clean workload and assert it stays silent. An analyzer nobody has
//! ever seen fire is indistinguishable from one that cannot.
//!
//! Violations are collected with `gist_audit::capture` instead of
//! panicking, so a *detected* fault is a passing test.

#![cfg(feature = "latch-audit")]

use std::sync::Arc;

use gist_repro::am::BtreeExt;
use gist_repro::audit;
use gist_repro::core::{Db, DbConfig, GistIndex, IndexOptions};
use gist_repro::pagestore::{BufferPool, InMemoryStore, PageId, PageStore, Rid};
use gist_repro::wal::LogManager;

fn rid(n: u64) -> Rid {
    Rid::new(PageId((n >> 16) as u32 + 3000), (n & 0xFFFF) as u16)
}

fn raw_pool(disk_pages: u32, capacity: usize) -> Arc<BufferPool> {
    let store = Arc::new(InMemoryStore::new());
    store.ensure_capacity(disk_pages).unwrap();
    BufferPool::new(store, capacity)
}

/// Mutation: a third latch inside a two-latch (parent/child) window.
#[test]
fn third_latch_is_flagged() {
    let pool = raw_pool(16, 8);
    let ((), violations) = audit::capture(|| {
        let _scope = audit::enter_scope("mutation:parent-child", 2, true, false);
        let _a = pool.fetch_read(PageId(1)).unwrap();
        let _b = pool.fetch_read(PageId(2)).unwrap();
        // The §5 window allows exactly two; this is the seeded fault.
        let _c = pool.fetch_read(PageId(3)).unwrap();
    });
    assert!(
        violations.iter().any(|v| v.rule == "latch-count"),
        "third latch must trip latch-count, got: {violations:#?}"
    );
    audit::assert_thread_clear("after third_latch_is_flagged");
}

/// Mutation: a latch held across a store read (buffer-pool miss).
#[test]
fn latch_across_io_is_flagged() {
    // Capacity 4 with 16 disk pages: page 9 is guaranteed cold.
    let pool = raw_pool(16, 4);
    let ((), violations) = audit::capture(|| {
        // Two latches are allowed, but I/O under a held latch is not.
        let _scope = audit::enter_scope("mutation:io-under-latch", 2, false, false);
        let _held = pool.fetch_read(PageId(1)).unwrap();
        let _cold = pool.fetch_read(PageId(9)).unwrap();
    });
    assert!(
        violations.iter().any(|v| v.rule == "latch-across-io"),
        "cold fetch under a latch must trip latch-across-io, got: {violations:#?}"
    );
    audit::assert_thread_clear("after latch_across_io_is_flagged");
}

/// Mutation: a latch leaked past an operation boundary.
#[test]
fn leaked_latch_is_flagged() {
    // The leak poisons the thread-local held set, so run it on a
    // dedicated thread and let the thread die with it.
    let handle = std::thread::spawn(|| {
        let pool = raw_pool(8, 4);
        let ((), violations) = audit::capture(|| {
            let guard = pool.fetch_read(PageId(1)).unwrap();
            std::mem::forget(guard); // seeded leak: Drop never runs
            audit::assert_thread_clear("work-item boundary");
        });
        violations
    });
    let violations = handle.join().unwrap();
    assert!(
        violations.iter().any(|v| v.rule == "latch-leak"),
        "forgotten guard must trip latch-leak, got: {violations:#?}"
    );
}

/// Mutation: the same NSN issued twice by one counter instance.
#[test]
fn duplicate_nsn_is_flagged() {
    let counter = audit::new_instance_id();
    let ((), violations) = audit::capture(|| {
        audit::nsn_drawn(counter, 41);
        audit::nsn_drawn(counter, 42);
        audit::nsn_drawn(counter, 42); // regressed counter
    });
    assert!(
        violations.iter().any(|v| v.rule == "nsn-duplicate"),
        "reissued NSN must trip nsn-duplicate, got: {violations:#?}"
    );
}

/// Mutation through the real draw path: in `WalLsn` mode a split's NSN
/// is its split record's LSN, so handing `Db::split_nsn` the same LSN
/// twice reissues an NSN. A draw path that stopped reporting to the
/// auditor would let this pass silently.
#[test]
fn split_nsn_reissued_through_db_is_flagged() {
    use gist_repro::core::NsnSource;
    use gist_repro::wal::Lsn;
    let config = DbConfig { nsn_source: NsnSource::WalLsn, ..DbConfig::default() };
    let db =
        Db::open(Arc::new(InMemoryStore::new()), Arc::new(LogManager::new()), config).unwrap();
    let (nsns, violations) = audit::capture(|| (db.split_nsn(Lsn(7)), db.split_nsn(Lsn(7))));
    assert_eq!(nsns, (7, 7), "WalLsn mode hands out the split record's LSN");
    assert!(
        violations.iter().any(|v| v.rule == "nsn-duplicate"),
        "a reissued split NSN must trip nsn-duplicate, got: {violations:#?}"
    );
}

/// Control: a real mixed workload through the public API produces zero
/// violations — the disciplines hold on the happy path, so everything
/// the mutations above caught is signal, not noise.
#[test]
fn clean_workload_reports_zero_violations() {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let ((), violations) = audit::capture(|| {
        let db = Db::open(store, log, DbConfig::default()).unwrap();
        let idx =
            GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        let txn = db.begin();
        for k in 0..2000i64 {
            idx.insert(txn, &k, rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();
        let txn = db.begin();
        for k in (0..2000i64).step_by(4) {
            idx.delete(txn, &k, rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();
        db.maint_sync();
        gist_repro::core::check::check_tree(&idx).unwrap().assert_ok();
    });
    assert!(violations.is_empty(), "clean workload must stay silent: {violations:#?}");
    audit::assert_thread_clear("after clean workload");
    println!("{}", audit::summary());
}
