//! E4 — the Table 1 crash-recovery matrix.
//!
//! Each test drives the system to a state where a specific log-record
//! type's redo or undo path must run at restart, injects a crash
//! (buffer pool dropped, log truncated to its durable prefix), restarts,
//! and verifies both content (committed in, uncommitted out) and
//! structure (invariant checker).

use std::sync::Arc;

use gist_repro::am::{BtreeExt, I64Query};
use gist_repro::core::check::check_tree;
use gist_repro::core::{Db, DbConfig, GistIndex, IndexOptions, NsnSource};
use gist_repro::pagestore::{InMemoryStore, PageId, PageStore, Rid};
use gist_repro::wal::LogManager;

fn rid(n: u64) -> Rid {
    Rid::new(PageId((n >> 16) as u32 + 1000), (n & 0xFFFF) as u16)
}

struct Harness {
    store: Arc<InMemoryStore>,
    log: Arc<LogManager>,
    config: DbConfig,
}

impl Harness {
    fn new() -> Self {
        Harness {
            store: Arc::new(InMemoryStore::new()),
            log: Arc::new(LogManager::new()),
            config: DbConfig::default(),
        }
    }

    fn with_config(config: DbConfig) -> Self {
        Harness { store: Arc::new(InMemoryStore::new()), log: Arc::new(LogManager::new()), config }
    }

    fn open(&self) -> (Arc<Db>, Arc<GistIndex<BtreeExt>>) {
        let db = Db::open(self.store.clone(), self.log.clone(), self.config.clone()).unwrap();
        let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        (db, idx)
    }

    fn restart(&self) -> (Arc<Db>, Arc<GistIndex<BtreeExt>>) {
        let (db, _report) =
            Db::restart(self.store.clone(), self.log.clone(), self.config.clone()).unwrap();
        let idx = GistIndex::open(db.clone(), "t", BtreeExt).unwrap();
        (db, idx)
    }
}

fn keys_present(db: &Arc<Db>, idx: &Arc<GistIndex<BtreeExt>>, lo: i64, hi: i64) -> Vec<i64> {
    let txn = db.begin();
    let mut ks: Vec<i64> =
        idx.search(txn, &I64Query::range(lo, hi)).unwrap().into_iter().map(|(k, _)| k).collect();
    db.commit(txn).unwrap();
    ks.sort();
    ks
}

#[test]
fn committed_inserts_survive_crash_redo() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..500i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    // Nothing flushed to the store: redo must rebuild every page.
    db.crash();

    let (db2, idx2) = h.restart();
    assert_eq!(keys_present(&db2, &idx2, 0, 1000), (0..500).collect::<Vec<i64>>());
    check_tree(&idx2).unwrap().assert_ok();
}

#[test]
fn uncommitted_inserts_are_undone_add_leaf_entry() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..100i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    let loser = db.begin();
    for k in 100..150i64 {
        idx.insert(loser, &k, rid(k as u64)).unwrap();
    }
    // Make the loser's records durable without committing (forced log,
    // no commit record) — restart must undo them logically.
    db.log().flush_all();
    db.crash();

    let (db2, idx2) = h.restart();
    assert_eq!(keys_present(&db2, &idx2, 0, 1000), (0..100).collect::<Vec<i64>>());
    check_tree(&idx2).unwrap().assert_ok();
}

#[test]
fn uncommitted_delete_is_unmarked_mark_leaf_entry() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..50i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    let loser = db.begin();
    idx.delete(loser, &7, rid(7)).unwrap();
    idx.delete(loser, &8, rid(8)).unwrap();
    db.log().flush_all();
    db.crash();

    let (db2, idx2) = h.restart();
    // The marks must have been rolled back: keys visible again.
    assert_eq!(keys_present(&db2, &idx2, 0, 100), (0..50).collect::<Vec<i64>>());
    assert_eq!(idx2.stats().unwrap().marked_entries, 0);
    check_tree(&idx2).unwrap().assert_ok();
}

#[test]
fn committed_delete_mark_survives_crash() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..50i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let txn = db.begin();
    idx.delete(txn, &7, rid(7)).unwrap();
    db.commit(txn).unwrap();
    db.crash();

    let (db2, idx2) = h.restart();
    let ks = keys_present(&db2, &idx2, 0, 100);
    assert!(!ks.contains(&7), "committed delete persists");
    assert_eq!(ks.len(), 49);
    check_tree(&idx2).unwrap().assert_ok();
}

#[test]
fn split_redo_rebuilds_multi_node_tree() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    let n = 3000i64;
    for k in 0..n {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let height_before = idx.stats().unwrap().height;
    assert!(height_before >= 2);
    db.crash();

    let (db2, idx2) = h.restart();
    let stats = idx2.stats().unwrap();
    assert_eq!(stats.live_entries, n as usize);
    assert_eq!(stats.height, height_before, "structure reproduced by redo");
    assert_eq!(keys_present(&db2, &idx2, 0, n).len(), n as usize);
    check_tree(&idx2).unwrap().assert_ok();
}

#[test]
fn incomplete_split_nta_is_rolled_back() {
    // Crash with a split's records durable but its NtaEnd missing: the
    // restart must undo the partial structure modification (Table 1
    // Split/Internal-Entry-Add/Get-Page undo actions).
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..100i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let before = h.log.last_lsn();

    // Fill one leaf to the brink, then insert one more key in a fresh
    // transaction — this triggers a split. We find the NtaEnd record the
    // split wrote and truncate the durable log *just before it*.
    let txn = db.begin();
    let mut k = 100i64;
    let nta_end_lsn = loop {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
        k += 1;
        let recs = h.log.scan_from(gist_repro::wal::Lsn(before.0 + 1));
        if let Some(r) = recs
            .iter()
            .find(|r| matches!(r.body, gist_repro::wal::RecordBody::NtaEnd { .. }))
        {
            break r.lsn;
        }
        assert!(k < 3000, "no split happened");
    };
    // Crash with durability cut just before the NtaEnd (the commit never
    // happened).
    db.pool().crash();
    let lost = h.log.crash_at(gist_repro::wal::Lsn(nta_end_lsn.0 - 1));
    assert!(lost >= 1, "the NtaEnd must be lost");

    let (db2, idx2) = h.restart();
    // All committed keys intact; the split was unwound; the loser's keys
    // are gone.
    assert_eq!(keys_present(&db2, &idx2, 0, 10_000), (0..100).collect::<Vec<i64>>());
    check_tree(&idx2).unwrap().assert_ok();
}

#[test]
fn unforced_split_terminator_lost_in_crash_is_rolled_back() {
    // `end_nta` does not force the NtaEnd record. The worst crash that
    // allows: a split ran to completion — every record of the unit
    // durable, latches released, the transaction carried on — but the
    // terminator itself never left the volatile tail. Restart must treat
    // that as a crash inside the unit. Nothing syncs unasked, so between
    // commits only this test's own cut moves the durable horizon.
    use gist_repro::core::GistRecord;
    use gist_repro::wal::{Lsn, RecordBody};

    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..100i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let committed_end = h.log.last_lsn();
    let nodes_before = idx.stats().unwrap().nodes;

    // The loser: insert until a Split record appears, and find the
    // terminator that closed its unit.
    let txn = db.begin();
    let mut k = 100i64;
    let nta_end_lsn = loop {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
        k += 1;
        assert!(k < 3000, "no split happened");
        let recs = h.log.scan_from(Lsn(committed_end.0 + 1));
        let split = recs.iter().find(|r| match &r.body {
            RecordBody::Payload(p) => {
                matches!(GistRecord::decode(&p.bytes), Ok(GistRecord::Split { .. }))
            }
            _ => false,
        });
        if let Some(split) = split {
            let end = recs
                .iter()
                .find(|r| r.lsn > split.lsn && matches!(r.body, RecordBody::NtaEnd { .. }))
                .expect("the insert returned, so the split unit was terminated");
            break end.lsn;
        }
    };
    assert!(idx.stats().unwrap().nodes > nodes_before, "the split completed");
    assert!(
        h.log.flushed_lsn() < nta_end_lsn,
        "end_nta forced its terminator: durable {:?}, NtaEnd {nta_end_lsn:?}",
        h.log.flushed_lsn()
    );

    h.log.crash_at(Lsn(nta_end_lsn.0 - 1));
    db.crash();

    let (db2, idx2) = h.restart();
    assert_eq!(keys_present(&db2, &idx2, 0, 10_000), (0..100).collect::<Vec<i64>>());
    check_tree(&idx2).unwrap().assert_ok();
}

/// Transaction ids restart at 1 in every incarnation, so the only thing
/// that keeps a later transaction from inheriting an earlier one's fate
/// at restart is the end record restart writes for every transaction it
/// resolves. Here the first incarnation's T2 commits but loses its end
/// record in the crash; the second incarnation's T2 never commits and
/// must be undone, not finished as the first T2's winner.
#[test]
fn reused_txn_id_after_restart_is_a_fresh_transaction() {
    use gist_repro::wal::{RecordBody, TxnId};

    let h = Harness::new();
    let (db, idx) = h.open(); // `GistIndex::create` runs as T1
    let t2 = db.begin();
    assert_eq!(t2, TxnId(2));
    for k in 0..50i64 {
        idx.insert(t2, &k, rid(k as u64)).unwrap();
    }
    db.commit(t2).unwrap();
    let end = h.log.get(h.log.last_lsn());
    assert_eq!((end.txn, &end.body), (t2, &RecordBody::TxnEnd));
    assert!(h.log.flushed_lsn() < end.lsn, "T2's end record is still volatile");
    db.crash();

    let (db2, idx2) = h.restart();
    let filler = db2.begin();
    assert_eq!(filler, TxnId(1), "ids restart at 1");
    db2.commit(filler).unwrap();
    let t2_again = db2.begin();
    assert_eq!(t2_again, TxnId(2));
    for k in 100..150i64 {
        idx2.insert(t2_again, &k, rid(k as u64)).unwrap();
    }
    db2.log().flush_all();
    db2.crash();

    let (db3, idx3) = h.restart();
    assert_eq!(keys_present(&db3, &idx3, 0, 1000), (0..50).collect::<Vec<i64>>());
    check_tree(&idx3).unwrap().assert_ok();
}

#[test]
fn garbage_collection_redo_survives() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..200i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let txn = db.begin();
    for k in 0..100i64 {
        idx.delete(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let txn = db.begin();
    let rep = idx.vacuum_sync(txn).unwrap();
    db.commit(txn).unwrap();
    assert_eq!(rep.entries_removed, 100);
    db.crash();

    let (db2, idx2) = h.restart();
    assert_eq!(keys_present(&db2, &idx2, 0, 500), (100..200).collect::<Vec<i64>>());
    assert_eq!(idx2.stats().unwrap().marked_entries, 0, "GC redone");
    check_tree(&idx2).unwrap().assert_ok();
}

#[test]
fn free_page_redo_rebuilds_free_list() {
    let h = Harness::new();
    let (db, idx) = h.open();
    // Build a multi-leaf tree, delete everything, vacuum until nodes are
    // retired, then crash: the freed pages must be rediscovered.
    let txn = db.begin();
    for k in 0..2000i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let txn = db.begin();
    for k in 0..2000i64 {
        idx.delete(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let txn = db.begin();
    let rep = idx.vacuum_sync(txn).unwrap();
    db.commit(txn).unwrap();
    assert!(rep.nodes_deleted > 0, "some leaves retired: {rep:?}");
    let free_before = db.alloc().free_count();
    assert!(free_before > 0);
    db.crash();

    let (db2, idx2) = h.restart();
    assert_eq!(db2.alloc().free_count(), free_before, "free list rebuilt from flags");
    assert!(keys_present(&db2, &idx2, 0, 5000).is_empty());
    check_tree(&idx2).unwrap().assert_ok();
}

#[test]
fn repeated_crash_restart_is_idempotent() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..300i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let loser = db.begin();
    for k in 300..350i64 {
        idx.insert(loser, &k, rid(k as u64)).unwrap();
    }
    db.log().flush_all();
    db.crash();

    for round in 0..3 {
        let (db2, idx2) = h.restart();
        assert_eq!(
            keys_present(&db2, &idx2, 0, 1000),
            (0..300).collect::<Vec<i64>>(),
            "round {round}"
        );
        check_tree(&idx2).unwrap().assert_ok();
        db2.crash();
    }
}

#[test]
fn crash_mid_transaction_with_partial_page_flushes() {
    // Force dirty pages to disk mid-transaction (steal policy), then
    // crash: restart must undo the on-disk uncommitted changes.
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..100i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let loser = db.begin();
    for k in 100..200i64 {
        idx.insert(loser, &k, rid(k as u64)).unwrap();
    }
    // Steal: push everything to the store (log forced first by the WAL
    // rule inside flush_all).
    db.pool().flush_all().unwrap();
    db.crash();

    let (db2, idx2) = h.restart();
    assert_eq!(keys_present(&db2, &idx2, 0, 1000), (0..100).collect::<Vec<i64>>());
    check_tree(&idx2).unwrap().assert_ok();
}

#[test]
fn recovery_works_with_dedicated_counter_nsns() {
    let h = Harness::with_config(DbConfig {
        nsn_source: NsnSource::DedicatedCounter,
        ..DbConfig::default()
    });
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..2000i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let counter_before = db.global_nsn();
    assert!(counter_before > 0, "splits incremented the counter");
    db.crash();

    let (db2, idx2) = h.restart();
    assert!(db2.global_nsn() >= counter_before, "counter recovered from redo");
    assert_eq!(keys_present(&db2, &idx2, 0, 5000).len(), 2000);
    check_tree(&idx2).unwrap().assert_ok();
}

#[test]
fn unflushed_everything_means_empty_tree_after_restart() {
    let h = Harness::new();
    let (db, idx) = h.open();
    // create_index committed (flushed); inserts not flushed.
    let txn = db.begin();
    for k in 0..50i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    // No commit, no flush: the whole transaction vanishes.
    let _ = txn;
    db.crash();
    let (db2, idx2) = h.restart();
    assert!(keys_present(&db2, &idx2, 0, 100).is_empty());
    check_tree(&idx2).unwrap().assert_ok();
}

#[test]
fn store_only_durability_without_log_is_ignored() {
    // Pages flushed but log lost beyond the durable prefix: restart undoes
    // using the durable records only. (WAL rule guarantees the log needed
    // to undo any flushed page IS durable.)
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    idx.insert(txn, &1, rid(1)).unwrap();
    db.commit(txn).unwrap();
    let loser = db.begin();
    idx.insert(loser, &2, rid(2)).unwrap();
    db.pool().flush_all().unwrap(); // forces the log for flushed pages
    db.crash();
    let (db2, idx2) = h.restart();
    assert_eq!(keys_present(&db2, &idx2, 0, 10), vec![1]);
    check_tree(&idx2).unwrap().assert_ok();
    // The store itself survived both rounds.
    assert!(h.store.page_count() > 0);
}

/// Redo and undo of a split that healed its inherited rightlink: the
/// left sibling of a drained leaf still names the freed page in its
/// rightlink when it splits (`tests/maint.rs` has the live-path recipe).
/// The Split record carries the healed link, so repeating history (crash
/// after the commit) and unwinding the unit (crash before its NtaEnd)
/// must both leave the chain pointing past the freed pages.
#[test]
fn split_with_healed_rightlink_redoes_and_undoes() {
    use gist_repro::core::GistRecord;
    use gist_repro::wal::{Lsn, RecordBody};

    for crash_inside_unit in [false, true] {
        let h = Harness::new();
        let (db, idx) = h.open();
        let txn = db.begin();
        for k in 0..3_000i64 {
            idx.insert(txn, &(k * 1000), rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();
        let txn = db.begin();
        for k in 1_000..2_000i64 {
            idx.delete(txn, &(k * 1000), rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();
        let txn = db.begin();
        idx.vacuum_sync(txn).unwrap();
        db.commit(txn).unwrap();
        db.maint_sync();

        // Refill one transaction per key until a split logs a rightlink
        // other than the one its node held just before.
        let rightlinks = |db: &Arc<Db>| -> Vec<PageId> {
            (0..h.store.page_count())
                .map(|p| db.pool().fetch_read(PageId(p)).unwrap().rightlink())
                .collect()
        };
        let mut k = 999_000i64;
        let (txn, orig, sibling, healed, nta_end) = loop {
            k += 1;
            assert!(k < 999_000 + 5_000, "no split ever inherited a stale rightlink");
            let (links_before, log_before) = (rightlinks(&db), h.log.last_lsn());
            let txn = db.begin();
            idx.insert(txn, &k, rid(100_000 + k as u64)).unwrap();
            let recs = h.log.scan_from(Lsn(log_before.0 + 1));
            let healing = recs.iter().find_map(|r| match &r.body {
                RecordBody::Payload(p) => match GistRecord::decode(&p.bytes) {
                    Ok(GistRecord::Split { orig, new, orig_rightlink_old, .. })
                        if links_before[orig as usize] != PageId(orig_rightlink_old) =>
                    {
                        Some((r.lsn, PageId(orig), PageId(new), PageId(orig_rightlink_old)))
                    }
                    _ => None,
                },
                _ => None,
            });
            if let Some((split_lsn, orig, sibling, healed)) = healing {
                let stale = links_before[orig.0 as usize];
                assert!(db.pool().fetch_read(stale).unwrap().is_available() || stale == sibling);
                let end = recs
                    .iter()
                    .find(|r| r.lsn > split_lsn && matches!(r.body, RecordBody::NtaEnd { .. }))
                    .expect("the insert returned, so the split unit was terminated");
                break (txn, orig, sibling, healed, end.lsn);
            }
            db.commit(txn).unwrap();
        };
        if crash_inside_unit {
            h.log.crash_at(Lsn(nta_end.0 - 1));
        } else {
            db.commit(txn).unwrap();
        }
        db.crash();

        let (db2, idx2) = h.restart();
        check_tree(&idx2).unwrap().assert_ok();
        // One latch at a time: (rightlink, available) per page.
        let peek = |p: PageId| {
            let g = db2.pool().fetch_read(p).unwrap();
            (g.rightlink(), g.is_available())
        };
        if crash_inside_unit {
            // Undone: the node is whole again and links past the freed
            // pages; the sibling is free once more.
            assert_eq!(peek(orig), (healed, false));
            assert!(peek(sibling).1);
        } else {
            assert_eq!(peek(orig), (sibling, false));
            assert_eq!(peek(sibling), (healed, false));
        }
        assert!(!peek(healed).1);
        let last = if crash_inside_unit { k - 1 } else { k };
        assert_eq!(
            keys_present(&db2, &idx2, 999_001, 1_000_000 - 1),
            (999_001..=last).collect::<Vec<i64>>()
        );
    }
}
