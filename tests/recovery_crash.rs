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
use gist_repro::core::{
    Db, DbConfig, GistExtension, GistIndex, GistRecord, IndexOptions, NsnSource,
};
use gist_repro::pagestore::{InMemoryStore, Page, PageId, PageStore, Rid, PAGE_SIZE};
use gist_repro::wal::{LogManager, Lsn, RecordBody, TxnId};

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

// ---- read-only transactions touch nothing durable (PAPER.md §9) ----

/// A read-only transaction appends no log record, causes no device sync
/// and records no commit wait, whether it commits, aborts or runs
/// through `run_txn`.
#[test]
fn read_only_txn_appends_and_syncs_nothing() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..100 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let (last, syncs) = (h.log.last_lsn(), h.log.syncs());
    let commits = db.txns().pipeline().stats().commits_flushed;

    let committed = db.begin();
    assert_eq!(idx.search(committed, &I64Query::range(10, 20)).unwrap().len(), 11);
    db.commit(committed).unwrap();
    let aborted = db.begin();
    assert_eq!(idx.search(aborted, &I64Query::eq(5)).unwrap().len(), 1);
    db.abort(aborted).unwrap();
    let hits = db.run_txn(|txn| idx.search(txn, &I64Query::range(0, 99))).unwrap();
    assert_eq!(hits.len(), 100);

    assert_eq!(h.log.last_lsn(), last, "a reader appended to the log");
    assert_eq!(h.log.syncs(), syncs, "a reader synced the log");
    let stats = db.txns().pipeline().stats();
    assert_eq!(stats.commits_flushed, commits, "a reader recorded a commit wait");
}

/// A crash taken with a read-only transaction in flight leaves restart
/// nothing to undo, even when a later commit's sync made everything
/// before it durable. The reader's commit on the crashed incarnation
/// succeeds: it has nothing to force.
#[test]
fn crash_with_a_reader_in_flight_leaves_no_loser() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let reader = db.begin();
    assert!(idx.search(reader, &I64Query::range(0, 10)).unwrap().is_empty());
    let writer = db.begin();
    idx.insert(writer, &50, rid(50)).unwrap();
    db.commit(writer).unwrap();
    db.crash();
    db.commit(reader).expect("a read-only commit has nothing to force");

    let (db2, report) = Db::restart(h.store.clone(), h.log.clone(), h.config.clone()).unwrap();
    assert!(report.outcome.losers.is_empty(), "{:?}", report.outcome);
    let idx2 = GistIndex::open(db2.clone(), "t", BtreeExt).unwrap();
    assert_eq!(keys_present(&db2, &idx2, 0, 100), vec![50]);
}

/// A Degree 3 reader that waited for a writer's record lock and then saw
/// its row still finds the row after a crash and restart: the reader
/// logged nothing, but the writer forced its commit before it released
/// the lock the reader waited on.
#[test]
fn a_row_a_reader_saw_survives_a_crash() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let writer = db.begin();
    idx.insert(writer, &7, rid(7)).unwrap();
    let reader = {
        let (db, idx) = (db.clone(), idx.clone());
        std::thread::spawn(move || {
            let txn = db.begin();
            let seen: Vec<i64> =
                idx.search(txn, &I64Query::eq(7)).unwrap().into_iter().map(|(k, _)| k).collect();
            db.commit(txn).unwrap();
            seen
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(!reader.is_finished(), "the reader must wait for the writer's record lock");
    db.commit(writer).unwrap();
    assert_eq!(reader.join().unwrap(), vec![7]);

    db.crash();
    let (db2, idx2) = h.restart();
    assert_eq!(keys_present(&db2, &idx2, 0, 100), vec![7]);
}

/// The ids of the pages whose images differ between two stores, and the
/// number of pages compared (a page one store lacks reads as zeroes).
fn differing_pages(a: &dyn PageStore, b: &dyn PageStore) -> (Vec<u32>, u32) {
    let image = |s: &dyn PageStore, id: u32| {
        let mut p = Page::zeroed();
        if id >= s.page_count() {
            return vec![0; PAGE_SIZE];
        }
        s.read(PageId(id), &mut p).unwrap();
        p.as_bytes().to_vec()
    };
    let n = a.page_count().max(b.page_count());
    ((0..n).filter(|&id| image(a, id) != image(b, id)).collect(), n)
}

/// The kinds of the index records in `log` (CLRs by their redo
/// payload's kind), by variant name.
fn record_kinds(log: &LogManager) -> std::collections::BTreeSet<String> {
    log.scan_from(Lsn(1))
        .iter()
        .filter_map(|r| match &r.body {
            RecordBody::Payload(p) | RecordBody::Clr { redo: p, .. } => {
                GistRecord::decode(&p.bytes).ok()
            }
            _ => None,
        })
        .map(|rec| format!("{rec:?}").split([' ', '{']).next().unwrap_or_default().to_string())
        .collect()
}

/// In `txn`, insert copies of `dup` until an insert finds its leaf full
/// and reclaims the committed deletes on it (an opportunistic
/// `GarbageCollection`), then `far`, which lies past every BP (a
/// `ParentEntryUpdate` that expands them).
fn reclaim_then_expand(
    log: &LogManager,
    idx: &Arc<GistIndex<BtreeExt>>,
    txn: TxnId,
    dup: i64,
    far: i64,
) {
    let is_gc = |p: &gist_repro::wal::Payload| {
        matches!(GistRecord::decode(&p.bytes), Ok(GistRecord::GarbageCollection { .. }))
    };
    let mut seen = log.last_lsn();
    for n in 0.. {
        assert!(n < 2000, "no insert of {dup} reclaimed anything");
        idx.insert(txn, &dup, rid(dup as u64 * 1000 + n)).unwrap();
        let tail = log.scan_from(Lsn(seen.0 + 1));
        seen = log.last_lsn();
        if tail.iter().any(|r| matches!(&r.body, RecordBody::Payload(p) if r.txn == txn && is_gc(p)))
        {
            break;
        }
    }
    idx.insert(txn, &far, rid(far as u64)).unwrap();
}

/// After `txn` rolled back everything it logged since `from`: the
/// entries its garbage collection removed are still gone, every BP it
/// expanded to cover `far` still covers it, and no `NtaEnd` follows
/// either kind of record.
fn assert_redo_only_units_stand(db: &Db, log: &LogManager, txn: TxnId, from: Lsn, far: i64) {
    let recs: Vec<_> = log.scan_from(from).into_iter().filter(|r| r.txn == txn).collect();
    let covers = |bp: &[u8]| {
        let (lo, hi) = BtreeExt.decode_pred(bp);
        lo <= far && far <= hi
    };
    let (mut collections, mut expansions) = (0, 0);
    for (i, r) in recs.iter().enumerate() {
        let RecordBody::Payload(p) = &r.body else { continue };
        match GistRecord::decode(&p.bytes).unwrap() {
            GistRecord::GarbageCollection { page, removed, .. } => {
                let g = db.pool().fetch_read(PageId(page)).unwrap();
                for (slot, cell) in &removed {
                    let back = g.iter_cells().any(|(_, c)| c == &cell[..]);
                    assert!(!back, "rollback put back the entry GC removed from {page}:{slot}");
                }
                collections += 1;
            }
            GistRecord::ParentEntryUpdate { child, new_bp, .. } if covers(&new_bp) => {
                let g = db.pool().fetch_read(PageId(child)).unwrap();
                assert!(covers(g.cell(0).unwrap()), "rollback shrank the BP of {child}");
                expansions += 1;
            }
            _ => continue,
        }
        let next = recs.get(i + 1).map(|r| &r.body);
        let lsn = r.lsn;
        assert!(!matches!(next, Some(RecordBody::NtaEnd { .. })), "{lsn:?} is followed by {next:?}");
    }
    assert!(collections > 0 && expansions > 0, "{collections} GCs, {expansions} expansions");
}

/// The forward run and a replay of its whole log write the same pages:
/// after a workload through every forward path that logs a page change
/// (leaf and root splits, marks, an abort's and a savepoint rollback's
/// compensations, opportunistic GC and BP expansions that outlive a
/// rollback, `vacuum_sync`'s GC and node deletions, the maintenance
/// daemon's GC and drains, freed pages reused), the flushed store equals,
/// byte for byte, a fresh store that `Db::restart` rebuilt from the log.
fn forward_pages_equal_replayed_pages(nsn_source: NsnSource) {
    let h = Harness::with_config(DbConfig { nsn_source, ..DbConfig::default() });
    let (db, idx) = h.open();
    let insert = |txn, keys: std::ops::Range<i64>| {
        for k in keys {
            idx.insert(txn, &k, rid(k as u64)).unwrap();
        }
    };
    let delete = |txn, keys: &mut dyn Iterator<Item = i64>| {
        for k in keys {
            idx.delete(txn, &k, rid(k as u64)).unwrap();
        }
    };
    let txn = db.begin();
    insert(txn, 0..3000);
    db.commit(txn).unwrap();
    assert!(idx.stats().unwrap().height >= 2, "the root split");
    // Committed deletes, reclaimed by the daemon's GC and drain units.
    let txn = db.begin();
    delete(txn, &mut (0..600).chain((1000..3000).step_by(7)));
    db.commit(txn).unwrap();
    assert!(db.maint_sync() > 0);
    // An aborted transaction that split leaves (the splits stay: each is
    // a nested top action) and marked entries.
    let txn = db.begin();
    insert(txn, 3000..3600);
    delete(txn, &mut (1001..1100).step_by(7));
    db.abort(txn).unwrap();
    // A savepoint rollback inside a committed transaction.
    let txn = db.begin();
    insert(txn, 5000..5001);
    let sp = db.savepoint(txn).unwrap();
    insert(txn, 5001..5400);
    delete(txn, &mut (1002..1100).step_by(7));
    db.rollback_to_savepoint(txn, sp).unwrap();
    db.commit(txn).unwrap();
    // Opportunistic GC and BP expansions, rolled back by an abort and by
    // a savepoint rollback: each stays, as one redo-only record.
    let txn = db.begin();
    delete(txn, &mut (2000..2100).chain(2500..2600).filter(|k| (k - 1000) % 7 != 0));
    db.commit(txn).unwrap();
    let txn = db.begin();
    let from = h.log.last_lsn();
    reclaim_then_expand(&h.log, &idx, txn, 2050, 10_000);
    db.abort(txn).unwrap();
    assert_redo_only_units_stand(&db, &h.log, txn, from, 10_000);
    let txn = db.begin();
    insert(txn, 5500..5501);
    let sp = db.savepoint(txn).unwrap();
    let from = h.log.last_lsn();
    reclaim_then_expand(&h.log, &idx, txn, 2550, 20_000);
    db.rollback_to_savepoint(txn, sp).unwrap();
    assert_redo_only_units_stand(&db, &h.log, txn, from, 20_000);
    db.commit(txn).unwrap();
    check_tree(&idx).unwrap().assert_ok();
    // A whole-index vacuum, then inserts that reuse the freed pages.
    let txn = db.begin();
    delete(txn, &mut (600..1000));
    db.commit(txn).unwrap();
    let txn = db.begin();
    let vacuumed = idx.vacuum_sync(txn).unwrap();
    db.commit(txn).unwrap();
    assert!(vacuumed.nodes_deleted > 0, "{vacuumed:?}");
    db.maint_sync();
    let txn = db.begin();
    insert(txn, 0..600);
    db.commit(txn).unwrap();
    check_tree(&idx).unwrap().assert_ok();
    let kinds = record_kinds(&h.log);
    for kind in [
        "GetPage",
        "Split",
        "ParentEntryUpdate",
        "InternalEntryAdd",
        "InternalEntryUpdate",
        "InternalEntryDelete",
        "AddLeafEntry",
        "MarkLeafEntry",
        "GarbageCollection",
        "FreePage",
        "CatalogAdd",
        "RemoveLeafEntry",
        "UnmarkLeafEntry",
    ] {
        assert!(kinds.contains(kind), "the workload logged no {kind}: {kinds:?}");
    }

    db.flush().unwrap();
    db.crash();
    let replayed = Arc::new(InMemoryStore::new());
    let (db2, _report) = Db::restart(replayed.clone(), h.log.clone(), h.config.clone()).unwrap();
    db2.flush().unwrap();
    let (differ, compared) = differing_pages(&*h.store, &*replayed);
    assert!(compared > 20, "{compared} pages");
    assert_eq!(differ, Vec::<u32>::new(), "pages whose replayed image is not the forward one");
}

#[test]
fn forward_and_replayed_pages_are_identical_with_lsn_nsns() {
    forward_pages_equal_replayed_pages(NsnSource::WalLsn);
}

#[test]
fn forward_and_replayed_pages_are_identical_with_counter_nsns() {
    forward_pages_equal_replayed_pages(NsnSource::DedicatedCounter);
}
