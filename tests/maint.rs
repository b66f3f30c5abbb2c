//! End-to-end tests of the background maintenance subsystem: post-commit
//! GC handoff, drain-based page reclamation racing pointer holders,
//! crash/redo of the daemon's nested top actions, and fuzzy
//! checkpoint-bounded restart.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gist_repro::am::{BtreeExt, I64Query};
use gist_repro::core::check::check_tree;
use gist_repro::core::{Db, DbConfig, GistIndex, IndexOptions};
use gist_repro::lockmgr::{LockMode, LockName};
use gist_repro::pagestore::{InMemoryStore, PageId, PageStore, Rid};
use gist_repro::wal::{LogManager, Lsn, RecordBody};

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

    fn open(&self) -> (Arc<Db>, Arc<GistIndex<BtreeExt>>) {
        let db = Db::open(self.store.clone(), self.log.clone(), self.config.clone()).unwrap();
        let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        (db, idx)
    }

    fn restart(&self) -> (Arc<Db>, Arc<GistIndex<BtreeExt>>, gist_repro::core::RestartReport) {
        let (db, report) =
            Db::restart(self.store.clone(), self.log.clone(), self.config.clone()).unwrap();
        let idx = GistIndex::open(db.clone(), "t", BtreeExt).unwrap();
        (db, idx, report)
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

/// The acceptance-criteria workload, deterministic flavor: a mixed
/// insert/delete workload whose delete-marked entries are physically
/// reclaimed by the daemon (driven synchronously) — no foreground
/// `vacuum_sync` anywhere.
#[test]
fn background_gc_reclaims_without_foreground_sweep() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..600i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    // Delete every third key across several transactions, interleaved
    // with more inserts.
    for batch in 0..3 {
        let txn = db.begin();
        for k in (batch..600i64).step_by(9) {
            idx.delete(txn, &k, rid(k as u64)).unwrap();
        }
        for k in 0..20i64 {
            let key = 1000 + batch * 100 + k;
            idx.insert(txn, &key, rid(key as u64)).unwrap();
        }
        db.commit(txn).unwrap();
    }
    let marked = idx.stats().unwrap().marked_entries;
    assert_eq!(marked, 201, "marks await the daemon");
    assert!(db.maint().backlog() > 0, "commit enqueued GC candidates");

    let processed = db.maint_sync();
    assert!(processed > 0);
    let stats = db.maint_stats();
    assert_eq!(stats.entries_reclaimed as usize, marked, "daemon reclaimed every mark");
    assert!(stats.gc_enqueued > 0);
    assert_eq!(idx.stats().unwrap().marked_entries, 0);
    // Live contents unaffected.
    let present = keys_present(&db, &idx, 0, 2000);
    assert_eq!(present.len(), 600 - marked + 60);
    check_tree(&idx).unwrap().assert_ok();
}

/// Same workload but with the real worker thread: start the daemon, let
/// it drain the queue in the background, then shut down cleanly.
#[test]
fn worker_threads_reclaim_in_background() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..300i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    db.start_maint().unwrap();
    let txn = db.begin();
    for k in (0..300i64).step_by(3) {
        idx.delete(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    let t0 = Instant::now();
    while idx.stats().unwrap().marked_entries > 0 && t0.elapsed() < Duration::from_secs(20) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(idx.stats().unwrap().marked_entries, 0, "the worker reclaimed the marks");
    assert_eq!(keys_present(&db, &idx, 0, 300).len(), 200);
    db.shutdown().unwrap();
    check_tree(&idx).unwrap().assert_ok();
}

/// Dropping the last handle of a database with a started worker stops
/// the worker, which otherwise keeps the daemon (and through it the
/// pool, the log and the transaction manager) alive forever.
#[test]
fn dropping_the_db_stops_a_started_worker() {
    let h = Harness::new();
    let (db, idx) = h.open();
    db.start_maint().unwrap();
    let txn = db.begin();
    idx.insert(txn, &1, rid(1)).unwrap();
    db.commit(txn).unwrap();
    let daemon = Arc::downgrade(db.maint());
    drop(idx);
    drop(db);
    assert!(daemon.upgrade().is_none(), "the maintenance daemon outlived its database");
}

/// An aborted deleting transaction hands nothing to the daemon: its
/// marks are undone, so there is nothing to collect.
#[test]
fn aborted_deletes_enqueue_no_gc_work() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..50i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let before = db.maint().backlog();

    let txn = db.begin();
    for k in 0..25i64 {
        idx.delete(txn, &k, rid(k as u64)).unwrap();
    }
    db.abort(txn).unwrap();
    assert_eq!(db.maint().backlog(), before, "abort dropped the candidates");
    assert_eq!(idx.stats().unwrap().marked_entries, 0, "marks undone by abort");
    assert_eq!(keys_present(&db, &idx, 0, 50).len(), 50);
}

/// §7.2 drain vs a pointer holder: while any transaction holds a
/// signaling S lock on a node (i.e. a scan may still be stacked on a
/// pointer to it), the daemon's drain defers — the scan completes
/// normally — and the node is reclaimed only after the lock is released.
#[test]
fn drain_defers_to_signaling_lock_holders() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..800i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let nodes_before = idx.stats().unwrap().nodes;
    assert!(nodes_before > 3, "tree must have split: {nodes_before} nodes");

    // A long-lived "scanner" that holds signaling S locks on every page
    // of the store — a superset of any real scan's stacked pointers.
    let scanner = db.begin();
    for p in 1..h.store.page_count() {
        db.locks().lock(scanner, LockName::Node { index: idx.id(), page: PageId(p) }, LockMode::S).unwrap();
    }

    // Empty out the low half of the key space and let the daemon work.
    let txn = db.begin();
    for k in 0..400i64 {
        idx.delete(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    db.maint_sync();

    let stats = db.maint_stats();
    assert_eq!(stats.entries_reclaimed, 400, "GC proceeds; only drain is blocked");
    assert_eq!(stats.nodes_drained, 0, "no node deleted under a signaling lock");
    assert!(stats.drain_attempts > 0, "drains were attempted");
    assert!(stats.dropped > 0, "persistent holders exhaust the retry budget");
    // The scanner's view is intact: a full scan (which traverses the
    // empty-but-undeleted leaves) sees exactly the live keys.
    let hits = idx.search(scanner, &I64Query::range(0, 800)).unwrap();
    assert_eq!(hits.len(), 400);
    db.commit(scanner).unwrap(); // releases the signaling locks

    // With the pointer holder gone, a sweep retires the empty leaves.
    let report = db.run_txn(|t| idx.vacuum_sync(t)).unwrap();
    assert!(report.nodes_deleted > 0, "empty leaves retired after release: {report:?}");
    assert!(db.alloc().free_count() > 0, "pages returned to the allocator");
    assert!(idx.stats().unwrap().nodes < nodes_before);
    assert_eq!(keys_present(&db, &idx, 0, 800), (400..800).collect::<Vec<i64>>());
    check_tree(&idx).unwrap().assert_ok();
}

/// Crash after the daemon's GC and drain NTAs committed but before any
/// page reached the store: redo must replay the Garbage-Collection and
/// node-deletion records (they are nested top actions — they survive
/// even though no user transaction references them).
#[test]
fn crash_after_background_gc_redoes_the_ntas() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..500i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let txn = db.begin();
    for k in 0..250i64 {
        idx.delete(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    db.maint_sync();
    let stats = db.maint_stats();
    assert_eq!(stats.entries_reclaimed, 250);
    assert_eq!(idx.stats().unwrap().marked_entries, 0);

    // Nothing was flushed: every reclaimed slot lives only in the log.
    db.crash();
    let (db2, idx2, _report) = h.restart();
    assert_eq!(idx2.stats().unwrap().marked_entries, 0, "GC NTAs redone");
    assert_eq!(keys_present(&db2, &idx2, 0, 500), (250..500).collect::<Vec<i64>>());
    check_tree(&idx2).unwrap().assert_ok();
}

/// Fuzzy checkpointing bounds restart (the second acceptance criterion):
/// after a checkpoint whose dirty-page table is empty, restart's redo
/// pass starts at the checkpoint's captured position — records from
/// before it are never re-examined.
#[test]
fn checkpoint_bounds_restart_redo() {
    let h = Harness::new();
    let (db, idx) = h.open();

    // Epoch 1: a good amount of pre-checkpoint history.
    let txn = db.begin();
    for k in 0..400i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    // Make the pool clean so the checkpoint's DPT is empty, then take a
    // fuzzy checkpoint.
    db.log().flush_all();
    db.pool().flush_all().unwrap();
    let cp_lsn = db.checkpoint().unwrap();
    let cp_rec = db.log().get(db.log().last_checkpoint().unwrap());
    let RecordBody::Checkpoint { scan_start, ref dirty_pages, .. } = cp_rec.body else {
        panic!("expected a checkpoint record");
    };
    assert_eq!(cp_rec.lsn, cp_lsn);
    assert!(dirty_pages.is_empty(), "pool was clean at capture");
    assert!(scan_start < cp_lsn && scan_start > Lsn(1));

    // Epoch 2: post-checkpoint work, then crash with nothing flushed.
    let txn = db.begin();
    for k in 400..500i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    db.crash();

    let (db2, idx2, report) = h.restart();
    assert!(
        report.outcome.redo_start >= scan_start,
        "redo started at {:?}, before the checkpoint's scan start {scan_start:?}",
        report.outcome.redo_start
    );
    // Only epoch-2 records were examined — well under half of the
    // whole log (epoch 1 wrote 4x the inserts of epoch 2).
    let total_records = h.log.scan_from(Lsn(1)).len();
    assert!(
        report.outcome.redo_considered < total_records / 2,
        "redo examined {} of {total_records} records — the checkpoint did not bound the scan",
        report.outcome.redo_considered
    );
    assert_eq!(keys_present(&db2, &idx2, 0, 500), (0..500).collect::<Vec<i64>>());
    check_tree(&idx2).unwrap().assert_ok();
}

/// The same crash without a checkpoint replays from the log start —
/// the baseline the checkpoint improves on.
#[test]
fn without_checkpoint_restart_replays_from_log_start() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..400i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    db.crash();
    let (_db2, idx2, report) = h.restart();
    // No checkpoint: redo starts at the oldest dirty page's recLSN,
    // which is the very first page-dirtying record (the index-creation
    // Get-Page right after the first transaction's begin).
    assert!(report.outcome.redo_start <= Lsn(2), "got {:?}", report.outcome.redo_start);
    assert!(report.outcome.redo_considered > 400);
    check_tree(&idx2).unwrap().assert_ok();
}

/// A checkpoint taken *while* a transaction is active and pages are
/// dirty (the fuzzy case): the active transaction is in the captured
/// table, dirty pages bound redo below the checkpoint, and recovery is
/// still exactly right — the in-flight loser is rolled back.
#[test]
fn fuzzy_checkpoint_with_active_transactions_and_dirty_pages() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..100i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    // An in-flight transaction spanning the checkpoint.
    let loser = db.begin();
    for k in 100..120i64 {
        idx.insert(loser, &k, rid(k as u64)).unwrap();
    }
    let cp_lsn = db.checkpoint().unwrap(); // pool still dirty, loser still active
    let cp_rec = db.log().get(db.log().last_checkpoint().unwrap());
    let RecordBody::Checkpoint { ref active_txns, ref dirty_pages, .. } = cp_rec.body else {
        panic!("expected a checkpoint record");
    };
    assert!(active_txns.iter().any(|(t, _)| *t == loser), "loser captured");
    assert!(!dirty_pages.is_empty(), "dirty pages captured");
    for k in 120..140i64 {
        idx.insert(loser, &k, rid(k as u64)).unwrap();
    }
    // The loser never commits.
    db.crash();

    let (db2, idx2, report) = h.restart();
    assert!(report.outcome.losers.contains(&loser), "checkpointed in-flight txn rolled back");
    assert!(
        report.outcome.redo_start < cp_lsn,
        "dirty pages from before the checkpoint keep redo honest"
    );
    assert_eq!(keys_present(&db2, &idx2, 0, 200), (0..100).collect::<Vec<i64>>());
    check_tree(&idx2).unwrap().assert_ok();
}

/// Periodic checkpointing end to end: a daemon configured with a short
/// interval writes checkpoints on its own while foreground work runs.
#[test]
fn periodic_checkpoints_fire_while_workers_run() {
    let mut config = DbConfig::default();
    config.maint.checkpoint_interval = Some(Duration::from_millis(10));
    let store: Arc<InMemoryStore> = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let db = Db::open(store, log.clone(), config).unwrap();
    let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
    db.start_maint().unwrap();

    let t0 = Instant::now();
    let mut k = 0i64;
    while db.maint_stats().checkpoints == 0 && t0.elapsed() < Duration::from_secs(20) {
        let txn = db.begin();
        idx.insert(txn, &k, rid(k as u64)).unwrap();
        db.commit(txn).unwrap();
        k += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(log.last_checkpoint().is_some(), "daemon checkpointed on its own");
    assert!(db.maint_stats().checkpoints >= 1);
    db.shutdown().unwrap();
}

/// Duplicate candidates for the same leaf coalesce in the queue, and
/// explicit enqueues respect the same dedup.
#[test]
fn queued_work_for_the_same_leaf_coalesces() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..10i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();

    // All ten deletes hit the same (root) leaf in one transaction: the
    // transaction-local dedup collapses them to one candidate.
    let txn = db.begin();
    for k in 0..10i64 {
        idx.delete(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    assert_eq!(db.maint().backlog(), 1, "one leaf, one work item");
    db.maint_sync();
    assert_eq!(idx.stats().unwrap().marked_entries, 0);
}

/// Walk the tree from the root following only parent→child entries
/// (not rightlinks, which may legitimately dangle after a drain) and
/// collect every referenced page.
fn reachable_pages(
    db: &Arc<Db>,
    idx: &Arc<GistIndex<BtreeExt>>,
) -> std::collections::HashSet<PageId> {
    use gist_repro::core::InternalEntry;
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![idx.root().unwrap()];
    while let Some(pid) = stack.pop() {
        if !seen.insert(pid) {
            continue;
        }
        let g = db.pool().fetch_read(pid).unwrap();
        if g.is_leaf() {
            continue;
        }
        for (s, cell) in g.iter_cells() {
            if s != 0 {
                stack.push(InternalEntry::decode_child(cell));
            }
        }
    }
    seen
}

/// §7.2 regression: once the daemon has drained a page, no internal
/// entry anywhere in the tree references it — the drained page is gone
/// from the parent level, not merely emptied.
#[test]
fn drained_pages_are_unreachable_afterward() {
    let h = Harness::new();
    let (db, idx) = h.open();
    let txn = db.begin();
    for k in 0..2000i64 {
        idx.insert(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let before = reachable_pages(&db, &idx);

    // Empty a contiguous key range so whole leaves become drainable.
    let txn = db.begin();
    for k in 0..1500i64 {
        idx.delete(txn, &k, rid(k as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    db.maint_sync();
    // The daemon's drains retire most leaves; the sweep takes the rest.
    let report = db.run_txn(|t| idx.vacuum_sync(t)).unwrap();
    let drained = db.maint_stats().nodes_drained as usize + report.nodes_deleted;
    assert!(drained > 0, "workload must actually drain pages: {report:?}");

    // Pages that were part of the tree and are now marked available were
    // drained; none of them may still be referenced by an entry.
    let after = reachable_pages(&db, &idx);
    let drained: Vec<PageId> = before
        .iter()
        .copied()
        .filter(|&p| db.pool().fetch_read(p).unwrap().is_available())
        .collect();
    assert!(!drained.is_empty(), "at least one formerly-reachable page was retired");
    for p in &drained {
        assert!(!after.contains(p), "{p} was drained but is still reachable via an entry");
    }
    assert_eq!(keys_present(&db, &idx, 0, 2000).len(), 500);
    check_tree(&idx).unwrap().assert_ok();
}

/// A drained leaf's left sibling keeps naming it in its rightlink (legal:
/// the NSN guard keeps traversals off it). When that sibling later splits
/// and the LIFO allocator hands it the very page its stale rightlink
/// names, the new node must inherit the dead tenant's rightlink, not a
/// link to itself.
#[test]
fn split_onto_the_page_a_stale_rightlink_names_heals_the_link() {
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
    let report = idx.vacuum_sync(txn).unwrap();
    db.commit(txn).unwrap();
    db.maint_sync();
    assert!(report.nodes_deleted > 0 && db.alloc().free_count() > 0, "nothing drained");

    // Refill next to the drained range until every freed page is reused.
    let mut k = 999_000i64;
    while db.alloc().free_count() > 0 {
        k += 1;
        assert!(k < 999_000 + 5_000, "free list never drained");
        let txn = db.begin();
        idx.insert(txn, &k, rid(100_000 + k as u64)).unwrap();
        db.commit(txn).unwrap();
        if k % 25 == 0 {
            check_tree(&idx).unwrap().assert_ok();
        }
    }
    check_tree(&idx).unwrap().assert_ok();
}
