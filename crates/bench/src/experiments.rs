//! Experiment runners E1–E12 (see DESIGN.md §4 for the index).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gist_am::{BtreeExt, I64Query, Rect, RtreeExt};
use gist_core::baseline::BaselineProtocol;
use gist_core::check::check_tree;
use gist_core::ext::GistExtension;
use gist_core::{
    Db, DbConfig, GistError, GistIndex, IndexOptions, IsolationLevel, NsnSource, PredicateMode,
};
use gist_pagestore::{InMemoryStore, PageId};
use gist_wal::LogManager;

use crate::workload::{baseline_tree, btree_db, run_for, wl_rid, Row, XorShift};

/// Knobs shared by all experiments (quick mode for CI, full mode for
/// EXPERIMENTS.md).
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Per-measurement wall-clock duration.
    pub measure: Duration,
    /// Thread counts swept by scaling experiments.
    pub threads: &'static [usize],
    /// Preloaded keys for throughput experiments.
    pub preload: i64,
}

impl ExpConfig {
    /// Small and fast (unit-test scale).
    pub fn quick() -> Self {
        ExpConfig {
            measure: Duration::from_millis(300),
            threads: &[1, 2, 4],
            preload: 20_000,
        }
    }

    /// The configuration used for EXPERIMENTS.md.
    pub fn full() -> Self {
        ExpConfig {
            measure: Duration::from_millis(1500),
            threads: &[1, 2, 4, 8, 16],
            preload: 50_000,
        }
    }
}

// --------------------------------------------------------------------
// E1 — Figure 1: lost key without links (scripted interleaving).
// --------------------------------------------------------------------

/// Returns (found_without_links, found_with_links).
pub fn e1_figure1() -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, protocol) in
        [("no-link (Fig 1)", BaselineProtocol::NoLink), ("link (Fig 2)", BaselineProtocol::Link)]
    {
        let tree = baseline_tree(BaselineProtocol::Link, Duration::ZERO);
        // Build a two-level tree; every key multiple of 10.
        let mut k = 0i64;
        loop {
            tree.insert(&(k * 10), wl_rid(k as u64)).unwrap();
            k += 1;
            if k > 100 {
                break;
            }
        }
        let probe = (k - 1) * 10;
        // Stale snapshot: remember where the probe lives now (the stacked
        // pointer of Figure 1) with the memorized counter 0.
        let stale_leaf = {
            let mut found = None;
            let mut queue = vec![tree.root()];
            // Find the leaf currently holding the probe.
            while let Some(pid) = queue.pop() {
                let tree_pool = tree_pool(&tree);
                let g = tree_pool.fetch_read(pid).unwrap();
                if g.is_leaf() {
                    if leaf_keys(&g).contains(&probe) {
                        found = Some(pid);
                    }
                } else {
                    for (_, cell) in g.iter_cells().filter(|(s, _)| *s != 0) {
                        queue.push(gist_core::InternalEntry::decode(cell).child);
                    }
                }
            }
            found.expect("probe somewhere")
        };
        // Force that leaf to split by stuffing nearby keys.
        let pool = tree_pool(&tree);
        let before_nsn = pool.fetch_read(stale_leaf).unwrap().nsn();
        let mut filler = probe - 1;
        loop {
            tree.insert(&filler, wl_rid(500_000 + filler as u64)).unwrap();
            filler -= 1;
            let g = pool.fetch_read(stale_leaf).unwrap();
            if g.nsn() > before_nsn && !leaf_keys(&g).contains(&probe) {
                break;
            }
            if filler < probe - 5_000 {
                break;
            }
        }
        // Resume the "search" from the stale pointer.
        let mut found = 0u64;
        let mut visit = vec![(stale_leaf, 0u64)];
        while let Some((pid, mem)) = visit.pop() {
            if pid.is_invalid() {
                continue;
            }
            let g = pool.fetch_read(pid).unwrap();
            if protocol == BaselineProtocol::Link && g.nsn() > mem {
                visit.push((g.rightlink(), mem));
            }
            if g.is_leaf() && leaf_keys(&g).contains(&probe) {
                found += 1;
            }
        }
        rows.push(Row::new(name).col("probe found", found as f64));
    }
    rows
}

fn tree_pool<E: GistExtension>(
    tree: &gist_core::baseline::SimpleTree<E>,
) -> Arc<gist_pagestore::BufferPool> {
    tree.pool().clone()
}

fn leaf_keys(page: &gist_pagestore::Page) -> Vec<i64> {
    page.iter_cells()
        .filter(|(s, _)| *s != 0)
        .map(|(_, cell)| {
            let e = gist_core::LeafEntry::decode(cell);
            i64::from_le_bytes(e.key_bytes[..8].try_into().unwrap())
        })
        .collect()
}

// --------------------------------------------------------------------
// E2 — rightlink-chase frequency vs. writer pressure.
// --------------------------------------------------------------------

/// Concurrent link-mode inserts + searches; counts rightlink chases.
pub fn e2_link_chases(cfg: ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for &writers in cfg.threads {
        let tree = baseline_tree(BaselineProtocol::Link, Duration::ZERO);
        for k in 0..5_000i64 {
            tree.insert(&k, wl_rid(k as u64)).unwrap();
        }
        tree.link_chases.store(0, Ordering::SeqCst);
        let searches = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..writers {
            let (tree, stop) = (tree.clone(), stop.clone());
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                let mut rng = XorShift::new(t as u64 * 101 + 3);
                while !stop.load(Ordering::Relaxed) {
                    // Duplicate keys *inside* the scanned region: splits
                    // happen under the readers' feet.
                    let k = rng.below(5_000) as i64;
                    tree.insert(&k, wl_rid(1_000_000 + t as u64 * 100_000_000 + i)).unwrap();
                    i += 1;
                }
            }));
        }
        for _ in 0..2 {
            let (tree, stop, searches) = (tree.clone(), stop.clone(), searches.clone());
            handles.push(std::thread::spawn(move || {
                let mut rng = XorShift::new(42);
                while !stop.load(Ordering::Relaxed) {
                    let lo = rng.below(4_000) as i64;
                    let hits = tree.search(&I64Query::range(lo, lo + 500)).unwrap();
                    assert!(hits.len() >= 500, "baseline keys always found");
                    searches.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        std::thread::sleep(cfg.measure);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        let chases = tree.link_chases.load(Ordering::SeqCst);
        let s = searches.load(Ordering::SeqCst).max(1);
        rows.push(
            Row::new(format!("{writers} writers"))
                .col("searches", s as f64)
                .col("chases", chases as f64)
                .col("chases/search", chases as f64 / s as f64),
        );
    }
    rows
}

// --------------------------------------------------------------------
// E3 — Figure 5: sibling-predicate overlap in a non-partitioning tree.
// --------------------------------------------------------------------

/// Builds an R-tree and counts internal nodes whose sibling entries
/// overlap (ambiguous repositioning).
pub fn e3_overlap() -> Vec<Row> {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let db = Db::open(store, log, DbConfig::default()).unwrap();
    let idx = GistIndex::create(db.clone(), "r", RtreeExt, IndexOptions::default()).unwrap();
    let txn = db.begin();
    let mut rng = XorShift::new(7);
    for i in 0..3_000u64 {
        let x = rng.below(1000) as f64;
        let y = rng.below(1000) as f64;
        let r = Rect::new(x, y, x + 80.0, y + 80.0);
        idx.insert(txn, &r, wl_rid(i)).unwrap();
    }
    db.commit(txn).unwrap();

    let mut internal_nodes = 0u64;
    let mut nodes_with_overlap = 0u64;
    let mut pairs = 0u64;
    let mut overlapping = 0u64;
    let mut queue = vec![idx.root().unwrap()];
    let mut seen = std::collections::HashSet::new();
    while let Some(pid) = queue.pop() {
        if pid.is_invalid() || !seen.insert(pid) {
            continue;
        }
        let g = db.pool().fetch_read(pid).unwrap();
        queue.push(g.rightlink());
        if g.is_leaf() {
            continue;
        }
        internal_nodes += 1;
        let ext = RtreeExt;
        let entries: Vec<(Rect, PageId)> = g
            .iter_cells()
            .filter(|(s, _)| *s != 0)
            .map(|(_, cell)| {
                let e = gist_core::InternalEntry::decode(cell);
                (ext.decode_pred(&e.pred_bytes), e.child)
            })
            .collect();
        let mut any = false;
        for i in 0..entries.len() {
            queue.push(entries[i].1);
            for j in i + 1..entries.len() {
                pairs += 1;
                if entries[i].0.overlaps(&entries[j].0) {
                    overlapping += 1;
                    any = true;
                }
            }
        }
        if any {
            nodes_with_overlap += 1;
        }
    }
    vec![Row::new("R-tree, 3000 rects")
        .col("internal nodes", internal_nodes as f64)
        .col("w/ overlap", nodes_with_overlap as f64)
        .col("entry pairs", pairs as f64)
        .col("overlapping", overlapping as f64)
        .col("overlap %", 100.0 * overlapping as f64 / pairs.max(1) as f64)]
}

// --------------------------------------------------------------------
// E4 — Table 1: restart cost and correctness vs. workload size.
// --------------------------------------------------------------------

/// Crash after committing `n` keys (plus one loser txn); measure restart.
pub fn e4_recovery() -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [1_000i64, 5_000, 20_000] {
        let store = Arc::new(InMemoryStore::new());
        let log = Arc::new(LogManager::new());
        let db = Db::open(store.clone(), log.clone(), DbConfig::default()).unwrap();
        let idx =
            GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        let txn = db.begin();
        for k in 0..n {
            idx.insert(txn, &k, wl_rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();
        let loser = db.begin();
        for k in n..n + 200 {
            idx.insert(loser, &k, wl_rid(k as u64)).unwrap();
        }
        db.log().flush_all();
        db.crash();

        let t0 = Instant::now();
        let (db2, report) = Db::restart(store, log, DbConfig::default()).unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let idx2 = GistIndex::open(db2.clone(), "t", BtreeExt).unwrap();
        let txn = db2.begin();
        let visible = idx2.search(txn, &I64Query::range(0, n + 1000)).unwrap().len();
        db2.commit(txn).unwrap();
        assert_eq!(visible as i64, n, "exactly committed keys");
        check_tree(&idx2).unwrap().assert_ok();
        rows.push(
            Row::new(format!("{n} committed + 200 loser"))
                .col("restart ms", ms)
                .col("redo applied", report.outcome.redo_applied as f64)
                .col("CLRs", report.outcome.clrs_written as f64)
                .col("visible", visible as f64),
        );
    }
    rows
}

// --------------------------------------------------------------------
// E5 — link protocol vs. conservative latching, throughput scaling.
// --------------------------------------------------------------------

/// Throughput vs. threads for three protocols and three mixes.
pub fn e5_protocols(cfg: ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (mix_name, insert_pct) in [("100% insert", 100u64), ("50/50", 50), ("100% search", 0)] {
        for (proto_name, protocol) in [
            ("link", BaselineProtocol::Link),
            ("subtree-X", BaselineProtocol::FullPathX),
            ("tree-rwlock", BaselineProtocol::TreeRwLock),
        ] {
            for &threads in cfg.threads {
                let tree = baseline_tree(protocol, Duration::ZERO);
                for k in 0..cfg.preload {
                    tree.insert(&(k * 2), wl_rid(k as u64)).unwrap();
                }
                let preload = cfg.preload;
                let tp = {
                    let tree = tree.clone();
                    run_for(threads, cfg.measure, move |t, i| {
                        let mut rng = XorShift::new((t as u64 + 1) * 0x9E37 + i);
                        if rng.below(100) < insert_pct {
                            let k = preload * 2 + ((t as i64) << 40) + i as i64;
                            tree.insert(&k, wl_rid(2_000_000 + ((t as u64) << 32) + i))
                                .unwrap();
                        } else {
                            let lo = rng.below(preload as u64 * 2) as i64;
                            let _ = tree.search(&I64Query::range(lo, lo + 50)).unwrap();
                        }
                    })
                };
                rows.push(
                    Row::new(format!("{mix_name} / {proto_name} / {threads}T"))
                        .col("ops/s", tp.per_sec()),
                );
            }
        }
    }
    rows
}

// --------------------------------------------------------------------
// E6 — latches across I/O: simulated disk latency.
// --------------------------------------------------------------------

/// Mixed throughput under simulated per-page read latency. The paper's
/// claim is that the link protocol "completely avoids holding node locks
/// during I/Os": its readers and writers overlap their page waits, while
/// a subtree-latching writer keeps its X path latched across child
/// fetches, serializing everyone behind the simulated disk. Note this
/// effect does NOT require multiple cores — a sleep releases the CPU, so
/// whoever is *not* blocked on a latch gets to run.
pub fn e6_io_latency(cfg: ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for latency_us in [0u64, 200, 1000] {
        for (proto_name, protocol) in
            [("link", BaselineProtocol::Link), ("coupling", BaselineProtocol::FullPathX)]
        {
            let tree = baseline_tree(protocol, Duration::from_micros(latency_us));
            for k in 0..5_000i64 {
                tree.insert(&(k * 2), wl_rid(k as u64)).unwrap();
            }
            // 1 writer + 3 readers.
            let tp = {
                let tree = tree.clone();
                run_for(4, cfg.measure, move |t, i| {
                    let mut rng = XorShift::new((t as u64 + 1) * 31 + i);
                    if t == 0 {
                        let k = rng.below(10_000) as i64;
                        tree.insert(&k, wl_rid(1_000_000 + i)).unwrap();
                    } else {
                        let lo = rng.below(9_900) as i64;
                        let _ = tree.search(&I64Query::range(lo, lo + 20)).unwrap();
                    }
                })
            };
            rows.push(
                Row::new(format!("{latency_us}us / {proto_name} / 1W+3R"))
                    .col("ops/s", tp.per_sec()),
            );
        }
    }
    rows
}

// --------------------------------------------------------------------
// E7 — hybrid vs. pure predicate locking.
// --------------------------------------------------------------------

/// Insert throughput with `n` long-running scanners holding predicates
/// over *disjoint* ranges far from the insert region.
pub fn e7_predicates(cfg: ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (mode_name, mode) in
        [("hybrid", PredicateMode::Hybrid), ("pure-global", PredicateMode::PureGlobal)]
    {
        for scanners in [0usize, 64, 512, 2048] {
            let (db, idx) = btree_db(DbConfig {
                predicate_mode: mode,
                ..DbConfig::default()
            });
            let txn = db.begin();
            for k in 0..10_000i64 {
                idx.insert(txn, &k, wl_rid(k as u64)).unwrap();
            }
            db.commit(txn).unwrap();
            // Long-running scanners, each holding a predicate over its own
            // 10-key range (all < 10_000).
            let mut scan_txns = Vec::new();
            for s in 0..scanners {
                let txn = db.begin();
                let lo = (s as i64) * (10_000 / scanners.max(1) as i64);
                let _ = idx.search(txn, &I64Query::range(lo, lo + 10)).unwrap();
                scan_txns.push(txn);
            }
            // Inserts far outside every scanned range: the hybrid scheme
            // never meets a predicate; the global list is checked every
            // time in pure mode.
            let counter = Arc::new(AtomicU64::new(0));
            let tp = {
                let (db, idx, counter) = (db.clone(), idx.clone(), counter.clone());
                run_for(2, cfg.measure, move |t, _| {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    let k = 1_000_000 + i as i64;
                    let txn = db.begin();
                    match idx.insert(txn, &k, wl_rid(3_000_000 + ((t as u64) << 32) + i)) {
                        Ok(()) => db.commit(txn).unwrap(),
                        Err(e) if e.is_retryable() => db.abort(txn).unwrap(),
                        Err(e) => panic!("{e}"),
                    }
                })
            };
            for txn in scan_txns {
                db.commit(txn).unwrap();
            }
            rows.push(
                Row::new(format!("{mode_name} / {scanners} scanners"))
                    .col("inserts/s", tp.per_sec()),
            );
        }
    }
    rows
}

// --------------------------------------------------------------------
// E8 — logical delete + garbage collection.
// --------------------------------------------------------------------

/// Space lifecycle: insert, delete half, observe marked entries, vacuum,
/// observe reclamation. Then who pays for reclamation: the deleting
/// thread sweeping in the foreground, or the maintenance queue the
/// commit hands its candidate leaves to.
pub fn e8_gc() -> Vec<Row> {
    let n = 20_000i64;
    let loaded = || {
        let (db, idx) = btree_db(DbConfig::default());
        let txn = db.begin();
        for k in 0..n {
            idx.insert(txn, &k, wl_rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();
        (db, idx)
    };
    let delete_half = |db: &Db, idx: &Arc<GistIndex<BtreeExt>>| {
        let txn = db.begin();
        for k in 0..n / 2 {
            idx.delete(txn, &(k * 2), wl_rid((k * 2) as u64)).unwrap();
        }
        db.commit(txn).unwrap();
    };
    let row = |label: String, db: &Db, idx: &Arc<GistIndex<BtreeExt>>| {
        let s = idx.stats().unwrap();
        Row::new(label)
            .col("live", s.live_entries as f64)
            .col("marked", s.marked_entries as f64)
            .col("nodes", s.nodes as f64)
            .col("free pages", db.alloc().free_count() as f64)
    };

    let (db, idx) = loaded();
    let mut rows = vec![row("after insert".into(), &db, &idx)];
    delete_half(&db, &idx);
    rows.push(row("after delete half".into(), &db, &idx));
    let txn = db.begin();
    let t0 = Instant::now();
    let rep = idx.vacuum_sync(txn).unwrap();
    let vac_ms = t0.elapsed().as_secs_f64() * 1e3;
    db.commit(txn).unwrap();
    let label = format!("after vacuum ({vac_ms:.1} ms, {} removed)", rep.entries_removed);
    rows.push(row(label, &db, &idx));
    check_tree(&idx).unwrap().assert_ok();

    // The daemon path drains its queue with `maint_sync` on this thread,
    // so both sides time the same work without scheduling noise; the
    // deleting transaction itself pays only for its deletes and commit.
    for daemon in [false, true] {
        let (db, idx) = loaded();
        let t0 = Instant::now();
        delete_half(&db, &idx);
        let delete_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        if daemon {
            db.maint_sync();
        } else {
            let txn = db.begin();
            idx.vacuum_sync(txn).unwrap();
            db.commit(txn).unwrap();
        }
        let reclaim_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(idx.stats().unwrap().marked_entries, 0, "reclamation left marked entries");
        check_tree(&idx).unwrap().assert_ok();
        let how = if daemon { "daemon: maint_sync" } else { "foreground: vacuum_sync" };
        let label =
            format!("{how} (delete+commit {delete_ms:.1} ms, reclaim {reclaim_ms:.1} ms)");
        rows.push(row(label, &db, &idx));
    }
    rows
}

// --------------------------------------------------------------------
// E9 — unique-insert races.
// --------------------------------------------------------------------

/// `threads` workers race to insert the same fresh keys; exactly one
/// winner per key, losers see UniqueViolation, races resolve as
/// deadlocks.
pub fn e9_unique(cfg: ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for &threads in cfg.threads {
        if threads < 2 {
            continue;
        }
        let store = Arc::new(InMemoryStore::new());
        let log = Arc::new(LogManager::new());
        let db = Db::open(store, log, DbConfig::default()).unwrap();
        let idx =
            GistIndex::create(db.clone(), "u", BtreeExt, IndexOptions { unique: true }).unwrap();
        let keys = 50i64;
        let successes = Arc::new(AtomicU64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        let retries = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(threads));
        let t0 = Instant::now();
        let mut handles = Vec::new();
        for t in 0..threads {
            let (db, idx) = (db.clone(), idx.clone());
            let (successes, violations, retries, barrier) =
                (successes.clone(), violations.clone(), retries.clone(), barrier.clone());
            handles.push(std::thread::spawn(move || {
                for k in 0..keys {
                    // All racers attack the same key at the same moment.
                    barrier.wait();
                    loop {
                        let txn = db.begin();
                        match idx.insert(txn, &k, wl_rid(((t as u64) << 32) + k as u64)) {
                            Ok(()) => {
                                db.commit(txn).unwrap();
                                successes.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(GistError::UniqueViolation) => {
                                db.abort(txn).unwrap();
                                violations.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(e) if e.is_retryable() => {
                                db.abort(txn).unwrap();
                                retries.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("{e}"),
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(successes.load(Ordering::Relaxed), keys as u64);
        rows.push(
            Row::new(format!("{threads} racers"))
                .col("winners", successes.load(Ordering::Relaxed) as f64)
                .col("violations", violations.load(Ordering::Relaxed) as f64)
                .col("deadlock retries", retries.load(Ordering::Relaxed) as f64)
                .col("secs", elapsed),
        );
    }
    rows
}

// --------------------------------------------------------------------
// E10 — NSN source ablation.
// --------------------------------------------------------------------

/// Insert throughput under the three NSN configurations (§10.1).
pub fn e10_nsn(cfg: ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    let variants: [(&str, NsnSource, bool); 3] = [
        ("dedicated counter", NsnSource::DedicatedCounter, false),
        ("wal-lsn (global read)", NsnSource::WalLsn, false),
        ("wal-lsn + parent-lsn", NsnSource::WalLsn, true),
    ];
    for (name, source, parent_opt) in variants {
        for &threads in cfg.threads {
            let (db, idx) = btree_db(DbConfig {
                nsn_source: source,
                memorize_parent_lsn: parent_opt,
                isolation: IsolationLevel::Latching,
                ..DbConfig::default()
            });
            let txn = db.begin();
            for k in 0..10_000i64 {
                idx.insert(txn, &(k << 20), wl_rid(k as u64)).unwrap();
            }
            db.commit(txn).unwrap();
            let tp = {
                let (db, idx) = (db.clone(), idx.clone());
                run_for(threads, cfg.measure, move |t, i| {
                    let k = ((t as i64) << 50) + ((i as i64) << 1) + 1;
                    let txn = db.begin();
                    match idx.insert(txn, &k, wl_rid(4_000_000 + ((t as u64) << 40) + i)) {
                        Ok(()) => db.commit(txn).unwrap(),
                        Err(e) if e.is_retryable() => db.abort(txn).unwrap(),
                        Err(e) => panic!("{e}"),
                    }
                })
            };
            rows.push(Row::new(format!("{name} / {threads}T")).col("inserts/s", tp.per_sec()));
        }
    }
    rows
}

// --------------------------------------------------------------------
// E11 — repeatable read: phantom counting.
// --------------------------------------------------------------------

/// Scan a range twice per transaction while writers insert into it;
/// count result-set differences (phantoms). Degree 3 must show zero.
pub fn e11_phantoms(cfg: ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, isolation) in [
        ("degree 3 (hybrid)", IsolationLevel::RepeatableRead),
        ("latching only", IsolationLevel::Latching),
    ] {
        let (db, idx) = btree_db(DbConfig { isolation, ..DbConfig::default() });
        let txn = db.begin();
        for k in 0..2_000i64 {
            idx.insert(txn, &(k * 10), wl_rid(k as u64)).unwrap();
        }
        db.commit(txn).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let phantoms = Arc::new(AtomicU64::new(0));
        let scans = Arc::new(AtomicU64::new(0));
        let writer_ops = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for w in 0..2u64 {
            let (db, idx, stop, writer_ops) =
                (db.clone(), idx.clone(), stop.clone(), writer_ops.clone());
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                let mut rng = XorShift::new(w * 7 + 1);
                while !stop.load(Ordering::Relaxed) {
                    // Insert *inside* the scanned key space (odd keys).
                    let k = rng.below(20_000) as i64;
                    let txn = db.begin();
                    match idx.insert(txn, &k, wl_rid(5_000_000 + (w << 40) + i)) {
                        Ok(()) => {
                            db.commit(txn).unwrap();
                            writer_ops.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_retryable() => db.abort(txn).unwrap(),
                        Err(e) => panic!("{e}"),
                    }
                    i += 1;
                }
            }));
        }
        for r in 0..2u64 {
            let (db, idx, stop, phantoms, scans) =
                (db.clone(), idx.clone(), stop.clone(), phantoms.clone(), scans.clone());
            handles.push(std::thread::spawn(move || {
                let mut rng = XorShift::new(r * 13 + 5);
                while !stop.load(Ordering::Relaxed) {
                    let lo = rng.below(19_000) as i64;
                    let q = I64Query::range(lo, lo + 200);
                    let txn = db.begin();
                    let a = match idx.search(txn, &q) {
                        Ok(v) => v,
                        Err(e) if e.is_retryable() => {
                            db.abort(txn).unwrap();
                            continue;
                        }
                        Err(e) => panic!("{e}"),
                    };
                    let b = match idx.search(txn, &q) {
                        Ok(v) => v,
                        Err(e) if e.is_retryable() => {
                            db.abort(txn).unwrap();
                            continue;
                        }
                        Err(e) => panic!("{e}"),
                    };
                    if a.len() != b.len() {
                        phantoms.fetch_add(1, Ordering::Relaxed);
                    }
                    scans.fetch_add(1, Ordering::Relaxed);
                    db.commit(txn).unwrap();
                }
            }));
        }
        std::thread::sleep(cfg.measure.max(Duration::from_millis(500)));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        rows.push(
            Row::new(name)
                .col("double-scans", scans.load(Ordering::Relaxed) as f64)
                .col("phantoms", phantoms.load(Ordering::Relaxed) as f64)
                .col("writer inserts", writer_ops.load(Ordering::Relaxed) as f64),
        );
    }
    rows
}

// --------------------------------------------------------------------
// E12 — savepoint partial-rollback cost.
// --------------------------------------------------------------------

/// Time to roll back to a savepoint as a function of the operations
/// logged after it.
pub fn e12_savepoints() -> Vec<Row> {
    let mut rows = Vec::new();
    for ops in [100i64, 1_000, 5_000] {
        let (db, idx) = btree_db(DbConfig::default());
        let txn = db.begin();
        for k in 0..1_000i64 {
            idx.insert(txn, &k, wl_rid(k as u64)).unwrap();
        }
        let sp = db.savepoint(txn).unwrap();
        for k in 0..ops {
            idx.insert(txn, &(10_000 + k), wl_rid(6_000_000 + k as u64)).unwrap();
        }
        let t0 = Instant::now();
        db.rollback_to_savepoint(txn, sp).unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let visible = idx.search(txn, &I64Query::range(0, 1_000_000)).unwrap().len();
        db.commit(txn).unwrap();
        assert_eq!(visible, 1_000);
        rows.push(
            Row::new(format!("{ops} ops after savepoint"))
                .col("rollback ms", ms)
                .col("ms/op", ms / ops as f64),
        );
    }
    rows
}
