//! Negative-path coverage for the structural checker
//! (`gist_core::check`): corrupt a healthy tree in three distinct ways —
//! a cyclic rightlink chain, an NSN above the tree-global counter, and a
//! child BP the parent's entry predicate no longer covers — and assert
//! that `check_tree` reports each violation. A checker that only ever
//! sees healthy trees is itself untested.

use std::sync::Arc;

use gist_core::check::check_tree;
use gist_core::ext::{GistExtension, SplitDecision};
use gist_core::{Db, DbConfig, GistIndex, IndexOptions, InternalEntry};
use gist_pagestore::{InMemoryStore, PageId, Rid};
use gist_wal::LogManager;

/// Minimal i32 interval extension (keys i32, predicates inclusive
/// intervals) — same shape as the one in `ops_testext.rs`, kept local so
/// this file stands alone.
#[derive(Debug, Clone, Copy, Default)]
struct IntervalExt;

impl GistExtension for IntervalExt {
    type Key = i32;
    type Pred = (i32, i32);
    type Query = (i32, i32);

    fn encode_key(&self, key: &i32, out: &mut Vec<u8>) {
        out.extend_from_slice(&key.to_le_bytes());
    }
    fn decode_key(&self, bytes: &[u8]) -> i32 {
        i32::from_le_bytes(bytes[0..4].try_into().unwrap())
    }
    fn encode_pred(&self, pred: &(i32, i32), out: &mut Vec<u8>) {
        out.extend_from_slice(&pred.0.to_le_bytes());
        out.extend_from_slice(&pred.1.to_le_bytes());
    }
    fn decode_pred(&self, bytes: &[u8]) -> (i32, i32) {
        (
            i32::from_le_bytes(bytes[0..4].try_into().unwrap()),
            i32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        )
    }
    fn encode_query(&self, q: &(i32, i32), out: &mut Vec<u8>) {
        self.encode_pred(q, out);
    }
    fn decode_query(&self, bytes: &[u8]) -> (i32, i32) {
        self.decode_pred(bytes)
    }
    fn consistent_pred(&self, pred: &(i32, i32), q: &(i32, i32)) -> bool {
        pred.0 <= q.1 && q.0 <= pred.1
    }
    fn consistent_key(&self, key: &i32, q: &(i32, i32)) -> bool {
        q.0 <= *key && *key <= q.1
    }
    fn key_equal(&self, a: &i32, b: &i32) -> bool {
        a == b
    }
    fn eq_query(&self, key: &i32) -> (i32, i32) {
        (*key, *key)
    }
    fn key_pred(&self, key: &i32) -> (i32, i32) {
        (*key, *key)
    }
    fn union_preds(&self, a: &(i32, i32), b: &(i32, i32)) -> (i32, i32) {
        (a.0.min(b.0), a.1.max(b.1))
    }
    fn pred_covers(&self, outer: &(i32, i32), inner: &(i32, i32)) -> bool {
        outer.0 <= inner.0 && inner.1 <= outer.1
    }
    fn penalty(&self, pred: &(i32, i32), key: &i32) -> f64 {
        ((pred.0 - *key).max(0) + (*key - pred.1).max(0)) as f64
    }
    fn pick_split(&self, preds: &[(i32, i32)]) -> SplitDecision {
        gist_core::ext::median_split(preds, |p| (p.0 as f64 + p.1 as f64) / 2.0)
    }
}

fn rid(n: u64) -> Rid {
    Rid::new(PageId(650_000 + (n >> 16) as u32), (n & 0xFFFF) as u16)
}

/// Build a multi-level tree and confirm it is healthy before corruption.
fn healthy_tree() -> (Arc<Db>, Arc<GistIndex<IntervalExt>>) {
    let store = Arc::new(InMemoryStore::new());
    let log = Arc::new(LogManager::new());
    let db = Db::open(store, log, DbConfig::default()).unwrap();
    let idx = GistIndex::create(db.clone(), "iv", IntervalExt, IndexOptions::default()).unwrap();
    let txn = db.begin();
    for i in 0..4000i32 {
        idx.insert(txn, &i, rid(i as u64)).unwrap();
    }
    db.commit(txn).unwrap();
    let report = check_tree(&idx).unwrap();
    report.assert_ok();
    assert!(report.nodes > 3, "need a multi-node tree to corrupt");
    (db, idx)
}

/// Descend along first-child entries from the root to some non-root
/// leaf. Slot 0 of every node is its BP; slots ≥ 1 are entries.
fn some_leaf(db: &Arc<Db>, idx: &GistIndex<IntervalExt>) -> PageId {
    // Read before the loop: `root()` latches the catalog page, and one
    // latch at a time is the discipline `--features latch-audit` enforces.
    let root = idx.root().unwrap();
    let mut pid = root;
    loop {
        let g = db.pool().fetch_read(pid).unwrap();
        if g.is_leaf() {
            assert_ne!(pid, root, "tree must have height > 1");
            return pid;
        }
        let (_, cell) = g.iter_cells().find(|(s, _)| *s != 0).expect("internal node has entries");
        let InternalEntry { child, .. } = InternalEntry::decode(cell);
        drop(g);
        pid = child;
    }
}

#[test]
fn cyclic_rightlink_is_reported() {
    let (db, idx) = healthy_tree();
    let leaf = some_leaf(&db, &idx);
    {
        let mut g = db.pool().fetch_write(leaf).unwrap();
        g.set_rightlink(leaf); // self-link: the chain never terminates
        g.mark_dirty_unlogged();
    }
    let report = check_tree(&idx).unwrap();
    assert!(
        report.violations.iter().any(|v| v.contains("rightlink cycle")),
        "expected a rightlink-cycle violation, got: {:#?}",
        report.violations
    );
}

#[test]
fn nsn_above_global_counter_is_reported() {
    let (db, idx) = healthy_tree();
    let leaf = some_leaf(&db, &idx);
    let bogus = db.global_nsn() + 100;
    {
        let mut g = db.pool().fetch_write(leaf).unwrap();
        g.set_nsn(bogus);
        g.mark_dirty_unlogged();
    }
    let report = check_tree(&idx).unwrap();
    assert!(
        report.violations.iter().any(|v| v.contains("exceeds global counter")),
        "expected an NSN violation, got: {:#?}",
        report.violations
    );
}

#[test]
fn parent_pred_not_covering_child_bp_is_reported() {
    let (db, idx) = healthy_tree();
    let leaf = some_leaf(&db, &idx);
    // Widen the leaf's own BP (slot 0) to the full key domain: every key
    // on the leaf stays covered, but the finite parent entry predicate no
    // longer covers the child's BP.
    let mut wide = Vec::new();
    IntervalExt.encode_pred(&(i32::MIN, i32::MAX), &mut wide);
    {
        let mut g = db.pool().fetch_write(leaf).unwrap();
        g.update_cell(0, &wide).unwrap();
        g.mark_dirty_unlogged();
    }
    let report = check_tree(&idx).unwrap();
    assert!(
        report.violations.iter().any(|v| v.contains("parent entry does not cover child BP")),
        "expected a parent-coverage violation, got: {:#?}",
        report.violations
    );
}
