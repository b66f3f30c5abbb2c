#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Predicate manager (§10.3 of the paper).
//!
//! The hybrid repeatable-read mechanism (§4.3) attaches search predicates
//! *directly to tree nodes* instead of keeping a tree-global predicate
//! list. This component provides exactly the functions §10.3 enumerates:
//!
//! 1. attaching search predicates to nodes,
//! 2. removing a transaction's predicates at termination,
//! 3. checking a node's attached predicates against an insert's new key,
//! 4. replicating attachments at child nodes during BP-update percolation,
//! 5. replicating attachments at sibling nodes during node splits.
//!
//! Its data structures mirror the paper's list: a list of predicates per
//! transaction, a list of node attachments per predicate, and a FIFO list
//! of predicates per node. FIFO matters for starvation freedom: an insert
//! blocked on scan predicates registers its own *insert predicate* so that
//! later scans queue behind it (§10.3, "enforce fair locking behavior by
//! ordering predicates … in a FIFO list and checking each new predicate
//! against those ahead of it").
//!
//! The registry (predicate states, per-transaction lists) and the
//! per-node FIFO lists sit under one mutex, and a node's list holds
//! predicate ids only, resolved through the registry. Every function
//! above is one critical section, so a check never sees a terminated
//! owner's predicate and an attach never races a replication.
//!
//! Predicates are opaque byte strings here; the index supplies the
//! conflict test (its `consistent()` extension method — §6: "the function
//! consistent(), which is used to detect conflicting predicates, is the
//! same user-supplied function that is also used … to navigate").
//! Blocking on a predicate is not this component's job: callers block via
//! the lock manager on the owner's transaction-id lock.

use std::sync::Arc;

use gist_sync::Mutex;

use gist_pagestore::{IdMap, PageId};
use gist_wal::TxnId;

/// What a predicate protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredKind {
    /// A search predicate (protects a search range against phantoms).
    /// Also used for the §8 unique-insert "`= key`" probe predicates.
    Scan,
    /// An insert predicate (the new key), registered so later scans queue
    /// behind a blocked insert instead of starving it.
    Insert,
}

/// Handle to a registered predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u64);

/// A registered predicate (snapshot returned to callers).
#[derive(Debug, Clone)]
pub struct Predicate {
    /// Handle.
    pub id: PredId,
    /// Owning transaction.
    pub txn: TxnId,
    /// Scan or insert.
    pub kind: PredKind,
    /// Index-encoded predicate (a query for scans, a key for inserts).
    pub bytes: Arc<[u8]>,
}

/// A node a predicate can be attached to: `(index id, page)`.
pub type NodeKey = (u32, PageId);

/// Sentinel node used by the pure-predicate-locking baseline (§4.2): one
/// global attachment list for the whole tree.
pub const GLOBAL_NODE: NodeKey = (u32::MAX, PageId::INVALID);

#[derive(Debug)]
struct PredState {
    txn: TxnId,
    kind: PredKind,
    bytes: Arc<[u8]>,
    attachments: Vec<NodeKey>,
}

/// The three lists of §10.3, under the manager's one mutex. Invariant:
/// `id` is in `nodes[n]` exactly when `n` is in `preds[id].attachments`.
#[derive(Default)]
struct Tables {
    next_id: u64,
    preds: IdMap<PredId, PredState>,
    by_txn: IdMap<TxnId, Vec<PredId>>,
    /// Per-node FIFO attachment lists.
    nodes: IdMap<NodeKey, Vec<PredId>>,
}

impl Tables {
    /// Append `pred` to `node`'s FIFO list and its attachment list;
    /// `false` if it is already attached there.
    fn attach(&mut self, pred: PredId, node: NodeKey) -> bool {
        let Some(p) = self.preds.get_mut(&pred) else { return false };
        if p.attachments.contains(&node) {
            return false;
        }
        p.attachments.push(node);
        self.nodes.entry(node).or_default().push(pred);
        true
    }

    /// Owners of the `kind` predicates on `node` (other than `me`) for
    /// which `conflicts(predicate bytes)` holds, in FIFO order, deduped.
    fn owners(
        &self,
        node: NodeKey,
        me: TxnId,
        kind: PredKind,
        conflicts: impl Fn(&[u8]) -> bool,
    ) -> Vec<TxnId> {
        let mut owners = Vec::new();
        for id in self.nodes.get(&node).into_iter().flatten() {
            let p = &self.preds[id];
            if p.txn != me && p.kind == kind && conflicts(&p.bytes) && !owners.contains(&p.txn) {
                owners.push(p.txn);
            }
        }
        owners
    }

    /// Remove `pred` and its node-list entries.
    fn remove(&mut self, pred: PredId) {
        let Some(p) = self.preds.remove(&pred) else { return };
        for node in &p.attachments {
            if let Some(list) = self.nodes.get_mut(node) {
                list.retain(|id| *id != pred);
                if list.is_empty() {
                    self.nodes.remove(node);
                }
            }
        }
    }
}

/// Counters kept by the predicate manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredStats {
    /// Currently registered predicates.
    pub predicates: usize,
    /// Total node attachments.
    pub attachments: usize,
    /// Nodes with at least one attachment.
    pub nodes: usize,
}

/// The predicate manager.
#[derive(Default)]
pub struct PredicateManager {
    tables: Mutex<Tables>,
}

impl PredicateManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a predicate for `txn` (no attachments yet).
    pub fn register(&self, txn: TxnId, kind: PredKind, bytes: Vec<u8>) -> PredId {
        let mut t = self.tables.lock();
        t.next_id += 1;
        let id = PredId(t.next_id);
        t.preds.insert(
            id,
            PredState {
                txn,
                kind,
                bytes: Arc::from(bytes.into_boxed_slice()),
                attachments: Vec::new(),
            },
        );
        t.by_txn.entry(txn).or_default().push(id);
        id
    }

    /// Attach `pred` to `node` (idempotent). Returns whether a new
    /// attachment was created; `false` also when the owner has already
    /// terminated (nothing left to protect).
    pub fn attach(&self, pred: PredId, node: NodeKey) -> bool {
        self.tables.lock().attach(pred, node)
    }

    /// Attach a scan predicate to `node` and return the owners of
    /// conflicting *insert* predicates attached **ahead of it** (FIFO
    /// fairness: a scan arriving after a blocked insert queues behind it).
    ///
    /// `conflict(scan_bytes, insert_key_bytes)` is the index's
    /// `consistent()` test.
    pub fn attach_scan_and_check(
        &self,
        pred: PredId,
        node: NodeKey,
        conflict: &dyn Fn(&[u8], &[u8]) -> bool,
    ) -> Vec<TxnId> {
        let mut t = self.tables.lock();
        let Some(p) = t.preds.get(&pred) else { return Vec::new() };
        let (me, mine) = (p.txn, p.bytes.clone());
        let owners = t.owners(node, me, PredKind::Insert, |theirs| conflict(&mine, theirs));
        t.attach(pred, node);
        owners
    }

    /// Check a new key against the *scan* predicates attached to `node`
    /// (§6 step 6: "check the list of predicates attached to the leaf and
    /// block on the conflicting ones"). Returns conflicting owners in
    /// FIFO order, deduplicated.
    pub fn check_insert(
        &self,
        node: NodeKey,
        me: TxnId,
        key_bytes: &[u8],
        conflict: &dyn Fn(&[u8], &[u8]) -> bool,
    ) -> Vec<TxnId> {
        self.tables.lock().owners(node, me, PredKind::Scan, |theirs| conflict(theirs, key_bytes))
    }

    /// Snapshot of the predicates attached to `node`.
    pub fn predicates_on(&self, node: NodeKey) -> Vec<Predicate> {
        let t = self.tables.lock();
        t.nodes
            .get(&node)
            .into_iter()
            .flatten()
            .map(|id| {
                let p = &t.preds[id];
                Predicate { id: *id, txn: p.txn, kind: p.kind, bytes: p.bytes.clone() }
            })
            .collect()
    }

    /// Replicate attachments from `from` to `to` for every predicate that
    /// passes `keep` (function 5 of §10.3, used when a node splits: `keep`
    /// tests the predicate against the new sibling's BP, and function 4,
    /// percolation to children on BP expansion). Preserves FIFO order.
    /// Returns the number of new attachments.
    pub fn replicate(
        &self,
        from: NodeKey,
        to: NodeKey,
        keep: &dyn Fn(PredKind, &[u8]) -> bool,
    ) -> usize {
        let mut t = self.tables.lock();
        let Some(ids) = t.nodes.get(&from).cloned() else { return 0 };
        let mut n = 0;
        for id in ids {
            let p = &t.preds[&id];
            if keep(p.kind, &p.bytes) && t.attach(id, to) {
                n += 1;
            }
        }
        n
    }

    /// Detach a single predicate from every node and drop it (used for
    /// the §8 unique-insert probe predicates, which are released once the
    /// insert finishes, before transaction end, and for insert
    /// predicates once the insert has succeeded).
    pub fn drop_predicate(&self, pred: PredId) {
        let mut t = self.tables.lock();
        let Some(txn) = t.preds.get(&pred).map(|p| p.txn) else { return };
        if let Some(list) = t.by_txn.get_mut(&txn) {
            list.retain(|x| *x != pred);
            if list.is_empty() {
                t.by_txn.remove(&txn);
            }
        }
        t.remove(pred);
    }

    /// Detach every predicate from `node` and drop the node's table.
    /// Called when a page is returned to the free pool — a reverted
    /// split's sibling, a drained node — so the page's next tenant does
    /// not inherit attachments that belong to a dead incarnation. The
    /// predicates themselves survive (they remain attached to every
    /// other node, and to their owners until transaction end).
    pub fn purge_node(&self, node: NodeKey) {
        let mut t = self.tables.lock();
        for id in t.nodes.remove(&node).unwrap_or_default() {
            if let Some(p) = t.preds.get_mut(&id) {
                p.attachments.retain(|n| n != &node);
            }
        }
    }

    /// Remove every predicate owned by `txn` (transaction termination:
    /// "the predicates and their node attachments are only removed when
    /// the owner transaction terminates", §4.3).
    pub fn release_txn(&self, txn: TxnId) {
        let mut t = self.tables.lock();
        for id in t.by_txn.remove(&txn).unwrap_or_default() {
            t.remove(id);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PredStats {
        let t = self.tables.lock();
        PredStats {
            predicates: t.preds.len(),
            attachments: t.preds.values().map(|p| p.attachments.len()).sum(),
            nodes: t.nodes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(p: u32) -> NodeKey {
        (1, PageId(p))
    }

    /// Conflict test used by the tests: byte strings conflict when they
    /// share a first byte.
    fn overlap(a: &[u8], b: &[u8]) -> bool {
        !a.is_empty() && !b.is_empty() && a[0] == b[0]
    }

    #[test]
    fn register_attach_check() {
        let pm = PredicateManager::new();
        let p = pm.register(TxnId(1), PredKind::Scan, vec![7, 7]);
        pm.attach(p, node(1));
        let hits = pm.check_insert(node(1), TxnId(2), &[7, 0], &overlap);
        assert_eq!(hits, vec![TxnId(1)]);
        let misses = pm.check_insert(node(1), TxnId(2), &[8, 0], &overlap);
        assert!(misses.is_empty());
    }

    #[test]
    fn own_predicates_never_conflict() {
        let pm = PredicateManager::new();
        let p = pm.register(TxnId(1), PredKind::Scan, vec![7]);
        pm.attach(p, node(1));
        assert!(pm.check_insert(node(1), TxnId(1), &[7], &overlap).is_empty());
    }

    #[test]
    fn insert_checks_only_scans_and_scan_checks_only_inserts() {
        let pm = PredicateManager::new();
        let ins = pm.register(TxnId(1), PredKind::Insert, vec![7]);
        pm.attach(ins, node(1));
        // An insert by T2 ignores T1's *insert* predicate.
        assert!(pm.check_insert(node(1), TxnId(2), &[7], &overlap).is_empty());
        // But a scan by T2 queues behind it.
        let scan = pm.register(TxnId(2), PredKind::Scan, vec![7]);
        let owners = pm.attach_scan_and_check(scan, node(1), &overlap);
        assert_eq!(owners, vec![TxnId(1)]);
    }

    #[test]
    fn fifo_scan_sees_only_preds_ahead() {
        let pm = PredicateManager::new();
        // Scan attaches first; insert predicate lands after it; the scan's
        // attach-time check saw nothing.
        let scan = pm.register(TxnId(1), PredKind::Scan, vec![9]);
        let owners = pm.attach_scan_and_check(scan, node(1), &overlap);
        assert!(owners.is_empty());
        let ins = pm.register(TxnId(2), PredKind::Insert, vec![9]);
        pm.attach(ins, node(1));
        // A later scan does see the insert predicate ahead of it.
        let scan2 = pm.register(TxnId(3), PredKind::Scan, vec![9]);
        let owners2 = pm.attach_scan_and_check(scan2, node(1), &overlap);
        assert_eq!(owners2, vec![TxnId(2)]);
    }

    #[test]
    fn attach_is_idempotent() {
        let pm = PredicateManager::new();
        let p = pm.register(TxnId(1), PredKind::Scan, vec![1]);
        assert!(pm.attach(p, node(1)));
        assert!(!pm.attach(p, node(1)));
        assert_eq!(pm.stats().attachments, 1);
    }

    #[test]
    fn replicate_filters_by_bp() {
        let pm = PredicateManager::new();
        let a = pm.register(TxnId(1), PredKind::Scan, vec![1]);
        let b = pm.register(TxnId(2), PredKind::Scan, vec![2]);
        pm.attach(a, node(1));
        pm.attach(b, node(1));
        // Split: only predicates whose first byte is 2 are consistent with
        // the new sibling's BP.
        let n = pm.replicate(node(1), node(2), &|_, bytes| bytes[0] == 2);
        assert_eq!(n, 1);
        let on_new = pm.predicates_on(node(2));
        assert_eq!(on_new.len(), 1);
        assert_eq!(on_new[0].txn, TxnId(2));
        // Original attachments stay put (the original node keeps its
        // predicates on split).
        assert_eq!(pm.predicates_on(node(1)).len(), 2);
    }

    #[test]
    fn release_txn_removes_everywhere() {
        let pm = PredicateManager::new();
        let a = pm.register(TxnId(1), PredKind::Scan, vec![1]);
        let b = pm.register(TxnId(1), PredKind::Insert, vec![2]);
        pm.attach(a, node(1));
        pm.attach(a, node(2));
        pm.attach(b, node(1));
        pm.release_txn(TxnId(1));
        assert_eq!(pm.stats(), PredStats::default());
        assert!(pm.predicates_on(node(1)).is_empty());
    }

    #[test]
    fn drop_predicate_is_targeted() {
        let pm = PredicateManager::new();
        let probe = pm.register(TxnId(1), PredKind::Scan, vec![5]);
        let keeper = pm.register(TxnId(1), PredKind::Scan, vec![6]);
        pm.attach(probe, node(1));
        pm.attach(keeper, node(1));
        pm.drop_predicate(probe);
        let left = pm.predicates_on(node(1));
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].id, keeper);
    }

    #[test]
    fn conflicts_deduplicate_owners() {
        let pm = PredicateManager::new();
        let a = pm.register(TxnId(1), PredKind::Scan, vec![3]);
        let b = pm.register(TxnId(1), PredKind::Scan, vec![3, 3]);
        pm.attach(a, node(1));
        pm.attach(b, node(1));
        let owners = pm.check_insert(node(1), TxnId(2), &[3], &overlap);
        assert_eq!(owners, vec![TxnId(1)], "one entry per owner");
    }

    #[test]
    fn global_node_models_pure_predicate_locking() {
        let pm = PredicateManager::new();
        let p = pm.register(TxnId(1), PredKind::Scan, vec![4]);
        pm.attach(p, GLOBAL_NODE);
        let owners = pm.check_insert(GLOBAL_NODE, TxnId(2), &[4], &overlap);
        assert_eq!(owners, vec![TxnId(1)]);
    }

    #[test]
    fn stats_count_correctly() {
        let pm = PredicateManager::new();
        let a = pm.register(TxnId(1), PredKind::Scan, vec![1]);
        let b = pm.register(TxnId(2), PredKind::Insert, vec![2]);
        pm.attach(a, node(1));
        pm.attach(a, node(2));
        pm.attach(b, node(1));
        let s = pm.stats();
        assert_eq!(s.predicates, 2);
        assert_eq!(s.attachments, 3);
        assert_eq!(s.nodes, 2);
    }

    #[test]
    fn replicate_racing_attach_never_duplicates_entries() {
        // Regression: attach() once claimed the registry, then pushed into
        // the node list under a second lock. A replicate(from, to) running
        // in between copied the entry into `to`'s list (the registry
        // already named `to`, so replicate's bookkeeping skipped it) and
        // the attach push added a second copy — a duplicate FIFO entry for
        // one predicate.
        let pm = std::sync::Arc::new(PredicateManager::new());
        for round in 0..200u64 {
            let txn = TxnId(round + 1);
            let p = pm.register(txn, PredKind::Scan, vec![1]);
            pm.attach(p, node(1));
            let t = {
                let pm = pm.clone();
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        pm.replicate(node(1), node(2), &|_, _| true);
                    }
                })
            };
            pm.attach(p, node(2));
            t.join().unwrap();
            let on2 = pm.predicates_on(node(2));
            let unique: std::collections::HashSet<PredId> =
                on2.iter().map(|e| e.id).collect();
            assert_eq!(on2.len(), unique.len(), "round {round}: duplicate FIFO entry");
            pm.release_txn(txn);
        }
        assert_eq!(pm.stats(), PredStats::default());
    }

    #[test]
    fn concurrent_attach_and_release_leave_no_orphans() {
        // Hammer attach/check/replicate/release from several threads; at
        // the end every node list must be empty.
        let pm = std::sync::Arc::new(PredicateManager::new());
        let mut handles = Vec::new();
        for t in 1..=4u64 {
            let pm = pm.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let txn = TxnId(t * 10_000 + u64::from(i));
                    let p = pm.register(txn, PredKind::Scan, vec![t as u8]);
                    let n = node(i % 16);
                    pm.attach_scan_and_check(p, n, &overlap);
                    pm.attach(p, node((i + 1) % 16));
                    pm.replicate(n, node((i + 2) % 16), &|_, _| true);
                    pm.check_insert(n, txn, &[t as u8], &overlap);
                    pm.release_txn(txn);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pm.stats();
        assert_eq!(s.predicates, 0, "all predicates released");
        assert_eq!(s.nodes, 0, "no orphaned node entries: {s:?}");
    }
}
