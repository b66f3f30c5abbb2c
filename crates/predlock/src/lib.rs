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
//! The per-node FIFO lists are **striped** (`gist-striped`): a `NodeKey`
//! hashes to one of N shards, and each list entry carries the owner,
//! kind and predicate bytes inline — so insert-time predicate checks on
//! different leaves touch different shards and never consult the
//! registry at all. The registry (a single mutex holding the
//! per-predicate and per-transaction indexes) is only on the slow paths:
//! register, attach bookkeeping, termination. Registry and node shards
//! are never held simultaneously; split-time replication takes the two
//! node shards in ascending index order ([`Striped::lock_pair`]), which
//! keeps the node-pair update atomic. FIFO order per node is untouched —
//! a node's list lives entirely inside one shard.
//!
//! Predicates are opaque byte strings here; the index supplies the
//! conflict test (its `consistent()` extension method — §6: "the function
//! consistent(), which is used to detect conflicting predicates, is the
//! same user-supplied function that is also used … to navigate").
//! Blocking on a predicate is not this component's job: callers block via
//! the lock manager on the owner's transaction-id lock.

use std::collections::HashMap;
use std::sync::Arc;

use gist_sync::Mutex;

use gist_pagestore::PageId;
use gist_striped::Striped;
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

/// One FIFO-list entry. Owner/kind/bytes are denormalized from the
/// registry so node-local checks are shard-local.
#[derive(Debug, Clone)]
struct NodeEntry {
    id: PredId,
    txn: TxnId,
    kind: PredKind,
    bytes: Arc<[u8]>,
}

/// Slow-path indexes: predicate states and the per-transaction lists.
#[derive(Default)]
struct Registry {
    next_id: u64,
    preds: HashMap<PredId, PredState>,
    by_txn: HashMap<TxnId, Vec<PredId>>,
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
pub struct PredicateManager {
    registry: Mutex<Registry>,
    /// Striped per-node FIFO attachment lists.
    nodes: Striped<HashMap<NodeKey, Vec<NodeEntry>>>,
}

impl Default for PredicateManager {
    fn default() -> Self {
        Self::with_shards(0)
    }
}

impl PredicateManager {
    /// Empty manager with the default node-table shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty manager with an explicit node-table shard count (rounded up
    /// to a power of two; `0` = `next_pow2(2×cores)`). Shard count 1
    /// reproduces the pre-sharding single-table behavior exactly.
    pub fn with_shards(shards: usize) -> Self {
        PredicateManager {
            registry: Mutex::new(Registry::default()),
            nodes: Striped::with_default(shards),
        }
    }

    /// Number of node-table shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.nodes.shard_count()
    }

    /// The node-table shard `node` maps to (stable for the manager's
    /// lifetime; tests use this to build colliding / spread node sets).
    pub fn node_shard(&self, node: &NodeKey) -> usize {
        self.nodes.index_of(node)
    }

    /// Register a predicate for `txn` (no attachments yet).
    pub fn register(&self, txn: TxnId, kind: PredKind, bytes: Vec<u8>) -> PredId {
        let mut reg = self.registry.lock();
        reg.next_id += 1;
        let id = PredId(reg.next_id);
        reg.preds.insert(
            id,
            PredState {
                txn,
                kind,
                bytes: Arc::from(bytes.into_boxed_slice()),
                attachments: Vec::new(),
            },
        );
        reg.by_txn.entry(txn).or_default().push(id);
        id
    }

    /// Attach `pred` to `node` (idempotent). Returns whether a new
    /// attachment was created.
    pub fn attach(&self, pred: PredId, node: NodeKey) -> bool {
        // Claim the attachment in the registry first (atomic idempotence
        // check), then insert into the node shard, then re-check the
        // registry: a concurrent owner termination that raced the shard
        // insert is swept up. Registry and shard are never held together.
        let entry = {
            let mut reg = self.registry.lock();
            let Some(p) = reg.preds.get_mut(&pred) else {
                // Owner already terminated: nothing to protect.
                return false;
            };
            if p.attachments.contains(&node) {
                return false;
            }
            p.attachments.push(node);
            NodeEntry { id: pred, txn: p.txn, kind: p.kind, bytes: p.bytes.clone() }
        };
        {
            // Dedupe at the insert: a replicate(from, node) racing between
            // our registry claim and this push may already have copied the
            // entry here (the registry lists `node`, so replicate's
            // bookkeeping skips it) — pushing unconditionally would leave
            // a duplicate FIFO entry for one predicate.
            let mut sh = self.nodes.lock(&node);
            let list = sh.entry(node).or_default();
            // Historical duplicate-FIFO race behind a mutation switch
            // (armed by model-checker self-tests): pushing without the
            // dedupe check duplicates the entry when a replicate already
            // copied it here.
            let skip_dedupe = gist_chaos::armed("predlock.attach-skip-dedupe");
            if skip_dedupe || list.iter().all(|e| e.id != pred) {
                list.push(entry);
            }
        }
        self.sweep_if_terminated(pred, node);
        true
    }

    /// Attach a scan predicate to `node` and return the owners of
    /// conflicting *insert* predicates attached **ahead of it** (FIFO
    /// fairness: a scan arriving after a blocked insert queues behind it).
    ///
    /// `conflict(scan_bytes, insert_key_bytes)` is the index's
    /// `consistent()` test.
    ///
    /// Shares [`check_insert`](Self::check_insert)'s transient-staleness
    /// caveat: a returned owner may have just terminated; waiting on its
    /// transaction-id lock then resolves immediately.
    pub fn attach_scan_and_check(
        &self,
        pred: PredId,
        node: NodeKey,
        conflict: &dyn Fn(&[u8], &[u8]) -> bool,
    ) -> Vec<TxnId> {
        let info = {
            let mut reg = self.registry.lock();
            match reg.preds.get_mut(&pred) {
                Some(p) => {
                    let fresh = if p.attachments.contains(&node) {
                        false
                    } else {
                        p.attachments.push(node);
                        true
                    };
                    Some((p.txn, p.kind, p.bytes.clone(), fresh))
                }
                None => None,
            }
        };
        let Some((me, kind, my_bytes, fresh)) = info else { return Vec::new() };
        let mut owners = Vec::new();
        {
            // Conflict scan and self-attach under one shard lock: the
            // node's FIFO list is mutated atomically, exactly as under
            // the old global mutex.
            let mut sh = self.nodes.lock(&node);
            let list = sh.entry(node).or_default();
            for e in list.iter() {
                if e.txn == me || e.kind != PredKind::Insert {
                    continue;
                }
                if conflict(&my_bytes, &e.bytes) && !owners.contains(&e.txn) {
                    owners.push(e.txn);
                }
            }
            // Same dedupe as `attach`: a racing replicate may already have
            // copied this predicate's entry into the node's list.
            if fresh && list.iter().all(|e| e.id != pred) {
                list.push(NodeEntry { id: pred, txn: me, kind, bytes: my_bytes });
            }
            if list.is_empty() {
                sh.remove(&node);
            }
        }
        self.sweep_if_terminated(pred, node);
        owners
    }

    /// Check a new key against the *scan* predicates attached to `node`
    /// (§6 step 6: "check the list of predicates attached to the leaf and
    /// block on the conflicting ones"). Returns conflicting owners in
    /// FIFO order, deduplicated. Touches only `node`'s shard — the hot
    /// insert path never takes the registry.
    ///
    /// **Transient staleness:** this reads the denormalized node-shard
    /// entries only. Between [`release_txn`](Self::release_txn) removing
    /// an owner's predicates from the registry and the per-node sweep
    /// clearing its shard entries, a check can report a conflict naming
    /// an already-terminated owner (impossible under the old global
    /// mutex). Callers must tolerate this: they already do, because they
    /// block via the lock manager on the owner's transaction-id lock,
    /// which a terminated owner has released — the wait resolves
    /// immediately and the caller re-checks. The effect is a transient
    /// spurious conflict, never a missed one.
    pub fn check_insert(
        &self,
        node: NodeKey,
        me: TxnId,
        key_bytes: &[u8],
        conflict: &dyn Fn(&[u8], &[u8]) -> bool,
    ) -> Vec<TxnId> {
        let sh = self.nodes.lock(&node);
        let mut owners = Vec::new();
        if let Some(list) = sh.get(&node) {
            for e in list {
                if e.txn == me || e.kind != PredKind::Scan {
                    continue;
                }
                if conflict(&e.bytes, key_bytes) && !owners.contains(&e.txn) {
                    owners.push(e.txn);
                }
            }
        }
        owners
    }

    /// Snapshot of the predicates attached to `node`.
    pub fn predicates_on(&self, node: NodeKey) -> Vec<Predicate> {
        let sh = self.nodes.lock(&node);
        sh.get(&node)
            .map(|list| {
                list.iter()
                    .map(|e| Predicate {
                        id: e.id,
                        txn: e.txn,
                        kind: e.kind,
                        bytes: e.bytes.clone(),
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Replicate attachments from `from` to `to` for every predicate that
    /// passes `keep` (function 5 of §10.3, used when a node splits: `keep`
    /// tests the predicate against the new sibling's BP, and function 4,
    /// percolation to children on BP expansion). Preserves FIFO order.
    /// Returns the number of new attachments.
    ///
    /// The two node shards are locked in ascending index order, making
    /// the node-pair copy atomic; registry bookkeeping follows with no
    /// shard held, and entries whose owner terminated in between are
    /// swept back out.
    pub fn replicate(
        &self,
        from: NodeKey,
        to: NodeKey,
        keep: &dyn Fn(PredKind, &[u8]) -> bool,
    ) -> usize {
        let inserted: Vec<PredId> = {
            let (mut ga, mut gb) = self.nodes.lock_pair(&from, &to);
            let candidates: Vec<NodeEntry> = ga
                .get(&from)
                .map(|l| l.iter().filter(|e| keep(e.kind, &e.bytes)).cloned().collect())
                .unwrap_or_default();
            if candidates.is_empty() {
                return 0;
            }
            let to_map = match gb.as_mut() {
                Some(g) => &mut **g,
                None => &mut *ga,
            };
            let list = to_map.entry(to).or_default();
            let mut inserted = Vec::new();
            for e in candidates {
                if list.iter().any(|x| x.id == e.id) {
                    continue;
                }
                inserted.push(e.id);
                list.push(e);
            }
            if list.is_empty() {
                to_map.remove(&to);
            }
            inserted
        };
        let mut n = 0;
        let mut dead: Vec<PredId> = Vec::new();
        {
            let mut reg = self.registry.lock();
            for id in &inserted {
                match reg.preds.get_mut(id) {
                    Some(p) => {
                        if !p.attachments.contains(&to) {
                            p.attachments.push(to);
                            n += 1;
                        }
                    }
                    None => dead.push(*id),
                }
            }
        }
        if !dead.is_empty() {
            let mut sh = self.nodes.lock(&to);
            if let Some(list) = sh.get_mut(&to) {
                list.retain(|e| !dead.contains(&e.id));
                if list.is_empty() {
                    sh.remove(&to);
                }
            }
        }
        n
    }

    /// Detach a single predicate from every node and drop it (used for
    /// the §8 unique-insert probe predicates, which are released once the
    /// insert finishes, before transaction end, and for insert
    /// predicates once the insert has succeeded).
    pub fn drop_predicate(&self, pred: PredId) {
        let removed = {
            let mut reg = self.registry.lock();
            let p = reg.preds.remove(&pred);
            if let Some(p) = &p {
                if let Some(list) = reg.by_txn.get_mut(&p.txn) {
                    list.retain(|x| *x != pred);
                    if list.is_empty() {
                        reg.by_txn.remove(&p.txn);
                    }
                }
            }
            p
        };
        if let Some(p) = removed {
            self.detach_from_nodes(pred, &p.attachments);
        }
    }

    /// Detach every predicate from `node` and drop the node's table.
    /// Called when a page is returned to the free pool — a reverted
    /// split's sibling, a drained node — so the page's next tenant does
    /// not inherit attachments that belong to a dead incarnation. The
    /// predicates themselves survive (they remain attached to every
    /// other node, and to their owners until transaction end).
    pub fn purge_node(&self, node: NodeKey) {
        let ids: Vec<PredId> = {
            let mut sh = self.nodes.lock(&node);
            match sh.remove(&node) {
                Some(list) => list.iter().map(|e| e.id).collect(),
                None => return,
            }
        };
        let mut reg = self.registry.lock();
        for id in ids {
            if let Some(p) = reg.preds.get_mut(&id) {
                p.attachments.retain(|n| n != &node);
            }
        }
    }

    /// Remove every predicate owned by `txn` (transaction termination:
    /// "the predicates and their node attachments are only removed when
    /// the owner transaction terminates", §4.3).
    pub fn release_txn(&self, txn: TxnId) {
        let removed: Vec<(PredId, Vec<NodeKey>)> = {
            let mut reg = self.registry.lock();
            let ids = reg.by_txn.remove(&txn).unwrap_or_default();
            ids.into_iter()
                .filter_map(|id| reg.preds.remove(&id).map(|p| (id, p.attachments)))
                .collect()
        };
        for (id, attachments) in removed {
            self.detach_from_nodes(id, &attachments);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PredStats {
        let (predicates, attachments) = {
            let reg = self.registry.lock();
            (reg.preds.len(), reg.preds.values().map(|p| p.attachments.len()).sum())
        };
        let mut nodes = 0;
        for idx in 0..self.nodes.shard_count() {
            nodes += self.nodes.lock_index(idx).len();
        }
        PredStats { predicates, attachments, nodes }
    }

    // ---- internals ----

    /// Remove `pred`'s entries from the given nodes' shard lists (one
    /// shard lock at a time; removals are idempotent).
    fn detach_from_nodes(&self, pred: PredId, nodes: &[NodeKey]) {
        for node in nodes {
            let mut sh = self.nodes.lock(node);
            if let Some(list) = sh.get_mut(node) {
                list.retain(|e| e.id != pred);
                if list.is_empty() {
                    sh.remove(node);
                }
            }
        }
    }

    /// Close the attach-vs-termination race: the attachment was recorded
    /// in the registry *before* the shard insert, so a termination that
    /// ran in between saw it and removed what existed then — but our
    /// shard insert may have landed after its sweep. If the predicate is
    /// gone now, take the entry back out (idempotent either way).
    fn sweep_if_terminated(&self, pred: PredId, node: NodeKey) {
        let live = self.registry.lock().preds.contains_key(&pred);
        if !live {
            self.detach_from_nodes(pred, &[node]);
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
    fn single_shard_reproduces_preshard_semantics() {
        // Shard count 1 is exactly the old single-table manager: FIFO
        // attach order, replication and termination behave identically.
        let pm = PredicateManager::with_shards(1);
        assert_eq!(pm.shard_count(), 1);
        assert_eq!(pm.node_shard(&node(1)), 0);
        assert_eq!(pm.node_shard(&node(999)), 0);
        let scan = pm.register(TxnId(1), PredKind::Scan, vec![9]);
        assert!(pm.attach_scan_and_check(scan, node(1), &overlap).is_empty());
        let ins = pm.register(TxnId(2), PredKind::Insert, vec![9]);
        pm.attach(ins, node(1));
        let scan2 = pm.register(TxnId(3), PredKind::Scan, vec![9]);
        assert_eq!(pm.attach_scan_and_check(scan2, node(1), &overlap), vec![TxnId(2)]);
        assert_eq!(pm.replicate(node(1), node(2), &|_, _| true), 3);
        assert_eq!(pm.predicates_on(node(2)).len(), 3);
        pm.release_txn(TxnId(1));
        pm.release_txn(TxnId(2));
        pm.release_txn(TxnId(3));
        assert_eq!(pm.stats(), PredStats::default());
    }

    #[test]
    fn sharded_tables_spread_nodes_and_replicate_across_shards() {
        let pm = PredicateManager::with_shards(8);
        assert_eq!(pm.shard_count(), 8);
        let mut seen = std::collections::HashSet::new();
        for i in 1..=32u32 {
            seen.insert(pm.node_shard(&node(i)));
        }
        assert!(seen.len() >= 4, "sequential nodes collapsed to {} shard(s)", seen.len());
        // Find two nodes in different shards and replicate between them.
        let a = node(1);
        let mut b = node(2);
        let mut i = 3u32;
        while pm.node_shard(&a) == pm.node_shard(&b) {
            b = node(i);
            i += 1;
        }
        let p = pm.register(TxnId(1), PredKind::Scan, vec![4]);
        pm.attach(p, a);
        assert_eq!(pm.replicate(a, b, &|_, _| true), 1, "cross-shard replication");
        assert_eq!(pm.replicate(b, a, &|_, _| true), 0, "reverse is idempotent");
        assert_eq!(pm.predicates_on(b).len(), 1);
        let s = pm.stats();
        assert_eq!((s.predicates, s.attachments, s.nodes), (1, 2, 2));
        pm.release_txn(TxnId(1));
        assert_eq!(pm.stats(), PredStats::default());
    }

    #[test]
    fn replicate_racing_attach_never_duplicates_entries() {
        // Regression: attach() claims the registry, then pushes into the
        // node shard. A replicate(from, to) running in between copies the
        // entry into `to`'s list (the registry already names `to`, so
        // replicate's bookkeeping skips it) and the attach push used to
        // add a second copy — a duplicate FIFO entry for one predicate.
        let pm = std::sync::Arc::new(PredicateManager::with_shards(8));
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
        // the end every shard list must be empty (the termination sweep
        // closed every race).
        let pm = std::sync::Arc::new(PredicateManager::with_shards(8));
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
