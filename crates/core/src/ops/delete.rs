//! Key deletion (§7): logical delete, garbage collection of
//! committed-deleted entries (§7.1), and drain-based node deletion
//! (§7.2).

use std::collections::HashSet;
use std::sync::Arc;

use gist_lockmgr::{LockMode, LockName};
use gist_pagestore::{PageId, PageWriteGuard};
use gist_predlock::{PredKind, GLOBAL_NODE};
use gist_wal::TxnId;

use crate::db::{IsolationLevel, PredicateMode};
use crate::entry::LeafEntryRef;
use crate::ext::GistExtension;
use crate::logrec::GistRecord;
use crate::node;
use crate::ops::walk::{Access, Walk};
use crate::ops::{ParentLoc, StackEntry};
use crate::tree::GistIndex;
use crate::{GistError, Result};

/// Outcome of a [`GistIndex::vacuum_sync`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VacuumReport {
    /// Committed-deleted entries physically removed.
    pub entries_removed: usize,
    /// Empty nodes retired (parent entry removed, page freed).
    pub nodes_deleted: usize,
}

impl<E: GistExtension> GistIndex<E> {
    /// DELETE: logically delete `(key, RID)` — the entry is only
    /// *marked* (§7): "the physical presence of this deleted key …
    /// ensures that Degree 3 isolated search operations have an
    /// opportunity to be suspended when they encounter such a key", and
    /// parent BPs must not shrink yet, or the path to the key would
    /// vanish for concurrent searches.
    pub fn delete(self: &Arc<Self>, txn: TxnId, key: &E::Key, rid: gist_pagestore::Rid) -> Result<()> {
        let _op = self.db().txns().op_enter(txn)?;
        self.delete_inner(txn, key, rid)
    }

    fn delete_inner(
        self: &Arc<Self>,
        txn: TxnId,
        key: &E::Key,
        rid: gist_pagestore::Rid,
    ) -> Result<()> {
        let db = self.db().clone();
        let cfg = db.config();
        let degree3 = cfg.isolation == IsolationLevel::RepeatableRead;
        let locks_records = cfg.isolation != IsolationLevel::Latching;
        // Two-phase X lock on the data record before the tree operation
        // (Degree 2 and above).
        if locks_records {
            db.locks().lock(txn, LockName::Rid(rid), LockMode::X)?;
        }
        // Pure predicate locking: register the deleted key as a
        // predicate and verify against scans first (§4.2: "insert and
        // delete operations register their keys as predicates").
        if degree3 && cfg.predicate_mode == PredicateMode::PureGlobal {
            let mut kb = Vec::new();
            self.ext().encode_key(key, &mut kb);
            let owners =
                db.preds().check_insert(GLOBAL_NODE, txn, &kb, &self.insert_conflict_fn(key));
            let p = db.preds().register(txn, PredKind::Insert, kb);
            db.preds().attach(p, GLOBAL_NODE);
            for owner in owners {
                db.txns().wait_for_txn(txn, owner).map_err(GistError::Lock)?;
            }
        }

        // Locate the leaf holding the entry: "equivalent to a search
        // operation with an equality predicate" (§7), X-latching leaves.
        // If the mark succeeds, the page the leaf's pointer was read from
        // becomes the GC candidate's parent hint (the maintenance path
        // walks parent rightlinks, so any same-level ancestor's parent
        // locates the entry).
        let q = self.ext().eq_query(key);
        let mut walk = Walk::new(self.clone(), txn, &q, Access::Latched, false)?;
        let mut found = false;
        while let Some(leaf) = walk.next_leaf()? {
            let (pid, parent_hint) = (leaf.page, leaf.parent);
            let mut w = walk.relatch_write(leaf)?;
            let target = node::entry_cells(&w)
                .find(|(_, cell)| {
                    let e = LeafEntryRef::new(cell);
                    e.rid() == rid && !e.deleted() && self.ext().key_bytes_equal(e.key_bytes(), key)
                })
                .map(|(slot, cell)| (slot, cell.to_vec()));
            if let Some((slot, old_cell)) = target {
                gist_chaos::point("delete.before_mark")?;
                let rec = GistRecord::MarkLeafEntry {
                    page: pid.0,
                    nsn: w.nsn(),
                    slot,
                    old_cell,
                    deleter: txn.0,
                };
                db.log_apply(txn, &rec, &mut [&mut w])?;
                // An injected fault here leaves a logged, applied mark
                // behind — exactly what the abort path must undo.
                gist_chaos::point("delete.after_mark")?;
                // Hand the leaf to the maintenance daemon: if (when)
                // this transaction commits, the mark becomes
                // garbage-collectable and the daemon reclaims the
                // slot (§7.1) without any foreground sweep.
                db.txns().note_gc_candidate(
                    txn,
                    gist_txn::GcCandidate { index: self.id(), leaf: pid, parent_hint },
                );
                found = true;
            }
            drop(w);
            walk.visited(pid);
            if found {
                break;
            }
        }
        walk.finish();
        if found {
            Ok(())
        } else {
            Err(GistError::NotFound)
        }
    }

    /// §7.1 node reorganization: physically remove the entries of this
    /// (X-latched) leaf whose deleting transactions have committed, and
    /// shrink the BP. Uses the Commit_LSN fast path (\[Moh90b\]): if the
    /// page's LSN predates the oldest active transaction's begin, every
    /// mark on it is committed. Returns the number of entries removed.
    pub(crate) fn gc_leaf(
        &self,
        txn: TxnId,
        leaf: &mut PageWriteGuard,
        parent_hint: Option<StackEntry>,
    ) -> Result<usize> {
        let db = self.db().clone();
        let txns = db.txns();
        let fast_path = leaf.page_lsn() < txns.oldest_active_begin_lsn();
        // The removed cells move into the log record.
        let removed: Vec<(u16, Vec<u8>)> = node::entry_cells(leaf)
            .filter(|(_, cell)| {
                let e = LeafEntryRef::new(cell);
                // Our own marks are not removable (we might roll back).
                e.deleted()
                    && e.deleter() != txn
                    && (fast_path || txns.is_certainly_committed(e.deleter()))
            })
            .map(|(slot, cell)| (slot, cell.to_vec()))
            .collect();
        if removed.is_empty() {
            return Ok(0);
        }
        // Keys are decoded only now that the BP really has to be rebuilt,
        // over exactly the entries that stay (both walks are in slot
        // order, so `removed` is consumed front to back).
        let mut gone = removed.iter().map(|(slot, _)| *slot).peekable();
        let mut new_bp_opt: Option<E::Pred> = None;
        for (slot, e) in node::leaf_views(leaf) {
            if gone.next_if_eq(&slot).is_some() {
                continue;
            }
            let key = self.ext().decode_key(e.key_bytes());
            new_bp_opt = Some(self.bp_union_key(&new_bp_opt, &key));
        }
        let new_bp = self.encode_bp_opt(&new_bp_opt);
        let nta = txns.begin_nta(txn)?;
        let removed_count = removed.len();
        let page = leaf.page_id().0;
        let rec = GistRecord::GarbageCollection { page, removed, new_bp: new_bp.clone() };
        db.log_apply(txn, &rec, &mut [leaf])?;
        txns.end_nta(txn, nta)?;
        // Propagate the shrink to the parent entry when we know the
        // parent ("the BP of that node may have shrunk, which can then be
        // propagated to the parent nodes"). One level is enough for
        // correctness — ancestor BPs stay conservative upper bounds.
        // A fully emptied leaf keeps its old parent entry (internal
        // entries always carry decodable, non-empty predicates); the
        // node-deletion path will remove the entry soon anyway.
        if new_bp.is_empty() {
            return Ok(removed_count);
        }
        if let Some(hint) = parent_hint {
            match self.latch_parent(&[hint], leaf)? {
                ParentLoc::IsRoot => {
                    self.apply_parent_entry_update(txn, leaf, None, new_bp)?;
                }
                ParentLoc::Found(mut parent, slot) => {
                    self.apply_parent_entry_update(txn, leaf, Some((&mut parent, slot)), new_bp)?;
                }
            }
        }
        Ok(removed_count)
    }

    /// §7.2 node deletion with the drain technique. Opportunistic: any
    /// contention (latch or signaling lock) abandons the attempt.
    ///
    /// Latch order is parent-then-child here, the reverse of the
    /// bottom-up order used by splits and BP updates — which is exactly
    /// why the child latch is only *tried*: a blocking acquire could
    /// deadlock with an ascending operation.
    pub(crate) fn try_delete_node(
        &self,
        txn: TxnId,
        parent_hint: PageId,
        child: PageId,
    ) -> Result<bool> {
        let db = self.db().clone();
        if db.is_protected_root(child) {
            return Ok(false);
        }
        // Blessed two-latch window (§5/§7.2): parent X-latched, then the
        // empty child latch is *tried* (never blocked on — see the
        // latch-order note above), so no deadlock-relevant edge exists.
        let _scope = gist_audit::enter_scope_rel("parent-child:node-delete", 2);
        // Find and X-latch the parent holding the child's entry.
        let mut pid = parent_hint;
        let (mut parent_g, slot) = loop {
            let g = db.pool().fetch_write(pid)?;
            if let Some(slot) = node::find_child_entry(&g, child) {
                break (g, slot);
            }
            let next = g.rightlink();
            drop(g);
            if next.is_invalid() {
                return Ok(false); // already gone
            }
            pid = next;
        };
        // Keep internal nodes non-empty (descent needs a branch).
        if parent_g.occupied_count() <= 2 {
            // BP slot + one entry: deleting it would empty the parent.
            return Ok(false);
        }
        // Child latch: try only (see latch-order note above).
        let Some(mut child_g) = db.pool().try_fetch_write(child)? else {
            return Ok(false);
        };
        if node::entry_count(&child_g) != 0 {
            return Ok(false);
        }
        // A node that split must not be deleted while its rightlink may
        // still be chased; the signaling-lock probe below covers active
        // operations, but be conservative about in-flight arrivals.
        let name = LockName::Node { index: self.id(), page: child };
        if !db.locks().try_lock(txn, name, LockMode::X) {
            return Ok(false); // drain: someone still holds a pointer
        }
        let entry_cell = parent_g
            .cell(slot)
            .unwrap_or_else(|| unreachable!("entry present at validated slot"))
            .to_vec();
        let txns = db.txns();
        let nta = match txns.begin_nta(txn) {
            Ok(n) => n,
            Err(e) => {
                db.locks().unlock(txn, name);
                return Err(e.into());
            }
        };
        let rec = GistRecord::InternalEntryDelete {
            page: parent_g.page_id().0,
            slot,
            cell: entry_cell,
        };
        db.log_apply(txn, &rec, &mut [&mut parent_g])?;
        db.log_apply(txn, &GistRecord::FreePage { page: child.0 }, &mut [&mut child_g])?;
        txns.end_nta(txn, nta)?;
        drop(child_g);
        drop(parent_g);
        db.locks().unlock(txn, name);
        // The drained node's predicate table must not be inherited by
        // the page's next tenant after reallocation.
        db.preds().purge_node(self.node_key(child));
        // §7.2 reclamation goes through the epoch bin: an optimistic
        // traversal may still hold a pointer to the drained page, and
        // deferring the allocator free until every such pin drains is
        // what lets the fast path skip the signaling locks — the page
        // cannot be reallocated (and re-typed) under a pinned reader; it
        // is only ever observed empty-and-available, which the traversal
        // skips harmlessly.
        let alloc = db.alloc().clone();
        db.epoch().retire(move || alloc.free(child));
        Ok(true)
    }

    /// Sweep the whole index: garbage-collect every leaf, shrink BPs,
    /// and retire empty nodes. Runs under the caller's transaction (the
    /// physical work is in atomic units, so it commits as it goes).
    ///
    /// The one whole-index sweep: it picks up what per-leaf GC and
    /// drains left behind (dropped after their retry budget, or drains
    /// with no parent hint).
    pub fn vacuum_sync(&self, txn: TxnId) -> Result<VacuumReport> {
        let _op = self.db().txns().op_enter(txn)?;
        self.vacuum_sync_inner(txn)
    }

    fn vacuum_sync_inner(&self, txn: TxnId) -> Result<VacuumReport> {
        let db = self.db().clone();
        let mut report = VacuumReport::default();
        loop {
            let mut deleted_this_round = 0;
            // Collect (parent, child-leaf) pairs with a read pass.
            let mut pairs: Vec<(PageId, u64, PageId)> = Vec::new();
            let root = self.root()?;
            let mut queue = vec![root];
            let mut seen: HashSet<PageId> = HashSet::new();
            while let Some(pid) = queue.pop() {
                if pid.is_invalid() || !seen.insert(pid) {
                    continue;
                }
                let g = db.pool().fetch_read(pid)?;
                queue.push(g.rightlink());
                if !g.is_leaf() {
                    for (_, e) in node::internal_views(&g) {
                        queue.push(e.child());
                        if g.level() == 1 {
                            pairs.push((pid, g.nsn(), e.child()));
                        }
                    }
                }
            }
            // Root-is-leaf case: GC it directly.
            let root_g = db.pool().fetch_read(root)?;
            let root_is_leaf = root_g.is_leaf();
            drop(root_g);
            if root_is_leaf {
                let mut g = db.pool().fetch_write(root)?;
                report.entries_removed += self.gc_leaf(txn, &mut g, None)?;
                return Ok(report);
            }
            for (parent, parent_nsn, leaf) in pairs {
                let mut g = db.pool().fetch_write(leaf)?;
                if !g.is_leaf() {
                    continue; // page got reused at another level
                }
                report.entries_removed += self.gc_leaf(
                    txn,
                    &mut g,
                    Some(StackEntry { page: parent, nsn_at_visit: parent_nsn }),
                )?;
                let empty = node::entry_count(&g) == 0;
                drop(g);
                if empty && self.try_delete_node(txn, parent, leaf)? {
                    report.nodes_deleted += 1;
                    deleted_this_round += 1;
                }
            }
            if deleted_this_round == 0 {
                return Ok(report);
            }
            // Another round may now find empty internal nodes' parents
            // (we only retire leaves directly; internal nodes drain on
            // later passes once their children are gone).
        }
    }
}
