//! Key insertion (Fig. 4) and unique-index insertion (§8).
//!
//! Phases per §6:
//! 1. X-lock the new data record before touching the tree;
//! 2. `locateLeaf`: penalty-guided descent without lock coupling,
//!    compensating for missed splits by choosing the min-penalty node in
//!    the rightlink chain delimited by the memorized counter value;
//! 3. recursive node splitting as one atomic unit of work (two-phase
//!    latching inside the unit), replicating predicate attachments and
//!    signaling locks to the new sibling;
//! 4. top-down BP propagation with predicate percolation, one
//!    `Parent-Entry-Update` atomic action per ancestor;
//! 5. the `Add-Leaf-Entry` content record ascribed to the transaction;
//! 6. the leaf-attached-predicate check, blocking latch-free on
//!    conflicting scans, with a FIFO insert predicate against starvation
//!    (§10.3).

use std::sync::Arc;

use gist_lockmgr::{LockMode, LockName};
use gist_pagestore::{PageId, PageWriteGuard, Rid};
use gist_predlock::{PredKind, GLOBAL_NODE};
use gist_wal::TxnId;

use crate::db::{IsolationLevel, PredicateMode};
use crate::entry::{InternalEntry, InternalEntryRef, LeafEntry, LeafEntryRef};
use crate::ext::GistExtension;
use crate::logrec::GistRecord;
use crate::node;
use crate::ops::{ParentLoc, StackEntry};
use crate::tree::GistIndex;
use crate::{GistError, Result};

impl<E: GistExtension> GistIndex<E> {
    /// INSERT: add `(key, RID)` to the index. On a unique index this
    /// performs the §8 combined search+insert. A deadlock error means
    /// the caller must abort (and may retry) the transaction.
    pub fn insert(self: &Arc<Self>, txn: TxnId, key: &E::Key, rid: Rid) -> Result<()> {
        // Operation scope: a panic inside it poisons the transaction
        // (must-abort) via the guard's Drop.
        let _op = self.db().txns().op_enter(txn)?;
        if self.is_unique() {
            self.insert_unique(txn, key, rid)
        } else {
            self.insert_nonunique(txn, key, rid)
        }
    }

    /// §8: probe with an "`= key`" search (leaving probe predicates on
    /// every visited node), then insert. Races between two inserters of
    /// the same value surface as a lock-manager deadlock.
    fn insert_unique(self: &Arc<Self>, txn: TxnId, key: &E::Key, rid: Rid) -> Result<()> {
        let q = self.ext().eq_query(key);
        let mut probe = self.cursor(txn, q)?;
        let dup = probe.next()?;
        let probe_pred = probe.pred_id();
        if dup.is_some() {
            // The duplicate's data record is S-locked by the cursor,
            // making the error repeatable; the probe predicates are not
            // needed for that (§8) and are dropped.
            if let Some(p) = probe_pred {
                self.db().preds().drop_predicate(p);
            }
            return Err(GistError::UniqueViolation);
        }
        // Finish the probe so its predicates cover every node whose BP is
        // consistent with "= key" — this is what forces two concurrent
        // inserters of the same value into a deadlock instead of a double
        // insert.
        probe.collect_all()?;
        let res = self.insert_nonunique(txn, key, rid);
        // "Once the insert operation is finished, the predicates left
        // behind from the search phase can be released."
        if res.is_ok() {
            if let Some(p) = probe_pred {
                self.db().preds().drop_predicate(p);
            }
        }
        res
    }

    pub(crate) fn insert_nonunique(
        self: &Arc<Self>,
        txn: TxnId,
        key: &E::Key,
        rid: Rid,
    ) -> Result<()> {
        let db = self.db().clone();
        let cfg = db.config();
        let degree3 = cfg.isolation == IsolationLevel::RepeatableRead;
        let locks_records = cfg.isolation != IsolationLevel::Latching;
        let pure = cfg.predicate_mode == PredicateMode::PureGlobal;

        // Phase 1: "the new data record is X-locked before the tree
        // insertion is initiated". Writers 2PL their records at Degree 2
        // and above.
        if locks_records {
            db.locks().lock(txn, LockName::Rid(rid), LockMode::X)?;
        }
        let mut key_bytes = Vec::new();
        self.ext().encode_key(key, &mut key_bytes);

        // Pure predicate locking (§4.2 baseline): verify against the
        // global scan-predicate list before traversing, and register the
        // key so later scans block on us.
        if degree3 && pure {
            let owners =
                db.preds().check_insert(GLOBAL_NODE, txn, &key_bytes, &self.insert_conflict_fn(key));
            let p = db.preds().register(txn, PredKind::Insert, key_bytes.clone());
            db.preds().attach(p, GLOBAL_NODE);
            for owner in owners {
                db.txns().wait_for_txn(txn, owner).map_err(GistError::Lock)?;
            }
        }

        let cell = LeafEntry::new(key_bytes.clone(), rid).encode();

        // Phase 2: locate the target leaf (X-latched).
        gist_chaos::point("insert.before_descent")?;
        let (mut leaf, mut stack) = self.locate_leaf(txn, key)?;

        // Phase 3: make room — opportunistic garbage collection first
        // (§7.1: physical removal "performed … by other operations which
        // happen to pass through the affected nodes"), then splits.
        if !node::has_room(&leaf, cell.len()) {
            self.gc_leaf(txn, &mut leaf, stack.last().copied())?;
        }
        while !node::has_room(&leaf, cell.len()) {
            leaf = self.split_for_insert(txn, leaf, &stack, key)?;
        }

        // Phase 4: expand BPs up the tree (top-down application with
        // percolation).
        let old_bp = self.decode_bp_opt(node::bp_bytes(&leaf));
        let union = self.bp_union_key(&old_bp, key);
        if old_bp.as_ref() != Some(&union) {
            self.update_bp(txn, &mut leaf, union, &stack)?;
        }

        // Phase 5: the Add-Leaf-Entry content record (logged, then
        // applied under the latch).
        gist_chaos::point("insert.before_leaf_add")?;
        let rec = GistRecord::AddLeafEntry {
            page: leaf.page_id().0,
            nsn: leaf.nsn(),
            slot: leaf.next_insert_slot(),
            cell,
        };
        db.log_apply(txn, &rec, &mut [&mut leaf])?;
        gist_chaos::point("insert.after_leaf_add")?;

        // Phase 6: check the predicates attached to the leaf; block on
        // conflicting scans after registering our own insert predicate
        // (FIFO starvation avoidance, §10.3) and releasing the latch.
        let leaf_pid = leaf.page_id();
        let mut wait_result: Result<()> = Ok(());
        if degree3 && !pure {
            // An injected fault here drops the leaf latch via RAII; the
            // logged leaf insert is undone by the transaction's abort.
            gist_chaos::point("insert.before_predicate_check")?;
            let owners = db.preds().check_insert(
                self.node_key(leaf_pid),
                txn,
                &key_bytes,
                &self.insert_conflict_fn(key),
            );
            if owners.is_empty() {
                drop(leaf);
            } else {
                let ip = db.preds().register(txn, PredKind::Insert, key_bytes.clone());
                db.preds().attach(ip, self.node_key(leaf_pid));
                drop(leaf);
                for owner in owners {
                    if let Err(e) = db.txns().wait_for_txn(txn, owner) {
                        wait_result = Err(GistError::Lock(e));
                        break;
                    }
                }
                // The insert operation is finished (or doomed): release
                // the insert predicate.
                db.preds().drop_predicate(ip);
            }
        } else {
            drop(leaf);
        }

        // Release ancestor signaling locks; the target leaf's lock is
        // retained until transaction end (§7.2: "otherwise
        // recovery-relevant parts of the link chain would be
        // interrupted").
        for e in stack.drain(..) {
            self.signal_unlock(txn, e.page);
        }
        wait_result
    }

    /// Fig. 4 `locateLeaf`: descend following minimum-penalty branches,
    /// compensating for splits via the rightlink chain, without lock
    /// coupling. Returns the X-latched leaf and the ancestor stack.
    /// Signaling locks are held on the returned stack nodes and the leaf.
    pub(crate) fn locate_leaf(
        &self,
        txn: TxnId,
        key: &E::Key,
    ) -> Result<(PageWriteGuard, Vec<StackEntry>)> {
        let db = self.db().clone();
        let mut mem = db.global_nsn();
        let root = self.root()?;
        self.signal_lock(txn, root)?;
        let mut stack: Vec<StackEntry> = Vec::new();
        let mut cur = root;
        loop {
            // Read-latch to inspect; adjust for splits missed since `mem`.
            let g = db.pool().fetch_read(cur)?;
            if g.nsn() > mem {
                drop(g);
                // Pick the min-penalty node in the chain; its NSN as of
                // that inspection becomes the new memorized value, so a
                // re-check only fires if it splits *again* afterwards.
                let (best, best_nsn) = self.chain_min_penalty(cur, mem, key)?;
                cur = best;
                mem = best_nsn;
                continue;
            }
            if g.is_leaf() {
                drop(g);
                let w = db.pool().fetch_write(cur)?;
                if w.nsn() > mem {
                    // Split slipped in between the latches; go around.
                    drop(w);
                    continue;
                }
                return Ok((w, stack));
            }
            stack.push(StackEntry { page: cur, nsn_at_visit: g.nsn() });
            let child = self.min_penalty_child(&g, key)?;
            let child_mem = self.read_mem(Some(&g));
            // Signaling lock under the parent latch (§7.2 discipline).
            self.signal_lock(txn, child)?;
            drop(g);
            mem = child_mem;
            cur = child;
        }
    }

    /// "node with smallest insert penalty in rightlink chain delimited by
    /// p-NSN" (Fig. 4): walk the chain, one latch at a time, and return
    /// the best node. Signaling locks on chain members are already held
    /// via split-time replication (§10.3).
    fn chain_min_penalty(
        &self,
        start: PageId,
        mem: u64,
        key: &E::Key,
    ) -> Result<(PageId, u64)> {
        let db = self.db();
        let mut best: Option<(f64, PageId, u64)> = None;
        let mut cur = start;
        loop {
            let g = db.pool().fetch_read(cur)?;
            // An empty BP ("covers nothing") is the worst candidate.
            let pen = match node::bp_bytes(&g) {
                [] => f64::MAX,
                bp => self.ext().penalty_bytes(bp, key),
            };
            match &best {
                Some((b, _, _)) if *b <= pen => {}
                _ => best = Some((pen, cur, g.nsn())),
            }
            let stop = g.nsn() <= mem;
            let next = g.rightlink();
            drop(g);
            if stop || next.is_invalid() {
                break;
            }
            cur = next;
        }
        let Some((_, pid, nsn)) = best else {
            unreachable!("chain has at least one node")
        };
        Ok((pid, nsn))
    }

    /// Fig. 4 `updateBP`: expand this node's BP (and recursively its
    /// ancestors'), percolating ancestor scan predicates down to newly
    /// covered children. Each parent-entry update is its own atomic unit
    /// of work; latches are held bottom-up along the updated path.
    pub(crate) fn update_bp(
        &self,
        txn: TxnId,
        child: &mut PageWriteGuard,
        new_bp: E::Pred,
        stack: &[StackEntry],
    ) -> Result<()> {
        let old_bp = self.decode_bp_opt(node::bp_bytes(child));
        if old_bp.as_ref() == Some(&new_bp) {
            return Ok(());
        }
        let new_bp_bytes = self.encode_bp_opt(&Some(new_bp.clone()));
        match self.latch_parent(stack, child)? {
            ParentLoc::IsRoot => {
                self.apply_parent_entry_update(txn, child, None, new_bp_bytes)?;
            }
            ParentLoc::Found(mut parent, slot) => {
                let parent_bp = self.decode_bp_opt(node::bp_bytes(&parent));
                let parent_new = self.bp_union_pred(&parent_bp, &new_bp);
                let upper = if stack.is_empty() { &[] } else { &stack[..stack.len() - 1] };
                self.update_bp(txn, &mut parent, parent_new, upper)?;
                // Percolation: ancestor scan predicates that the expanded
                // BP makes consistent move down to the child (§4.3).
                let ext = self.ext();
                let old_for_filter = old_bp.clone();
                self.db().preds().replicate(
                    self.node_key(parent.page_id()),
                    self.node_key(child.page_id()),
                    &|kind, bytes| {
                        kind == PredKind::Scan
                            && ext.query_bytes_consistent_pred(bytes, &new_bp)
                            && !old_for_filter
                                .as_ref()
                                .is_some_and(|ob| ext.query_bytes_consistent_pred(bytes, ob))
                    },
                );
                self.apply_parent_entry_update(
                    txn,
                    child,
                    Some((&mut parent, slot)),
                    new_bp_bytes,
                )?;
            }
        }
        Ok(())
    }

    /// Split the (full, X-latched) node as one atomic unit of work and
    /// return the X-latched node the pending key belongs on. Ancestor
    /// latches taken by the recursion are released when the unit commits
    /// (two-phase latching within the action, §9.1).
    pub(crate) fn split_for_insert(
        &self,
        txn: TxnId,
        node_g: PageWriteGuard,
        stack: &[StackEntry],
        key: &E::Key,
    ) -> Result<PageWriteGuard> {
        let db = self.db().clone();
        let nta = db.txns().begin_nta(txn)?;
        // The split's atomic unit practices two-phase latching (§9.1):
        // the bottom-up recursion may legitimately hold a short chain of
        // ancestor latches (plus each level's fresh sibling) until the
        // unit commits, and may fault pages in while doing so.
        let _scope = gist_audit::enter_scope("split-unit", 64, true, false);
        let mut held: Vec<PageWriteGuard> = Vec::new();
        let (orig, sibling, pending_to_new) =
            self.split_rec(txn, node_g, stack, &mut held, Some(key))?;
        db.txns().end_nta(txn, nta)?;
        drop(held); // ancestor latches released as the unit commits
        if pending_to_new {
            drop(orig);
            Ok(sibling)
        } else {
            drop(sibling);
            Ok(orig)
        }
    }

    /// The rightlink a split hands from `node_g` to its new sibling
    /// `new_pid` (§3: "the new sibling inherits the old rightlink") — and
    /// logs as the original's old rightlink, so redo, undo and the
    /// in-unit compensation all agree on it. Normally the node's own. But
    /// a drained right sibling leaves its page id behind in this node's
    /// rightlink (legal: the NSN guard keeps traversals off it, and a
    /// GiST has no left links to repair it through), and the allocator
    /// may hand out exactly that page — inheriting the link as is would
    /// make the sibling point at itself. So while the link names a freed
    /// page, follow that dead tenant's own rightlink instead.
    fn inherited_rightlink(&self, node_g: &PageWriteGuard, new_pid: PageId) -> Result<PageId> {
        let pool = self.db().pool();
        let mut link = node_g.rightlink();
        // A chain of freed pages is shorter than the store.
        for _ in 0..pool.store().page_count() {
            if link.is_invalid() {
                return Ok(link);
            }
            let dead_tenant = loop {
                match pool.try_fetch_write(link)? {
                    Some(g) => break g.is_available().then(|| g.rightlink()),
                    // Ours since the allocation and still unformatted: any
                    // other holder is a reader passing through (a stale
                    // rightlink chase, a sweep), so waiting it out cannot
                    // be part of a deadlock — `new_page_write`'s argument
                    // for the same page.
                    None if link == new_pid => std::thread::yield_now(),
                    // Any other freed page may be some split's fresh
                    // sibling by now, latched until that unit ends: let it
                    // keep the link the protocol already tolerates.
                    None => break None,
                }
            };
            match dead_tenant {
                Some(next) => link = next,
                None => return Ok(link),
            }
        }
        Err(GistError::Corrupt(format!("rightlink cycle among freed pages from {}", node_g.page_id())))
    }

    /// Recursive splitting (Fig. 4 `splitNode`). Returns the original and
    /// new-sibling guards plus whether the pending key routes to the
    /// sibling. Parent guards move into `held` (kept until the atomic
    /// unit finishes).
    fn split_rec(
        &self,
        txn: TxnId,
        mut node_g: PageWriteGuard,
        stack: &[StackEntry],
        held: &mut Vec<PageWriteGuard>,
        pending: Option<&E::Key>,
    ) -> Result<(PageWriteGuard, PageWriteGuard, bool)> {
        let db = self.db().clone();
        let ext = self.ext();
        let node_id = node_g.page_id();
        let level = node_g.level();

        // Latch the parent before modifying anything (Fig. 4 order),
        // correcting for parent splits since the descent.
        let parent_loc = self.latch_parent(stack, &node_g)?;

        // Distribute the existing entries.
        let entries: Vec<(u16, Vec<u8>)> =
            node::entry_cells(&node_g).map(|(s, c)| (s, c.to_vec())).collect();
        if entries.len() < 2 {
            return Err(GistError::Corrupt(format!(
                "cannot split {node_id}: {} entries (key too large for the page?)",
                entries.len()
            )));
        }
        let preds: Vec<E::Pred> = entries
            .iter()
            .map(|(_, cell)| {
                if level == 0 {
                    ext.key_pred(&ext.decode_key(LeafEntryRef::new(cell).key_bytes()))
                } else {
                    ext.decode_pred(InternalEntryRef::new(cell).pred_bytes())
                }
            })
            .collect();
        let decision = ext.pick_split(&preds);
        assert!(
            !decision.left.is_empty() && !decision.right.is_empty(),
            "pick_split must produce two non-empty sides"
        );
        let left_preds: Vec<E::Pred> = decision.left.iter().map(|&i| preds[i].clone()).collect();
        let right_preds: Vec<E::Pred> = decision.right.iter().map(|&i| preds[i].clone()).collect();
        let orig_bp_new_p = ext.union_many(&left_preds);
        let new_bp_p = ext.union_many(&right_preds);
        let pending_to_new = match pending {
            Some(k) => ext.penalty(&new_bp_p, k) < ext.penalty(&orig_bp_new_p, k),
            None => false,
        };
        let moved: Vec<(u16, Vec<u8>)> =
            decision.right.iter().map(|&i| entries[i].clone()).collect();
        let orig_bp_old = node::bp_bytes(&node_g).to_vec();
        let orig_bp_new = self.encode_bp_opt(&Some(orig_bp_new_p.clone()));
        let new_bp = self.encode_bp_opt(&Some(new_bp_p.clone()));

        // Anchor for in-unit compensation: a failure below, after pages
        // have been mutated, reverts under the still-held latches and
        // logs CLRs whose undo_next resumes here — the unit becomes a
        // no-op on every rollback path without anyone observing the
        // intermediate state.
        let level_start = db.txns().last_lsn(txn).ok_or(GistError::Txn(gist_txn::TxnError::NotActive(txn)))?;

        // Allocate and format the sibling (Get-Page, inside the unit).
        // The rightlink it will inherit is settled first: healing reads
        // the allocated page's previous image, which formatting erases.
        let new_pid = db.alloc().allocate();
        let orig_rightlink_old = self.inherited_rightlink(&node_g, new_pid)?;
        let get_rec = GistRecord::GetPage { page: new_pid.0, level, bp: new_bp.clone() };
        let mut new_g = db.pool().new_page_write(new_pid, level)?;
        db.log_apply(txn, &get_rec, &mut [&mut new_g])?;

        // The Split record, applied to both latched pages. In WalLsn mode
        // the record's own LSN becomes the new NSN; since the LSN is
        // unknown before the append, the record carries the zero sentinel
        // and applying it resolves it to its LSN. The dedicated counter
        // is drawn (and logged explicitly) before the append.
        let orig_nsn_new = match db.config().nsn_source {
            crate::db::NsnSource::WalLsn => 0,
            crate::db::NsnSource::DedicatedCounter => db.split_nsn(gist_wal::Lsn::NULL),
        };
        let split = GistRecord::Split {
            orig: node_id.0,
            new: new_pid.0,
            level,
            moved,
            orig_bp_old,
            orig_bp_new: orig_bp_new.clone(),
            new_bp: new_bp.clone(),
            orig_nsn_old: node_g.nsn(),
            orig_nsn_new,
            orig_rightlink_old: orig_rightlink_old.0,
            pending_to_new,
        };
        db.log_apply(txn, &split, &mut [&mut node_g, &mut new_g])?;

        // Everything from here to the end of the unit runs with `node_g`
        // and `new_g` (and any parent guards) still latched, so a failure
        // can be reverted in place before any other operation can observe
        // the intermediate state. The immediately-invoked closure makes
        // every early `?` land in the revert arm below.
        let finish = (|| -> Result<()> {
            gist_chaos::point("insert.split.after_sibling_write")?;

            // Replicate predicate attachments consistent with the
            // sibling's BP (§4.3) and the signaling locks (§10.3).
            self.db().preds().replicate(
                self.node_key(node_id),
                self.node_key(new_pid),
                &|kind, bytes| match kind {
                    PredKind::Scan => ext.query_bytes_consistent_pred(bytes, &new_bp_p),
                    PredKind::Insert => ext.key_bytes_within_pred(bytes, &new_bp_p),
                },
            );
            db.locks().replicate_shared(
                LockName::Node { index: self.id(), page: node_id },
                LockName::Node { index: self.id(), page: new_pid },
            );

            // Install the parent entries.
            gist_chaos::point("insert.split.before_parent_install")?;
            match parent_loc {
                ParentLoc::IsRoot => {
                    // Root split: allocate a new root holding entries for
                    // both halves and swing the catalog pointer — all inside
                    // the same atomic unit.
                    let install_start = db.txns().last_lsn(txn).ok_or(GistError::Txn(gist_txn::TxnError::NotActive(txn)))?;
                    let root_pid = db.alloc().allocate();
                    let root_bp =
                        self.encode_bp_opt(&Some(ext.union_preds(&orig_bp_new_p, &new_bp_p)));
                    let mut root_g = db.pool().new_page_write(root_pid, level + 1)?;
                    let mut installed = vec![GistRecord::GetPage {
                        page: root_pid.0,
                        level: level + 1,
                        bp: root_bp,
                    }];
                    db.log_apply(txn, &installed[0], &mut [&mut root_g])?;
                    for (child, bp) in [(node_id, &orig_bp_new), (new_pid, &new_bp)] {
                        let rec = GistRecord::InternalEntryAdd {
                            page: root_pid.0,
                            slot: root_g.next_insert_slot(),
                            cell: InternalEntry::new(child, bp.clone()).encode(),
                        };
                        db.log_apply(txn, &rec, &mut [&mut root_g])?;
                        installed.push(rec);
                    }
                    // The catalog swing below is the commit point of the
                    // root split, so the crash point sits just before it:
                    // an injected failure reverts the fresh root while it
                    // is still unreachable.
                    if let Err(e) = gist_chaos::point("insert.split.after_parent_install") {
                        for rec in installed.iter().rev() {
                            db.compensate(txn, install_start, rec, &mut [&mut root_g])?;
                        }
                        drop(root_g);
                        db.alloc().free(root_pid);
                        return Err(e.into());
                    }
                    db.set_root(txn, self.catalog_slot(), root_pid)?;
                    held.push(root_g);
                }
                ParentLoc::Found(parent_g, mut entry_slot) => {
                    let mut parent_g = parent_g;
                    let new_entry = InternalEntry::new(new_pid, new_bp.clone()).encode();
                    // The parent may itself be full: split it recursively,
                    // then continue on whichever half holds our entry. A
                    // failed recursion has already reverted its own level.
                    while !node::has_room(&parent_g, new_entry.len()) {
                        let upper =
                            if stack.is_empty() { &[] } else { &stack[..stack.len() - 1] };
                        let (p_orig, p_new, _) = self.split_rec(txn, parent_g, upper, held, None)?;
                        if node::find_child_entry(&p_orig, node_id).is_some() {
                            parent_g = p_orig;
                            held.push(p_new);
                        } else {
                            parent_g = p_new;
                            held.push(p_orig);
                        }
                        entry_slot = node::find_child_entry(&parent_g, node_id)
                            .unwrap_or_else(|| unreachable!("entry present after parent split"));
                    }
                    let install_start = db.txns().last_lsn(txn).ok_or(GistError::Txn(gist_txn::TxnError::NotActive(txn)))?;
                    // Update the original node's entry to its shrunk BP,
                    // then add the sibling's entry.
                    let page = parent_g.page_id().0;
                    let upd = GistRecord::InternalEntryUpdate {
                        page,
                        slot: entry_slot,
                        new_cell: InternalEntry::new(node_id, orig_bp_new.clone()).encode(),
                        old_cell: parent_g
                            .cell(entry_slot)
                            .unwrap_or_else(|| unreachable!("parent entry present"))
                            .to_vec(),
                    };
                    db.log_apply(txn, &upd, &mut [&mut parent_g])?;
                    let add = GistRecord::InternalEntryAdd {
                        page,
                        slot: parent_g.next_insert_slot(),
                        cell: new_entry,
                    };
                    db.log_apply(txn, &add, &mut [&mut parent_g])?;
                    if let Err(e) = gist_chaos::point("insert.split.after_parent_install") {
                        // Revert both installs under the parent latch.
                        for rec in [&add, &upd] {
                            db.compensate(txn, install_start, rec, &mut [&mut parent_g])?;
                        }
                        return Err(e.into());
                    }
                    held.push(parent_g);
                }
            }
            Ok(())
        })();

        match finish {
            Ok(()) => Ok((node_g, new_g, pending_to_new)),
            Err(e) => {
                // Revert this level's split in place: move the entries
                // back, restore the BP/NSN/rightlink, and return the
                // sibling to the free pool — all before the latches drop,
                // so no concurrent operation ever saw the failed split.
                // The CLRs re-apply the revert at restart and make every
                // rollback skip straight past the unit's records.
                db.compensate(txn, level_start, &split, &mut [&mut node_g, &mut new_g])?;
                db.compensate(txn, level_start, &get_rec, &mut [&mut new_g])?;
                drop(new_g);
                // The sibling's replicated predicate table must not leak
                // onto the page's next tenant (the signaling-lock copies
                // evaporate with their owners).
                db.preds().purge_node(self.node_key(new_pid));
                db.alloc().free(new_pid);
                Err(e)
            }
        }
    }
}
