//! The tree operations: search (Fig. 3), insertion (Fig. 4), deletion,
//! garbage collection, node deletion, unique insertion.
//!
//! The Fig. 3 traversal itself — run by search, cursors and the delete
//! descent — is [`walk`]. Other shared machinery lives here: descent stack entries, memorized-counter
//! reads (§10.1), parent latching with rightlink correction, signaling
//! locks (§7.2), and the Parent-Entry-Update unit of work.

pub mod cursor;
pub mod delete;
mod insert;
mod walk;

use gist_lockmgr::{LockMode, LockName};
use gist_pagestore::{PageId, PageWriteGuard, SlotId};
use gist_wal::TxnId;

use crate::db::NsnSource;
use crate::ext::GistExtension;
use crate::logrec::GistRecord;
use crate::node;
use crate::tree::GistIndex;
use crate::{GistError, Result};

/// One ancestor recorded during descent (Fig. 4's
/// `push(stack, [p, NSN(p)])`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StackEntry {
    /// The ancestor node.
    pub page: PageId,
    /// Its NSN when we visited it — "if NSN(parent) changed since first
    /// visited", the parent has split and the child's entry may have
    /// moved to a right sibling. Kept for protocol fidelity and used by
    /// diagnostics; `latch_parent` detects the same condition directly by
    /// probing for the child's entry and walking rightlinks.
    #[allow(dead_code)]
    pub nsn_at_visit: u64,
}

/// Where a node's parent entry was found.
pub(crate) enum ParentLoc {
    /// The node is the current root: no parent entry exists.
    IsRoot,
    /// Parent latched in X mode; the child's entry is at `slot`.
    Found(PageWriteGuard, SlotId),
}

impl<E: GistExtension> GistIndex<E> {
    /// The value a descending operation memorizes before following a
    /// child pointer (§10.1): the tree-global counter, or — with the
    /// LSN-based optimization — the parent page's LSN, sparing the
    /// high-frequency counter. `parent` is `None` at the root pointer.
    pub(crate) fn read_mem(&self, parent: Option<&gist_pagestore::Page>) -> u64 {
        let cfg = self.db().config();
        match (parent, cfg.nsn_source, cfg.memorize_parent_lsn) {
            (Some(p), NsnSource::WalLsn, true) => p.page_lsn().0,
            _ => self.db().global_nsn(),
        }
    }

    /// Acquire the §7.2 signaling lock on a node. Must be called while
    /// the latch of the node's *parent* (or left sibling for rightlink
    /// targets, or nothing for the root) is held, so that node deletion's
    /// parent-latch-first discipline observes it. S mode: never blocks
    /// meaningfully (deleters only `try_lock` X).
    pub(crate) fn signal_lock(&self, txn: TxnId, page: PageId) -> Result<()> {
        self.db()
            .locks()
            .lock(txn, LockName::Node { index: self.id(), page }, LockMode::S)?;
        Ok(())
    }

    /// Release a signaling lock after visiting the node — unless a
    /// savepoint pinned it (§10.2).
    pub(crate) fn signal_unlock(&self, txn: TxnId, page: PageId) {
        let name = LockName::Node { index: self.id(), page };
        if !self.db().txns().is_pinned(txn, name) {
            self.db().locks().unlock(txn, name);
        }
    }

    /// The §6 conflict test as a scan hands it to the predicate manager:
    /// `conflict(scan_query_bytes, insert_key_bytes)`. The manager always
    /// passes the attaching scan's own bytes first, so the already
    /// decoded `query` stands in for them — one decode per scan instead
    /// of one per insert predicate checked.
    pub(crate) fn scan_conflict_fn<'a>(
        &'a self,
        query: &'a E::Query,
    ) -> impl Fn(&[u8], &[u8]) -> bool + 'a {
        move |_own_query_bytes, key_bytes| self.ext().consistent_key_bytes(key_bytes, query)
    }

    /// The same test from the inserting side (`check_insert`): the key is
    /// fixed and already decoded; each attached scan's query is decoded
    /// once.
    pub(crate) fn insert_conflict_fn<'a>(
        &'a self,
        key: &'a E::Key,
    ) -> impl Fn(&[u8], &[u8]) -> bool + 'a {
        move |query_bytes, _own_key_bytes| {
            self.ext().consistent_key(key, &self.ext().decode_query(query_bytes))
        }
    }

    /// Latch (X) the node holding the parent entry of `child`, starting
    /// from the stacked ancestor and walking rightlinks ("if a parent
    /// node does not contain the child's pointer anymore, it must have
    /// been split and the search for the child's pointer is continued in
    /// the right sibling", §6). With an empty stack, the child was the
    /// root at descent time; if it has since been demoted by a root
    /// split, its parent is found by sweeping the level above it from
    /// the current root.
    pub(crate) fn latch_parent(
        &self,
        stack: &[StackEntry],
        child: &PageWriteGuard,
    ) -> Result<ParentLoc> {
        let child_id = child.page_id();
        // Blessed two-latch window (§5): the child is held while its
        // parent is latched (and possibly faulted in) one level up.
        let _scope = gist_audit::enter_scope_rel("parent-child:latch-parent", 1);
        if let Some(top) = stack.last() {
            let mut pid = top.page;
            loop {
                let g = self.db().pool().fetch_write(pid)?;
                if let Some(slot) = node::find_child_entry(&g, child_id) {
                    return Ok(ParentLoc::Found(g, slot));
                }
                let next = g.rightlink();
                drop(g);
                if next.is_invalid() {
                    return Err(GistError::Corrupt(format!(
                        "parent entry for {child_id} not found in chain from {}",
                        top.page
                    )));
                }
                pid = next;
            }
        }
        // No stacked parent: the child was the root when we descended.
        if self.root()? == child_id {
            return Ok(ParentLoc::IsRoot);
        }
        // Demoted by a concurrent root split: sweep the level above.
        self.find_parent_by_sweep(child_id, child.level())
    }

    /// Exhaustively search level `child_level + 1` for the entry pointing
    /// at `child_id` (rare path: only after a concurrent root split).
    fn find_parent_by_sweep(&self, child_id: PageId, child_level: u16) -> Result<ParentLoc> {
        // Part of the latch-parent window: the caller's child latch stays
        // held while one sweep latch at a time probes the level above.
        let _scope = gist_audit::enter_scope_rel("parent-child:sweep", 1);
        loop {
            let root = self.root()?;
            let mut level_nodes = vec![root];
            // Descend to the level above the child, collecting every node
            // of that level reachable through entries and rightlinks.
            let mut current = level_nodes.clone();
            loop {
                let g = self.db().pool().fetch_read(current[0])?;
                let level = g.level();
                drop(g);
                if level == child_level + 1 {
                    level_nodes = current;
                    break;
                }
                if level <= child_level {
                    return Err(GistError::Corrupt(format!(
                        "no level {} above child {child_id}",
                        child_level + 1
                    )));
                }
                let mut next = Vec::new();
                let mut queue = current.clone();
                let mut seen = std::collections::HashSet::new();
                while let Some(pid) = queue.pop() {
                    if pid.is_invalid() || !seen.insert(pid) {
                        continue;
                    }
                    let g = self.db().pool().fetch_read(pid)?;
                    queue.push(g.rightlink());
                    next.extend(node::internal_views(&g).map(|(_, e)| e.child()));
                }
                current = next;
            }
            let mut seen = std::collections::HashSet::new();
            let mut queue = level_nodes;
            while let Some(pid) = queue.pop() {
                if pid.is_invalid() || !seen.insert(pid) {
                    continue;
                }
                let g = self.db().pool().fetch_write(pid)?;
                if let Some(slot) = node::find_child_entry(&g, child_id) {
                    return Ok(ParentLoc::Found(g, slot));
                }
                queue.push(g.rightlink());
                drop(g);
            }
            // The entry is being moved by an in-flight split; retry.
            std::thread::yield_now();
        }
    }

    /// The child with the smallest insertion penalty on an internal node
    /// (first wins on ties), tested against the predicates in place.
    pub(crate) fn min_penalty_child(
        &self,
        page: &gist_pagestore::Page,
        key: &E::Key,
    ) -> Result<PageId> {
        let mut best: Option<(f64, PageId)> = None;
        for (_, entry) in node::internal_views(page) {
            let pen = self.ext().penalty_bytes(entry.pred_bytes(), key);
            match best {
                Some((b, _)) if b <= pen => {}
                _ => best = Some((pen, entry.child())),
            }
        }
        best.map(|(_, child)| child).ok_or_else(|| {
            GistError::Corrupt(format!("internal node {} has no entries", page.page_id()))
        })
    }

    /// Log and apply a `Parent-Entry-Update` (§9.1 structure
    /// modification (2)): sets the child's slot-0 BP and, when the child
    /// is not the root, the predicate in the parent's entry. Both pages
    /// are already X-latched by the caller. The unit is one redo-only
    /// record, so it needs no nested top action (DESIGN §7 item 11).
    pub(crate) fn apply_parent_entry_update(
        &self,
        txn: TxnId,
        child: &mut PageWriteGuard,
        parent: Option<(&mut PageWriteGuard, SlotId)>,
        new_bp_bytes: Vec<u8>,
    ) -> Result<()> {
        let (parent_page, parent_slot) = match &parent {
            Some((g, slot)) => (g.page_id().0, *slot),
            None => (u32::MAX, 0),
        };
        let rec = GistRecord::ParentEntryUpdate {
            child: child.page_id().0,
            parent: parent_page,
            parent_slot,
            new_bp: new_bp_bytes,
        };
        match parent {
            Some((pg, _)) => self.db().log_apply(txn, &rec, &mut [child, pg])?,
            None => self.db().log_apply(txn, &rec, &mut [child])?,
        };
        Ok(())
    }
}
