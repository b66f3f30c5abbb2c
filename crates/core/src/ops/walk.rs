//! Fig. 3, once: the NSN/rightlink traversal that `search`, [`Cursor`]
//! and the delete descent all run.
//!
//! [`Walk`] keeps a stack of `(page, memorized counter, parent)`
//! pointers. [`Walk::next_leaf`] is the only loop that pops it: it
//! attaches the scan predicate to the node (hybrid Degree 3, §4.3) and
//! waits — with nothing held — behind conflicting insert predicates ahead
//! of it in the node's FIFO list (§10.3); reads the node; detects a
//! missed split by `NSN > memorized` and pushes the rightlink with the
//! *original* memorized value, which ends the chase at the first node
//! with `NSN ≤ memorized` (§3); expands the children whose predicates
//! are consistent with the query; and hands each leaf to its caller.
//! [`Walk::collect`] is Fig. 3's leaf step (qualifying entries →
//! `try_lock` → validate → deliver; block with nothing held, then
//! revisit, the re-push keeping the memorized counter that guides any
//! rightlink chase the wait made necessary, §5; footnote 9's duplicate
//! suppression is the `seen` set of *data* RIDs).
//! [`Walk::relatch_write`] is the delete descent's leaf step.
//!
//! How a node is read is the walk's [`Access`], chosen from what the code
//! can observe and never from configuration:
//!
//! * **Latched** — an S latch held from the read until the leaf's
//!   candidates are locked (never across a wait or an I/O of another
//!   node), and a §7.2 signaling lock on every stacked pointer, taken
//!   under the parent's latch. Whatever keeps its stack across calls
//!   (`Cursor`, the unique-insert probe) and the delete descent walk
//!   this way.
//! * **Optimistic** — `BufferPool::fetch_optimistic`: no latch, no frame
//!   pin, no signaling locks. A node is copied under a seqlock version
//!   check (an uncached one is loaded into the pool first); record locks
//!   are `try_lock`ed only after the copy, and the copy is re-validated
//!   with the locks held, so a lock is never trusted for an entry that
//!   changed mid-read. One epoch pin covers one uninterrupted stretch of
//!   the traversal (§7.2 page frees defer until every pin drains, so a
//!   stacked pointer is never re-typed under the reader). A wait drops
//!   the pin, and with it every guarantee about the stacked pointers: a
//!   stacked page may be drained *and reallocated* before the wait ends,
//!   and on a recycled page the NSN check proves nothing. So after a
//!   wait the walk clears its stack and starts again at the root under
//!   a fresh pin, keeping its predicate, `seen` and `attached`. One-shot
//!   `GistIndex::search` starts here.
//!
//! A page that leaves the pool under an optimistic reader reads as a
//! moved copy and is re-read. When a node keeps moving past the retry
//! budget, the *same* walk flips to Latched and restarts from the root,
//! keeping its predicate, `seen`, `attached` and whatever it already
//! delivered.
//!
//! [`Cursor`]: super::cursor::Cursor

use std::borrow::Borrow;
use std::sync::Arc;

use gist_lockmgr::{LockMode, LockName};
use gist_pagestore::{
    FrameData, OptimisticReadGuard, PageId, PageReadGuard, PageWriteGuard, Rid, SlotId,
};
use gist_predlock::{PredId, PredKind, GLOBAL_NODE};
use gist_wal::TxnId;

use crate::db::{IsolationLevel, PredicateMode};
use crate::entry::{InternalEntryRef, LeafEntryRef};
use crate::ext::GistExtension;
use crate::node;
use crate::scratch::{InlineSet, InlineVec};
use crate::tree::GistIndex;
use crate::{GistError, Result};

/// One stacked pointer: the node, the counter value memorized before the
/// pointer was followed, and the page the pointer was read from (a
/// sibling reached by rightlink shares its predecessor's parent).
type Pointer = (PageId, u64, Option<PageId>);
/// A point lookup stacks one pointer per level; eight inline slots cover
/// it.
type NodeStack = InlineVec<Pointer, 8>;
/// Data RIDs already delivered or skipped (footnote 9).
type RidSet = InlineSet<Rid, 8>;
/// Nodes the walk has attached its predicate to.
type PageSet = InlineSet<PageId, 8>;

/// Re-reads of one node the optimistic access spends before the walk
/// flips to Latched. Small on purpose: a node that keeps moving is under
/// write pressure, and latches queue fairly instead of spinning.
const MAX_OPT_RETRIES: u32 = 4;

/// How the walk reads nodes (module docs).
pub(crate) enum Access {
    Latched,
    Optimistic {
        /// `None` only while the walk waits.
        pin: Option<gist_epoch::Guard>,
        /// Nodes served by a validated copy, not yet added to the
        /// database's counter.
        hits: u64,
        /// Consecutive re-reads of the node being visited.
        retries: u32,
    },
}

impl Access {
    pub(crate) fn optimistic() -> Access {
        Access::Optimistic { pin: None, hits: 0, retries: 0 }
    }
}

/// One node as the walk's access reads it.
enum NodeRead {
    Latched(PageReadGuard),
    Optimistic(OptimisticReadGuard),
}

impl NodeRead {
    /// Run `f` over the page image and its summary; `None` when an
    /// optimistic copy could not be taken consistently.
    fn read_with<T>(&self, f: impl FnOnce(&FrameData) -> T) -> Option<T> {
        match self {
            NodeRead::Latched(g) => Some(f(g.frame_data())),
            NodeRead::Optimistic(og) => og.read_frame_with(f),
        }
    }

    /// Whether everything read through this handle is still current.
    fn validate(&self) -> bool {
        match self {
            NodeRead::Latched(_) => true,
            NodeRead::Optimistic(og) => og.validate(),
        }
    }
}

/// A leaf the walk has reached and not yet processed.
pub(crate) struct Leaf {
    pub(crate) page: PageId,
    /// The page the pointer to this leaf was read from.
    pub(crate) parent: Option<PageId>,
    mem: u64,
    node: NodeRead,
}

/// The part of a walk a savepoint records (§10.2: "the then-current
/// stack"), plus its progress.
#[derive(Debug, Clone)]
pub(crate) struct Position {
    stack: NodeStack,
    seen: RidSet,
    attached: PageSet,
}

/// One Fig. 3 traversal (module docs).
pub(crate) struct Walk<E: GistExtension, Q: Borrow<E::Query>> {
    index: Arc<GistIndex<E>>,
    txn: TxnId,
    query: Q,
    /// The query's interval in the extension's order, if it has one.
    order: Option<[u64; 2]>,
    /// Scan predicate handle (Degree 3 scans only).
    pred: Option<PredId>,
    /// Attach `pred` to every visited node (hybrid mode).
    per_node: bool,
    /// S-lock the data RIDs of qualifying entries (hybrid, Degree ≥ 2).
    record_locks: bool,
    /// Degree 2: cursor stability only — no lock outlives its read.
    degree2: bool,
    access: Access,
    at: Position,
}

/// The entries of the node in `frame` that a scan whose query interval
/// is `order` tests, in slot order: those whose interval in the node's
/// summary meets `order` (the summary is built on first use), or every
/// entry when the extension keeps no order. `consistent_*_bytes` still
/// decides each one.
fn scan_cells<'a, E: GistExtension>(
    ext: &E,
    frame: &'a FrameData,
    order: Option<[u64; 2]>,
) -> impl Iterator<Item = (SlotId, &'a [u8])> {
    let summarize = |p: &_| node::summarize(p, |bytes, leaf| ext.entry_order(bytes, leaf));
    node::scan_cells(&frame.page, order.map(|window| (window, frame.summary(summarize))))
}

/// `(rid, key, delete-marked)` of the entries on `leaf` that satisfy
/// `query` and are not in `seen`. Entries are tested in place; only the
/// keys of qualifying entries are decoded.
fn leaf_candidates<E: GistExtension>(
    ext: &E,
    leaf: &FrameData,
    query: &E::Query,
    order: Option<[u64; 2]>,
    seen: &RidSet,
) -> Vec<(Rid, E::Key, bool)> {
    let mut candidates = Vec::new();
    for (_, cell) in scan_cells(ext, leaf, order) {
        let e = LeafEntryRef::new(cell);
        if ext.consistent_key_bytes(e.key_bytes(), query) && !seen.contains(&e.rid()) {
            candidates.push((e.rid(), ext.decode_key(e.key_bytes()), e.deleted()));
        }
    }
    candidates
}

impl<E: GistExtension, Q: Borrow<E::Query>> Walk<E, Q> {
    /// Start a traversal at the root. A `scan` (search, cursor, the
    /// unique-insert probe) registers its predicate at Degree 3 and, in
    /// pure predicate mode (§4.2), verifies it against the tree-global
    /// list before any traversal; the delete descent (§7: "equivalent to
    /// a search operation with an equality predicate") registers none —
    /// the deleter holds the record's X lock instead.
    pub(crate) fn new(
        index: Arc<GistIndex<E>>,
        txn: TxnId,
        query: Q,
        access: Access,
        scan: bool,
    ) -> Result<Self> {
        let db = index.db();
        let cfg = db.config();
        let hybrid = cfg.predicate_mode == PredicateMode::Hybrid;
        let mut pred = None;
        if scan && cfg.isolation == IsolationLevel::RepeatableRead {
            let mut qb = Vec::new();
            index.ext().encode_query(query.borrow(), &mut qb);
            let p = db.preds().register(txn, PredKind::Scan, qb);
            pred = Some(p);
            if !hybrid {
                let conflict = index.scan_conflict_fn(query.borrow());
                for owner in db.preds().attach_scan_and_check(p, GLOBAL_NODE, &conflict) {
                    db.txns().wait_for_txn(txn, owner).map_err(GistError::Lock)?;
                }
            }
        }
        if scan {
            // An injected fault here strands the registered scan
            // predicate on the transaction; abort's release path must
            // reclaim it.
            gist_chaos::point("cursor.after_register")?;
        }
        let mut walk = Walk {
            txn,
            order: index.ext().query_order(query.borrow()),
            query,
            pred,
            per_node: hybrid,
            record_locks: hybrid && cfg.isolation != IsolationLevel::Latching,
            degree2: cfg.isolation == IsolationLevel::ReadCommitted,
            access,
            at: Position { stack: NodeStack::new(), seen: RidSet::new(), attached: PageSet::new() },
            index,
        };
        walk.start()?;
        Ok(walk)
    }

    /// Point the (empty) stack at the root.
    fn start(&mut self) -> Result<()> {
        let db = self.index.db();
        if let Access::Optimistic { pin, .. } = &mut self.access {
            *pin = Some(db.epoch().pin());
            // Chaos: the traversal holds its epoch pin here. A Delay
            // models a slow reader (page frees retired meanwhile wait in
            // the bin; nothing else waits on it); an Error/Panic dies
            // pinned and must release via RAII.
            gist_chaos::point("cursor.optimistic.pinned")?;
        }
        let mem = db.global_nsn();
        let root = self.index.root()?;
        if matches!(self.access, Access::Latched) {
            self.index.signal_lock(self.txn, root)?;
        }
        self.at.stack.push((root, mem, None));
        Ok(())
    }

    /// Visit nodes until a leaf is reached; `None` once the stack is
    /// exhausted.
    pub(crate) fn next_leaf(&mut self) -> Result<Option<Leaf>> {
        while let Some((pid, mem, parent)) = self.at.stack.pop() {
            if pid.is_invalid() {
                continue;
            }
            let db = self.index.db();
            // Hybrid Degree 3: attach before reading. A copy or a latched
            // read is only trusted if no conflicting insert predicate was
            // ahead of us; an insert that lands after the attach checks
            // the node's list and finds us.
            let unattached = self.per_node && !self.at.attached.contains(&pid);
            if let Some(pred) = self.pred.filter(|_| unattached) {
                let owners = db.preds().attach_scan_and_check(
                    pred,
                    self.index.node_key(pid),
                    &self.index.scan_conflict_fn(self.query.borrow()),
                );
                self.at.attached.insert(pid);
                if !owners.is_empty() {
                    self.at.stack.push((pid, mem, parent));
                    let txn = self.txn;
                    self.unpinned(|db| {
                        owners.into_iter().try_for_each(|o| db.txns().wait_for_txn(txn, o))
                    })?;
                    continue;
                }
            }
            let node = match self.access {
                Access::Latched => NodeRead::Latched(db.pool().fetch_read(pid)?),
                Access::Optimistic { .. } => NodeRead::Optimistic(db.pool().fetch_optimistic(pid)?),
            };
            let expanded = node.read_with(|frame| {
                let p = &frame.page;
                (!p.is_leaf()).then(|| {
                    let child_mem = self.index.read_mem(Some(p));
                    let mut children = NodeStack::new();
                    let ext = self.index.ext();
                    for (_, cell) in scan_cells(ext, frame, self.order) {
                        let e = InternalEntryRef::new(cell);
                        if ext.consistent_pred_bytes(e.pred_bytes(), self.query.borrow()) {
                            children.push((e.child(), child_mem, Some(pid)));
                        }
                    }
                    ((p.nsn() > mem).then(|| p.rightlink()), children)
                })
            });
            match expanded {
                None => {
                    drop(node);
                    self.reread((pid, mem, parent))?;
                }
                Some(None) => return Ok(Some(Leaf { page: pid, parent, mem, node })),
                Some(Some((split, children))) => {
                    // Split detection (§3): the rightlink inherits the
                    // memorized value. Its signaling lock was replicated
                    // to it by the split (§10.3).
                    if let Some(rightlink) = split {
                        self.at.stack.push((rightlink, mem, parent));
                    }
                    if matches!(self.access, Access::Latched) {
                        // Signaling locks on the children, taken under the
                        // parent's latch — the discipline node deletion
                        // relies on (§7.2).
                        for (child, _, _) in children.iter() {
                            self.index.signal_lock(self.txn, child)?;
                        }
                    }
                    self.at.stack.extend(children.iter());
                    drop(node);
                    self.visited(pid);
                }
            }
        }
        Ok(None)
    }

    /// Fig. 3's leaf step: deliver the qualifying entries of `leaf` into
    /// `out`, or arrange for the leaf to be visited again.
    pub(crate) fn collect(
        &mut self,
        leaf: Leaf,
        out: &mut impl Extend<(E::Key, Rid)>,
    ) -> Result<()> {
        let Leaf { page: pid, parent, mem, node } = leaf;
        let db = self.index.db();
        let copy = node.read_with(|frame| {
            let ext = self.index.ext();
            let candidates =
                leaf_candidates(ext, frame, self.query.borrow(), self.order, &self.at.seen);
            let p = &frame.page;
            ((p.nsn() > mem).then(|| p.rightlink()), candidates)
        });
        let Some((split, candidates)) = copy else {
            drop(node);
            return self.reread((pid, mem, parent));
        };
        // Lock, then validate: a lock taken against a stale copy proves
        // nothing about the entry.
        let mut locked: InlineVec<Rid, 8> = InlineVec::new();
        let mut blocker = None;
        if self.record_locks {
            for (rid, _, _) in &candidates {
                if db.locks().try_lock(self.txn, LockName::Rid(*rid), LockMode::S) {
                    locked.push(*rid);
                } else {
                    blocker = Some(*rid);
                    break;
                }
            }
        }
        let current = node.validate();
        drop(node);
        if blocker.is_some() || !current {
            // Degree 3 keeps what it locked — extra S locks are 2PL-legal
            // and regrant instantly on the revisit; Degree 2 retains
            // nothing.
            if self.degree2 {
                for rid in locked.iter() {
                    db.locks().unlock(self.txn, LockName::Rid(rid));
                }
            }
            let Some(rid) = blocker else {
                return self.reread((pid, mem, parent));
            };
            // Block with nothing held (§5), then revisit the node.
            self.at.stack.push((pid, mem, parent));
            let txn = self.txn;
            self.unpinned(|db| db.locks().lock(txn, LockName::Rid(rid), LockMode::S))?;
            if self.degree2 {
                self.index.db().locks().unlock(txn, LockName::Rid(rid));
            }
            return Ok(());
        }
        if let Some(rightlink) = split {
            self.at.stack.push((rightlink, mem, parent));
        }
        for (rid, key, deleted) in candidates {
            // With its lock held an entry's fate is decided: a mark that
            // survives its transaction is a committed delete (aborts
            // unmark before releasing locks). Without record locks
            // (latching / pure-predicate modes) marked entries are
            // skipped all the same.
            self.at.seen.insert(rid);
            if !deleted {
                out.extend(Some((key, rid)));
            }
            if self.record_locks && self.degree2 {
                db.locks().unlock(self.txn, LockName::Rid(rid));
            }
        }
        self.visited(pid);
        Ok(())
    }

    /// The delete descent's leaf step: trade the S latch for an X latch.
    /// A split that slipped in between the two is caught here, so the
    /// chain continuation is stacked exactly once.
    pub(crate) fn relatch_write(&mut self, leaf: Leaf) -> Result<PageWriteGuard> {
        let Leaf { page: pid, parent, mem, node } = leaf;
        drop(node);
        let w = self.index.db().pool().fetch_write(pid)?;
        if w.nsn() > mem {
            self.at.stack.push((w.rightlink(), mem, parent));
        }
        Ok(w)
    }

    /// Done with `pid`: release its signaling lock (unless a savepoint
    /// pinned it), or count the validated copy.
    pub(crate) fn visited(&mut self, pid: PageId) {
        match &mut self.access {
            Access::Latched => self.index.signal_unlock(self.txn, pid),
            Access::Optimistic { hits, retries, .. } => {
                *hits += 1;
                *retries = 0;
            }
        }
    }

    /// The walk is over: release the signaling locks of pointers it
    /// never followed and hand in the hit count.
    pub(crate) fn finish(mut self) {
        match self.access {
            Access::Latched => {
                while let Some((pid, _, _)) = self.at.stack.pop() {
                    if !pid.is_invalid() {
                        self.index.signal_unlock(self.txn, pid);
                    }
                }
            }
            Access::Optimistic { hits, .. } => self.index.db().note_opt_hits(hits),
        }
    }

    /// An optimistic copy of `ptr`'s node did not validate (a writer
    /// moved it, or its frame was evicted): read it again, or — past the
    /// retry budget — flip to Latched and restart from the root. The
    /// stack is simply dropped (no signaling locks protect optimistic
    /// pointers); the predicate, `seen`, `attached` and the rows already
    /// delivered stay.
    fn reread(&mut self, ptr: Pointer) -> Result<()> {
        let Access::Optimistic { hits, retries, .. } = &mut self.access else {
            unreachable!("a latched read always validates")
        };
        let db = self.index.db();
        db.note_opt_retry();
        *retries += 1;
        if *retries <= MAX_OPT_RETRIES {
            self.at.stack.push(ptr);
            return Ok(());
        }
        db.note_opt_hits(*hits);
        db.note_opt_fallback();
        self.access = Access::Latched;
        self.at.stack = NodeStack::new();
        self.start()
    }

    /// Run a blocking `wait` with nothing held: never block while
    /// pinned, a stalled reader would stall reclamation for everyone.
    /// Unpinned, no stacked optimistic pointer is protected any more —
    /// its page may be freed and reused meanwhile — so an optimistic walk
    /// drops its stack and re-pins at the root (module docs). A latched
    /// walk's stack is covered by its signaling locks and stays.
    fn unpinned(
        &mut self,
        wait: impl FnOnce(&crate::Db) -> std::result::Result<(), gist_lockmgr::LockError>,
    ) -> Result<()> {
        let Access::Optimistic { pin, .. } = &mut self.access else {
            return wait(self.index.db()).map_err(GistError::Lock);
        };
        *pin = None;
        wait(self.index.db()).map_err(GistError::Lock)?;
        self.at.stack = NodeStack::new();
        self.start()
    }

    pub(crate) fn db(&self) -> &Arc<crate::Db> {
        self.index.db()
    }

    pub(crate) fn txn(&self) -> TxnId {
        self.txn
    }

    /// The scan-predicate handle (None below Degree 3).
    pub(crate) fn pred_id(&self) -> Option<PredId> {
        self.pred
    }

    /// Capture the position for a savepoint (§10.2).
    pub(crate) fn position(&self) -> Position {
        self.at.clone()
    }

    /// Return to a captured position after partial rollback.
    pub(crate) fn set_position(&mut self, at: Position) {
        self.at = at;
    }
}
