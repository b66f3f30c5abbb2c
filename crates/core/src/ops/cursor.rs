//! Search (Fig. 3) in two traversal modes: a **latched incremental
//! cursor** and an **optimistic latch-free fast path** for one-shot
//! drains ([`GistIndex::search`]).
//!
//! *Latched cursor* ([`Cursor`]) — always used by incremental scans, and
//! the fallback for the fast path: keeps a stack of `(page pointer,
//! memorized counter)` pairs, latches one node at a time (never across
//! I/Os), detects splits by comparing the memorized value with the
//! node's NSN — pushing the rightlink with the *original* memorized
//! value when the node has split — attaches its predicate to every
//! visited node (top-down), and S-locks the RIDs of qualifying entries.
//! Blocking (on a record lock or on insert predicates ahead in a leaf's
//! FIFO list) never happens while a latch is held: the node is
//! re-pushed, the latch dropped, the wait performed, and the node
//! re-processed — "since the latched leaf can be split in the meantime,
//! we might have to traverse rightlinks, guided by the node's original
//! NSN" (§5), which the re-push preserves. Footnote 9's duplicate
//! suppression is the `seen` set of *data* RIDs.
//!
//! *Optimistic path* (`DbConfig::optimistic_reads`, the default for
//! [`GistIndex::search`]): the same stack/NSN/rightlink logic, but each
//! node is read through `BufferPool::fetch_optimistic` — no latch, no
//! pin, no LRU traffic, and no per-node signaling locks. A cached node
//! is copied under a seqlock version check; an uncached one is read
//! straight from the store into a private copy, bypassing the pool
//! (validated against the store-write counters, so the reader adds no
//! eviction pressure and never convoys behind a loading frame's
//! latch). Qualifying entries are *copied out*; record locks
//! are `try_lock`ed only after the copy and the copy is re-validated
//! with the locks held, so a lock is never trusted for an entry that
//! changed mid-read. One epoch pin ([`gist_epoch`]) covers the whole
//! traversal: §7.2 page frees defer until every pin drains, so a
//! drained page can never be reallocated (re-typed) under the reader —
//! which is exactly the hazard the latched protocol's signaling locks
//! exist to prevent. A moved version word retries the node
//! (`MAX_OPT_RETRIES` attempts); eviction under the reader, an
//! uncachable page, or budget exhaustion falls back to a latched
//! [`Cursor`] seeded with the RIDs already delivered, preserving exact
//! result sets.
//!
//! Cursors also serve §10.2: [`Cursor::snapshot`] captures the stack (and
//! progress) when a savepoint is established; [`Cursor::restore`] brings
//! it back on partial rollback. The signaling locks protecting the
//! stacked pointers are pinned by the transaction manager at savepoint
//! time.

use std::collections::VecDeque;
use std::sync::Arc;

use gist_lockmgr::{LockMode, LockName};
use gist_pagestore::{Page, PageId, Rid, Validation};
use gist_predlock::{PredId, PredKind, GLOBAL_NODE};
use gist_wal::TxnId;

use crate::db::{IsolationLevel, PredicateMode};
use crate::ext::GistExtension;
use crate::node;
use crate::scratch::{InlineSet, InlineVec};
use crate::tree::GistIndex;
use crate::Result;

/// Traversal stack: `(node, memorized counter value)`. A point lookup
/// stacks one pointer per level; eight inline slots cover it.
type NodeStack = InlineVec<(PageId, u64), 8>;
/// Data RIDs already delivered or skipped (footnote 9).
type RidSet = InlineSet<Rid, 8>;
/// Nodes a scan has attached its predicate to.
type PageSet = InlineSet<PageId, 8>;

/// `(rid, key, delete-marked)` of the entries on `leaf` that satisfy
/// `query` and are not in `seen`. Entries are tested in place; only the
/// keys of qualifying entries are decoded.
fn leaf_candidates<E: GistExtension>(
    ext: &E,
    leaf: &Page,
    query: &E::Query,
    seen: &RidSet,
) -> Vec<(Rid, E::Key, bool)> {
    let mut candidates = Vec::new();
    for (_, e) in node::leaf_views(leaf) {
        if ext.consistent_key_bytes(e.key_bytes(), query) && !seen.contains(&e.rid()) {
            candidates.push((e.rid(), ext.decode_key(e.key_bytes()), e.deleted()));
        }
    }
    candidates
}

/// Saved cursor position (§10.2: "to record the position of a GiST
/// search operation when establishing a savepoint, it is necessary to
/// record the then-current stack").
#[derive(Debug, Clone)]
pub struct CursorSnapshot<K> {
    stack: NodeStack,
    seen: RidSet,
    attached: PageSet,
    pending: VecDeque<(K, Rid)>,
    finished: bool,
}

/// An incremental search cursor.
pub struct Cursor<E: GistExtension> {
    index: Arc<GistIndex<E>>,
    txn: TxnId,
    query: E::Query,
    /// Scan predicate handle (Degree 3 only).
    pred: Option<PredId>,
    stack: NodeStack,
    seen: RidSet,
    /// Decoded, locked results from the current leaf not yet returned.
    pending: VecDeque<(E::Key, Rid)>,
    attached: PageSet,
    finished: bool,
}

impl<E: GistExtension> Cursor<E> {
    pub(crate) fn new(index: Arc<GistIndex<E>>, txn: TxnId, query: E::Query) -> Result<Self> {
        let db = index.db().clone();
        let degree3 = db.config().isolation == IsolationLevel::RepeatableRead;
        let mut pred = None;
        if degree3 {
            let mut qb = Vec::new();
            index.ext().encode_query(&query, &mut qb);
            let p = db.preds().register(txn, PredKind::Scan, qb);
            pred = Some(p);
            if db.config().predicate_mode == PredicateMode::PureGlobal {
                // §4.2: one global predicate; verified against conflicting
                // (insert/delete) predicates before any traversal.
                let owners =
                    db.preds().attach_scan_and_check(p, GLOBAL_NODE, &index.scan_conflict_fn(&query));
                for owner in owners {
                    db.txns().wait_for_txn(txn, owner).map_err(crate::GistError::Lock)?;
                }
            }
        }
        // An injected fault here strands the registered scan predicate
        // on the transaction; abort's release path must reclaim it.
        crate::chaos::point("cursor.after_register")?;
        let mem = db.global_nsn();
        let root = index.root()?;
        index.signal_lock(txn, root)?;
        let mut stack = NodeStack::new();
        stack.push((root, mem));
        Ok(Cursor {
            index,
            txn,
            query,
            pred,
            stack,
            seen: RidSet::new(),
            pending: VecDeque::new(),
            attached: PageSet::new(),
            finished: false,
        })
    }

    /// Whether the hybrid per-node predicate/record protocol is active.
    fn hybrid_degree3(&self) -> bool {
        let cfg = self.index.db().config();
        cfg.isolation == IsolationLevel::RepeatableRead
            && cfg.predicate_mode == PredicateMode::Hybrid
    }

    /// Next qualifying `(key, RID)` pair, or `None` when the search range
    /// is exhausted.
    // Named like a database cursor, not an Iterator: fetching can fail,
    // so the signature is Result<Option<..>> and the trait does not fit.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(E::Key, Rid)>> {
        let db = self.index.db().clone();
        let op = db.txns().op_enter(self.txn)?;
        let r = self.next_inner();
        op.complete();
        r
    }

    fn next_inner(&mut self) -> Result<Option<(E::Key, Rid)>> {
        crate::chaos::point("cursor.before_next")?;
        loop {
            if let Some(hit) = self.pending.pop_front() {
                return Ok(Some(hit));
            }
            let Some((pid, mem)) = self.stack.pop() else {
                self.finished = true;
                return Ok(None);
            };
            if pid.is_invalid() {
                continue;
            }
            self.process_node(pid, mem)?;
        }
    }

    /// Drain the cursor.
    pub fn collect_all(&mut self) -> Result<Vec<(E::Key, Rid)>> {
        let mut out = Vec::new();
        while let Some(hit) = self.next()? {
            out.push(hit);
        }
        Ok(out)
    }

    fn process_node(&mut self, pid: PageId, mem: u64) -> Result<()> {
        let index = self.index.clone();
        let db = index.db().clone();
        let ext = index.ext();
        let g = db.pool().fetch_read(pid)?;

        // Hybrid Degree 3: attach our predicate before reading entries;
        // conflicting insert predicates *ahead of us* (FIFO fairness,
        // §10.3) force a latch-free wait and a re-visit.
        if self.hybrid_degree3() && !self.attached.contains(&pid) {
            let Some(pred) = self.pred else {
                unreachable!("degree3 cursor always carries a predicate")
            };
            let owners = db.preds().attach_scan_and_check(
                pred,
                index.node_key(pid),
                &index.scan_conflict_fn(&self.query),
            );
            self.attached.insert(pid);
            if !owners.is_empty() {
                drop(g);
                self.stack.push((pid, mem));
                for owner in owners {
                    db.txns().wait_for_txn(self.txn, owner).map_err(crate::GistError::Lock)?;
                }
                return Ok(());
            }
        }

        // Split detection (§3): the rightlink inherits the memorized
        // value, ending the chase at the first node with NSN ≤ mem.
        if g.nsn() > mem {
            self.stack.push((g.rightlink(), mem));
        }

        if g.is_leaf() {
            // Collect the qualifying entries under the latch, then lock.
            let candidates = leaf_candidates(ext, &g, &self.query, &self.seen);
            let mut blocker = None;
            let isolation = db.config().isolation;
            let takes_record_locks = isolation != IsolationLevel::Latching
                && db.config().predicate_mode == PredicateMode::Hybrid;
            for (rid, key, deleted) in candidates {
                if takes_record_locks {
                    if db.locks().try_lock(self.txn, LockName::Rid(rid), LockMode::S) {
                        // Lock held: the entry's fate is decided. A mark
                        // that survives its transaction is a committed
                        // delete (aborts unmark before releasing locks).
                        self.seen.insert(rid);
                        if !deleted {
                            self.pending.push_back((key, rid));
                        }
                        if isolation == IsolationLevel::ReadCommitted {
                            // Degree 2: cursor stability only — the lock
                            // is dropped as soon as the entry is read.
                            db.locks().unlock(self.txn, LockName::Rid(rid));
                        }
                    } else {
                        blocker = Some(rid);
                        break;
                    }
                } else {
                    // Latching / pure-predicate modes: no record locks;
                    // marked entries are skipped (pure mode's global
                    // predicate check already serialized us against the
                    // deleter).
                    self.seen.insert(rid);
                    if !deleted {
                        self.pending.push_back((key, rid));
                    }
                }
            }
            if let Some(rid) = blocker {
                // Block without the latch (§5), then re-visit the node;
                // the retained lock makes the retry cheap, and the
                // re-push preserves the memorized NSN that guides any
                // rightlink traversal the wait made necessary.
                drop(g);
                self.stack.push((pid, mem));
                db.locks().lock(self.txn, LockName::Rid(rid), LockMode::S)?;
                if db.config().isolation == IsolationLevel::ReadCommitted {
                    // Degree 2 keeps no post-read locks; the re-visit
                    // will re-acquire (and re-release) instantly.
                    db.locks().unlock(self.txn, LockName::Rid(rid));
                }
                return Ok(());
            }
        } else {
            for (_, e) in node::internal_views(&g) {
                if ext.consistent_pred_bytes(e.pred_bytes(), &self.query) {
                    let child_mem = index.read_mem(Some(&g));
                    // Signaling lock taken under the parent's latch —
                    // the discipline node deletion relies on (§7.2).
                    index.signal_lock(self.txn, e.child())?;
                    self.stack.push((e.child(), child_mem));
                }
            }
        }
        drop(g);
        index.signal_unlock(self.txn, pid);
        Ok(())
    }

    /// Capture the cursor position for a savepoint (§10.2). Call
    /// *before* `TxnManager::savepoint` returns to the application so
    /// the signaling locks still held for stacked pointers get pinned.
    pub fn snapshot(&self) -> CursorSnapshot<E::Key> {
        CursorSnapshot {
            stack: self.stack.clone(),
            seen: self.seen.clone(),
            attached: self.attached.clone(),
            pending: self.pending.clone(),
            finished: self.finished,
        }
    }

    /// Restore a snapshot after partial rollback.
    pub fn restore(&mut self, snap: CursorSnapshot<E::Key>) {
        self.stack = snap.stack;
        self.seen = snap.seen;
        self.attached = snap.attached;
        self.pending = snap.pending;
        self.finished = snap.finished;
    }

    /// Whether the cursor has delivered everything.
    pub fn is_finished(&self) -> bool {
        self.finished && self.pending.is_empty()
    }

    /// The cursor's scan-predicate handle (None below Degree 3). Unique
    /// insertion uses this to release its probe predicates early (§8).
    pub(crate) fn pred_id(&self) -> Option<PredId> {
        self.pred
    }
}

/// Retry budget per node on the optimistic path before falling back to
/// the latched cursor. Small on purpose: a node that keeps moving is
/// under write pressure, and the latched path queues fairly instead of
/// spinning.
const MAX_OPT_RETRIES: usize = 4;

/// A consistent snapshot of one node's qualifying content, copied out
/// under the seqlock version check.
enum NodeCopy<K> {
    Leaf {
        nsn: u64,
        rightlink: PageId,
        /// `(rid, key, delete-marked)` for entries matching the query.
        candidates: Vec<(Rid, K, bool)>,
    },
    Internal {
        nsn: u64,
        rightlink: PageId,
        /// `(child, memorized counter)` for entries matching the query.
        children: NodeStack,
    },
}

/// Result of the optimistic drain: the complete result set, or a
/// partial prefix plus the RID set it covers so a latched fallback
/// cursor can finish without duplicating deliveries.
enum OptOutcome<K> {
    Done(Vec<(K, Rid)>),
    Fallback {
        seen: RidSet,
        partial: Vec<(K, Rid)>,
    },
}

impl<E: GistExtension> GistIndex<E> {
    /// Open an incremental cursor over `query`.
    pub fn cursor(self: &Arc<Self>, txn: TxnId, query: E::Query) -> Result<Cursor<E>> {
        let op = self.db().txns().op_enter(txn)?;
        let r = Cursor::new(self.clone(), txn, query);
        op.complete();
        r
    }

    /// SEARCH: all `(key, RID)` pairs satisfying `query` (drains a
    /// cursor). With `DbConfig::optimistic_reads` (the default) the
    /// drain first runs latch-free (see the module docs), falling back
    /// to a seeded latched cursor when validation keeps failing or a
    /// page leaves the pool mid-read.
    pub fn search(self: &Arc<Self>, txn: TxnId, query: &E::Query) -> Result<Vec<(E::Key, Rid)>> {
        if self.db().optimistic_enabled() {
            let db = self.db().clone();
            let op = db.txns().op_enter(txn)?;
            let r = self.search_optimistic(txn, query);
            op.complete();
            match r? {
                OptOutcome::Done(out) => Ok(out),
                OptOutcome::Fallback { seen, partial } => {
                    // The fallback registers a second scan predicate and
                    // re-takes signaling locks from the root; both are
                    // conservative (extra blocking only, never missed
                    // conflicts). Seeding `seen` keeps result sets exact.
                    let mut c = self.cursor(txn, query.clone())?;
                    c.seen.extend(seen.iter());
                    let mut out = partial;
                    out.extend(c.collect_all()?);
                    Ok(out)
                }
            }
        } else {
            let mut c = self.cursor(txn, query.clone())?;
            c.collect_all()
        }
    }

    /// One-shot latch-free drain of `query` (module docs: *Optimistic
    /// path*). Same stack/NSN/rightlink traversal as [`Cursor`], but
    /// every node is copied out under a seqlock check instead of being
    /// latched, and one epoch pin replaces the signaling locks.
    fn search_optimistic(
        self: &Arc<Self>,
        txn: TxnId,
        query: &E::Query,
    ) -> Result<OptOutcome<E::Key>> {
        let index = self.clone();
        let db = index.db().clone();
        let ext = index.ext();
        let isolation = db.config().isolation;
        let degree3 = isolation == IsolationLevel::RepeatableRead;
        let hybrid3 = degree3 && db.config().predicate_mode == PredicateMode::Hybrid;
        let takes_record_locks = isolation != IsolationLevel::Latching
            && db.config().predicate_mode == PredicateMode::Hybrid;

        let mut pred = None;
        if degree3 {
            let mut qb = Vec::new();
            ext.encode_query(query, &mut qb);
            let p = db.preds().register(txn, PredKind::Scan, qb);
            pred = Some(p);
            if db.config().predicate_mode == PredicateMode::PureGlobal {
                // §4.2: one global predicate; verified against
                // conflicting predicates before any traversal.
                let owners =
                    db.preds().attach_scan_and_check(p, GLOBAL_NODE, &index.scan_conflict_fn(query));
                for owner in owners {
                    db.txns().wait_for_txn(txn, owner).map_err(crate::GistError::Lock)?;
                }
            }
        }
        // Same injection point as Cursor::new: a fault here strands the
        // registered scan predicate on the transaction.
        crate::chaos::point("cursor.after_register")?;

        let mem = db.global_nsn();
        let root = index.root()?;
        let mut stack = NodeStack::new();
        stack.push((root, mem));
        let mut seen = RidSet::new();
        let mut attached = PageSet::new();
        let mut out: Vec<(E::Key, Rid)> = Vec::new();
        let mut hits = 0u64;

        // One pin for the whole traversal: §7.2 frees (drained nodes,
        // dropped indexes) retired after this point cannot run until we
        // unpin, so a stacked child pointer can never be re-typed under
        // us. This substitutes for the latched cursor's signaling locks.
        let mut pin = db.epoch().pin();
        // Chaos: the traversal holds its epoch pin here. A Delay models
        // the stalled-reader shape (the pin ages while the bin fills); an
        // Error/Panic dies pinned and must release via RAII.
        crate::chaos::point("cursor.optimistic.pinned")?;

        macro_rules! fall_back {
            () => {{
                db.note_opt_fallback();
                db.note_opt_hits(hits);
                return Ok(OptOutcome::Fallback { seen, partial: out });
            }};
        }

        'outer: while let Some((pid, mem)) = stack.pop() {
            if pid.is_invalid() {
                continue;
            }

            // Hybrid Degree 3: attach before reading, exactly as the
            // latched path does — the copy below is only trusted if no
            // conflicting insert predicate was ahead of us (§10.3 FIFO
            // fairness), and any writer that lands after our attach and
            // still changes the node also bumps its version word.
            if hybrid3 && !attached.contains(&pid) {
                let Some(p) = pred else {
                    unreachable!("degree3 search always carries a predicate")
                };
                let owners = db.preds().attach_scan_and_check(
                    p,
                    index.node_key(pid),
                    &index.scan_conflict_fn(query),
                );
                attached.insert(pid);
                if !owners.is_empty() {
                    stack.push((pid, mem));
                    // Never block while pinned: a stalled reader would
                    // stall reclamation for everyone.
                    drop(pin);
                    for owner in owners {
                        db.txns().wait_for_txn(txn, owner).map_err(crate::GistError::Lock)?;
                    }
                    pin = db.epoch().pin();
                    continue 'outer;
                }
            }

            let mut attempts = 0usize;
            'node: loop {
                let Some(og) = db.pool().fetch_optimistic(pid)? else {
                    // Neither cached, directly readable (a write-back
                    // overlapped the bypass window), nor warmable; let
                    // the latched path pin it properly.
                    fall_back!();
                };
                let copy = og.read_with(|p| {
                    let nsn = p.nsn();
                    let rightlink = p.rightlink();
                    if p.is_leaf() {
                        let candidates = leaf_candidates(ext, p, query, &seen);
                        NodeCopy::Leaf { nsn, rightlink, candidates }
                    } else {
                        let child_mem = index.read_mem(Some(p));
                        let mut children = NodeStack::new();
                        for (_, e) in node::internal_views(p) {
                            if ext.consistent_pred_bytes(e.pred_bytes(), query) {
                                children.push((e.child(), child_mem));
                            }
                        }
                        NodeCopy::Internal { nsn, rightlink, children }
                    }
                });
                let Some(copy) = copy else {
                    if og.validate() == Validation::Evicted {
                        fall_back!();
                    }
                    attempts += 1;
                    db.note_opt_retry();
                    if attempts > MAX_OPT_RETRIES {
                        fall_back!();
                    }
                    continue 'node;
                };

                // Split detection (§3), identical to the latched path:
                // the rightlink inherits the memorized value.
                let (nsn, rightlink) = match &copy {
                    NodeCopy::Leaf { nsn, rightlink, .. }
                    | NodeCopy::Internal { nsn, rightlink, .. } => (*nsn, *rightlink),
                };
                if nsn > mem {
                    stack.push((rightlink, mem));
                }

                match copy {
                    NodeCopy::Internal { children, .. } => {
                        // `read_with` re-checked the version word after
                        // the copy, so the child pointers and memorized
                        // counters are a consistent snapshot; the epoch
                        // pin keeps every one of them type-stable.
                        stack.extend(children.iter());
                        hits += 1;
                        break 'node;
                    }
                    NodeCopy::Leaf { candidates, .. } => {
                        // Lock-then-revalidate: S-lock every candidate,
                        // then confirm the node didn't change while the
                        // locks were acquired — a lock taken against a
                        // stale copy proves nothing about the entry.
                        let mut locked: InlineVec<Rid, 8> = InlineVec::new();
                        let mut blocker = None;
                        if takes_record_locks {
                            for (rid, _, _) in &candidates {
                                if db.locks().try_lock(txn, LockName::Rid(*rid), LockMode::S) {
                                    locked.push(*rid);
                                } else {
                                    blocker = Some(*rid);
                                    break;
                                }
                            }
                        }
                        if let Some(rid) = blocker {
                            // Block with nothing held (§5): no latch to
                            // drop here, but the pin must not outlive
                            // the wait. Re-push preserves the memorized
                            // NSN guiding any rightlink chase the wait
                            // makes necessary.
                            drop(og);
                            stack.push((pid, mem));
                            if isolation == IsolationLevel::ReadCommitted {
                                // Degree 2 retains nothing across the
                                // wait (cursor stability only).
                                for r in locked.iter() {
                                    db.locks().unlock(txn, LockName::Rid(r));
                                }
                            }
                            drop(pin);
                            db.locks().lock(txn, LockName::Rid(rid), LockMode::S)?;
                            if isolation == IsolationLevel::ReadCommitted {
                                db.locks().unlock(txn, LockName::Rid(rid));
                            }
                            pin = db.epoch().pin();
                            continue 'outer;
                        }
                        match og.validate() {
                            Validation::Ok => {
                                for (rid, key, deleted) in candidates {
                                    // Lock held (Degree ≥ 2): the
                                    // entry's fate is decided; a
                                    // surviving mark is a committed
                                    // delete (aborts unmark first).
                                    seen.insert(rid);
                                    if !deleted {
                                        out.push((key, rid));
                                    }
                                    if takes_record_locks
                                        && isolation == IsolationLevel::ReadCommitted
                                    {
                                        db.locks().unlock(txn, LockName::Rid(rid));
                                    }
                                }
                                hits += 1;
                                break 'node;
                            }
                            v => {
                                // The node changed under our locks. In
                                // Degree 2 release them (no retained
                                // stale locks); Degree 3 keeps them —
                                // extra S locks are 2PL-legal and make
                                // the re-read regrant instantly.
                                if isolation == IsolationLevel::ReadCommitted {
                                    for r in locked.iter() {
                                        db.locks().unlock(txn, LockName::Rid(r));
                                    }
                                }
                                if v == Validation::Evicted {
                                    fall_back!();
                                }
                                attempts += 1;
                                db.note_opt_retry();
                                if attempts > MAX_OPT_RETRIES {
                                    fall_back!();
                                }
                                continue 'node;
                            }
                        }
                    }
                }
            }
        }
        drop(pin);
        db.note_opt_hits(hits);
        Ok(OptOutcome::Done(out))
    }
}
