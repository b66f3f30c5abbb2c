//! Search (Fig. 3): the one-shot [`GistIndex::search`] and the
//! incremental [`Cursor`], both thin drivers of the traversal in
//! [`super::walk`].
//!
//! `search` drains its walk in one call, so it starts on the optimistic
//! latch-free node access. A [`Cursor`] keeps its stack between calls,
//! which only the signaling locks of the latched access protect, so it
//! always walks latched.
//!
//! Cursors also serve §10.2: [`Cursor::snapshot`] captures the stack (and
//! progress) when a savepoint is established; [`Cursor::restore`] brings
//! it back on partial rollback. The signaling locks protecting the
//! stacked pointers are pinned by the transaction manager at savepoint
//! time.

use std::collections::VecDeque;
use std::sync::Arc;

use gist_pagestore::Rid;
use gist_predlock::PredId;
use gist_wal::TxnId;

use crate::ext::GistExtension;
use crate::ops::walk::{Access, Position, Walk};
use crate::tree::GistIndex;
use crate::Result;

/// Saved cursor position (§10.2: "to record the position of a GiST
/// search operation when establishing a savepoint, it is necessary to
/// record the then-current stack").
#[derive(Debug, Clone)]
pub struct CursorSnapshot<K> {
    position: Position,
    pending: VecDeque<(K, Rid)>,
    finished: bool,
}

/// An incremental search cursor.
pub struct Cursor<E: GistExtension> {
    walk: Walk<E, E::Query>,
    /// Decoded, locked results from the current leaf not yet returned.
    pending: VecDeque<(E::Key, Rid)>,
    finished: bool,
}

impl<E: GistExtension> Cursor<E> {
    /// Next qualifying `(key, RID)` pair, or `None` when the search range
    /// is exhausted.
    // Named like a database cursor, not an Iterator: fetching can fail,
    // so the signature is Result<Option<..>> and the trait does not fit.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(E::Key, Rid)>> {
        let db = self.walk.db().clone();
        let _op = db.txns().op_enter(self.walk.txn())?;
        self.next_inner()
    }

    fn next_inner(&mut self) -> Result<Option<(E::Key, Rid)>> {
        gist_chaos::point("cursor.before_next")?;
        loop {
            if let Some(hit) = self.pending.pop_front() {
                return Ok(Some(hit));
            }
            let Some(leaf) = self.walk.next_leaf()? else {
                self.finished = true;
                return Ok(None);
            };
            self.walk.collect(leaf, &mut self.pending)?;
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

    /// Capture the cursor position for a savepoint (§10.2). Call
    /// *before* `TxnManager::savepoint` returns to the application so
    /// the signaling locks still held for stacked pointers get pinned.
    pub fn snapshot(&self) -> CursorSnapshot<E::Key> {
        CursorSnapshot {
            position: self.walk.position(),
            pending: self.pending.clone(),
            finished: self.finished,
        }
    }

    /// Restore a snapshot after partial rollback.
    pub fn restore(&mut self, snap: CursorSnapshot<E::Key>) {
        self.walk.set_position(snap.position);
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
        self.walk.pred_id()
    }
}

impl<E: GistExtension> GistIndex<E> {
    /// Open an incremental cursor over `query`.
    pub fn cursor(self: &Arc<Self>, txn: TxnId, query: E::Query) -> Result<Cursor<E>> {
        let _op = self.db().txns().op_enter(txn)?;
        let walk = Walk::new(self.clone(), txn, query, Access::Latched, true)?;
        Ok(Cursor { walk, pending: VecDeque::new(), finished: false })
    }

    /// SEARCH: all `(key, RID)` pairs satisfying `query`.
    pub fn search(self: &Arc<Self>, txn: TxnId, query: &E::Query) -> Result<Vec<(E::Key, Rid)>> {
        let _op = self.db().txns().op_enter(txn)?;
        self.search_inner(txn, query)
    }

    fn search_inner(self: &Arc<Self>, txn: TxnId, query: &E::Query) -> Result<Vec<(E::Key, Rid)>> {
        let mut walk = Walk::new(self.clone(), txn, query, Access::optimistic(), true)?;
        let mut out = Vec::new();
        while let Some(leaf) = walk.next_leaf()? {
            walk.collect(leaf, &mut out)?;
        }
        walk.finish();
        Ok(out)
    }
}
