//! The tree side of the maintenance daemon: [`MaintIndex`] for
//! [`GistIndex`].
//!
//! Every method is self-contained — it begins its own short system
//! transaction, does NTA-wrapped physical work through the existing §7
//! machinery ([`GistIndex::gc_leaf`], `try_delete_node`), and commits. Losing a latch or signaling-lock race to a foreground
//! transaction maps to [`MaintError::Retry`] / [`DrainOutcome::Busy`] so
//! the daemon backs off instead of blocking anyone.

use gist_maint::{DrainOutcome, GcOutcome, MaintError, MaintIndex};
use gist_pagestore::PageId;
use gist_wal::TxnId;

use crate::ext::GistExtension;
use crate::node;
use crate::ops::StackEntry;
use crate::tree::GistIndex;
use crate::{Db, GistError};

/// Classify a tree error for the daemon: lock-manager trouble (timeout,
/// deadlock victim) means a foreground transaction got in the way —
/// retry later, as is a transient I/O error (the pool already retried
/// with backoff; the daemon adds its own coarser retry on top). A
/// poisoned store ([`GistError::StorageFailed`]) is fatal: maintenance
/// mutates pages, which a read-only pool refuses forever.
fn classify(e: GistError) -> MaintError {
    match e {
        GistError::Lock(_) => MaintError::Retry(e.to_string()),
        GistError::Txn(gist_txn::TxnError::Lock(_)) => MaintError::Retry(e.to_string()),
        GistError::StorageFailed(_) => MaintError::Fatal(e.to_string()),
        GistError::Io(ref io) if gist_pagestore::is_transient_io(io) => {
            MaintError::Retry(e.to_string())
        }
        other => MaintError::Fatal(other.to_string()),
    }
}

/// A maintenance unit whose own transaction could not be aborted: fatal,
/// and the error names the transaction, which is still open with its
/// locks held until an abort of it succeeds.
fn abort_failed(txn: TxnId, e: GistError) -> MaintError {
    MaintError::Fatal(format!("abort of {txn} failed, the transaction is still open: {e}"))
}

/// Commit a maintenance unit's own transaction. A failed commit is
/// fatal, and the transaction is aborted first, which completes it when
/// its commit record reached the log (a lost acknowledgement) and rolls
/// it back otherwise; if that abort fails too, the error names it.
fn commit_unit(db: &Db, txn: TxnId) -> Result<(), MaintError> {
    db.commit(txn).or_else(|e| {
        db.abort(txn).map_err(|a| abort_failed(txn, a))?;
        Err(MaintError::Fatal(e.to_string()))
    })
}

impl<E: GistExtension> GistIndex<E> {
    /// In `latch-audit` builds, run the §5/§7 structural checker after a
    /// maintenance mutation — but only when the tree is quiescent (the
    /// checker's sweep is only exact without concurrent foreground
    /// transactions) and report any violation as a fatal maint error.
    fn audit_check_structure(&self, what: &str) -> Result<(), MaintError> {
        if !gist_audit::ENABLED || self.db().txns().active_count() != 0 {
            return Ok(()); // off, or non-quiescent: a sweep would race descents
        }
        let report = crate::check::check_tree(self)
            .map_err(|e| MaintError::Fatal(format!("post-{what} check failed: {e}")))?;
        if !report.ok() {
            return Err(MaintError::Fatal(format!(
                "post-{what} structural violations: {:?}",
                report.violations
            )));
        }
        Ok(())
    }

    /// A usable parent hint, or `None` if the hinted page no longer
    /// looks like an internal node (freed, reused as a leaf). GC then
    /// simply skips the BP-shrink propagation — parent BPs stay
    /// conservative upper bounds, which is always correct.
    fn validate_parent_hint(&self, hint: Option<PageId>) -> Option<StackEntry> {
        let p = hint?;
        // Blessed parent/child window: GC holds the try-latched leaf
        // while peeking (S) at its hinted parent one level up.
        let _scope = gist_audit::enter_scope_rel("parent-child:hint-check", 1);
        let g = self.db().pool().fetch_read(p).ok()?;
        if g.is_available() || g.is_leaf() {
            return None;
        }
        Some(StackEntry { page: p, nsn_at_visit: g.nsn() })
    }
}

impl<E: GistExtension> MaintIndex for GistIndex<E> {
    fn maint_index_id(&self) -> u32 {
        self.id()
    }

    fn maint_gc_leaf(
        &self,
        leaf: PageId,
        parent_hint: Option<PageId>,
    ) -> Result<GcOutcome, MaintError> {
        let db = self.db().clone();
        let txn = db.begin();
        let result = (|| {
            // Try-only latch: the daemon never waits on a leaf a
            // foreground operation holds.
            let mut g = db
                .pool()
                .try_fetch_write(leaf)
                .map_err(|e| classify(e.into()))?
                .ok_or_else(|| MaintError::Retry(format!("leaf {leaf} latched")))?;
            // The candidate may be stale: the page could have been
            // drained and reused since the deleting transaction ran.
            if g.is_available() || !g.is_leaf() {
                return Ok(GcOutcome::default());
            }
            let hint = self.validate_parent_hint(parent_hint);
            let reclaimed = self.gc_leaf(txn, &mut g, hint).map_err(classify)?;
            let leaf_empty = node::entry_count(&g) == 0;
            Ok(GcOutcome { reclaimed, leaf_empty })
        })();
        match &result {
            Ok(_) => {
                commit_unit(&db, txn)?;
                self.audit_check_structure("gc")?;
            }
            Err(_) => db.abort(txn).map_err(|e| abort_failed(txn, e))?,
        }
        result
    }

    fn maint_try_drain(
        &self,
        leaf: PageId,
        parent_hint: Option<PageId>,
    ) -> Result<DrainOutcome, MaintError> {
        // Without a parent there is nothing to unlink from; the next
        // `vacuum_sync` retires the node instead.
        let Some(parent) = parent_hint else {
            return Ok(DrainOutcome::Skipped);
        };
        let db = self.db().clone();
        {
            // Cheap ineligibility checks before spending a transaction.
            let g = db.pool().fetch_read(leaf).map_err(|e| classify(e.into()))?;
            if g.is_available() || !g.is_leaf() || node::entry_count(&g) != 0 {
                return Ok(DrainOutcome::Skipped);
            }
        }
        if self.validate_parent_hint(Some(parent)).is_none() {
            return Ok(DrainOutcome::Skipped);
        }
        let txn = db.begin();
        match self.try_delete_node(txn, parent, leaf) {
            Ok(deleted) => {
                commit_unit(&db, txn)?;
                if deleted {
                    self.audit_check_structure("drain")?;
                    Ok(DrainOutcome::Deleted)
                } else {
                    // Drain semantics (§7.2): a pointer holder still has
                    // its signaling lock, or a latch was contended. Both
                    // clear once the foreground operation moves on.
                    Ok(DrainOutcome::Busy)
                }
            }
            Err(e) => {
                db.abort(txn).map_err(|e| abort_failed(txn, e))?;
                Err(classify(e))
            }
        }
    }
}
