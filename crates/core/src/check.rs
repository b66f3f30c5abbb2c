//! Structural invariant checker, used by tests and crash-recovery
//! experiments to assert that a tree is well-formed.
//!
//! Checked invariants:
//! 1. every node reachable from the root via entries or rightlinks is a
//!    formatted, in-use index node at the expected level;
//! 2. no node's rightlink points back at itself (the checkable slice of
//!    chain acyclicity once drained pages may be reused) and NSNs never
//!    exceed the tree-global counter;
//! 3. every internal entry's predicate covers its child's own (slot 0)
//!    BP — equality is not required because garbage collection may
//!    shrink a child before its parent entry (§7.1);
//! 4. every node's BP covers all of its entries (keys for leaves,
//!    predicates for internal nodes);
//! 5. the leaf level partitions the data RIDs: "exactly one GiST leaf
//!    entry points to a given data record" (§2);
//! 6. internal nodes are non-empty.

use std::collections::{HashMap, HashSet};

use gist_pagestore::{PageId, Rid};

use crate::ext::GistExtension;
use crate::node;
use crate::tree::GistIndex;
use crate::Result;

/// Outcome of a structural check.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Nodes visited.
    pub nodes: usize,
    /// Leaf entries seen (live + marked).
    pub entries: usize,
    /// Invariant violations (empty = healthy).
    pub violations: Vec<String>,
}

impl CheckReport {
    /// Whether the tree passed every check.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with the violation list unless healthy (test helper).
    pub fn assert_ok(&self) {
        assert!(self.ok(), "tree invariant violations: {:#?}", self.violations);
    }
}

/// Work-queue entry: `(page, expected (level, parent predicate), whether
/// the page was reached through a parent entry)`. The predicate is
/// decoded while its node is latched; the queue outlives that latch.
type CheckItem<P> = (PageId, Option<(u16, P)>, bool);

/// Run the structural checks over `index`. Takes no latches beyond one
/// node at a time; call while the tree is quiescent for exact results.
pub fn check_tree<E: GistExtension>(index: &GistIndex<E>) -> Result<CheckReport> {
    let mut report = CheckReport::default();
    let ext = index.ext();
    let pool = index.db().pool();
    let global = index.db().global_nsn();

    let root = index.root()?;
    // Queue entries: (page, expectation-from-parent-entry, via_entry).
    // Rightlinks may legitimately dangle into freed pages — the NSN guard
    // means no operation ever follows them — so availability is only a
    // violation when the page was reached through a parent entry.
    let mut queue: Vec<CheckItem<E::Pred>> = vec![(root, None, true)];
    let mut visited: HashSet<PageId> = HashSet::new();
    let mut rid_owner: HashMap<Rid, PageId> = HashMap::new();

    while let Some((pid, expect, via_entry)) = queue.pop() {
        if pid.is_invalid() {
            continue;
        }
        let first_visit = visited.insert(pid);
        let g = pool.fetch_read(pid)?;
        if g.is_available() {
            if via_entry {
                report.violations.push(format!("{pid} reachable but marked available"));
            }
            continue;
        }
        if g.page_id() != pid {
            report.violations.push(format!("{pid} header id mismatch: {}", g.page_id()));
        }
        if let Some((level, parent_pred)) = &expect {
            if g.level() != *level {
                report
                    .violations
                    .push(format!("{pid}: level {} but parent expects {level}", g.level()));
            }
            // Invariant 3: parent entry covers the child's own BP.
            if let Some(child_bp) = index.decode_bp_opt(node::bp_bytes(&g)) {
                if !ext.pred_covers(parent_pred, &child_bp) {
                    report
                        .violations
                        .push(format!("{pid}: parent entry does not cover child BP"));
                }
            }
        }
        if g.nsn() > global {
            report
                .violations
                .push(format!("{pid}: NSN {} exceeds global counter {global}", g.nsn()));
        }
        if !first_visit {
            continue; // links converge; only validate content once
        }
        report.nodes += 1;
        // Invariant 2 (acyclic part). General cycle detection over the
        // rightlink graph is unsound here: a drained page's left sibling
        // keeps a stale rightlink (legal — the NSN guard keeps traversals
        // off it), and once the page is reused that stale edge is
        // structurally indistinguishable from corruption. A self-link is
        // the exception. The one path that could write it — a split
        // handed, as its new sibling, the freed page its own stale
        // rightlink still names — inherits the dead tenant's rightlink
        // instead (`inherited_rightlink` in `ops/insert.rs`), so a
        // self-link is always corruption — and it is the failure mode a
        // torn or misdirected header write actually produces.
        if g.rightlink() == pid {
            report.violations.push(format!("rightlink cycle through {pid} (self-link)"));
        }
        queue.push((g.rightlink(), None, false));

        let own_bp = index.decode_bp_opt(node::bp_bytes(&g));
        if g.is_leaf() {
            for (_, e) in node::leaf_views(&g) {
                report.entries += 1;
                let key = ext.decode_key(e.key_bytes());
                // Invariant 4 (leaf form).
                match &own_bp {
                    Some(bp) if ext.pred_covers_key(bp, &key) => {}
                    _ => report
                        .violations
                        .push(format!("{pid}: BP does not cover key {key:?}")),
                }
                // Invariant 5: RIDs partitioned across leaves.
                if let Some(prev) = rid_owner.insert(e.rid(), pid) {
                    report.violations.push(format!(
                        "{:?} stored on both {prev} and {pid}",
                        e.rid()
                    ));
                }
            }
        } else {
            // Invariant 6.
            if node::entry_count(&g) == 0 {
                report.violations.push(format!("{pid}: empty internal node"));
            }
            for (_, e) in node::internal_views(&g) {
                let child = e.child();
                let pred = ext.decode_pred(e.pred_bytes());
                // Invariant 4 (internal form).
                match &own_bp {
                    Some(bp) if ext.pred_covers(bp, &pred) => {}
                    _ => report
                        .violations
                        .push(format!("{pid}: BP does not cover entry for {child}")),
                }
                queue.push((child, Some((g.level() - 1, pred)), true));
            }
        }
    }
    Ok(report)
}
