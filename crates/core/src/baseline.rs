//! Baseline concurrency protocols for the experiment suite.
//!
//! [`SimpleTree`] is a standalone, unlogged GiST (same page/entry layout
//! as the real index, same extension interface) whose search/insert pick
//! a [`BaselineProtocol`]:
//!
//! - [`BaselineProtocol::TreeRwLock`] — the "simplest solution" §4
//!   dismisses: one tree-wide reader/writer lock.
//! - [`BaselineProtocol::FullPathX`] — conservative subtree latching in
//!   the spirit of \[BS77\]: updaters keep an X latch on the whole
//!   root-to-leaf path (with preemptive splits), readers latch-couple and
//!   hold ancestor latches while descending each subtree — including
//!   across I/Os, which experiment E6 quantifies.
//! - [`BaselineProtocol::NoLink`] — readers latch one node at a time but
//!   have **no split compensation**; this reproduces the lost-key anomaly
//!   of Figure 1 (writers remain safe FullPathX writers, so only reads
//!   are anomalous).
//! - [`BaselineProtocol::Link`] — the paper's protocol (NSN + rightlink,
//!   no coupling, latch-free I/O) stripped of logging and isolation, for
//!   apples-to-apples protocol benchmarks.
//!
//! The pure-predicate-locking baseline (§4.2) is not here: it is a mode
//! of the real index ([`crate::PredicateMode::PureGlobal`]).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use gist_pagestore::{BufferPool, PageAllocator, PageId, PageReadGuard, PageWriteGuard, Rid};

use crate::entry::{InternalEntry, InternalEntryRef, LeafEntry, LeafEntryRef};
use crate::ext::GistExtension;
use crate::node;
use crate::{GistError, Result};

/// Which concurrency protocol a [`SimpleTree`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineProtocol {
    /// One tree-wide reader/writer lock.
    TreeRwLock,
    /// Subtree latching: X path for writers, coupled S for readers.
    FullPathX,
    /// Latch-per-node readers without link compensation (Figure 1's
    /// incorrect interleaving becomes observable).
    NoLink,
    /// The paper's link protocol (no isolation, no logging).
    Link,
}

/// A standalone unlogged GiST used for protocol comparisons.
pub struct SimpleTree<E: GistExtension> {
    pool: Arc<BufferPool>,
    alloc: Arc<PageAllocator>,
    ext: E,
    protocol: BaselineProtocol,
    root: Mutex<PageId>,
    tree_lock: RwLock<()>,
    nsn: AtomicU64,
    /// Rightlink chases performed by link-mode searches (E2 metric).
    pub link_chases: AtomicU64,
}

impl<E: GistExtension> SimpleTree<E> {
    /// Create an empty tree (allocates its root leaf).
    pub fn create(
        pool: Arc<BufferPool>,
        alloc: Arc<PageAllocator>,
        ext: E,
        protocol: BaselineProtocol,
    ) -> Result<Arc<Self>> {
        let root = alloc.allocate();
        let mut g = pool.new_page_write(root, 0)?;
        node::init_node(&mut g, &[]);
        g.set_available(false);
        g.mark_dirty_unlogged();
        drop(g);
        Ok(Arc::new(SimpleTree {
            pool,
            alloc,
            ext,
            protocol,
            root: Mutex::new(root),
            tree_lock: RwLock::new(()),
            nsn: AtomicU64::new(0),
            link_chases: AtomicU64::new(0),
        }))
    }

    /// The extension.
    pub fn ext(&self) -> &E {
        &self.ext
    }

    /// The buffer pool (experiments inspect pages directly).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Current root page.
    pub fn root(&self) -> PageId {
        *self.root.lock()
    }

    fn decode_bp(&self, bytes: &[u8]) -> Option<E::Pred> {
        if bytes.is_empty() {
            None
        } else {
            Some(self.ext.decode_pred(bytes))
        }
    }

    fn encode_pred(&self, p: &E::Pred) -> Vec<u8> {
        let mut out = Vec::new();
        self.ext.encode_pred(p, &mut out);
        out
    }

    // ---------------- search ----------------

    /// SEARCH under the configured protocol.
    pub fn search(&self, query: &E::Query) -> Result<Vec<(E::Key, Rid)>> {
        // Baseline protocols exist to *measure* what the §5 disciplines
        // cost; latch coupling and whole-path latching deliberately break
        // them, so the audit scope is fully permissive here.
        let _scope = crate::audit::enter_scope("baseline-protocol", usize::MAX, true, true);
        match self.protocol {
            BaselineProtocol::TreeRwLock => {
                let _g = self.tree_lock.read();
                self.search_nolink(query)
            }
            BaselineProtocol::FullPathX => self.search_coupling(query),
            BaselineProtocol::NoLink => self.search_nolink(query),
            BaselineProtocol::Link => self.search_link(query),
        }
    }

    /// Latch-per-node traversal with no split compensation (anomalous
    /// under concurrent splits — Figure 1).
    fn search_nolink(&self, query: &E::Query) -> Result<Vec<(E::Key, Rid)>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root()];
        while let Some(pid) = stack.pop() {
            let g = self.pool.fetch_read(pid)?;
            self.scan_node(&g, query, &mut out, &mut stack, None)?;
        }
        Ok(out)
    }

    /// §3 protocol: memorize the counter, chase rightlinks on NSN
    /// mismatch, one latch at a time.
    fn search_link(&self, query: &E::Query) -> Result<Vec<(E::Key, Rid)>> {
        let mut out = Vec::new();
        let mut seen: HashSet<Rid> = HashSet::new();
        let mut stack = vec![(self.root(), self.nsn.load(Ordering::SeqCst))];
        while let Some((pid, mem)) = stack.pop() {
            if pid.is_invalid() {
                continue;
            }
            let g = self.pool.fetch_read(pid)?;
            if g.nsn() > mem {
                self.link_chases.fetch_add(1, Ordering::Relaxed);
                stack.push((g.rightlink(), mem));
            }
            if g.is_leaf() {
                for (_, e) in node::leaf_views(&g) {
                    if self.ext.consistent_key_bytes(e.key_bytes(), query) && seen.insert(e.rid()) {
                        out.push((self.ext.decode_key(e.key_bytes()), e.rid()));
                    }
                }
            } else {
                let mem_child = self.nsn.load(Ordering::SeqCst);
                for (_, e) in node::internal_views(&g) {
                    if self.ext.consistent_pred_bytes(e.pred_bytes(), query) {
                        stack.push((e.child(), mem_child));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Subtree traversal holding every ancestor latch (including across
    /// child I/Os) — §11's sketch of what latch-coupling would mean for a
    /// non-partitioning tree.
    fn search_coupling(&self, query: &E::Query) -> Result<Vec<(E::Key, Rid)>> {
        fn visit<E: GistExtension>(
            tree: &SimpleTree<E>,
            g: &PageReadGuard,
            query: &E::Query,
            out: &mut Vec<(E::Key, Rid)>,
        ) -> Result<()> {
            if g.is_leaf() {
                for (_, e) in node::leaf_views(g) {
                    if tree.ext.consistent_key_bytes(e.key_bytes(), query) {
                        out.push((tree.ext.decode_key(e.key_bytes()), e.rid()));
                    }
                }
            } else {
                for (_, e) in node::internal_views(g) {
                    if tree.ext.consistent_pred_bytes(e.pred_bytes(), query) {
                        // Parent latch deliberately held across this I/O.
                        let child = tree.pool.fetch_read(e.child())?;
                        visit(tree, &child, query, out)?;
                    }
                }
            }
            Ok(())
        }
        let mut out = Vec::new();
        loop {
            let root = self.root();
            let g = self.pool.fetch_read(root)?;
            if self.root() != root {
                continue; // root split raced the latch
            }
            visit(self, &g, query, &mut out)?;
            return Ok(out);
        }
    }

    fn scan_node(
        &self,
        g: &PageReadGuard,
        query: &E::Query,
        out: &mut Vec<(E::Key, Rid)>,
        stack: &mut Vec<PageId>,
        _mem: Option<u64>,
    ) -> Result<()> {
        if g.is_leaf() {
            for (_, e) in node::leaf_views(g) {
                if self.ext.consistent_key_bytes(e.key_bytes(), query) {
                    out.push((self.ext.decode_key(e.key_bytes()), e.rid()));
                }
            }
        } else {
            for (_, e) in node::internal_views(g) {
                if self.ext.consistent_pred_bytes(e.pred_bytes(), query) {
                    stack.push(e.child());
                }
            }
        }
        Ok(())
    }

    // ---------------- insert ----------------

    /// INSERT under the configured protocol.
    pub fn insert(&self, key: &E::Key, rid: Rid) -> Result<()> {
        // See `search`: baseline protocols are exempt by design.
        let _scope = crate::audit::enter_scope("baseline-protocol", usize::MAX, true, true);
        match self.protocol {
            BaselineProtocol::TreeRwLock => {
                let _g = self.tree_lock.write();
                self.insert_fullpath(key, rid)
            }
            BaselineProtocol::FullPathX | BaselineProtocol::NoLink => {
                self.insert_fullpath(key, rid)
            }
            BaselineProtocol::Link => self.insert_link(key, rid),
        }
    }

    /// Writer that X-latches the whole descent path, splitting full
    /// nodes preemptively on the way down (the parent always has room by
    /// induction).
    fn insert_fullpath(&self, key: &E::Key, rid: Rid) -> Result<()> {
        let mut kb = Vec::new();
        self.ext.encode_key(key, &mut kb);
        let cell = LeafEntry::new(kb, rid).encode();
        let slack = cell.len() + 64;
        'restart: loop {
            let root_pid = self.root();
            let g = self.pool.fetch_write(root_pid)?;
            if self.root() != root_pid {
                continue 'restart;
            }
            // Preemptive root split.
            if g.free_for_insert() < slack && node::entry_count(&g) >= 2 {
                self.split_root(g)?;
                continue 'restart;
            }
            let mut path: Vec<PageWriteGuard> = vec![g];
            loop {
                let Some(cur) = path.last() else {
                    unreachable!("path starts at the root")
                };
                if cur.is_leaf() {
                    break;
                }
                let (slot, child_pid) = self.min_penalty(cur, key)?;
                let child = self.pool.fetch_write(child_pid)?;
                if child.free_for_insert() < slack && node::entry_count(&child) >= 2 {
                    // Split the child; the parent has room by induction.
                    let parent_idx = path.len() - 1;
                    self.split_child(&mut path[parent_idx], child, slot)?;
                    continue; // re-pick the branch
                }
                path.push(child);
            }
            // Insert at the leaf and expand BPs along the held path.
            let leaf_idx = path.len() - 1;
            path[leaf_idx]
                .insert_cell(&cell)
                .unwrap_or_else(|e| unreachable!("preemptive split guarantees room: {e}"));
            path[leaf_idx].mark_dirty_unlogged();
            self.expand_bps(&mut path, key)?;
            return Ok(());
        }
    }

    /// The link-protocol writer: no coupling, X latch only at the leaf,
    /// NSN/rightlink maintenance on split.
    fn insert_link(&self, key: &E::Key, rid: Rid) -> Result<()> {
        let mut kb = Vec::new();
        self.ext.encode_key(key, &mut kb);
        let cell = LeafEntry::new(kb, rid).encode();
        let slack = cell.len() + 64;
        'restart: loop {
            // Descend without coupling, remembering the path.
            let mut mem = self.nsn.load(Ordering::SeqCst);
            let mut pids: Vec<PageId> = Vec::new();
            let mut cur = self.root();
            let leaf = loop {
                let g = self.pool.fetch_read(cur)?;
                if g.nsn() > mem {
                    let next = g.rightlink();
                    drop(g);
                    self.link_chases.fetch_add(1, Ordering::Relaxed);
                    cur = next;
                    continue;
                }
                if g.is_leaf() {
                    drop(g);
                    let w = self.pool.fetch_write(cur)?;
                    if w.nsn() > mem {
                        drop(w);
                        continue;
                    }
                    break w;
                }
                pids.push(cur);
                let (_, child_pid) = self.min_penalty(&g, key)?;
                mem = self.nsn.load(Ordering::SeqCst);
                drop(g);
                cur = child_pid;
            };
            if leaf.free_for_insert() < slack && node::entry_count(&leaf) >= 2 {
                // Split via the conservative path (simplest correct
                // fallback: restart with a full-path writer). The link
                // benefit being measured is reader/writer I/O overlap;
                // split frequency is low.
                drop(leaf);
                self.insert_fullpath(key, rid)?;
                return Ok(());
            }
            let mut leaf = leaf;
            leaf.insert_cell(&cell)
                .unwrap_or_else(|e| unreachable!("room was checked: {e}"));
            leaf.mark_dirty_unlogged();
            // Expand BPs bottom-up by re-latching ancestors (walking
            // rightlinks if they split meanwhile).
            let mut child_pid = leaf.page_id();
            let mut child_bp = {
                let bp = self.decode_bp(node::bp_bytes(&leaf));
                let union = match &bp {
                    None => self.ext.key_pred(key),
                    Some(b) => self.ext.union_pred_key(b, key),
                };
                if bp.as_ref() == Some(&union) {
                    drop(leaf);
                    return Ok(());
                }
                let bytes = self.encode_pred(&union);
                if node::set_bp(&mut leaf, &bytes).is_err() {
                    drop(leaf);
                    continue 'restart;
                }
                leaf.mark_dirty_unlogged();
                drop(leaf);
                union
            };
            for &anc in pids.iter().rev() {
                let mut pid = anc;
                let mut g = loop {
                    let g = self.pool.fetch_write(pid)?;
                    if node::find_child_entry(&g, child_pid).is_some() {
                        break g;
                    }
                    let next = g.rightlink();
                    drop(g);
                    if next.is_invalid() {
                        continue 'restart;
                    }
                    pid = next;
                };
                let slot = node::find_child_entry(&g, child_pid)
                    .unwrap_or_else(|| unreachable!("child entry present: parent latched"));
                let cellb = InternalEntry::new(child_pid, self.encode_pred(&child_bp)).encode();
                if g.update_cell(slot, &cellb).is_err() {
                    continue 'restart;
                }
                let own = self.decode_bp(node::bp_bytes(&g));
                let union = match &own {
                    None => child_bp.clone(),
                    Some(b) => self.ext.union_preds(b, &child_bp),
                };
                let done = own.as_ref() == Some(&union);
                let bytes = self.encode_pred(&union);
                if node::set_bp(&mut g, &bytes).is_err() {
                    continue 'restart;
                }
                g.mark_dirty_unlogged();
                child_pid = g.page_id();
                child_bp = union;
                drop(g);
                if done {
                    break;
                }
            }
            return Ok(());
        }
    }

    fn min_penalty(
        &self,
        page: &gist_pagestore::Page,
        key: &E::Key,
    ) -> Result<(u16, PageId)> {
        let mut best: Option<(f64, u16, PageId)> = None;
        for (slot, e) in node::internal_views(page) {
            let pen = self.ext.penalty_bytes(e.pred_bytes(), key);
            match best {
                Some((b, _, _)) if b <= pen => {}
                _ => best = Some((pen, slot, e.child())),
            }
        }
        best.map(|(_, s, child)| (s, child))
            .ok_or_else(|| GistError::Corrupt("empty internal node".into()))
    }

    /// Split `child` (X-latched) into itself plus a new right sibling;
    /// install the sibling's entry in the (held, roomy) parent.
    fn split_child(
        &self,
        parent: &mut PageWriteGuard,
        mut child: PageWriteGuard,
        child_slot: u16,
    ) -> Result<()> {
        let (moved, left_bp, right_bp) = self.partition(&child)?;
        let new_pid = self.alloc.allocate();
        let mut new_g = self.pool.new_page_write(new_pid, child.level())?;
        node::init_node(&mut new_g, &self.encode_pred(&right_bp));
        new_g.set_available(false);
        for (_, cell) in &moved {
            new_g
                .insert_cell(cell)
                .unwrap_or_else(|e| unreachable!("moved cells fit on a fresh page: {e}"));
        }
        for (slot, _) in &moved {
            child.delete_cell(*slot);
        }
        let left_bytes = self.encode_pred(&left_bp);
        node::set_bp(&mut child, &left_bytes)
            .unwrap_or_else(|e| unreachable!("shrunk BP fits: {e}"));
        // Link maintenance (kept in every protocol so trees stay
        // structurally comparable).
        new_g.set_nsn(child.nsn());
        new_g.set_rightlink(child.rightlink());
        child.set_nsn(self.nsn.fetch_add(1, Ordering::SeqCst) + 1);
        child.set_rightlink(new_pid);
        child.mark_dirty_unlogged();
        new_g.mark_dirty_unlogged();
        // Parent entries.
        let upd = InternalEntry::new(child.page_id(), left_bytes).encode();
        parent
            .update_cell(child_slot, &upd)
            .unwrap_or_else(|e| unreachable!("parent kept roomy by preemptive splits: {e}"));
        let add = InternalEntry::new(new_pid, self.encode_pred(&right_bp)).encode();
        parent
            .insert_cell(&add)
            .unwrap_or_else(|e| unreachable!("parent kept roomy by preemptive splits: {e}"));
        parent.mark_dirty_unlogged();
        Ok(())
    }

    /// Split the root (X-latched) by allocating two children and keeping
    /// the tree's root pointer fresh.
    fn split_root(&self, mut root_g: PageWriteGuard) -> Result<()> {
        let (moved, left_bp, right_bp) = self.partition(&root_g)?;
        let level = root_g.level();
        let right_pid = self.alloc.allocate();
        let mut right = self.pool.new_page_write(right_pid, level)?;
        node::init_node(&mut right, &self.encode_pred(&right_bp));
        right.set_available(false);
        for (_, cell) in &moved {
            right
                .insert_cell(cell)
                .unwrap_or_else(|e| unreachable!("moved cells fit on a fresh page: {e}"));
        }
        for (slot, _) in &moved {
            root_g.delete_cell(*slot);
        }
        let left_bytes = self.encode_pred(&left_bp);
        node::set_bp(&mut root_g, &left_bytes)
            .unwrap_or_else(|e| unreachable!("shrunk BP fits: {e}"));
        right.set_nsn(root_g.nsn());
        right.set_rightlink(root_g.rightlink());
        root_g.set_nsn(self.nsn.fetch_add(1, Ordering::SeqCst) + 1);
        root_g.set_rightlink(right_pid);
        root_g.mark_dirty_unlogged();
        right.mark_dirty_unlogged();
        // New root above both.
        let new_root_pid = self.alloc.allocate();
        let mut new_root = self.pool.new_page_write(new_root_pid, level + 1)?;
        let root_bp = self.ext.union_preds(&left_bp, &right_bp);
        node::init_node(&mut new_root, &self.encode_pred(&root_bp));
        new_root.set_available(false);
        new_root
            .insert_cell(&InternalEntry::new(root_g.page_id(), left_bytes).encode())
            .unwrap_or_else(|e| unreachable!("two entries fit on a fresh root: {e}"));
        new_root
            .insert_cell(
                &InternalEntry::new(right_pid, self.encode_pred(&right_bp)).encode(),
            )
            .unwrap_or_else(|e| unreachable!("two entries fit on a fresh root: {e}"));
        new_root.mark_dirty_unlogged();
        *self.root.lock() = new_root_pid;
        Ok(())
    }

    /// pick_split a node's entries; returns (moved cells, left BP,
    /// right BP).
    #[allow(clippy::type_complexity)]
    fn partition(
        &self,
        g: &gist_pagestore::Page,
    ) -> Result<(Vec<(u16, Vec<u8>)>, E::Pred, E::Pred)> {
        let entries: Vec<(u16, Vec<u8>)> =
            node::entry_cells(g).map(|(s, c)| (s, c.to_vec())).collect();
        let preds: Vec<E::Pred> = entries
            .iter()
            .map(|(_, cell)| {
                if g.is_leaf() {
                    self.ext.key_pred(&self.ext.decode_key(LeafEntryRef::new(cell).key_bytes()))
                } else {
                    self.ext.decode_pred(InternalEntryRef::new(cell).pred_bytes())
                }
            })
            .collect();
        let d = self.ext.pick_split(&preds);
        let left: Vec<E::Pred> = d.left.iter().map(|&i| preds[i].clone()).collect();
        let right: Vec<E::Pred> = d.right.iter().map(|&i| preds[i].clone()).collect();
        let moved: Vec<(u16, Vec<u8>)> = d.right.iter().map(|&i| entries[i].clone()).collect();
        Ok((moved, self.ext.union_many(&left), self.ext.union_many(&right)))
    }

    /// Expand BPs along a fully latched path after a leaf insert.
    fn expand_bps(&self, path: &mut [PageWriteGuard], key: &E::Key) -> Result<()> {
        // Bottom-up: compute each node's new BP, then fix the parent
        // entry (parent is the previous element and still latched).
        let mut child_bp: Option<E::Pred> = None;
        for i in (0..path.len()).rev() {
            let own = self.decode_bp(node::bp_bytes(&path[i]));
            let mut union = match &own {
                None => self.ext.key_pred(key),
                Some(b) => self.ext.union_pred_key(b, key),
            };
            if let Some(cb) = &child_bp {
                union = self.ext.union_preds(&union, cb);
            }
            if own.as_ref() == Some(&union) {
                return Ok(()); // covered: ancestors are too
            }
            let bytes = self.encode_pred(&union);
            node::set_bp(&mut path[i], &bytes)
                .map_err(|e| GistError::Corrupt(format!("BP overflow: {e}")))?;
            path[i].mark_dirty_unlogged();
            if i > 0 {
                let child_pid = path[i].page_id();
                let slot = node::find_child_entry(&path[i - 1], child_pid)
                    .unwrap_or_else(|| unreachable!("entry present: path latched"));
                let cell = InternalEntry::new(child_pid, bytes).encode();
                path[i - 1]
                    .update_cell(slot, &cell)
                    .map_err(|e| GistError::Corrupt(format!("entry overflow: {e}")))?;
                path[i - 1].mark_dirty_unlogged();
            }
            child_bp = Some(union);
        }
        Ok(())
    }
}
