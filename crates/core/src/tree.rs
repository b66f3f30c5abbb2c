//! The typed index handle.

use std::collections::HashSet;
use std::sync::Arc;

use gist_pagestore::{PageId, SlotId};
use gist_predlock::NodeKey;

use crate::db::Db;
use crate::ext::GistExtension;
use crate::node;
use crate::{GistError, Result};

/// Options for index creation.
#[derive(Debug, Clone, Default)]
pub struct IndexOptions {
    /// Enforce key uniqueness (§8).
    pub unique: bool,
}

/// Whole-tree statistics (computed by a full sweep; diagnostic use).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Height (1 = root is a leaf).
    pub height: usize,
    /// Total nodes.
    pub nodes: usize,
    /// Leaf nodes.
    pub leaves: usize,
    /// Live (unmarked) leaf entries.
    pub live_entries: usize,
    /// Delete-marked leaf entries awaiting garbage collection.
    pub marked_entries: usize,
}

/// A GiST index specialized by an extension `E`.
pub struct GistIndex<E: GistExtension> {
    db: Arc<Db>,
    ext: E,
    id: u32,
    catalog_slot: SlotId,
    unique: bool,
    name: String,
}

impl<E: GistExtension> GistIndex<E> {
    /// Create a new index in `db`.
    pub fn create(db: Arc<Db>, name: &str, ext: E, opts: IndexOptions) -> Result<Arc<Self>> {
        let entry = db.create_index_raw(name, opts.unique)?;
        Ok(Self::finish_handle(db, ext, entry))
    }

    /// Open an existing index (e.g. after restart). The caller supplies
    /// the same extension the index was created with.
    pub fn open(db: Arc<Db>, name: &str, ext: E) -> Result<Arc<Self>> {
        let entry = db
            .open_index_raw(name)
            .ok_or_else(|| GistError::Config(format!("no index named {name:?}")))?;
        Ok(Self::finish_handle(db, ext, entry))
    }

    /// Build the handle and make it reachable from the maintenance
    /// daemon (weakly — dropping the handle retires its queued work).
    fn finish_handle(db: Arc<Db>, ext: E, entry: crate::db::CatalogEntry) -> Arc<Self> {
        let idx = Arc::new(GistIndex {
            db,
            ext,
            id: entry.id,
            catalog_slot: entry.slot,
            unique: entry.unique,
            name: entry.name,
        });
        let weak: std::sync::Weak<dyn gist_maint::MaintIndex> = Arc::downgrade(&idx) as _;
        idx.db.maint().register_index(weak);
        idx
    }

    /// The owning database.
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// The extension.
    pub fn ext(&self) -> &E {
        &self.ext
    }

    /// Index id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this is a unique index.
    pub fn is_unique(&self) -> bool {
        self.unique
    }

    /// Catalog slot (stable handle to the root pointer).
    pub(crate) fn catalog_slot(&self) -> SlotId {
        self.catalog_slot
    }

    /// Current root page (read through the durable catalog cell so
    /// concurrent root splits are visible).
    pub fn root(&self) -> Result<PageId> {
        self.db.current_root(self.catalog_slot)
    }

    /// Predicate-manager key for one of this index's nodes.
    pub(crate) fn node_key(&self, page: PageId) -> NodeKey {
        (self.id, page)
    }

    // ---- BP helpers with the empty-BP convention ----
    // A zero-length BP cell means "covers nothing" (fresh empty root).

    /// Decode a BP cell (`None` = empty BP).
    pub(crate) fn decode_bp_opt(&self, bytes: &[u8]) -> Option<E::Pred> {
        if bytes.is_empty() {
            None
        } else {
            Some(self.ext.decode_pred(bytes))
        }
    }

    /// Encode an optional BP.
    pub(crate) fn encode_bp_opt(&self, pred: &Option<E::Pred>) -> Vec<u8> {
        match pred {
            None => Vec::new(),
            Some(p) => {
                let mut out = Vec::new();
                self.ext.encode_pred(p, &mut out);
                out
            }
        }
    }

    /// Expand an optional BP with a key.
    pub(crate) fn bp_union_key(&self, bp: &Option<E::Pred>, key: &E::Key) -> E::Pred {
        match bp {
            None => self.ext.key_pred(key),
            Some(p) => self.ext.union_pred_key(p, key),
        }
    }

    /// Expand an optional BP with a predicate.
    pub(crate) fn bp_union_pred(&self, bp: &Option<E::Pred>, p: &E::Pred) -> E::Pred {
        match bp {
            None => p.clone(),
            Some(b) => self.ext.union_preds(b, p),
        }
    }

    /// Compute tree statistics with a full sweep (no isolation — a
    /// diagnostic snapshot). Each node is copied out latch-free under a
    /// seqlock check, falling back to a latched read per node when its
    /// version word moves or it cannot be read optimistically.
    pub fn stats(&self) -> Result<TreeStats> {
        /// Everything the sweep needs from one node, copied out so the
        /// latch (or optimistic guard) never outlives the visit.
        struct NodeSweep {
            available: bool,
            level: u16,
            rightlink: PageId,
            /// `(marked, live)` entry counts when the node is a leaf.
            leaf: Option<(usize, usize)>,
            children: Vec<PageId>,
        }
        let read_node = |p: &gist_pagestore::Page| {
            let available = p.is_available();
            let is_leaf = !available && p.is_leaf();
            NodeSweep {
                available,
                level: if available { 0 } else { p.level() },
                rightlink: p.rightlink(),
                leaf: is_leaf.then(|| {
                    let (mut marked, mut live) = (0, 0);
                    for (_, e) in node::leaf_views(p) {
                        if e.deleted() {
                            marked += 1;
                        } else {
                            live += 1;
                        }
                    }
                    (marked, live)
                }),
                children: if available || is_leaf {
                    Vec::new()
                } else {
                    node::internal_views(p).map(|(_, e)| e.child()).collect()
                },
            }
        };

        let mut stats = TreeStats::default();
        let root = self.root()?;
        let mut queue = vec![root];
        let mut visited: HashSet<PageId> = HashSet::new();
        let mut max_level = 0u16;
        // One pin for the whole sweep: freed-but-reachable pages stay
        // type-stable while we peek at them latch-free.
        let _pin = self.db.epoch().pin();
        while let Some(pid) = queue.pop() {
            if pid.is_invalid() || !visited.insert(pid) {
                continue;
            }
            let copy = self.db.pool().fetch_optimistic(pid)?.read_with(read_node);
            let ns = match copy {
                Some(ns) => ns,
                None => {
                    // Version word moved (or the frame was evicted):
                    // one latched read settles this node.
                    let g = self.db.pool().fetch_read(pid)?;
                    read_node(&g)
                }
            };
            if ns.available {
                // Freed page still reachable via a dangling rightlink
                // (never followed by operations thanks to the NSN guard).
                continue;
            }
            stats.nodes += 1;
            max_level = max_level.max(ns.level);
            queue.push(ns.rightlink);
            if let Some((marked, live)) = ns.leaf {
                stats.leaves += 1;
                stats.marked_entries += marked;
                stats.live_entries += live;
            } else {
                queue.extend(ns.children);
            }
        }
        stats.height = max_level as usize + 1;
        Ok(stats)
    }
}
