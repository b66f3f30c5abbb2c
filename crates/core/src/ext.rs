//! The GiST extension interface (\[HNP95\] §2 of the paper).
//!
//! "A GiST can be specialized to any particular tree-based access method
//! by letting the implementor provide a small number of extension methods
//! which customize the behavior of the tree with respect to the data type
//! and query." The paper's concurrency and recovery machinery calls only
//! these methods — never the key semantics directly — which is what makes
//! the protocols generic.
//!
//! Three associated types:
//! - `Key`: what leaf entries store,
//! - `Pred`: bounding predicates (BPs) in internal entries and node
//!   headers,
//! - `Query`: search predicates.
//!
//! Keys, predicates and queries are serialized with hand-written codecs so
//! they can live on pages, in log records and in the predicate manager.

use std::fmt::Debug;

/// How `pick_split` distributed entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitDecision {
    /// Indexes (into the input slice) that stay on the original node.
    pub left: Vec<usize>,
    /// Indexes that move to the new right sibling.
    pub right: Vec<usize>,
}

/// Extension methods specializing the GiST to an access method.
///
/// Implementations must be cheap to clone conceptually (they are stored
/// behind the index handle and shared across threads).
pub trait GistExtension: Send + Sync + 'static {
    /// Leaf key type.
    type Key: Clone + Debug + Send + Sync;
    /// Bounding-predicate type.
    type Pred: Clone + Debug + PartialEq + Send + Sync;
    /// Search-predicate type.
    type Query: Clone + Debug + Send + Sync;

    // ---- codecs ----

    /// Serialize a key.
    fn encode_key(&self, key: &Self::Key, out: &mut Vec<u8>);
    /// Deserialize a key (input produced by [`encode_key`](Self::encode_key)).
    fn decode_key(&self, bytes: &[u8]) -> Self::Key;
    /// Serialize a bounding predicate.
    fn encode_pred(&self, pred: &Self::Pred, out: &mut Vec<u8>);
    /// Deserialize a bounding predicate.
    fn decode_pred(&self, bytes: &[u8]) -> Self::Pred;
    /// Serialize a query.
    fn encode_query(&self, query: &Self::Query, out: &mut Vec<u8>);
    /// Deserialize a query.
    fn decode_query(&self, bytes: &[u8]) -> Self::Query;

    // ---- the \[HNP95\] extension methods ----

    /// `consistent()` for internal entries: can the subtree bounded by
    /// `pred` contain keys satisfying `query`?
    fn consistent_pred(&self, pred: &Self::Pred, query: &Self::Query) -> bool;

    /// `consistent()` for leaf entries: does `key` satisfy `query`?
    fn consistent_key(&self, key: &Self::Key, query: &Self::Query) -> bool;

    /// Exact key equality (delete and unique-insert target tests).
    fn key_equal(&self, a: &Self::Key, b: &Self::Key) -> bool;

    /// The "`= key`" query of §8, used to locate a key for deletion and to
    /// probe (and predicate-lock) unique-index insertions.
    fn eq_query(&self, key: &Self::Key) -> Self::Query;

    /// The minimal predicate containing exactly `key` (lifts a key into
    /// predicate space; used to run `pick_split` over leaf entries).
    fn key_pred(&self, key: &Self::Key) -> Self::Pred;

    /// `union()`: smallest predicate covering both arguments.
    fn union_preds(&self, a: &Self::Pred, b: &Self::Pred) -> Self::Pred;

    /// Whether `outer` covers `inner` (no expansion needed). Must agree
    /// with `union_preds`: `pred_covers(o, i)` ⇔ `union_preds(o, i) == o`.
    fn pred_covers(&self, outer: &Self::Pred, inner: &Self::Pred) -> bool;

    /// `penalty()`: domain-specific cost of inserting a key under `pred`
    /// ("typically reflects how much the predicate has to be expanded").
    /// Lower is better.
    fn penalty(&self, pred: &Self::Pred, key: &Self::Key) -> f64;

    /// `pickSplit()`: distribute `preds` (one per entry) over the
    /// original node and a new right sibling. Both sides must be
    /// non-empty and together cover every index exactly once.
    fn pick_split(&self, preds: &[Self::Pred]) -> SplitDecision;

    // ---- derived helpers (override for speed) ----

    /// Union of a non-empty slice of predicates.
    fn union_many(&self, preds: &[Self::Pred]) -> Self::Pred {
        let mut acc = preds[0].clone();
        for p in &preds[1..] {
            acc = self.union_preds(&acc, p);
        }
        acc
    }

    /// Expand `pred` to cover `key`.
    fn union_pred_key(&self, pred: &Self::Pred, key: &Self::Key) -> Self::Pred {
        self.union_preds(pred, &self.key_pred(key))
    }

    /// Whether `pred` already covers `key`.
    fn pred_covers_key(&self, pred: &Self::Pred, key: &Self::Key) -> bool {
        self.pred_covers(pred, &self.key_pred(key))
    }

    // ---- byte-level forms of the traversal tests ----
    //
    // The tree calls these on every entry of every node it visits, with
    // the key or predicate still in place on the page. The defaults
    // decode and delegate, which is free for fixed-size types; override
    // them where `decode_key`/`decode_pred` allocate (variable-length
    // keys), comparing against the bytes directly. An override must
    // agree with its default on every input the codecs can produce.

    /// [`consistent_key`](Self::consistent_key) on an encoded key. Also
    /// the §6 conflict test between a scan predicate and an insert
    /// predicate's key ("the function consistent(), which is used to
    /// detect conflicting predicates, is the same user-supplied function
    /// used for navigation").
    fn consistent_key_bytes(&self, key_bytes: &[u8], query: &Self::Query) -> bool {
        self.consistent_key(&self.decode_key(key_bytes), query)
    }

    /// [`consistent_pred`](Self::consistent_pred) on an encoded predicate.
    fn consistent_pred_bytes(&self, pred_bytes: &[u8], query: &Self::Query) -> bool {
        self.consistent_pred(&self.decode_pred(pred_bytes), query)
    }

    /// [`penalty`](Self::penalty) on an encoded predicate.
    fn penalty_bytes(&self, pred_bytes: &[u8], key: &Self::Key) -> f64 {
        self.penalty(&self.decode_pred(pred_bytes), key)
    }

    /// [`key_equal`](Self::key_equal) between an encoded key and a
    /// decoded one (delete's leaf match).
    fn key_bytes_equal(&self, key_bytes: &[u8], key: &Self::Key) -> bool {
        self.key_equal(&self.decode_key(key_bytes), key)
    }

    /// Conflict test between an encoded scan predicate and a decoded BP
    /// (predicate replication at splits and percolation).
    fn query_bytes_consistent_pred(&self, query_bytes: &[u8], pred: &Self::Pred) -> bool {
        let q = self.decode_query(query_bytes);
        self.consistent_pred(pred, &q)
    }

    /// Conflict test between an encoded insert-predicate key and a BP.
    fn key_bytes_within_pred(&self, key_bytes: &[u8], pred: &Self::Pred) -> bool {
        let k = self.decode_key(key_bytes);
        self.pred_covers_key(pred, &k)
    }

    // ---- optional order (node summaries) ----
    //
    // A GiST assumes no order on its keys, so both hooks default to
    // `None` and the traversal tests every entry. An extension whose
    // keys do order can map them onto `u64`: each visited node then
    // carries a summary of one `[lo, hi]` interval per entry, and a
    // traversal tests only the entries whose interval meets the query's.
    // `consistent_*_bytes` still decides every entry it tests, so the
    // intervals only have to be sound, not exact: whenever
    // `consistent_key_bytes(k, q)` (or `consistent_pred_bytes(p, q)`)
    // holds, `entry_order` of `k` (or `p`) must meet `query_order(q)`.

    /// The interval `[lo, hi]` of an encoded entry: a key when `leaf`,
    /// a bounding predicate otherwise. `None` stands for every value.
    fn entry_order(&self, bytes: &[u8], leaf: bool) -> Option<[u64; 2]> {
        let _ = (bytes, leaf);
        None
    }

    /// The interval every entry consistent with `query` meets; `None`
    /// (the default) scans every entry.
    fn query_order(&self, query: &Self::Query) -> Option<[u64; 2]> {
        let _ = query;
        None
    }
}

/// A linear-split `pick_split` helper usable by extensions: sorts by a
/// caller-provided centroid measure and cuts in the middle. Guarantees
/// both sides non-empty for inputs of length ≥ 2.
pub fn median_split<T, F: Fn(&T) -> f64>(items: &[T], measure: F) -> SplitDecision {
    assert!(items.len() >= 2, "cannot split fewer than 2 entries");
    let mut idx: Vec<usize> = (0..items.len()).collect();
    idx.sort_by(|&a, &b| {
        measure(&items[a]).partial_cmp(&measure(&items[b])).unwrap_or(std::cmp::Ordering::Equal)
    });
    let cut = items.len() / 2;
    SplitDecision { left: idx[..cut].to_vec(), right: idx[cut..].to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_split_partitions() {
        let items = vec![5.0, 1.0, 9.0, 3.0];
        let d = median_split(&items, |x| *x);
        assert_eq!(d.left.len() + d.right.len(), 4);
        let mut all: Vec<usize> = d.left.iter().chain(d.right.iter()).copied().collect();
        all.sort();
        assert_eq!(all, vec![0, 1, 2, 3]);
        // Every left measure ≤ every right measure.
        for &l in &d.left {
            for &r in &d.right {
                assert!(items[l] <= items[r]);
            }
        }
    }

    #[test]
    #[should_panic]
    fn median_split_rejects_singletons() {
        median_split(&[1.0], |x| *x);
    }
}
