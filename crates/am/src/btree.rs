//! B-tree specialization: `i64` keys, interval bounding predicates,
//! inclusive range queries.
//!
//! This is \[HNP95\]'s canonical example: "the entries in internal nodes
//! represent ranges which bound values of keys in the leaves". Note that
//! unlike a real B⁺-tree the GiST does not require sibling ranges to be
//! disjoint — inserts pick the minimum-penalty branch, and after splits
//! ranges are disjoint in practice but nothing depends on it.

use gist_core::ext::{GistExtension, SplitDecision};

/// Inclusive range query over `i64` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct I64Query {
    /// Lower bound (inclusive).
    pub lo: i64,
    /// Upper bound (inclusive).
    pub hi: i64,
}

impl I64Query {
    /// Range query `[lo, hi]`.
    pub fn range(lo: i64, hi: i64) -> Self {
        I64Query { lo, hi }
    }

    /// Point query `[k, k]`.
    pub fn eq(k: i64) -> Self {
        I64Query { lo: k, hi: k }
    }
}

/// The B-tree extension.
#[derive(Debug, Clone, Copy, Default)]
pub struct BtreeExt;

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn get_i64(b: &[u8], off: usize) -> i64 {
    let mut v = [0u8; 8];
    v.copy_from_slice(&b[off..off + 8]);
    i64::from_le_bytes(v)
}

impl GistExtension for BtreeExt {
    type Key = i64;
    /// `(min, max)` inclusive interval.
    type Pred = (i64, i64);
    type Query = I64Query;

    fn encode_key(&self, key: &i64, out: &mut Vec<u8>) {
        put_i64(out, *key);
    }

    #[inline]
    fn decode_key(&self, bytes: &[u8]) -> i64 {
        get_i64(bytes, 0)
    }

    fn encode_pred(&self, pred: &(i64, i64), out: &mut Vec<u8>) {
        put_i64(out, pred.0);
        put_i64(out, pred.1);
    }

    #[inline]
    fn decode_pred(&self, bytes: &[u8]) -> (i64, i64) {
        (get_i64(bytes, 0), get_i64(bytes, 8))
    }

    fn encode_query(&self, q: &I64Query, out: &mut Vec<u8>) {
        put_i64(out, q.lo);
        put_i64(out, q.hi);
    }

    fn decode_query(&self, bytes: &[u8]) -> I64Query {
        I64Query { lo: get_i64(bytes, 0), hi: get_i64(bytes, 8) }
    }

    #[inline]
    fn consistent_pred(&self, pred: &(i64, i64), q: &I64Query) -> bool {
        pred.0 <= q.hi && q.lo <= pred.1
    }

    #[inline]
    fn consistent_key(&self, key: &i64, q: &I64Query) -> bool {
        q.lo <= *key && *key <= q.hi
    }

    fn key_equal(&self, a: &i64, b: &i64) -> bool {
        a == b
    }

    fn eq_query(&self, key: &i64) -> I64Query {
        I64Query::eq(*key)
    }

    fn key_pred(&self, key: &i64) -> (i64, i64) {
        (*key, *key)
    }

    fn union_preds(&self, a: &(i64, i64), b: &(i64, i64)) -> (i64, i64) {
        (a.0.min(b.0), a.1.max(b.1))
    }

    fn pred_covers(&self, outer: &(i64, i64), inner: &(i64, i64)) -> bool {
        outer.0 <= inner.0 && inner.1 <= outer.1
    }

    fn penalty(&self, pred: &(i64, i64), key: &i64) -> f64 {
        // Interval growth needed to admit the key.
        let below = (pred.0 - *key).max(0);
        let above = (*key - pred.1).max(0);
        (below + above) as f64
    }

    fn pick_split(&self, preds: &[(i64, i64)]) -> SplitDecision {
        // Order by interval midpoint and cut in the middle — yields the
        // classic B-tree half split for point predicates.
        gist_core::ext::median_split(preds, |p| (p.0 as f64 + p.1 as f64) / 2.0)
    }

    // Keys order, so nodes carry summaries: with the sign bit flipped an
    // `i64` compares as a `u64` in the same order, and key, predicate
    // and query intervals map onto `u64` intervals exactly.

    #[inline]
    fn entry_order(&self, bytes: &[u8], leaf: bool) -> Option<[u64; 2]> {
        let lo = order_word(get_i64(bytes, 0));
        Some([lo, if leaf { lo } else { order_word(get_i64(bytes, 8)) }])
    }

    #[inline]
    fn query_order(&self, q: &I64Query) -> Option<[u64; 2]> {
        Some([order_word(q.lo), order_word(q.hi)])
    }
}

/// `v` as a `u64` in the same order: the sign bit flipped.
#[inline]
fn order_word(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrips() {
        let e = BtreeExt;
        for k in [0i64, -5, i64::MAX, i64::MIN, 42] {
            let mut b = Vec::new();
            e.encode_key(&k, &mut b);
            assert_eq!(e.decode_key(&b), k);
        }
        let mut b = Vec::new();
        e.encode_pred(&(-7, 9), &mut b);
        assert_eq!(e.decode_pred(&b), (-7, 9));
        let mut b = Vec::new();
        e.encode_query(&I64Query::range(1, 2), &mut b);
        assert_eq!(e.decode_query(&b), I64Query::range(1, 2));
    }

    #[test]
    fn consistency_semantics() {
        let e = BtreeExt;
        assert!(e.consistent_key(&5, &I64Query::range(1, 10)));
        assert!(!e.consistent_key(&11, &I64Query::range(1, 10)));
        assert!(e.consistent_pred(&(0, 4), &I64Query::range(4, 9)), "touching edges overlap");
        assert!(!e.consistent_pred(&(0, 3), &I64Query::range(4, 9)));
        assert!(e.consistent_key(&7, &e.eq_query(&7)));
    }

    #[test]
    fn union_and_covers_agree() {
        let e = BtreeExt;
        let u = e.union_preds(&(0, 5), &(3, 9));
        assert_eq!(u, (0, 9));
        assert!(e.pred_covers(&u, &(0, 5)));
        assert!(e.pred_covers(&u, &(3, 9)));
        assert!(!e.pred_covers(&(0, 5), &(3, 9)));
        // covers(o, i) ⇔ union(o, i) == o
        assert_eq!(e.pred_covers(&(0, 9), &(2, 3)), e.union_preds(&(0, 9), &(2, 3)) == (0, 9));
    }

    #[test]
    fn penalty_is_zero_inside_and_positive_outside() {
        let e = BtreeExt;
        assert_eq!(e.penalty(&(0, 10), &5), 0.0);
        assert_eq!(e.penalty(&(0, 10), &13), 3.0);
        assert_eq!(e.penalty(&(0, 10), &-2), 2.0);
    }

    #[test]
    fn pick_split_orders_by_value() {
        let e = BtreeExt;
        let preds: Vec<(i64, i64)> = [5, 1, 9, 3, 7, 2].iter().map(|&k| (k, k)).collect();
        let d = e.pick_split(&preds);
        let left_max = d.left.iter().map(|&i| preds[i].1).max().unwrap();
        let right_min = d.right.iter().map(|&i| preds[i].0).min().unwrap();
        assert!(left_max <= right_min, "split respects key order");
        assert_eq!(d.left.len() + d.right.len(), preds.len());
    }

    /// The summary hooks are sound: whenever `consistent` holds for an
    /// encoded key or predicate, its interval meets the query's. Random
    /// values mixed with the extremes and the sign boundary.
    #[test]
    fn order_intervals_meet_whenever_consistent_holds() {
        const EDGES: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 4 {
                0 => EDGES[(state >> 8) as usize % EDGES.len()],
                1 => (state >> 8) as i64 % 1_000,
                _ => state as i64,
            }
        };
        let meets = |a: [u64; 2], b: [u64; 2]| a[0] <= b[1] && b[0] <= a[1];
        let e = BtreeExt;
        let (mut keys_hit, mut preds_hit) = (0, 0);
        for _ in 0..200_000 {
            let (a, b) = (draw(), draw());
            let q = I64Query::range(a.min(b), a.max(b));
            let q_order = e.query_order(&q).unwrap();
            let k = draw();
            let mut kb = Vec::new();
            e.encode_key(&k, &mut kb);
            if e.consistent_key_bytes(&kb, &q) {
                keys_hit += 1;
                assert!(meets(e.entry_order(&kb, true).unwrap(), q_order), "key {k} in {q:?}");
            }
            let (c, d) = (draw(), draw());
            let mut pb = Vec::new();
            e.encode_pred(&(c.min(d), c.max(d)), &mut pb);
            if e.consistent_pred_bytes(&pb, &q) {
                preds_hit += 1;
                assert!(meets(e.entry_order(&pb, false).unwrap(), q_order), "{c}..{d} vs {q:?}");
            }
        }
        assert!(keys_hit > 1_000 && preds_hit > 1_000, "{keys_hit} keys, {preds_hit} preds hit");
        // The order is exact: the sign flip keeps i64 order on u64.
        let words: Vec<u64> = EDGES
            .iter()
            .map(|k| e.query_order(&I64Query::eq(*k)).unwrap()[0])
            .collect();
        assert!(words.windows(2).all(|w| w[0] < w[1]), "{words:?}");
    }
}
