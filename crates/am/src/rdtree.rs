//! RD-tree specialization: set-valued keys (up to 64 elements, stored as
//! bitmasks) with *overlap* and *superset* queries.
//!
//! The "Russian-doll" tree indexes sets by keeping the union of all sets
//! below each subtree as the bounding predicate — an example of a GiST
//! whose key space has no linear order at all, which is exactly the case
//! (§4.1) where key-range locking breaks down and the paper's hybrid
//! predicate locking is required.

use gist_core::ext::{GistExtension, SplitDecision};

/// Set query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdQuery {
    /// Keys sharing at least one element with the probe.
    Overlaps(u64),
    /// Keys that are supersets of the probe.
    Contains(u64),
    /// Exact set equality (the `eq_query` form).
    Equals(u64),
}

/// The RD-tree extension.
#[derive(Debug, Clone, Copy, Default)]
pub struct RdTreeExt;

#[inline]
fn get_u64(b: &[u8], off: usize) -> u64 {
    let mut v = [0u8; 8];
    v.copy_from_slice(&b[off..off + 8]);
    u64::from_le_bytes(v)
}

impl GistExtension for RdTreeExt {
    /// A set of element ids `0..64` as a bitmask.
    type Key = u64;
    /// Union of all keys in the subtree.
    type Pred = u64;
    type Query = RdQuery;

    fn encode_key(&self, key: &u64, out: &mut Vec<u8>) {
        out.extend_from_slice(&key.to_le_bytes());
    }

    #[inline]
    fn decode_key(&self, bytes: &[u8]) -> u64 {
        get_u64(bytes, 0)
    }

    fn encode_pred(&self, pred: &u64, out: &mut Vec<u8>) {
        out.extend_from_slice(&pred.to_le_bytes());
    }

    #[inline]
    fn decode_pred(&self, bytes: &[u8]) -> u64 {
        get_u64(bytes, 0)
    }

    fn encode_query(&self, q: &RdQuery, out: &mut Vec<u8>) {
        let (tag, v) = match q {
            RdQuery::Overlaps(v) => (0u8, v),
            RdQuery::Contains(v) => (1, v),
            RdQuery::Equals(v) => (2, v),
        };
        out.push(tag);
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn decode_query(&self, bytes: &[u8]) -> RdQuery {
        let v = get_u64(bytes, 1);
        match bytes[0] {
            0 => RdQuery::Overlaps(v),
            1 => RdQuery::Contains(v),
            2 => RdQuery::Equals(v),
            t => panic!("bad rd query tag {t}"),
        }
    }

    #[inline]
    fn consistent_pred(&self, pred: &u64, q: &RdQuery) -> bool {
        match q {
            RdQuery::Overlaps(v) => pred & v != 0,
            // A key ⊇ v can only exist below if the union covers v.
            RdQuery::Contains(v) | RdQuery::Equals(v) => pred & v == *v,
        }
    }

    #[inline]
    fn consistent_key(&self, key: &u64, q: &RdQuery) -> bool {
        match q {
            RdQuery::Overlaps(v) => key & v != 0,
            RdQuery::Contains(v) => key & v == *v,
            RdQuery::Equals(v) => key == v,
        }
    }

    fn key_equal(&self, a: &u64, b: &u64) -> bool {
        a == b
    }

    fn eq_query(&self, key: &u64) -> RdQuery {
        RdQuery::Equals(*key)
    }

    fn key_pred(&self, key: &u64) -> u64 {
        *key
    }

    fn union_preds(&self, a: &u64, b: &u64) -> u64 {
        a | b
    }

    fn pred_covers(&self, outer: &u64, inner: &u64) -> bool {
        outer & inner == *inner
    }

    fn penalty(&self, pred: &u64, key: &u64) -> f64 {
        ((pred | key).count_ones() - pred.count_ones()) as f64
    }

    fn pick_split(&self, preds: &[u64]) -> SplitDecision {
        // Seeds: the pair with the largest symmetric difference; then
        // greedy assignment by union growth.
        let n = preds.len();
        assert!(n >= 2);
        let (mut s1, mut s2, mut worst) = (0, 1, -1i32);
        for i in 0..n {
            for j in i + 1..n {
                let diff = (preds[i] ^ preds[j]).count_ones() as i32;
                if diff > worst {
                    worst = diff;
                    s1 = i;
                    s2 = j;
                }
            }
        }
        let mut left = vec![s1];
        let mut right = vec![s2];
        let (mut lu, mut ru) = (preds[s1], preds[s2]);
        for (i, &p) in preds.iter().enumerate() {
            if i == s1 || i == s2 {
                continue;
            }
            let dl = (lu | p).count_ones() - lu.count_ones();
            let dr = (ru | p).count_ones() - ru.count_ones();
            if dl < dr || (dl == dr && left.len() <= right.len()) {
                lu |= p;
                left.push(i);
            } else {
                ru |= p;
                right.push(i);
            }
        }
        SplitDecision { left, right }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u64 = 0b0001;
    const B: u64 = 0b0010;
    const C: u64 = 0b0100;

    #[test]
    fn codec_roundtrips() {
        let e = RdTreeExt;
        let mut b = Vec::new();
        e.encode_key(&(A | C), &mut b);
        assert_eq!(e.decode_key(&b), A | C);
        for q in [RdQuery::Overlaps(A), RdQuery::Contains(A | B), RdQuery::Equals(C)] {
            let mut b = Vec::new();
            e.encode_query(&q, &mut b);
            assert_eq!(e.decode_query(&b), q);
        }
    }

    #[test]
    fn query_semantics() {
        let e = RdTreeExt;
        let key = A | B;
        assert!(e.consistent_key(&key, &RdQuery::Overlaps(B | C)));
        assert!(!e.consistent_key(&key, &RdQuery::Overlaps(C)));
        assert!(e.consistent_key(&key, &RdQuery::Contains(A)));
        assert!(!e.consistent_key(&key, &RdQuery::Contains(A | C)));
        assert!(e.consistent_key(&key, &e.eq_query(&(A | B))));
        assert!(!e.consistent_key(&key, &e.eq_query(&A)));
    }

    #[test]
    fn pred_consistency_is_sound() {
        // If any key under `pred` satisfies q, consistent_pred(pred, q)
        // must be true (pred = union of keys).
        let e = RdTreeExt;
        let keys = [A, A | B, B | C];
        let pred = keys.iter().fold(0, |acc, k| e.union_preds(&acc, k));
        for q in [RdQuery::Overlaps(C), RdQuery::Contains(B | C), RdQuery::Equals(A | B)] {
            let any_key = keys.iter().any(|k| e.consistent_key(k, &q));
            if any_key {
                assert!(e.consistent_pred(&pred, &q), "{q:?} must be consistent");
            }
        }
    }

    #[test]
    fn penalty_counts_new_elements() {
        let e = RdTreeExt;
        assert_eq!(e.penalty(&(A | B), &A), 0.0);
        assert_eq!(e.penalty(&(A | B), &(C | B)), 1.0);
        assert_eq!(e.penalty(&0, &(A | B | C)), 3.0);
    }

    #[test]
    fn split_separates_disjoint_clusters() {
        let e = RdTreeExt;
        let preds = vec![A, A, A | B, C << 8, C << 8, (C | A) << 8];
        let d = e.pick_split(&preds);
        assert!(!d.left.is_empty() && !d.right.is_empty());
        assert_eq!(d.left.len() + d.right.len(), preds.len());
    }
}
