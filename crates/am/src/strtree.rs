//! B-tree over byte-string keys: variable-length keys and predicates
//! (lexicographic ranges), with range, prefix, and equality queries.
//!
//! Exercises the parts of the core that fixed-size extensions do not:
//! variable-length cells, BP cells that grow on union, and predicate
//! encodings with internal length framing.

use gist_core::ext::{GistExtension, SplitDecision};

/// String-key query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrQuery {
    /// Inclusive lexicographic range.
    Range(Vec<u8>, Vec<u8>),
    /// All keys starting with the prefix.
    Prefix(Vec<u8>),
    /// Exact match.
    Eq(Vec<u8>),
}

/// The byte-string B-tree extension.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrTreeExt;

fn put_framed(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// The framed string at `off`, in place, and the offset just past it.
#[inline]
fn get_framed(b: &[u8], off: usize) -> (&[u8], usize) {
    let mut len4 = [0u8; 4];
    len4.copy_from_slice(&b[off..off + 4]);
    let len = u32::from_le_bytes(len4) as usize;
    (&b[off + 4..off + 4 + len], off + 4 + len)
}

/// An encoded `(min, max)` predicate as two slices of its bytes.
#[inline]
fn pred_bounds(bytes: &[u8]) -> (&[u8], &[u8]) {
    let (lo, off) = get_framed(bytes, 0);
    let (hi, _) = get_framed(bytes, off);
    (lo, hi)
}

/// Can the interval `[lo, hi]` contain a key satisfying `q`?
#[inline]
fn interval_consistent(lo: &[u8], hi: &[u8], q: &StrQuery) -> bool {
    match q {
        StrQuery::Range(qlo, qhi) => hi >= qlo.as_slice() && lo <= qhi.as_slice(),
        StrQuery::Eq(k) => hi >= k.as_slice() && lo <= k.as_slice(),
        // Keys with prefix `p` form the range from `p` up to (excluding)
        // the smallest string above all of them; `lo` lies below that
        // bound exactly when it sorts before `p` or itself starts with it.
        StrQuery::Prefix(p) => hi >= p.as_slice() && (lo < p.as_slice() || lo.starts_with(p)),
    }
}

#[inline]
fn key_consistent(key: &[u8], q: &StrQuery) -> bool {
    match q {
        StrQuery::Range(lo, hi) => key >= lo.as_slice() && key <= hi.as_slice(),
        StrQuery::Prefix(p) => key.starts_with(p),
        StrQuery::Eq(k) => key == k.as_slice(),
    }
}

/// No numeric span for strings: charge by how far outside `[lo, hi]` the
/// key falls, using the first differing byte as a coarse distance.
fn interval_penalty(lo: &[u8], hi: &[u8], key: &[u8]) -> f64 {
    fn byte_distance(a: &[u8], b: &[u8]) -> f64 {
        let mut i = 0;
        while i < a.len() && i < b.len() && a[i] == b[i] {
            i += 1;
        }
        let av = a.get(i).copied().unwrap_or(0) as f64;
        let bv = b.get(i).copied().unwrap_or(0) as f64;
        (av - bv).abs() / 256f64.powi(i as i32)
    }
    if key < lo {
        byte_distance(lo, key)
    } else if key > hi {
        byte_distance(key, hi)
    } else {
        0.0
    }
}

impl GistExtension for StrTreeExt {
    type Key = Vec<u8>;
    /// `(min, max)` inclusive lexicographic interval.
    type Pred = (Vec<u8>, Vec<u8>);
    type Query = StrQuery;

    fn encode_key(&self, key: &Vec<u8>, out: &mut Vec<u8>) {
        out.extend_from_slice(key);
    }

    #[inline]
    fn decode_key(&self, bytes: &[u8]) -> Vec<u8> {
        bytes.to_vec()
    }

    fn encode_pred(&self, pred: &(Vec<u8>, Vec<u8>), out: &mut Vec<u8>) {
        put_framed(out, &pred.0);
        put_framed(out, &pred.1);
    }

    #[inline]
    fn decode_pred(&self, bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let (lo, hi) = pred_bounds(bytes);
        (lo.to_vec(), hi.to_vec())
    }

    fn encode_query(&self, q: &StrQuery, out: &mut Vec<u8>) {
        match q {
            StrQuery::Range(lo, hi) => {
                out.push(0);
                put_framed(out, lo);
                put_framed(out, hi);
            }
            StrQuery::Prefix(p) => {
                out.push(1);
                put_framed(out, p);
            }
            StrQuery::Eq(k) => {
                out.push(2);
                put_framed(out, k);
            }
        }
    }

    fn decode_query(&self, bytes: &[u8]) -> StrQuery {
        match bytes[0] {
            0 => {
                let (lo, hi) = pred_bounds(&bytes[1..]);
                StrQuery::Range(lo.to_vec(), hi.to_vec())
            }
            1 => StrQuery::Prefix(get_framed(bytes, 1).0.to_vec()),
            2 => StrQuery::Eq(get_framed(bytes, 1).0.to_vec()),
            t => panic!("bad string query tag {t}"),
        }
    }

    #[inline]
    fn consistent_pred(&self, pred: &(Vec<u8>, Vec<u8>), q: &StrQuery) -> bool {
        interval_consistent(&pred.0, &pred.1, q)
    }

    #[inline]
    fn consistent_key(&self, key: &Vec<u8>, q: &StrQuery) -> bool {
        key_consistent(key, q)
    }

    fn key_equal(&self, a: &Vec<u8>, b: &Vec<u8>) -> bool {
        a == b
    }

    fn eq_query(&self, key: &Vec<u8>) -> StrQuery {
        StrQuery::Eq(key.clone())
    }

    fn key_pred(&self, key: &Vec<u8>) -> (Vec<u8>, Vec<u8>) {
        (key.clone(), key.clone())
    }

    fn union_preds(&self, a: &(Vec<u8>, Vec<u8>), b: &(Vec<u8>, Vec<u8>)) -> (Vec<u8>, Vec<u8>) {
        (a.0.clone().min(b.0.clone()), a.1.clone().max(b.1.clone()))
    }

    fn pred_covers(&self, outer: &(Vec<u8>, Vec<u8>), inner: &(Vec<u8>, Vec<u8>)) -> bool {
        outer.0 <= inner.0 && inner.1 <= outer.1
    }

    fn penalty(&self, pred: &(Vec<u8>, Vec<u8>), key: &Vec<u8>) -> f64 {
        interval_penalty(&pred.0, &pred.1, key)
    }

    // Decoding a key or predicate here copies it into fresh `Vec`s, so
    // the per-entry traversal tests read the encoded bytes in place.

    #[inline]
    fn consistent_key_bytes(&self, key_bytes: &[u8], q: &StrQuery) -> bool {
        key_consistent(key_bytes, q)
    }

    #[inline]
    fn consistent_pred_bytes(&self, pred_bytes: &[u8], q: &StrQuery) -> bool {
        let (lo, hi) = pred_bounds(pred_bytes);
        interval_consistent(lo, hi, q)
    }

    fn penalty_bytes(&self, pred_bytes: &[u8], key: &Vec<u8>) -> f64 {
        let (lo, hi) = pred_bounds(pred_bytes);
        interval_penalty(lo, hi, key)
    }

    fn key_bytes_equal(&self, key_bytes: &[u8], key: &Vec<u8>) -> bool {
        key_bytes == key.as_slice()
    }

    fn pick_split(&self, preds: &[(Vec<u8>, Vec<u8>)]) -> SplitDecision {
        // Sort by lower bound; cut in the middle.
        let mut idx: Vec<usize> = (0..preds.len()).collect();
        idx.sort_by(|&a, &b| preds[a].0.cmp(&preds[b].0));
        let cut = preds.len() / 2;
        SplitDecision { left: idx[..cut].to_vec(), right: idx[cut..].to_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Vec<u8> {
        s.as_bytes().to_vec()
    }

    /// Smallest string strictly greater than every string with prefix
    /// `p` (`None` when `p` is all-0xFF, meaning "unbounded") — the
    /// textbook upper bound `interval_consistent` avoids materializing.
    fn prefix_upper(p: &[u8]) -> Option<Vec<u8>> {
        let mut up = p.to_vec();
        while let Some(last) = up.last_mut() {
            if *last < 0xFF {
                *last += 1;
                return Some(up);
            }
            up.pop();
        }
        None
    }

    #[test]
    fn codec_roundtrips() {
        let e = StrTreeExt;
        let mut b = Vec::new();
        e.encode_key(&k("hello"), &mut b);
        assert_eq!(e.decode_key(&b), k("hello"));
        let p = (k("alpha"), k("omega"));
        let mut b = Vec::new();
        e.encode_pred(&p, &mut b);
        assert_eq!(e.decode_pred(&b), p);
        for q in [
            StrQuery::Range(k("a"), k("b")),
            StrQuery::Prefix(k("pre")),
            StrQuery::Eq(k("x")),
        ] {
            let mut b = Vec::new();
            e.encode_query(&q, &mut b);
            assert_eq!(e.decode_query(&b), q);
        }
    }

    #[test]
    fn prefix_test_matches_the_explicit_upper_bound() {
        assert_eq!(prefix_upper(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_upper(&[0x61, 0xFF]), Some(vec![0x62]));
        assert_eq!(prefix_upper(&[0xFF, 0xFF]), None);
        // Every pair of strings up to length 3 over an alphabet that
        // includes the 0xFF carry case.
        let alphabet = [0x00u8, 0x61, 0xFE, 0xFF];
        let mut strings: Vec<Vec<u8>> = vec![vec![]];
        for len in 1..=3 {
            for i in 0..alphabet.len().pow(len) {
                strings.push((0..len).map(|d| alphabet[i / alphabet.len().pow(d) % 4]).collect());
            }
        }
        for p in &strings {
            let upper = prefix_upper(p);
            for lo in &strings {
                let below_upper = upper.as_ref().is_none_or(|u| lo < u);
                for hi in strings.iter().filter(|hi| *hi >= lo) {
                    assert_eq!(
                        interval_consistent(lo, hi, &StrQuery::Prefix(p.clone())),
                        hi >= p && below_upper,
                        "lo {lo:?} hi {hi:?} prefix {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn query_semantics() {
        let e = StrTreeExt;
        assert!(e.consistent_key(&k("m"), &StrQuery::Range(k("a"), k("z"))));
        assert!(!e.consistent_key(&k("zz"), &StrQuery::Range(k("a"), k("z"))));
        assert!(e.consistent_key(&k("prefix-tail"), &StrQuery::Prefix(k("prefix"))));
        assert!(!e.consistent_key(&k("prefer"), &StrQuery::Prefix(k("prefix"))));
        assert!(e.consistent_key(&k("x"), &e.eq_query(&k("x"))));
    }

    #[test]
    fn pred_consistency_covers_prefix_queries() {
        let e = StrTreeExt;
        let pred = (k("carrot"), k("melon"));
        assert!(e.consistent_pred(&pred, &StrQuery::Prefix(k("d"))));
        assert!(!e.consistent_pred(&pred, &StrQuery::Prefix(k("z"))));
        assert!(e.consistent_pred(&pred, &StrQuery::Range(k("lemon"), k("zebra"))));
        assert!(!e.consistent_pred(&pred, &StrQuery::Range(k("n"), k("o"))));
    }

    #[test]
    fn union_covers_and_penalty() {
        let e = StrTreeExt;
        let u = e.union_preds(&(k("b"), k("d")), &(k("c"), k("f")));
        assert_eq!(u, (k("b"), k("f")));
        assert!(e.pred_covers(&u, &(k("c"), k("d"))));
        assert_eq!(e.penalty(&(k("b"), k("f")), &k("c")), 0.0);
        assert!(e.penalty(&(k("b"), k("f")), &k("z")) > 0.0);
        assert!(e.penalty(&(k("b"), k("f")), &k("g")) < e.penalty(&(k("b"), k("f")), &k("z")));
    }

    #[test]
    fn split_respects_order() {
        let e = StrTreeExt;
        let preds: Vec<(Vec<u8>, Vec<u8>)> =
            ["pear", "apple", "zucchini", "fig", "mango", "kiwi"]
                .iter()
                .map(|s| (k(s), k(s)))
                .collect();
        let d = e.pick_split(&preds);
        let left_max = d.left.iter().map(|&i| preds[i].1.clone()).max().unwrap();
        let right_min = d.right.iter().map(|&i| preds[i].0.clone()).min().unwrap();
        assert!(left_max <= right_min);
    }
}
