//! The borrowed entry views and the byte-level extension tests must be
//! indistinguishable from the owning decoders they replaced on every
//! traversal path: same fields from the same cell bytes, same answers
//! from `consistent` / `penalty` / `key_equal` whether the key or
//! predicate is decoded first or read in place. Checked for all four
//! access methods over seeded random keys, predicates and queries.

use gist_repro::am::{
    BtreeExt, I64Query, RdQuery, RdTreeExt, Rect, RtreeExt, SpatialQuery, StrQuery, StrTreeExt,
};
use gist_repro::core::ext::GistExtension;
use gist_repro::core::{InternalEntry, InternalEntryRef, LeafEntry, LeafEntryRef};
use gist_repro::pagestore::{PageId, Rid};
use gist_repro::wal::TxnId;

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Check one access method over the given samples.
fn views_and_byte_tests_agree<E: GistExtension>(
    ext: &E,
    g: &mut Gen,
    keys: &[E::Key],
    preds: &[E::Pred],
    queries: &[E::Query],
) {
    let encoded_keys: Vec<Vec<u8>> = keys
        .iter()
        .map(|k| {
            let mut b = Vec::new();
            ext.encode_key(k, &mut b);
            b
        })
        .collect();
    let encoded_preds: Vec<Vec<u8>> = preds
        .iter()
        .map(|p| {
            let mut b = Vec::new();
            ext.encode_pred(p, &mut b);
            b
        })
        .collect();

    // Views vs owning decode, field for field, on marked and unmarked
    // leaf cells and on internal cells.
    for kb in &encoded_keys {
        let mut entry =
            LeafEntry::new(kb.clone(), Rid::new(PageId(g.next() as u32), g.next() as u16));
        if g.below(2) == 0 {
            entry.deleted = true;
            entry.deleter = TxnId(g.next());
        }
        let cell = entry.encode();
        let view = LeafEntryRef::new(&cell);
        let owned = LeafEntry::decode(&cell);
        assert_eq!(owned, entry);
        assert_eq!(view.rid(), owned.rid);
        assert_eq!(view.deleted(), owned.deleted);
        assert_eq!(view.deleter(), owned.deleter);
        assert_eq!(view.key_bytes(), owned.key_bytes.as_slice());
        assert_eq!(view.to_owned(), owned);
        assert_eq!(LeafEntry::decode_rid(&cell), owned.rid);
    }
    for pb in &encoded_preds {
        let entry = InternalEntry::new(PageId(g.next() as u32), pb.clone());
        let cell = entry.encode();
        let view = InternalEntryRef::new(&cell);
        let owned = InternalEntry::decode(&cell);
        assert_eq!(owned, entry);
        assert_eq!(view.child(), owned.child);
        assert_eq!(view.pred_bytes(), owned.pred_bytes.as_slice());
        assert_eq!(view.to_owned(), owned);
        assert_eq!(InternalEntry::decode_child(&cell), owned.child);
    }

    // Byte-level tests vs decode-then-call (what the defaults do, and
    // what every override must keep agreeing with).
    for (key, kb) in keys.iter().zip(&encoded_keys) {
        for q in queries {
            assert_eq!(
                ext.consistent_key_bytes(kb, q),
                ext.consistent_key(&ext.decode_key(kb), q),
                "consistent_key_bytes({key:?}, {q:?})"
            );
        }
        for other in keys {
            assert_eq!(
                ext.key_bytes_equal(kb, other),
                ext.key_equal(&ext.decode_key(kb), other),
                "key_bytes_equal({key:?}, {other:?})"
            );
        }
    }
    for (pred, pb) in preds.iter().zip(&encoded_preds) {
        for q in queries {
            assert_eq!(
                ext.consistent_pred_bytes(pb, q),
                ext.consistent_pred(&ext.decode_pred(pb), q),
                "consistent_pred_bytes({pred:?}, {q:?})"
            );
        }
        for key in keys {
            assert_eq!(
                ext.penalty_bytes(pb, key).to_bits(),
                ext.penalty(&ext.decode_pred(pb), key).to_bits(),
                "penalty_bytes({pred:?}, {key:?})"
            );
        }
    }
}

#[test]
fn btree_views_and_byte_tests_agree() {
    let mut g = Gen(0xB7EE);
    // Within ±2^61: `BtreeExt::penalty` subtracts bounds from keys, which
    // overflows nearer the ends of the `i64` range.
    let mut key = |g: &mut Gen| match g.below(8) {
        0 => -(1 << 61),
        1 => 1 << 61,
        2 => 0,
        _ => (g.next() as i64) >> (2 + g.below(58)),
    };
    let keys: Vec<i64> = (0..40).map(|_| key(&mut g)).collect();
    let interval = |g: &mut Gen, key: &mut dyn FnMut(&mut Gen) -> i64| {
        let (a, b) = (key(g), key(g));
        (a.min(b), a.max(b))
    };
    let preds: Vec<(i64, i64)> = (0..40).map(|_| interval(&mut g, &mut key)).collect();
    let mut queries: Vec<I64Query> = keys.iter().take(10).map(|k| I64Query::eq(*k)).collect();
    queries.extend((0..30).map(|_| {
        let (lo, hi) = interval(&mut g, &mut key);
        I64Query::range(lo, hi)
    }));
    views_and_byte_tests_agree(&BtreeExt, &mut g, &keys, &preds, &queries);
}

#[test]
fn strtree_views_and_byte_tests_agree() {
    let mut g = Gen(0x5712);
    // A small alphabet with the 0x00 / 0xFF edge bytes makes shared
    // prefixes, equal strings and prefix-upper-bound carries frequent.
    let string = |g: &mut Gen| -> Vec<u8> {
        let len = g.below(6) as usize;
        (0..len).map(|_| [0x00, 0x61, 0x62, 0xFE, 0xFF][g.below(5) as usize]).collect()
    };
    let keys: Vec<Vec<u8>> = (0..60).map(|_| string(&mut g)).collect();
    let preds: Vec<(Vec<u8>, Vec<u8>)> = (0..60)
        .map(|_| {
            let (a, b) = (string(&mut g), string(&mut g));
            if a <= b {
                (a, b)
            } else {
                (b, a)
            }
        })
        .collect();
    let mut queries = Vec::new();
    for _ in 0..25 {
        queries.push(StrQuery::Eq(string(&mut g)));
        queries.push(StrQuery::Prefix(string(&mut g)));
        let (a, b) = (string(&mut g), string(&mut g));
        queries.push(StrQuery::Range(a.clone().min(b.clone()), a.max(b)));
    }
    views_and_byte_tests_agree(&StrTreeExt, &mut g, &keys, &preds, &queries);
}

#[test]
fn rtree_views_and_byte_tests_agree() {
    let mut g = Gen(0x27EE);
    // Coordinates on a coarse grid so touching edges, containment and
    // exact equality all occur.
    let rect = |g: &mut Gen| {
        let mut c = || g.below(8) as f64 * 0.5 - 1.0;
        Rect::new(c(), c(), c(), c())
    };
    let keys: Vec<Rect> = (0..40).map(|_| rect(&mut g)).collect();
    let preds: Vec<Rect> = (0..40).map(|_| rect(&mut g)).collect();
    let mut queries = Vec::new();
    for _ in 0..15 {
        queries.push(SpatialQuery::Overlaps(rect(&mut g)));
        queries.push(SpatialQuery::Within(rect(&mut g)));
        queries.push(SpatialQuery::Equals(keys[g.below(40) as usize]));
    }
    views_and_byte_tests_agree(&RtreeExt, &mut g, &keys, &preds, &queries);
}

#[test]
fn rdtree_views_and_byte_tests_agree() {
    let mut g = Gen(0x2D7E);
    // AND of draws thins the sets out so subset relations occur.
    let set = |g: &mut Gen| match g.below(6) {
        0 => 0,
        1 => u64::MAX,
        _ => g.next() & g.next() & g.next(),
    };
    let keys: Vec<u64> = (0..40).map(|_| set(&mut g)).collect();
    let preds: Vec<u64> = (0..40).map(|_| set(&mut g) | set(&mut g)).collect();
    let mut queries = Vec::new();
    for _ in 0..15 {
        queries.push(RdQuery::Overlaps(set(&mut g)));
        queries.push(RdQuery::Contains(set(&mut g) & set(&mut g)));
        queries.push(RdQuery::Equals(keys[g.below(40) as usize]));
    }
    views_and_byte_tests_agree(&RdTreeExt, &mut g, &keys, &preds, &queries);
}
