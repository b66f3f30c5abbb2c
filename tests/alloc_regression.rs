//! Allocation regression test for the traversal paths: what a warm point
//! lookup or a plain insert allocates must not depend on how many entries
//! sit on the nodes it visits.
//!
//! Every traversal tests each entry of each visited node; when that test
//! first materialises the entry (an owning decode, or an extension whose
//! `decode_key` copies), a lookup pays one `malloc` per entry it looks at
//! and the count below scales with leaf occupancy. With the borrowed
//! entry views it is a small constant: predicate registration, the result
//! vector, lock-table entries.
//!
//! Own test binary because it installs a counting `#[global_allocator]`.
//! Counting is per thread (the maintenance worker allocates on its own)
//! and only while the measuring thread asks for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gist_repro::am::{BtreeExt, I64Query, StrTreeExt};
use gist_repro::core::ext::{GistExtension, SplitDecision};
use gist_repro::core::{Db, DbConfig, GistIndex, IndexOptions};
use gist_repro::pagestore::{InMemoryStore, PageId, Rid};
use gist_repro::wal::LogManager;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn note() {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is bumping a
// `const`-initialised, destructor-free thread-local counter, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods of this impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations (including reallocations) this thread makes in `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn median(mut counts: Vec<u64>) -> u64 {
    counts.sort_unstable();
    counts[counts.len() / 2]
}

/// `BtreeExt` with its bounding predicates padded on the page, so that
/// internal nodes hold tens of entries instead of hundreds and a few
/// thousand keys make a height-3 tree. Leaf cells are `BtreeExt`'s own
/// (~140 per leaf after a random load); the `*_bytes` tests are the
/// trait's decode-and-delegate defaults.
struct WidePredBtree;

const PRED_PAD: usize = 400;

impl GistExtension for WidePredBtree {
    type Key = i64;
    type Pred = (i64, i64);
    type Query = I64Query;

    fn encode_key(&self, key: &i64, out: &mut Vec<u8>) {
        BtreeExt.encode_key(key, out);
    }
    fn decode_key(&self, bytes: &[u8]) -> i64 {
        BtreeExt.decode_key(bytes)
    }
    fn encode_pred(&self, pred: &(i64, i64), out: &mut Vec<u8>) {
        out.reserve(16 + PRED_PAD);
        BtreeExt.encode_pred(pred, out);
        out.resize(out.len() + PRED_PAD, 0);
    }
    fn decode_pred(&self, bytes: &[u8]) -> (i64, i64) {
        BtreeExt.decode_pred(bytes)
    }
    fn encode_query(&self, q: &I64Query, out: &mut Vec<u8>) {
        BtreeExt.encode_query(q, out);
    }
    fn decode_query(&self, bytes: &[u8]) -> I64Query {
        BtreeExt.decode_query(bytes)
    }
    fn consistent_pred(&self, pred: &(i64, i64), q: &I64Query) -> bool {
        BtreeExt.consistent_pred(pred, q)
    }
    fn consistent_key(&self, key: &i64, q: &I64Query) -> bool {
        BtreeExt.consistent_key(key, q)
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
        BtreeExt.union_preds(a, b)
    }
    fn pred_covers(&self, outer: &(i64, i64), inner: &(i64, i64)) -> bool {
        BtreeExt.pred_covers(outer, inner)
    }
    fn penalty(&self, pred: &(i64, i64), key: &i64) -> f64 {
        BtreeExt.penalty(pred, key)
    }
    fn pick_split(&self, preds: &[(i64, i64)]) -> SplitDecision {
        BtreeExt.pick_split(preds)
    }
}

fn rid(n: usize) -> Rid {
    Rid::new(PageId(5000 + (n >> 12) as u32), (n & 0xFFF) as u16)
}

/// Every seventh key survives thinning; lookups probe survivors only.
const KEEP_EVERY: usize = 7;
const PROBES: usize = 31;

struct Loaded<E: GistExtension> {
    db: Arc<Db>,
    idx: Arc<GistIndex<E>>,
    entries_per_leaf: usize,
}

/// Load `keys` in a scrambled order; with `thin`, then delete all but
/// every [`KEEP_EVERY`]-th key and vacuum, which leaves the same nodes
/// holding a seventh of the entries.
fn load<E: GistExtension>(ext: E, keys: &[E::Key], thin: bool) -> Loaded<E> {
    let db = Db::open(
        Arc::new(InMemoryStore::new()),
        Arc::new(LogManager::new()),
        DbConfig { pool_capacity: 1024, ..DbConfig::default() },
    )
    .unwrap();
    let idx = GistIndex::create(db.clone(), "t", ext, IndexOptions::default()).unwrap();
    let n = keys.len();
    let stride = 7919; // prime, coprime with every n used here
    let txn = db.begin();
    for i in 0..n {
        let at = i * stride % n;
        idx.insert(txn, &keys[at], rid(at)).unwrap();
    }
    db.commit(txn).unwrap();
    if thin {
        let txn = db.begin();
        for (at, key) in keys.iter().enumerate().filter(|(at, _)| at % KEEP_EVERY != 0) {
            idx.delete(txn, key, rid(at)).unwrap();
        }
        db.commit(txn).unwrap();
        let txn = db.begin();
        idx.vacuum_sync(txn).unwrap();
        db.commit(txn).unwrap();
    }
    let stats = idx.stats().unwrap();
    assert_eq!(stats.height, 3, "{stats:?}");
    assert_eq!(stats.marked_entries, 0, "{stats:?}");
    Loaded { db, idx, entries_per_leaf: stats.live_entries / stats.leaves }
}

/// Median allocation count of a warm `search(eq key)` over surviving keys.
fn lookup_allocations<E: GistExtension>(t: &Loaded<E>, keys: &[E::Key]) -> u64 {
    let survivors: Vec<usize> = (0..keys.len()).step_by(KEEP_EVERY).collect();
    let probe = |i: usize| survivors[i * 131 % survivors.len()];
    let mut counts = Vec::new();
    // The first round warms the pool, the lock and predicate tables.
    for round in 0..2 {
        counts.clear();
        for i in 0..PROBES {
            let at = probe(i + round);
            let q = t.idx.ext().eq_query(&keys[at]);
            let txn = t.db.begin();
            let (hits, n) = allocations_in(|| t.idx.search(txn, &q).unwrap());
            t.db.commit(txn).unwrap();
            assert_eq!(hits.iter().map(|(_, r)| *r).collect::<Vec<_>>(), vec![rid(at)]);
            counts.push(n);
        }
    }
    median(counts)
}

/// Median allocation count of one `insert` of a fresh key. Most inserts
/// land inside their leaf's bounding predicate with room to spare; the
/// median ignores the few that widen a predicate or split.
fn insert_allocations<E: GistExtension>(t: &Loaded<E>, fresh: &[E::Key]) -> u64 {
    let mut counts = Vec::new();
    for (i, key) in fresh.iter().enumerate() {
        let txn = t.db.begin();
        let ((), n) = allocations_in(|| t.idx.insert(txn, key, rid(100_000 + i)).unwrap());
        t.db.commit(txn).unwrap();
        counts.push(n);
    }
    median(counts)
}

/// The property, for one access method: same allocation counts on a
/// densely and a sparsely populated copy of the same tree.
fn allocations_do_not_scale_with_leaf_occupancy<E: GistExtension>(
    make_ext: impl Fn() -> E,
    keys: &[E::Key],
    fresh: &[E::Key],
    dense_at_least: usize,
    sparse_at_most: usize,
    lookup_bound: u64,
    insert_bound: u64,
) {
    let dense = load(make_ext(), keys, false);
    let sparse = load(make_ext(), keys, true);
    assert!(dense.entries_per_leaf >= dense_at_least, "dense: {}", dense.entries_per_leaf);
    assert!(sparse.entries_per_leaf <= sparse_at_most, "sparse: {}", sparse.entries_per_leaf);

    let (dense_lookup, sparse_lookup) =
        (lookup_allocations(&dense, keys), lookup_allocations(&sparse, keys));
    assert_eq!(
        dense_lookup, sparse_lookup,
        "allocations per lookup differ between {}- and {}-entry leaves",
        dense.entries_per_leaf, sparse.entries_per_leaf
    );
    assert!(dense_lookup <= lookup_bound, "{dense_lookup} allocations per warm point lookup");

    let (dense_insert, sparse_insert) =
        (insert_allocations(&dense, fresh), insert_allocations(&sparse, fresh));
    assert_eq!(
        dense_insert, sparse_insert,
        "allocations per insert differ between {}- and {}-entry leaves",
        dense.entries_per_leaf, sparse.entries_per_leaf
    );
    assert!(dense_insert <= insert_bound, "{dense_insert} allocations per plain insert");
}

/// The core traversal with the trait's default (decode-and-delegate)
/// byte tests: 140-entry against 20-entry leaves, height 3.
#[test]
fn core_traversal_allocations_are_independent_of_fanout() {
    let keys: Vec<i64> = (0..6000).map(|k| k * 10).collect();
    // Fresh keys next to survivors, spread over the key space.
    let fresh: Vec<i64> =
        (0..PROBES as i64).map(|i| (i * 189 % 850) * 10 * KEEP_EVERY as i64 + 1).collect();
    allocations_do_not_scale_with_leaf_occupancy(|| WidePredBtree, &keys, &fresh, 100, 30, 20, 32);
}

/// The same through `StrTreeExt`, whose `decode_key` / `decode_pred` copy
/// into fresh `Vec`s: its `*_bytes` overrides must keep the per-entry
/// tests in place.
#[test]
fn strtree_traversal_allocations_are_independent_of_fanout() {
    // 96-byte keys: ~50 entries per leaf, ~25 per internal node.
    let key = |k: usize, tail: u8| {
        let mut s = format!("key-{k:08}-").into_bytes();
        s.resize(95, b'.');
        s.push(tail);
        s
    };
    let keys: Vec<Vec<u8>> = (0..6000).map(|k| key(k, b'0')).collect();
    let fresh: Vec<Vec<u8>> =
        (0..PROBES).map(|i| key((i * 189 % 850) * KEEP_EVERY, b'1')).collect();
    allocations_do_not_scale_with_leaf_occupancy(|| StrTreeExt, &keys, &fresh, 35, 10, 20, 32);
}

/// [`WidePredBtree`] with `BtreeExt`'s order hooks: the same trees, whose
/// nodes now carry order summaries.
struct OrderedWidePredBtree;

impl GistExtension for OrderedWidePredBtree {
    type Key = i64;
    type Pred = (i64, i64);
    type Query = I64Query;

    fn encode_key(&self, key: &i64, out: &mut Vec<u8>) {
        WidePredBtree.encode_key(key, out);
    }
    fn decode_key(&self, bytes: &[u8]) -> i64 {
        WidePredBtree.decode_key(bytes)
    }
    fn encode_pred(&self, pred: &(i64, i64), out: &mut Vec<u8>) {
        WidePredBtree.encode_pred(pred, out);
    }
    fn decode_pred(&self, bytes: &[u8]) -> (i64, i64) {
        WidePredBtree.decode_pred(bytes)
    }
    fn encode_query(&self, q: &I64Query, out: &mut Vec<u8>) {
        WidePredBtree.encode_query(q, out);
    }
    fn decode_query(&self, bytes: &[u8]) -> I64Query {
        WidePredBtree.decode_query(bytes)
    }
    fn consistent_pred(&self, pred: &(i64, i64), q: &I64Query) -> bool {
        WidePredBtree.consistent_pred(pred, q)
    }
    fn consistent_key(&self, key: &i64, q: &I64Query) -> bool {
        WidePredBtree.consistent_key(key, q)
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
        WidePredBtree.union_preds(a, b)
    }
    fn pred_covers(&self, outer: &(i64, i64), inner: &(i64, i64)) -> bool {
        WidePredBtree.pred_covers(outer, inner)
    }
    fn penalty(&self, pred: &(i64, i64), key: &i64) -> f64 {
        WidePredBtree.penalty(pred, key)
    }
    fn pick_split(&self, preds: &[(i64, i64)]) -> SplitDecision {
        WidePredBtree.pick_split(preds)
    }
    fn entry_order(&self, bytes: &[u8], leaf: bool) -> Option<[u64; 2]> {
        // The padding follows the 16 bytes `BtreeExt` reads.
        BtreeExt.entry_order(bytes, leaf)
    }
    fn query_order(&self, q: &I64Query) -> Option<[u64; 2]> {
        BtreeExt.query_order(q)
    }
}

/// Median allocation count of a point lookup right after a committed
/// insert next to the probed key, which lands on the probed key's leaf
/// (the median ignores the few inserts that split or widen a BP).
fn lookup_after_write_allocations<E: GistExtension<Key = i64>>(t: &Loaded<E>, keys: &[i64]) -> u64 {
    let survivors: Vec<usize> = (0..keys.len()).step_by(KEEP_EVERY).collect();
    let mut counts = Vec::new();
    for i in 0..PROBES {
        let at = survivors[i * 131 % survivors.len()];
        let txn = t.db.begin();
        t.idx.insert(txn, &(keys[at] + 1), rid(200_000 + i)).unwrap();
        t.db.commit(txn).unwrap();
        let q = t.idx.ext().eq_query(&keys[at]);
        let txn = t.db.begin();
        let (hits, n) = allocations_in(|| t.idx.search(txn, &q).unwrap());
        t.db.commit(txn).unwrap();
        assert_eq!(hits.iter().map(|(_, r)| *r).collect::<Vec<_>>(), vec![rid(at)]);
        counts.push(n);
    }
    median(counts)
}

/// Order summaries cost a warm point lookup nothing: it allocates what
/// the same lookup allocates on the same tree without them. A write
/// drops its leaf's summary, and the first lookup after it allocates
/// exactly one more: the leaf's new summary.
#[test]
fn summaries_cost_one_allocation_per_write_and_none_warm() {
    let keys: Vec<i64> = (0..6000).map(|k| k * 10).collect();
    let plain = load(WidePredBtree, &keys, false);
    let ordered = load(OrderedWidePredBtree, &keys, false);
    let (plain_warm, ordered_warm) =
        (lookup_allocations(&plain, &keys), lookup_allocations(&ordered, &keys));
    assert_eq!(ordered_warm, plain_warm, "a warm lookup pays for its summaries");
    let plain_written = lookup_after_write_allocations(&plain, &keys);
    let ordered_written = lookup_after_write_allocations(&ordered, &keys);
    assert_eq!(plain_written, plain_warm, "a write changes what a lookup allocates");
    assert_eq!(ordered_written, ordered_warm + 1, "one summary rebuilt after a write");
}

