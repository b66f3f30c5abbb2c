//! Randomized (deterministic) tests of the whole system: random
//! operation sequences against a shadow model, and crash-anywhere
//! recovery. Rewritten from `proptest` to a seeded xorshift generator
//! so the workspace has no external dev-deps.

use std::collections::BTreeMap;
use std::sync::Arc;

use gist_repro::am::{BtreeExt, I64Query};
use gist_repro::core::check::check_tree;
use gist_repro::core::{Db, DbConfig, GistIndex, IndexOptions};
use gist_repro::pagestore::{InMemoryStore, PageId, Rid};
use gist_repro::wal::{LogManager, Lsn};

struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed | 1)
    }

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

#[derive(Debug, Clone)]
enum TxnOp {
    Insert(i64),
    DeleteExisting(usize),
    Search(i64, i64),
}

#[derive(Debug, Clone, PartialEq)]
enum TxnEnd {
    Commit,
    Abort,
    SavepointRoundtrip,
}

fn txn_ops(g: &mut Gen) -> (Vec<TxnOp>, TxnEnd) {
    let nops = 1 + g.below(24) as usize;
    let ops = (0..nops)
        .map(|_| match g.below(9) {
            // weights 5:2:2 like the original strategy
            0..=4 => TxnOp::Insert(g.below(500) as i64),
            5 | 6 => TxnOp::DeleteExisting(g.below(64) as usize),
            _ => {
                let lo = g.below(500) as i64;
                let w = g.below(100) as i64;
                TxnOp::Search(lo, lo + w)
            }
        })
        .collect();
    let end = match g.below(8) {
        // weights 5:2:1
        0..=4 => TxnEnd::Commit,
        5 | 6 => TxnEnd::Abort,
        _ => TxnEnd::SavepointRoundtrip,
    };
    (ops, end)
}

fn rid(n: u64) -> Rid {
    Rid::new(PageId(900_000 + (n >> 16) as u32), (n & 0xFFFF) as u16)
}

/// Random single-threaded transactions (commit / abort / savepoint
/// cycle) against a `BTreeMap` model: contents and search results
/// always agree, invariants always hold.
#[test]
fn random_transactions_match_model() {
    let mut g = Gen::new(0x7EE5_0001_DEAD_BEEF);
    for case in 0..40 {
        let store = Arc::new(InMemoryStore::new());
        let log = Arc::new(LogManager::new());
        let db = Db::open(store, log, DbConfig::default()).unwrap();
        let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        // model: rid-counter -> (key); committed state only.
        let mut committed: BTreeMap<u64, i64> = BTreeMap::new();
        let mut next_rid = 0u64;

        let ntxns = 1 + g.below(11) as usize;
        for _ in 0..ntxns {
            let (ops, end) = txn_ops(&mut g);
            let txn = db.begin();
            let mut local = committed.clone();
            let save = match end {
                TxnEnd::SavepointRoundtrip => Some((db.savepoint(txn).unwrap(), local.clone())),
                _ => None,
            };
            for op in ops {
                match op {
                    TxnOp::Insert(k) => {
                        let r = next_rid;
                        next_rid += 1;
                        idx.insert(txn, &k, rid(r)).unwrap();
                        local.insert(r, k);
                    }
                    TxnOp::DeleteExisting(i) => {
                        // Pick the i-th entry of the local view, if any.
                        if let Some((&r, &k)) = local.iter().nth(i % local.len().max(1)) {
                            idx.delete(txn, &k, rid(r)).unwrap();
                            local.remove(&r);
                        }
                    }
                    TxnOp::Search(lo, hi) => {
                        let got = idx.search(txn, &I64Query::range(lo, hi)).unwrap();
                        let expect = local.values().filter(|k| lo <= **k && **k <= hi).count();
                        assert_eq!(got.len(), expect, "case {case}: search within txn");
                    }
                }
            }
            match end {
                TxnEnd::Commit => {
                    db.commit(txn).unwrap();
                    committed = local;
                }
                TxnEnd::Abort => {
                    db.abort(txn).unwrap();
                }
                TxnEnd::SavepointRoundtrip => {
                    // Roll back everything, then commit (net no-op).
                    let (sp, at_save) = save.unwrap();
                    db.rollback_to_savepoint(txn, sp).unwrap();
                    db.commit(txn).unwrap();
                    committed = at_save;
                }
            }
            // Cross-check committed state.
            let txn = db.begin();
            let got = idx.search(txn, &I64Query::range(i64::MIN, i64::MAX)).unwrap();
            db.commit(txn).unwrap();
            let mut got_pairs: Vec<(u64, i64)> = got
                .into_iter()
                .map(|(k, r)| (((r.page.0 - 900_000) as u64) << 16 | r.slot as u64, k))
                .collect();
            got_pairs.sort();
            let want: Vec<(u64, i64)> = committed.iter().map(|(r, k)| (*r, *k)).collect();
            assert_eq!(got_pairs, want, "case {case}: committed state mismatch");
        }
        check_tree(&idx).unwrap().assert_ok();
    }
}

/// Crash-anywhere: commit some transactions, leave one in flight,
/// truncate the durable log at an arbitrary point ≥ the last commit,
/// restart — the committed prefix must be intact and the tree sound.
#[test]
fn crash_at_any_durable_point_recovers() {
    let mut g = Gen::new(0xC4A5_4001_0BAD_F00D);
    for case in 0..40 {
        let store = Arc::new(InMemoryStore::new());
        let log = Arc::new(LogManager::new());
        let db = Db::open(store.clone(), log.clone(), DbConfig::default()).unwrap();
        let idx = GistIndex::create(db.clone(), "t", BtreeExt, IndexOptions::default()).unwrap();
        let mut next_rid = 0u64;
        let mut committed_keys: Vec<i64> = Vec::new();
        let nbatches = 1 + g.below(4) as usize;
        for _ in 0..nbatches {
            let txn = db.begin();
            let batch_len = 1 + g.below(19) as usize;
            for _ in 0..batch_len {
                let k = g.below(300) as i64;
                idx.insert(txn, &k, rid(next_rid)).unwrap();
                next_rid += 1;
                committed_keys.push(k);
            }
            db.commit(txn).unwrap();
        }
        let commit_point = log.flushed_lsn();
        let loser = db.begin();
        let loser_len = g.below(20) as usize;
        for _ in 0..loser_len {
            let k = g.below(300) as i64;
            idx.insert(loser, &k, rid(next_rid)).unwrap();
            next_rid += 1;
        }
        // Flush to an arbitrary point at or past the last commit, then
        // crash: everything after the cut is lost.
        let cut_offset = g.below(400);
        let cut = Lsn((commit_point.0 + cut_offset).min(log.last_lsn().0));
        db.pool().crash();
        log.crash_at(cut);

        let (db2, _) = Db::restart(store, log, DbConfig::default()).unwrap();
        let idx2 = GistIndex::open(db2.clone(), "t", BtreeExt).unwrap();
        let txn = db2.begin();
        let mut got: Vec<i64> = idx2
            .search(txn, &I64Query::range(i64::MIN, i64::MAX))
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        db2.commit(txn).unwrap();
        got.sort();
        committed_keys.sort();
        assert_eq!(got, committed_keys, "case {case}: exactly the committed keys survive");
        check_tree(&idx2).unwrap().assert_ok();
    }
}
