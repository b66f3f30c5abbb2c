//! The in-process side: dataset build, the transaction mixes that run
//! against a `Db` in this process, and the checks on what they return.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gist_repro::am::{BtreeExt, I64Query};
use gist_repro::core::check::check_tree;
use gist_repro::core::{Db, DbConfig, GistIndex, IndexOptions};
use gist_repro::pagestore::{FileStore, PageId, PageStore, Rid, PAGE_SIZE};
use gist_repro::wal::{LogManager, TxnId};

use crate::metrics::Workload;
use crate::run::{Driver, Params, Rng, TxnEnd};
use crate::trace::{self, Kind, TimedStore};

pub type Index = Arc<GistIndex<BtreeExt>>;
type GistResult<T> = gist_repro::core::Result<T>;

/// Spacing of the preloaded keys `k * STRIDE`. Keys the clients insert
/// take the gaps `k * STRIDE + 1..=CLIENT_GAPS`; the last two gaps belong
/// to the crash image's committed tail and its loser.
pub const STRIDE: i64 = 10;
pub const CLIENT_GAPS: u64 = 7;
/// Keys a range scan spans (`RANGE_KEYS * STRIDE` of key space).
pub const RANGE_KEYS: i64 = 20;
/// A client deletes the key it inserted this many transactions ago, so
/// the dataset stays the size it was loaded at.
const FIFO_DEPTH: usize = 64;
/// Keys per bulk-load transaction.
const LOAD_BATCH: i64 = 1000;

/// The synthetic record id of item `n` (distinct for every `n`; no heap
/// page stands behind it, which the in-process workloads never need).
pub fn rid_of(n: u64) -> Rid {
    Rid::new(PageId(1_000_000 + (n >> 12) as u32), (n & 0xFFF) as u16)
}

/// Frames that hold the whole tree with room to spare.
pub fn hot_frames(keys: i64) -> usize {
    4096.max(keys as usize / 40)
}

/// A quarter of the tree (a leaf holds ~140 keys).
fn cold_frames(keys: i64) -> usize {
    64.max(keys as usize * 9 / 5000)
}

/// The engine configuration a workload runs under. The flush policy is
/// the same everywhere and is the default: `Durability::Immediate`,
/// group commit on, no simulated sync latency, in-memory log device.
pub fn config_for(w: Workload, keys: i64) -> DbConfig {
    match w {
        Workload::PointReadHot | Workload::ScanInsertHot => DbConfig {
            pool_capacity: hot_frames(keys),
            ..DbConfig::default()
        },
        Workload::MixedColdFile => DbConfig {
            pool_capacity: cold_frames(keys),
            ..DbConfig::default()
        },
        // What `gist-serve` opens its database with.
        Workload::ServedMixed => DbConfig::default(),
    }
}

pub struct Engine {
    pub db: Arc<Db>,
    pub idx: Index,
    /// Present in traced runs only.
    pub timed: Option<Arc<TimedStore>>,
    pub keys: i64,
    /// What [`maintenance_loop`] has done so far.
    pub maint: MaintTally,
}

/// Work done by the benchmark's own maintenance thread.
#[derive(Debug, Default)]
pub struct MaintTally {
    pub sweeps: AtomicU64,
    pub entries_reclaimed: AtomicU64,
    /// Checkpoints or sweeps that failed or panicked, with the first message.
    pub failed: AtomicU64,
    pub first_failure: Mutex<Option<String>>,
}

/// Open the page file at `pages`, through a [`TimedStore`] when `timed`.
pub fn open_store(pages: &Path, timed: bool) -> (Arc<dyn PageStore>, Option<Arc<TimedStore>>) {
    let file = FileStore::open(pages).expect("open page file");
    if timed {
        let t = Arc::new(TimedStore::new(file));
        (t.clone(), Some(t))
    } else {
        (Arc::new(file), None)
    }
}

/// Bulk-load `keys` preloaded keys, single-threaded, through
/// `GistIndex::insert` in `LOAD_BATCH`-key transactions. `rid` supplies
/// each key's record id.
pub fn bulk_load(db: &Db, idx: &Index, keys: i64, mut rid: impl FnMut(i64) -> Rid) {
    let mut k = 0;
    while k < keys {
        let txn = db.begin();
        for i in k..(k + LOAD_BATCH).min(keys) {
            idx.insert(txn, &(i * STRIDE), rid(i))
                .expect("bulk load insert");
        }
        db.commit(txn).expect("bulk load commit");
        k += LOAD_BATCH;
    }
}

/// Build the dataset for an in-process workload in `dir` and open it:
/// everything a user waits for before the first operation. The load runs
/// with a resident pool; a workload that wants a smaller one shuts the
/// database down and reopens the page file with it. Returns the engine
/// and the seconds it took.
pub fn build(p: &Params, dir: &Path) -> (Engine, f64) {
    let pages = dir.join("bench.pages");
    let _ = std::fs::remove_file(&pages);
    let t0 = Instant::now();
    // One log for both incarnations: node sequence numbers are LSNs, so a
    // page file must never meet a log that restarts from zero.
    let log = Arc::new(LogManager::new());
    let open = |cfg: DbConfig| {
        let (store, timed) = open_store(&pages, p.trace);
        (Db::open(store, log.clone(), cfg).expect("open db"), timed)
    };
    let load_cfg = DbConfig {
        pool_capacity: hot_frames(p.keys),
        ..DbConfig::default()
    };
    let run_cfg = config_for(p.workload, p.keys);
    let (mut db, mut timed) = open(load_cfg.clone());
    let mut idx = GistIndex::create(db.clone(), "bench", BtreeExt, IndexOptions::default())
        .expect("create index");
    bulk_load(&db, &idx, p.keys, |k| rid_of(k as u64));
    if run_cfg.pool_capacity != load_cfg.pool_capacity {
        db.shutdown().expect("shutdown after load");
        drop(idx);
        (db, timed) = open(run_cfg);
        idx = GistIndex::open(db.clone(), "bench", BtreeExt).expect("reopen index");
    }
    let first = db
        .run_txn(|txn| idx.search(txn, &I64Query::eq(0)))
        .expect("first read");
    assert_eq!(first, vec![(0, rid_of(0))], "first read after load");
    let secs = t0.elapsed().as_secs_f64();
    (
        Engine {
            db,
            idx,
            timed,
            keys: p.keys,
            maint: MaintTally::default(),
        },
        secs,
    )
}

/// Checkpoint and garbage-collect once per `interval` until `stop`, from
/// a thread of the benchmark's own.
///
/// `Db::start_maint` would do this on the engine's daemon thread, but a
/// panic there (today: the WAL segment-directory race) kills the worker
/// for good and wedges every later draining stop; here a panic costs one
/// cycle and is counted.
pub fn maintenance_loop(eng: &Engine, interval: Duration, stop: &AtomicBool) {
    let Engine { db, idx, maint, .. } = eng;
    let fail = |msg: String| {
        maint.failed.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut first) = maint.first_failure.lock() {
            first.get_or_insert(msg);
        }
    };
    let mut next = Instant::now() + interval;
    while !stop.load(Ordering::Relaxed) {
        if Instant::now() < next {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        next += interval;
        match catch_unwind(AssertUnwindSafe(|| db.checkpoint())) {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => fail(format!("checkpoint: {e}")),
            Err(payload) => fail(format!(
                "checkpoint panic: {}",
                panic_message(payload.as_ref())
            )),
        }
        let txn_id = Cell::new(0u64);
        let sweep = catch_unwind(AssertUnwindSafe(|| {
            db.run_txn(|txn| {
                txn_id.set(txn.0);
                idx.vacuum_sync(txn)
            })
        }));
        match sweep {
            Ok(Ok(report)) => {
                maint.sweeps.fetch_add(1, Ordering::Relaxed);
                maint
                    .entries_reclaimed
                    .fetch_add(report.entries_removed as u64, Ordering::Relaxed);
            }
            Ok(Err(e)) => fail(format!("sweep: {e}")),
            Err(payload) => {
                let _ = catch_unwind(AssertUnwindSafe(|| db.abort(TxnId(txn_id.get()))));
                fail(format!("sweep panic: {}", panic_message(payload.as_ref())));
            }
        }
    }
}

/// Page-file bytes per live key.
pub fn space_bytes_per_key(store: &dyn PageStore, live_keys: i64) -> f64 {
    f64::from(store.page_count()) * PAGE_SIZE as f64 / live_keys as f64
}

/// What the clients of one workload do per transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    PointRead,
    ScanInsert,
    MixedCold,
    /// The `served-mixed` transaction run in-process against a replica of
    /// the server's database (heap-backed rows, as the server reads them).
    ServedReplica,
}

impl Mix {
    pub fn of(w: Workload) -> Mix {
        match w {
            Workload::PointReadHot => Mix::PointRead,
            Workload::ScanInsertHot => Mix::ScanInsert,
            Workload::MixedColdFile => Mix::MixedCold,
            Workload::ServedMixed => Mix::ServedReplica,
        }
    }
}

#[derive(Debug, Clone)]
enum Plan {
    Point {
        k: i64,
    },
    ScanInsert {
        base: i64,
        ins: (i64, Rid),
        del: Option<(i64, Rid)>,
    },
    Insert {
        ins: (i64, Rid),
    },
    Delete {
        del: (i64, Rid),
    },
    Served {
        gets: [i64; 2],
        base: i64,
        ins_key: i64,
    },
}

/// Committed writes of one client, for the live-entry count check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    pub inserts: u64,
    pub deletes: u64,
    /// Writes of failed transactions: whether they took effect is unknown
    /// (a panic can strike after the commit record).
    pub unsure: u64,
    /// Σ attachments ÷ predicates over the samples taken after scans.
    pub attach_sum: f64,
    pub attach_samples: u64,
}

/// 16-byte heap payload stored under `key` by the served workload.
pub fn payload_of(key: i64) -> Vec<u8> {
    let mut p = key.to_le_bytes().to_vec();
    p.extend_from_slice(&(key ^ 0x5A5A_5A5A_5A5A_5A5A).to_le_bytes());
    p
}

/// Every preloaded key inside `[base, base + RANGE_KEYS * STRIDE)` must
/// be in `rows` exactly once, with the record `expect` names, and no row
/// may lie outside the interval. `rows` must be sorted by key (a GiST
/// search returns them in traversal order, so callers sort first).
pub fn check_range<R: PartialEq + std::fmt::Debug>(
    rows: &[(i64, R)],
    base: i64,
    keys: i64,
    expect: impl Fn(i64) -> R,
) -> Option<String> {
    let hi = base + RANGE_KEYS * STRIDE;
    let mut preloaded = rows.iter().filter(|(k, _)| k % STRIDE == 0);
    for key in (base..hi)
        .step_by(STRIDE as usize)
        .filter(|k| *k < keys * STRIDE)
    {
        match preloaded.next() {
            Some((k, r)) if *k == key && *r == expect(key) => {}
            other => {
                return Some(format!(
                    "range from {base}: expected key {key}, got {other:?}"
                ))
            }
        }
    }
    rows.iter()
        .find(|(k, _)| *k < base || *k >= hi)
        .map(|(k, _)| format!("range from {base} returned {k}"))
}

pub struct InprocDriver {
    eng: Arc<Engine>,
    mix: Mix,
    client: u64,
    rng: Rng,
    next_rid: u64,
    fifo: VecDeque<(i64, Rid)>,
    pub ledger: Ledger,
    ticks: u64,
}

impl InprocDriver {
    pub fn new(eng: Arc<Engine>, mix: Mix, client: usize, seed: u64) -> Self {
        InprocDriver {
            eng,
            mix,
            client: client as u64,
            rng: Rng::new(seed, client as u64 + 1),
            next_rid: 0,
            fifo: VecDeque::new(),
            ledger: Ledger::default(),
            ticks: 0,
        }
    }

    /// A fresh key in the gap after preloaded key `k`, with a record id
    /// no other insert of this run uses.
    fn fresh(&mut self, k: i64) -> (i64, Rid) {
        let key = k * STRIDE + 1 + self.rng.below(CLIENT_GAPS) as i64;
        self.next_rid += 1;
        let n = self.eng.keys as u64 + self.next_rid * crate::run::CLIENTS as u64 + self.client;
        (key, rid_of(n))
    }

    fn plan(&mut self) -> Plan {
        let keys = self.eng.keys as u64;
        let oldest = (self.fifo.len() >= FIFO_DEPTH).then(|| self.fifo[0]);
        match self.mix {
            Mix::PointRead => Plan::Point {
                k: self.rng.skewed(keys) as i64,
            },
            Mix::ScanInsert => {
                let base_k = self.rng.skewed(keys - RANGE_KEYS as u64) as i64;
                let offset = self.rng.below(RANGE_KEYS as u64) as i64;
                let ins = self.fresh(base_k + offset);
                Plan::ScanInsert {
                    base: base_k * STRIDE,
                    ins,
                    del: oldest,
                }
            }
            Mix::MixedCold => match (self.rng.below(4), oldest) {
                (0 | 1, _) => Plan::Point {
                    k: self.rng.below(keys) as i64,
                },
                (3, Some(del)) => Plan::Delete { del },
                _ => {
                    let k = self.rng.below(keys) as i64;
                    Plan::Insert { ins: self.fresh(k) }
                }
            },
            Mix::ServedReplica => {
                let gets = [
                    self.rng.skewed(keys) as i64 * STRIDE,
                    self.rng.skewed(keys) as i64 * STRIDE,
                ];
                let base = self.rng.skewed(keys - RANGE_KEYS as u64) as i64 * STRIDE;
                let k = self.rng.skewed(keys) as i64;
                let ins_key = self.fresh(k).0;
                Plan::Served {
                    gets,
                    base,
                    ins_key,
                }
            }
        }
    }

    /// The transaction body. Returns what was wrong with the rows it read
    /// (if anything), and — when `sample` — the predicate manager's
    /// attachments per registered predicate right after the scan.
    fn exec(
        &self,
        plan: &Plan,
        txn: TxnId,
        sample: bool,
    ) -> GistResult<(Option<String>, Option<f64>)> {
        let Engine { db, idx, keys, .. } = &*self.eng;
        let mut attach = None;
        let wrong = match plan {
            Plan::Point { k } => {
                let rows =
                    trace::span(Kind::Search, || idx.search(txn, &I64Query::eq(k * STRIDE)))?;
                (rows != [(k * STRIDE, rid_of(*k as u64))])
                    .then(|| format!("point read of {} returned {rows:?}", k * STRIDE))
            }
            Plan::ScanInsert { base, ins, del } => {
                let q = I64Query::range(*base, base + RANGE_KEYS * STRIDE - 1);
                let mut rows = trace::span(Kind::Range, || idx.search(txn, &q))?;
                if sample {
                    let ps = db.preds().stats();
                    attach = Some(ps.attachments as f64 / ps.predicates.max(1) as f64);
                }
                rows.sort_unstable_by_key(|r| r.0);
                let wrong = check_range(&rows, *base, *keys, |key| rid_of((key / STRIDE) as u64));
                trace::span(Kind::Insert, || idx.insert(txn, &ins.0, ins.1))?;
                if let Some((key, rid)) = del {
                    trace::span(Kind::Delete, || idx.delete(txn, key, *rid))?;
                }
                wrong
            }
            Plan::Insert { ins } => {
                trace::span(Kind::Insert, || idx.insert(txn, &ins.0, ins.1))?;
                None
            }
            Plan::Delete { del } => {
                trace::span(Kind::Delete, || idx.delete(txn, &del.0, del.1))?;
                None
            }
            Plan::Served {
                gets,
                base,
                ins_key,
            } => {
                // What the server's `rows_rsp` does: index hits, then the
                // heap record behind each.
                let fetch = |q: I64Query| -> GistResult<Vec<(i64, Vec<u8>)>> {
                    let mut rows = Vec::new();
                    for (key, rid) in idx.search(txn, &q)? {
                        rows.push((key, db.heap().get(rid)?.unwrap_or_default()));
                    }
                    rows.sort_unstable_by_key(|r| r.0);
                    Ok(rows)
                };
                let mut wrong = None;
                for key in gets {
                    let rows = trace::span(Kind::Search, || fetch(I64Query::eq(*key)))?;
                    if rows != [(*key, payload_of(*key))] {
                        wrong = Some(format!("get of {key} returned {rows:?}"));
                    }
                }
                let q = I64Query::range(*base, base + RANGE_KEYS * STRIDE - 1);
                let rows = trace::span(Kind::Range, || fetch(q))?;
                // Keys the workload inserted carry no checked payload.
                let preloaded: Vec<_> = rows.into_iter().filter(|r| r.0 % STRIDE == 0).collect();
                wrong = wrong.or(check_range(&preloaded, *base, *keys, payload_of));
                trace::span(Kind::Insert, || {
                    let rid = db.heap().insert(&payload_of(*ins_key))?;
                    idx.insert(txn, ins_key, rid)
                })?;
                wrong
            }
        };
        Ok((wrong, attach))
    }

    /// Record what a committed (or failed) plan did to the dataset.
    fn settle(&mut self, plan: &Plan, committed: bool) {
        // Whether it inserts, the insert to delete again later, the delete.
        let (inserts, queue, del) = match plan {
            Plan::Point { .. } => (false, None, None),
            Plan::ScanInsert { ins, del, .. } => (true, Some(*ins), *del),
            Plan::Insert { ins } => (true, Some(*ins), None),
            Plan::Delete { del } => (false, None, Some(*del)),
            Plan::Served { .. } => (true, None, None),
        };
        if !committed {
            self.ledger.unsure += u64::from(inserts) + u64::from(del.is_some());
        } else {
            self.ledger.inserts += u64::from(inserts);
            self.ledger.deletes += u64::from(del.is_some());
            self.fifo.extend(queue);
        }
        // A delete target is given up either way: retrying the delete of
        // a key whose fate is unknown would fail for good.
        if del.is_some() {
            self.fifo.pop_front();
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl Driver for InprocDriver {
    fn run(&mut self, _requests: &mut Vec<u64>) -> TxnEnd {
        let plan = self.plan();
        self.ticks += 1;
        let sample = self.ticks.is_multiple_of(64);
        let last_txn = Cell::new(0u64);
        let this = &*self;
        // `run_txn` begins and commits inside itself; the gap spans tile
        // the time it spends outside the body (begin, retry, commit).
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            trace::gap(Some(Kind::Begin));
            let r = this.eng.db.run_txn(|txn| {
                trace::gap(None);
                last_txn.set(txn.0);
                let r = this.exec(&plan, txn, sample);
                trace::gap(Some(if r.is_ok() { Kind::Commit } else { Kind::Retry }));
                r
            });
            trace::gap(None);
            r
        }));
        let end = match outcome {
            Ok(Ok((wrong, attachments))) => {
                if let Some(a) = attachments {
                    self.ledger.attach_sum += a;
                    self.ledger.attach_samples += 1;
                }
                wrong.map_or(TxnEnd::Committed, TxnEnd::Wrong)
            }
            Ok(Err(e)) => TxnEnd::Failed(e.to_string()),
            Err(payload) => {
                // The panic escaped `run_txn` (it struck outside the
                // contained body, e.g. in commit): make sure the
                // transaction is gone so the client can carry on.
                let db = &self.eng.db;
                let _ = catch_unwind(AssertUnwindSafe(|| db.abort(TxnId(last_txn.get()))));
                TxnEnd::Failed(format!("panic: {}", panic_message(payload.as_ref())))
            }
        };
        self.settle(&plan, !matches!(end, TxnEnd::Failed(_)));
        end
    }
}

/// What the checks after an in-process workload found.
#[derive(Debug, Default)]
pub struct Verdict {
    pub violations: Vec<String>,
    pub tree_height: usize,
    pub leaves: usize,
    pub live_entries: usize,
    pub marked_entries: usize,
    /// Predicates still registered once every client has stopped.
    pub live_predicates: usize,
}

/// After every client and the maintenance thread have stopped: leak
/// sweep, structural check, and the live-entry count against the ledgers
/// (`base_live` entries before the window). A transaction that failed
/// (an engine panic mid-begin or mid-commit) may leave its credit, table
/// entry or predicate behind, so a leak is a violation only beyond
/// `failed`, the number of transactions that did.
pub fn verify(eng: &Engine, base_live: i64, ledgers: &[Ledger], failed: u64) -> Verdict {
    let Engine { db, idx, .. } = eng;
    let mut v = Verdict {
        live_predicates: db.preds().stats().predicates,
        ..Verdict::default()
    };
    for (what, leaked) in [
        ("transactions still active", db.txns().active_count() as u64),
        ("predicates still registered", v.live_predicates as u64),
        (
            "admission credits still held",
            db.admission().stats().in_flight,
        ),
    ] {
        if leaked > failed {
            v.violations.push(format!(
                "{leaked} {what} after the clients stopped ({failed} transactions failed)"
            ));
        }
    }
    match check_tree(idx) {
        Ok(report) => v.violations.extend(report.violations.into_iter().take(4)),
        Err(e) => v.violations.push(format!("check_tree failed: {e}")),
    }
    match idx.stats() {
        Ok(st) => {
            (v.tree_height, v.leaves) = (st.height, st.leaves);
            (v.live_entries, v.marked_entries) = (st.live_entries, st.marked_entries);
            let sum = |f: fn(&Ledger) -> u64| ledgers.iter().map(f).sum::<u64>() as i64;
            let expect = base_live + sum(|l| l.inserts) - sum(|l| l.deletes);
            let slack = sum(|l| l.unsure);
            if (st.live_entries as i64 - expect).abs() > slack {
                v.violations.push(format!(
                    "live entries {} but preload + inserts - deletes = {expect} (±{slack})",
                    st.live_entries
                ));
            }
        }
        Err(e) => v.violations.push(format!("tree stats failed: {e}")),
    }
    v
}
