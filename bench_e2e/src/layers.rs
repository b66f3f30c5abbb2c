//! Per-layer numbers for an in-process `Db`: counter deltas over the
//! traced window, direct probes of each layer's public functions after
//! it, and the span totals folded into named metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use gist_repro::lockmgr::{LockMode, LockName};
use gist_repro::pagestore::PageId;
use gist_repro::predlock::PredKind;
use gist_repro::wal::{Lsn, RecordBody, TxnId};

use crate::inproc::{Engine, Ledger, Verdict};
use crate::metrics::PER_LAYER;
use crate::run::SliceAcc;
use crate::trace::{Kind, KindTotals};

/// Direct calls per probe.
const PROBE_CALLS: u64 = 10_000;

macro_rules! counters {
    ($($name:ident),* $(,)?) => {
        /// Monotonic engine counters, read at the edges of the traced
        /// window so every ratio is over the window, never the lifetime.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters { $(pub $name: u64),* }
        impl Counters {
            pub fn since(&self, before: &Counters) -> Counters {
                Counters { $($name: self.$name.saturating_sub(before.$name)),* }
            }
            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($name: self.$name + other.$name),* }
            }
        }
    };
}

counters!(
    hits,
    misses,
    evictions,
    writebacks,
    direct_reads,
    lock_grants,
    lock_waits,
    deadlocks,
    lock_timeouts,
    syncs,
    commits_flushed,
    flusher_panics,
    opt_hits,
    opt_retries,
    opt_fallbacks,
    adm_shed,
    adm_forced,
    adm_parked,
    epoch_stalls,
    epoch_forced,
    gc_runs,
    reclaimed,
    checkpoints,
    bp_parks,
    bp_stalls,
    retries,
    backoff_us,
    exhausted,
    lsn,
    fg_reads,
    fg_read_ns,
    fg_writes,
    fg_write_ns,
    fg_syncs,
    fg_sync_ns,
    bg_reads,
    bg_read_ns,
    bg_writes,
    bg_write_ns,
    bg_syncs,
    bg_sync_ns,
);

impl Counters {
    pub fn take(eng: &Engine) -> Counters {
        use std::sync::atomic::Ordering::Relaxed;
        let db = &eng.db;
        let pool = &db.pool().stats;
        let rs = db.robustness_stats();
        let pipe = db.txns().pipeline().stats();
        let maint = db.maint_stats();
        let [fg, bg] = match &eng.timed {
            Some(t) => [t.foreground.snapshot(), t.background.snapshot()],
            None => [[0; 6]; 2],
        };
        Counters {
            hits: pool.hits.load(Relaxed),
            misses: pool.misses.load(Relaxed),
            evictions: pool.evictions.load(Relaxed),
            writebacks: pool.writebacks.load(Relaxed),
            direct_reads: pool.direct_reads.load(Relaxed),
            lock_grants: rs.lock_immediate_grants,
            lock_waits: rs.lock_waits,
            deadlocks: rs.lock_deadlocks,
            lock_timeouts: rs.lock_timeouts,
            syncs: pipe.batches_flushed,
            commits_flushed: pipe.commits_flushed,
            flusher_panics: pipe.flusher_panics,
            opt_hits: rs.opt_read_hits,
            opt_retries: rs.opt_read_retries,
            opt_fallbacks: rs.opt_read_fallbacks,
            adm_shed: rs.admission.shed,
            adm_forced: rs.admission.forced,
            adm_parked: rs.admission.parked,
            epoch_stalls: rs.epoch_stalls,
            epoch_forced: rs.epoch_forced_advances,
            gc_runs: maint.gc_runs + eng.maint.sweeps.load(Relaxed),
            reclaimed: maint.entries_reclaimed + eng.maint.entries_reclaimed.load(Relaxed),
            checkpoints: maint.checkpoints,
            bp_parks: rs.wal_bp_parks,
            bp_stalls: rs.wal_bp_stalls,
            retries: rs.txn_retries,
            backoff_us: rs.backoff_micros,
            exhausted: rs.retries_exhausted,
            lsn: db.log().last_lsn().0,
            fg_reads: fg[0],
            fg_read_ns: fg[1],
            fg_writes: fg[2],
            fg_write_ns: fg[3],
            fg_syncs: fg[4],
            fg_sync_ns: fg[5],
            bg_reads: bg[0],
            bg_read_ns: bg[1],
            bg_writes: bg[2],
            bg_write_ns: bg[3],
            bg_syncs: bg[4],
            bg_sync_ns: bg[5],
        }
    }
}

/// Cost of one call into each layer, measured single-threaded on the warm
/// database after the window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probes {
    pub lock_release_ns: f64,
    pub attach_check_ns: f64,
    pub admit_ns: f64,
    pub pin_ns: f64,
    pub append_ns: f64,
    pub fetch_hit_ns: f64,
    /// 0 when the pool holds the whole file (nothing to miss).
    pub fetch_miss_us: f64,
}

fn per_call_ns(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

pub fn probe(eng: &Engine) -> Probes {
    use std::sync::atomic::Ordering::Relaxed;
    let db = &eng.db;
    // Transaction ids no real transaction of the run can hold.
    let (me, other) = (TxnId(u64::MAX - 11), TxnId(u64::MAX - 12));
    let mut p = Probes {
        lock_release_ns: per_call_ns(PROBE_CALLS, |i| {
            db.locks()
                .lock(me, LockName::Custom(i), LockMode::X)
                .expect("uncontended lock");
            db.locks().release_all(me);
        }),
        attach_check_ns: per_call_ns(PROBE_CALLS, |i| {
            let node = (eng.idx.id(), PageId(2_000_000 + (i % 64) as u32));
            let pred = db
                .preds()
                .register(me, PredKind::Scan, i.to_le_bytes().to_vec());
            db.preds().attach(pred, node);
            std::hint::black_box(db.preds().check_insert(
                node,
                other,
                &i.to_le_bytes(),
                &|a, b| a == b,
            ));
            db.preds().release_txn(me);
        }),
        admit_ns: per_call_ns(PROBE_CALLS, |i| {
            let token = u64::MAX - 13 - i;
            if db.admission().try_admit() {
                db.admission().bind(token);
                db.admission().release(token);
            }
        }),
        pin_ns: per_call_ns(PROBE_CALLS, |_| {
            drop(std::hint::black_box(db.epoch().pin()))
        }),
        append_ns: per_call_ns(PROBE_CALLS, |_| {
            db.log().append(TxnId::NONE, Lsn::NULL, RecordBody::Noop);
        }),
        ..Probes::default()
    };
    // One sweep over the page file classifies each fetch by whether the
    // miss counter moved: with the pool full a miss pays for the eviction
    // scan too.
    let pages = db.pool().store().page_count().max(1);
    let (mut hit_ns, mut hits, mut miss_ns, mut misses) = (0u128, 0u64, 0u128, 0u64);
    for i in 0..PROBE_CALLS.max(u64::from(pages)) {
        let id = PageId(((i * 7919) % u64::from(pages)) as u32);
        let before = db.pool().stats.misses.load(Relaxed);
        let t0 = Instant::now();
        let guard = db.pool().fetch_read(id);
        let ns = t0.elapsed().as_nanos();
        drop(guard);
        if db.pool().stats.misses.load(Relaxed) == before {
            hit_ns += ns;
            hits += 1;
        } else {
            miss_ns += ns;
            misses += 1;
        }
    }
    p.fetch_hit_ns = hit_ns as f64 / hits.max(1) as f64;
    p.fetch_miss_us = if misses >= 100 {
        miss_ns as f64 / misses as f64 / 1e3
    } else {
        0.0
    };
    p
}

/// `num ÷ den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p50_us(k: &KindTotals) -> f64 {
    if k.durations.is_empty() {
        return 0.0;
    }
    let mut d = k.durations.clone();
    let mid = d.len() / 2;
    *d.select_nth_unstable(mid).1 as f64 / 1e3
}

/// Gauges read once, after the window.
#[derive(Debug, Default, Clone, Copy)]
pub struct EndState {
    pub commit_wait_p50_us: f64,
    pub commit_wait_p99_us: f64,
    pub epoch_pending: f64,
    pub maint_backlog: f64,
    /// WAL file bytes ÷ key+RID bytes the clients wrote (0: no writes).
    pub log_bytes_per_user_byte: f64,
}

impl EndState {
    /// Read before the maintenance daemon is stopped.
    pub fn take(eng: &Engine, log_bytes_per_user_byte: f64) -> EndState {
        let pipe = eng.db.txns().pipeline().stats();
        EndState {
            commit_wait_p50_us: pipe.commit_wait_p50_us as f64,
            commit_wait_p99_us: pipe.commit_wait_p99_us as f64,
            epoch_pending: eng.db.epoch().stats().pending as f64,
            maint_backlog: eng.db.maint().backlog() as f64,
            log_bytes_per_user_byte,
        }
    }
}

pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Every per-layer metric, at 0 (what a bypassed layer reads).
pub fn zeroed() -> LayerMetrics {
    PER_LAYER.iter().map(|m| (m.name, 0.0)).collect()
}

/// Set a metric [`zeroed`] knows; a name it does not know is a typo.
pub fn set(m: &mut LayerMetrics, name: &'static str, value: f64) {
    *m.get_mut(name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
}

/// The spans around index operations, and around store I/O.
const OPS: [Kind; 4] = [Kind::Search, Kind::Range, Kind::Insert, Kind::Delete];
const STORE: [Kind; 3] = [Kind::StoreRead, Kind::StoreWrite, Kind::StoreSync];

/// Everything the traced window of an in-process `Db` produced.
pub struct EngineTrace<'a> {
    pub slices: &'a [SliceAcc],
    pub delta: &'a Counters,
    pub totals: &'a [KindTotals],
    pub probes: &'a Probes,
    pub end: &'a EndState,
    pub verdict: &'a Verdict,
    pub ledgers: &'a [Ledger],
}

/// Fill the engine-side metrics (`txn.` to `epoch.`, and
/// `trace.unattributed_share`) of `m`.
pub fn fill_engine(m: &mut LayerMetrics, t: &EngineTrace) {
    let d = t.delta;
    let k = |kind: Kind| &t.totals[kind as usize];
    let txns: f64 = t.slices.iter().map(|s| s.committed as f64).sum();
    let attempted: f64 = t.slices.iter().map(|s| s.attempted as f64).sum();
    let failed: f64 = t.slices.iter().map(|s| s.failed as f64).sum();
    let ops: f64 = OPS.iter().map(|&o| k(o).calls as f64).sum();
    let op_self_ns: f64 = OPS.iter().map(|&o| k(o).self_ns as f64).sum();
    let txn_ns = k(Kind::Txn).total_ns as f64;
    let per_k = |n: u64, den: f64| ratio(n as f64 * 1e3, den);
    let mut set = |name: &'static str, v: f64| set(m, name, v);

    set(
        "txn.begin_us",
        ratio(
            k(Kind::Begin).self_ns as f64 / 1e3,
            k(Kind::Begin).calls as f64,
        ),
    );
    set(
        "txn.commit_us",
        ratio(
            k(Kind::Commit).self_ns as f64 / 1e3,
            k(Kind::Commit).calls as f64,
        ),
    );
    set("txn.retries_per_ktxn", per_k(d.retries, txns));
    set("txn.retries_exhausted", d.exhausted as f64);
    set("txn.backoff_us_per_txn", ratio(d.backoff_us as f64, txns));
    set("txn.failed_per_ktxn", ratio(failed * 1e3, attempted));

    set("lockmgr.lock_release_ns", t.probes.lock_release_ns);
    set(
        "lockmgr.locks_per_txn",
        ratio((d.lock_grants + d.lock_waits) as f64, txns),
    );
    set("lockmgr.waits_per_ktxn", per_k(d.lock_waits, txns));
    set("lockmgr.deadlocks_per_ktxn", per_k(d.deadlocks, txns));
    set("lockmgr.timeouts", d.lock_timeouts as f64);

    let attach_sum: f64 = t.ledgers.iter().map(|l| l.attach_sum).sum();
    let attach_n: f64 = t.ledgers.iter().map(|l| l.attach_samples as f64).sum();
    set("predlock.attach_check_ns", t.probes.attach_check_ns);
    set("predlock.attachments_per_scan", ratio(attach_sum, attach_n));
    set("predlock.live_end", t.verdict.live_predicates as f64);

    set("core.search_us", p50_us(k(Kind::Search)));
    set("core.range_us", p50_us(k(Kind::Range)));
    set("core.insert_us", p50_us(k(Kind::Insert)));
    set("core.delete_us", p50_us(k(Kind::Delete)));
    set("core.op_self_us", ratio(op_self_ns / 1e3, ops));
    let fetches = (d.hits + d.misses + d.direct_reads) as f64;
    set("core.pages_per_lookup", ratio(fetches, ops));
    set(
        "core.opt_hit_ratio",
        ratio(
            d.opt_hits as f64,
            (d.opt_hits + d.opt_retries + d.opt_fallbacks) as f64,
        ),
    );
    set("core.opt_fallbacks_per_kop", per_k(d.opt_fallbacks, ops));
    set("core.tree_height", t.verdict.tree_height as f64);
    let entries = (t.verdict.live_entries + t.verdict.marked_entries) as f64;
    set(
        "core.entries_per_leaf",
        ratio(entries, t.verdict.leaves as f64),
    );

    set("pagestore.hit_ratio", ratio(d.hits as f64, fetches));
    set("pagestore.misses_per_kop", per_k(d.misses, ops));
    set("pagestore.evictions_per_kop", per_k(d.evictions, ops));
    set("pagestore.writebacks_per_kop", per_k(d.writebacks, ops));
    set("pagestore.direct_reads_per_kop", per_k(d.direct_reads, ops));
    set("pagestore.fetch_hit_ns", t.probes.fetch_hit_ns);
    set("pagestore.fetch_miss_us", t.probes.fetch_miss_us);
    let io_us = |ns: u64, n: u64| ratio(ns as f64 / 1e3, n as f64);
    set(
        "pagestore.store_read_us",
        io_us(d.fg_read_ns + d.bg_read_ns, d.fg_reads + d.bg_reads),
    );
    set(
        "pagestore.store_write_us",
        io_us(d.fg_write_ns + d.bg_write_ns, d.fg_writes + d.bg_writes),
    );
    set(
        "pagestore.store_sync_us",
        io_us(d.fg_sync_ns + d.bg_sync_ns, d.fg_syncs + d.bg_syncs),
    );
    set("pagestore.store_reads", (d.fg_reads + d.bg_reads) as f64);
    set("pagestore.store_writes", (d.fg_writes + d.bg_writes) as f64);
    set("pagestore.store_syncs", (d.fg_syncs + d.bg_syncs) as f64);
    set(
        "pagestore.io_share",
        ratio((d.fg_read_ns + d.fg_write_ns + d.fg_sync_ns) as f64, txn_ns),
    );

    set("wal.records_per_txn", ratio(d.lsn as f64, txns));
    set("wal.append_ns", t.probes.append_ns);
    set("wal.log_bytes_per_user_byte", t.end.log_bytes_per_user_byte);
    set("wal.backpressure_parks", d.bp_parks as f64);
    set("wal.backpressure_stalls", d.bp_stalls as f64);

    set("commitpipe.syncs", d.syncs as f64);
    set(
        "commitpipe.mean_batch",
        ratio(d.commits_flushed as f64, d.syncs as f64),
    );
    set("commitpipe.commit_wait_p50_us", t.end.commit_wait_p50_us);
    set("commitpipe.commit_wait_p99_us", t.end.commit_wait_p99_us);
    set("commitpipe.flusher_panics", d.flusher_panics as f64);

    set("maint.gc_runs", d.gc_runs as f64);
    set("maint.entries_reclaimed", d.reclaimed as f64);
    set("maint.checkpoints", d.checkpoints as f64);
    set("maint.queue_depth_end", t.end.maint_backlog);
    set("maint.marked_entries_end", t.verdict.marked_entries as f64);

    set("overload.admit_ns", t.probes.admit_ns);
    set("overload.shed", d.adm_shed as f64);
    set("overload.forced", d.adm_forced as f64);
    set("overload.parked", d.adm_parked as f64);

    set("epoch.pin_ns", t.probes.pin_ns);
    set("epoch.pending_end", t.end.epoch_pending);
    set("epoch.stalls", d.epoch_stalls as f64);
    set("epoch.forced_advances", d.epoch_forced as f64);

    set(
        "trace.unattributed_share",
        ratio(k(Kind::Txn).self_ns as f64, txn_ns),
    );
}

/// The traced run's table: where a transaction's time goes, by span self
/// time, with the probe-priced layers inside the operation spans listed
/// beneath. Returns the text and the name of the top cost.
pub fn table(m: &LayerMetrics, t: &EngineTrace) -> (String, String) {
    let k = |kind: Kind| &t.totals[kind as usize];
    let sum = |kinds: &[Kind], f: fn(&KindTotals) -> u64| {
        kinds.iter().map(|&kind| f(k(kind))).sum::<u64>()
    };
    let txns = k(Kind::Txn).calls.max(1) as f64;
    let txn_us = k(Kind::Txn).total_ns as f64 / 1e3 / txns;
    let rows: [(&str, &[Kind]); 10] = [
        ("txn.begin", &[Kind::Begin]),
        ("txn.retry (abort+backoff: wait)", &[Kind::Retry]),
        ("txn.commit", &[Kind::Commit]),
        ("core.search", &[Kind::Search]),
        ("core.range", &[Kind::Range]),
        ("core.insert", &[Kind::Insert]),
        ("core.delete", &[Kind::Delete]),
        ("serve.call (round trip)", &[Kind::Call]),
        ("pagestore.store i/o", &STORE),
        ("unattributed (client code)", &[Kind::Txn]),
    ];
    let mut out = format!(
        "  {:<34} {:>10} {:>12} {:>8}\n",
        "layer (span self time)", "calls/txn", "self us/txn", "share"
    );
    let mut line = |name: &str, calls: f64, us: f64| {
        out += &format!(
            "  {name:<34} {calls:>10.3} {us:>12.3} {:>7.1}%\n",
            100.0 * ratio(us, txn_us)
        );
    };
    let mut top = ("none", 0u64);
    for (name, kinds) in rows {
        let (calls, self_ns) = (sum(kinds, |t| t.calls), sum(kinds, |t| t.self_ns));
        if calls == 0 {
            continue;
        }
        line(name, calls as f64 / txns, self_ns as f64 / 1e3 / txns);
        if self_ns > top.1 && kinds != [Kind::Txn] {
            top = (name, self_ns);
        }
    }
    line("txn (mean, traced)", 1.0, txn_us);
    out += "  inside the spans above (probe cost x calls from counter deltas):\n";
    let mut line = |name: &str, calls: f64, ns: f64| {
        let us = ns * calls / 1e3;
        out += &format!(
            "  {name:<34} {calls:>10.3} {us:>12.3} {:>7.1}%\n",
            100.0 * ratio(us, txn_us)
        );
    };
    let ops_per_txn = sum(&OPS, |t| t.calls) as f64 / txns;
    line(
        "lockmgr lock+release",
        m["lockmgr.locks_per_txn"],
        m["lockmgr.lock_release_ns"],
    );
    line(
        "pagestore fetch (hit)",
        m["core.pages_per_lookup"] * ops_per_txn,
        m["pagestore.fetch_hit_ns"],
    );
    line("wal append", m["wal.records_per_txn"], m["wal.append_ns"]);
    line(
        "epoch pin",
        sum(&[Kind::Search, Kind::Range], |t| t.calls) as f64 / txns,
        m["epoch.pin_ns"],
    );
    line("overload admit", 1.0, m["overload.admit_ns"]);
    out += &format!(
        "  waits: {:.2} lock waits, {:.2} deadlocks, {:.2} retries per 1000 txns; backoff {:.2} us/txn\n",
        m["lockmgr.waits_per_ktxn"], m["lockmgr.deadlocks_per_ktxn"], m["txn.retries_per_ktxn"], m["txn.backoff_us_per_txn"]
    );
    out += &format!("  top cost: {}\n", top.0);
    (out, top.0.to_string())
}
