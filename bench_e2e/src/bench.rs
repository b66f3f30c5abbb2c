//! One run of one workload, traced or not: set up, warm up, measure,
//! check the outputs, and fold everything into a [`RunResult`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::inproc::{self, Engine, InprocDriver, Ledger, Mix};
use crate::json::{obj, Json};
use crate::layers::{self, Counters, EndState, EngineTrace, LayerMetrics};
use crate::metrics::{Workload, END_TO_END, PER_LAYER};
use crate::run::{self, drive, median, Measured, Params, SliceAcc, Sliced, CLIENTS};
use crate::served::{self, ServedDriver, Server};
use crate::trace::{self, Span};

/// Bytes of user data one index write carries: an 8-byte key and a
/// 6-byte record id.
const USER_BYTES_PER_WRITE: f64 = 14.0;
/// Maintenance cycles (checkpoint + sweep) per `--seconds`.
const MAINT_CYCLES: f64 = 8.0;
/// Full set-ups per timed run; `setup_s` is their median. A traced run
/// reports no set-up time and sets up once.
const SETUP_REPEATS: usize = 3;

pub struct RunResult {
    pub workload: Workload,
    pub trace: bool,
    /// Output-check violations (empty = correct).
    pub violations: Vec<String>,
    /// Transactions of the timed slices, and those of them that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Failed transactions of the whole run: warm-up, slice edges and (in
    /// a traced `served-mixed` run) the replica included.
    pub failed_total: u64,
    /// Failure message → count, over the same transactions as
    /// `failed_total` (first 32 distinct messages per client).
    pub failures: BTreeMap<String, u64>,
    /// `(name, value, unit)`: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Slices, sample counts and configuration, for the report file.
    pub detail: Json,
    /// The traced run's table.
    pub table: Option<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// `{"<name>": {"value": …, "unit": …}, …}`.
    pub fn metrics_json(&self) -> Json {
        let field = |(name, value, unit): &(&str, f64, &str)| {
            (
                name.to_string(),
                obj([("value", (*value).into()), ("unit", (*unit).into())]),
            )
        };
        Json::Obj(self.metrics.iter().map(field).collect())
    }

    /// The line the driver reads.
    pub fn contract_line(&self) -> String {
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.max(1).into()),
            ("failed", self.failed.into()),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }
}

/// A per-run scratch directory, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(p: &Params) -> Scratch {
        let dir = p
            .scratch
            .join(format!("{}-{}", p.workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sliced_json(s: &Sliced) -> Json {
    obj([
        ("median", s.median.into()),
        ("min_slice", s.min.into()),
        ("max_slice", s.max.into()),
        (
            "slices",
            Json::Arr(s.values.iter().map(|v| (*v).into()).collect()),
        ),
    ])
}

fn totals_of(slices: &[SliceAcc]) -> (u64, u64) {
    (
        slices.iter().map(|s| s.attempted).sum(),
        slices.iter().map(|s| s.failed).sum(),
    )
}

/// The end-to-end metrics of an untraced run, plus their detail.
fn end_to_end(
    m: &Measured,
    setup_s: f64,
    peak_rss_mb: f64,
    space: f64,
) -> (Vec<(&'static str, f64, &'static str)>, Json) {
    let tput = run::throughput(&m.plain, m.slice_s);
    let (p50, _) = run::percentile_us(&m.plain, |s| &s.txn_ns, 0.50);
    let (p99, p99_used) = run::percentile_us(&m.plain, |s| &s.txn_ns, 0.99);
    let (attempted, failed) = totals_of(&m.plain);
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "txn_per_s" => tput.median,
        "txn_p50_us" => p50.median,
        "txn_p99_us" => p99.median,
        "peak_rss_mb" => peak_rss_mb,
        "space_bytes_per_key" => space,
        other => unreachable!("{other} has no measurement"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|e| (e.name, value(e.name), e.unit))
        .collect();
    let samples: Vec<Json> = m.plain.iter().map(|s| s.txn_ns.count().into()).collect();
    let detail = obj([
        ("txn_per_s", sliced_json(&tput)),
        ("txn_p50_us", sliced_json(&p50)),
        ("txn_p99_us", sliced_json(&p99)),
        ("txn_p99_quantile_used", p99_used.into()),
        ("samples_per_slice", Json::Arr(samples)),
        (
            "failed_ratio",
            (failed as f64 / attempted.max(1) as f64).into(),
        ),
    ]);
    (metrics, detail)
}

fn layer_metrics(m: &LayerMetrics) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|l| (l.name, m[l.name], l.unit))
        .collect()
}

/// Write the span file of a traced run (once, after everything else).
fn write_spans(p: &Params, spans: &[Vec<Span>]) -> Json {
    let path = p.scratch.join(format!("trace-{}.jsonl", p.workload.name()));
    let total: usize = spans.iter().map(Vec::len).sum();
    match trace::write_file(&path, spans) {
        Ok(written) => obj([
            ("path", path.display().to_string().into()),
            ("spans_recorded", (total as u64).into()),
            ("spans_written", (written as u64).into()),
        ]),
        Err(e) => obj([("error", e.to_string().into())]),
    }
}

fn config_json(p: &Params, pool_frames: usize) -> Json {
    obj([
        ("keys", (p.keys as u64).into()),
        ("clients", (CLIENTS as u64).into()),
        ("seed", p.seed.into()),
        ("seconds", p.seconds.into()),
        ("warmup_s", p.warmup_s.into()),
        ("pool_frames", (pool_frames as u64).into()),
        (
            "flush_policy",
            "Durability::Immediate, group_commit on, wal_sync_latency 0".into(),
        ),
        ("log_device", "memory".into()),
        ("store", "FileStore (OS page cache)".into()),
    ])
}

fn wal_file_bytes(eng: &Engine, dir: &Path) -> f64 {
    let path = dir.join("wal-size-probe.wal");
    eng.db.log().flush_all();
    eng.db
        .log()
        .persist_file(&path)
        .expect("persist wal for its size");
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);
    bytes as f64
}

/// What a traced window over an in-process engine yields.
struct EngineRun {
    measured: Measured,
    delta: Counters,
    end: EndState,
    verdict: inproc::Verdict,
    probes: layers::Probes,
    ledgers: Vec<Ledger>,
    /// Span totals per kind (empty spans in an untraced run).
    totals: Vec<trace::KindTotals>,
}

/// Drive `mix` with `clients` client threads against `eng`, then verify
/// it; in a traced run also take counters, gauges and probes.
fn run_engine(
    p: &Params,
    eng: &Arc<Engine>,
    mix: Mix,
    clients: usize,
    base_live: i64,
    dir: &Path,
) -> EngineRun {
    let wal_before = if p.trace {
        wal_file_bytes(eng, dir)
    } else {
        0.0
    };
    let mut drivers: Vec<InprocDriver> = (0..clients)
        .map(|c| InprocDriver::new(eng.clone(), mix, c, p.seed))
        .collect();
    // Counter movement summed over the traced slices.
    let (mut before, mut delta) = (Counters::default(), Counters::default());
    let stop_maint = &AtomicBool::new(false);
    let mut measured = std::thread::scope(|scope| {
        // Eight checkpoints and sweeps per run, so several cycles fall
        // inside the window and logically deleted entries are reclaimed
        // as fast as they are made: without the sweep, scans slow down
        // through the window as marked entries pile up in the hot leaves.
        let interval = Duration::from_secs_f64(p.seconds / MAINT_CYCLES);
        if matches!(mix, Mix::ScanInsert | Mix::MixedCold) {
            scope.spawn(move || inproc::maintenance_loop(eng, interval, stop_maint));
        }
        let measured = drive(p, &mut drivers, |end| {
            let now = Counters::take(eng);
            if end {
                delta = delta.plus(&now.since(&before));
            } else {
                before = now;
            }
        });
        stop_maint.store(true, Ordering::Relaxed);
        measured
    });
    let ledgers: Vec<Ledger> = drivers.iter().map(|d| d.ledger).collect();
    let mut end = EndState::default();
    if p.trace {
        let writes: u64 = ledgers.iter().map(|l| l.inserts + l.deletes).sum();
        let ratio = if writes == 0 {
            0.0
        } else {
            (wal_file_bytes(eng, dir) - wal_before) / (writes as f64 * USER_BYTES_PER_WRITE)
        };
        end = EndState::take(eng, ratio);
    }
    let maint_failed = eng.maint.failed.load(Ordering::Relaxed);
    if maint_failed > 0 {
        let first = eng.maint.first_failure.lock().map_or(None, |f| f.clone());
        let msg = format!("maintenance: {}", first.unwrap_or_default());
        *measured.failures.entry(msg).or_default() += maint_failed;
        measured.failed_total += maint_failed;
    }
    // Every failure of the run, whenever it struck, may have left a
    // transaction, a predicate or a credit behind.
    let verdict = inproc::verify(eng, base_live, &ledgers, measured.failed_total);
    let probes = if p.trace {
        layers::probe(eng)
    } else {
        layers::Probes::default()
    };
    let totals = trace::totals(&measured.spans);
    EngineRun {
        measured,
        delta,
        end,
        verdict,
        probes,
        ledgers,
        totals,
    }
}

/// Traced ÷ untraced throughput (median slice of each).
fn overhead_ratio(m: &Measured) -> f64 {
    let reference = run::throughput(&m.plain, m.slice_s).median;
    let traced = m
        .traced
        .as_ref()
        .map_or(0.0, |t| run::throughput(t, m.slice_s).median);
    layers::ratio(traced, reference)
}

/// Fold a traced engine run into per-layer metrics and the table.
fn engine_layers(run: &EngineRun, m: &mut LayerMetrics) -> (String, String) {
    let t = EngineTrace {
        slices: run.measured.traced.as_ref().expect("traced slices"),
        delta: &run.delta,
        totals: &run.totals,
        probes: &run.probes,
        end: &run.end,
        verdict: &run.verdict,
        ledgers: &run.ledgers,
    };
    layers::fill_engine(m, &t);
    layers::set(m, "trace.overhead_ratio", overhead_ratio(&run.measured));
    layers::table(m, &t)
}

pub fn run_inproc(p: &Params) -> RunResult {
    let scratch = Scratch::new(p);
    let repeats = if p.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut engine: Option<Engine> = None;
    for _ in 0..repeats {
        // Each repeat is a whole set-up from an empty directory; the
        // previous database is shut down and dropped first.
        if let Some(prev) = engine.take() {
            prev.db.shutdown().expect("shutdown between set-ups");
        }
        let (eng, secs) = inproc::build(p, &scratch.0);
        setups.push(secs);
        engine = Some(eng);
    }
    let eng = Arc::new(engine.expect("at least one set-up"));
    let space = inproc::space_bytes_per_key(eng.db.pool().store().as_ref(), p.keys);
    let pool_frames = eng.db.config().pool_capacity;

    // Memory is read where every run has done the same work. The log is
    // never truncated, so the peak after a timed window is the peak after
    // set-up plus so many bytes per transaction: a faster engine would
    // read as a bigger one. That later peak goes to the report file only.
    let peak = run::peak_rss_mb(std::process::id());

    let run = run_engine(p, &eng, Mix::of(p.workload), CLIENTS, p.keys, &scratch.0);
    let peak_end = run::peak_rss_mb(std::process::id());
    let shutdown = eng
        .db
        .shutdown()
        .err()
        .map(|e| format!("shutdown failed: {e}"));

    let mut violations = run.verdict.violations.clone();
    violations.extend(run.measured.wrong.iter().cloned());
    violations.extend(shutdown);
    let (metrics, mut detail, table) = if p.trace {
        let mut m = layers::zeroed();
        let (table, top) = engine_layers(&run, &mut m);
        let detail = obj([
            ("top_cost", top.into()),
            ("span_file", write_spans(p, &run.measured.spans)),
        ]);
        (layer_metrics(&m), detail, Some(table))
    } else {
        let (metrics, detail) = end_to_end(&run.measured, median(setups.clone()), peak, space);
        (metrics, detail, None)
    };
    let window = run.measured.traced.as_ref().unwrap_or(&run.measured.plain);
    let (attempted, failed) = totals_of(window);
    if let Json::Obj(fields) = &mut detail {
        fields.push(("config".to_string(), config_json(p, pool_frames)));
        fields.push((
            "setup_s_repeats".to_string(),
            Json::Arr(setups.iter().map(|s| (*s).into()).collect()),
        ));
        fields.push((
            "live_entries_end".to_string(),
            (run.verdict.live_entries as u64).into(),
        ));
        fields.push(("peak_rss_end_mb".to_string(), peak_end.into()));
    }
    RunResult {
        workload: p.workload,
        trace: p.trace,
        violations,
        attempted,
        failed,
        failed_total: run.measured.failed_total,
        failures: run.measured.failures,
        metrics,
        detail,
        table,
    }
}

pub fn run_served(p: &Params) -> Result<RunResult, String> {
    let scratch = Scratch::new(p);
    let dir = &scratch.0;
    let repeats = if p.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut running: Option<(served::Image, Server)> = None;
    for _ in 0..repeats {
        if let Some((_, mut prev)) = running.take() {
            prev.kill();
        }
        let image = served::build_image(p, dir);
        if p.trace {
            served::copy_image(&image, &dir.join("replica"));
        }
        let server = Server::spawn(p, &image, dir)?;
        setups.push(image.build_s + server.restart_s);
        running = Some((image, server));
    }
    let (image, server) = running.expect("at least one set-up");
    let addr = server.addr.clone();
    // As in-process: the server's peak once it has recovered, before any
    // client has added to its log.
    let peak = run::peak_rss_mb(server.pid());

    let mut drivers = Vec::new();
    for c in 0..CLIENTS {
        drivers.push(ServedDriver::connect(&addr, p.keys, c, p.seed)?);
    }
    // Movement of the server's `Stats` counters, summed over the traced
    // slices.
    let (mut before, mut moved) = (BTreeMap::new(), BTreeMap::<String, i64>::new());
    let mut stats_error = None;
    let measured = drive(p, &mut drivers, |end| match served::wire_stats(&addr) {
        Ok(stats) if end => {
            for (name, value) in stats {
                *moved.entry(name.clone()).or_default() +=
                    value - before.get(&name).copied().unwrap_or(0);
            }
        }
        Ok(stats) => before = stats,
        Err(e) => stats_error = Some(e),
    });
    let moved = |name: &str| moved.get(name).copied().unwrap_or(0) as f64;
    drop(drivers);

    let mut violations: Vec<String> = measured.wrong.clone();
    violations.extend(stats_error);
    violations.extend(served::check_recovered(&addr, p.keys));
    let ping = if p.trace {
        served::ping_rtt_us(&addr, 2_000)
    } else {
        Ok(0.0)
    };
    let peak_end = run::peak_rss_mb(server.pid());
    let recovery = server.recovery();
    let restart_s = server.restart_s;
    if !violations.is_empty() {
        served::dump_log(&server);
    }
    if let Err(e) = server.drain() {
        violations.push(e);
    }
    match recovery {
        Some((redone, 1)) if redone > 0 => {}
        other => violations.push(format!(
            "server recovery (redone, losers) = {other:?}, expected (>0, 1)"
        )),
    }

    let window = measured.traced.as_ref().unwrap_or(&measured.plain);
    let (attempted, failed) = totals_of(window);
    let mut failures = measured.failures.clone();
    let mut failed_total = measured.failed_total;
    let (metrics, mut detail, table) = if p.trace {
        let traced = measured.traced.as_ref().expect("traced slices");
        let mut m = layers::zeroed();

        // Engine layers: the same transactions, in-process, on a replica
        // restarted from the same image with the server's configuration.
        let (replica, load_s, recover_s, redone, losers) =
            served::restart_replica(&dir.join("replica"), p.keys);
        let replica = Arc::new(replica);
        let rp = Params {
            seconds: (p.seconds * 0.2).max(1.0),
            warmup_s: 0.2,
            ..p.clone()
        };
        let rrun = run_engine(&rp, &replica, Mix::ServedReplica, 1, image.live_keys, dir);
        violations.extend(
            rrun.verdict
                .violations
                .iter()
                .map(|v| format!("replica: {v}")),
        );
        violations.extend(rrun.measured.wrong.iter().map(|v| format!("replica: {v}")));
        for (msg, n) in &rrun.measured.failures {
            *failures.entry(format!("replica: {msg}")).or_default() += n;
        }
        failed_total += rrun.measured.failed_total;
        let (replica_table, _) = engine_layers(&rrun, &mut m);
        if let Err(e) = replica.db.shutdown() {
            violations.push(format!("replica shutdown failed: {e}"));
        }
        if recovery != Some((redone as u64, losers as u64)) {
            violations.push(format!(
                "replica recovered ({redone}, {losers}), server {recovery:?}"
            ));
        }

        // Server-side layers, from the real process.
        let served_totals = trace::totals(&measured.spans);
        let txn = &served_totals[trace::Kind::Txn as usize];
        let (req_p50, _) = run::percentile_us(traced, |s| &s.req_ns, 0.50);
        let (req_p99, _) = run::percentile_us(traced, |s| &s.req_ns, 0.99);
        let (encode_ns, decode_ns, bytes) = served::wire_probe();
        // Median in-process cost of the six calls a transaction makes.
        let replica_totals = &rrun.totals;
        let mut call_ns: Vec<f64> = [
            trace::Kind::Begin,
            trace::Kind::Search,
            trace::Kind::Range,
            trace::Kind::Insert,
            trace::Kind::Commit,
        ]
        .iter()
        .flat_map(|&k| {
            replica_totals[k as usize]
                .durations
                .iter()
                .map(|d| *d as f64)
        })
        .collect();
        if call_ns.is_empty() {
            call_ns.push(0.0);
        }
        let engine_us = median(call_ns) / 1e3;
        let ping_us = ping.clone().unwrap_or(0.0);
        violations.extend(ping.err());
        for (name, value) in [
            ("wire.encode_ns_per_req", encode_ns),
            ("wire.decode_ns_per_req", decode_ns),
            ("wire.bytes_per_txn", bytes),
            ("serve.restart_s", restart_s),
            ("serve.req_p50_us", req_p50.median),
            ("serve.req_p99_us", req_p99.median),
            ("serve.ping_rtt_us", ping_us),
            ("serve.requests", moved("serve_requests")),
            ("serve.busy_sheds", moved("serve_busy_sheds")),
            ("serve.protocol_errors", moved("serve_protocol_errors")),
            (
                "serve.engine_share",
                layers::ratio(engine_us, req_p50.median),
            ),
            ("overload.shed", moved("admission_shed")),
            ("overload.forced", moved("admission_forced")),
            ("wal.restart_load_s", load_s),
            ("wal.restart_recover_s", recover_s),
            ("wal.redo_applied", redone as f64),
            ("wal.losers_undone", losers as f64),
            ("trace.overhead_ratio", overhead_ratio(&measured)),
            (
                "trace.unattributed_share",
                layers::ratio(txn.self_ns as f64, txn.total_ns as f64),
            ),
        ] {
            layers::set(&mut m, name, value);
        }
        let txns = txn.calls.max(1) as f64;
        let call = &served_totals[trace::Kind::Call as usize];
        let table = format!(
            "  over the wire: {:.2} calls/txn, {:.1} us/txn in round trips ({:.1}% of {:.1} us/txn); ping {:.1} us, request p50 {:.1} us, engine share {:.2}\n  engine layers, from the in-process replica ({} txns):\n{}",
            call.calls as f64 / txns,
            call.total_ns as f64 / 1e3 / txns,
            100.0 * call.total_ns as f64 / txn.total_ns.max(1) as f64,
            txn.total_ns as f64 / 1e3 / txns,
            ping_us,
            req_p50.median,
            m["serve.engine_share"],
            replica_totals[trace::Kind::Txn as usize].calls,
            replica_table
        );
        let detail = obj([
            ("top_cost", "serve.call (round trip)".into()),
            ("span_file", write_spans(p, &measured.spans)),
            ("req_p50_us", sliced_json(&req_p50)),
            ("req_p99_us", sliced_json(&req_p99)),
        ]);
        (layer_metrics(&m), detail, Some(table))
    } else {
        let (metrics, detail) = end_to_end(
            &measured,
            median(setups.clone()),
            peak,
            image.space_bytes_per_key,
        );
        (metrics, detail, None)
    };
    if let Json::Obj(fields) = &mut detail {
        fields.push((
            "config".to_string(),
            config_json(p, gist_repro::core::DbConfig::default().pool_capacity),
        ));
        fields.push((
            "setup_s_repeats".to_string(),
            Json::Arr(setups.iter().map(|s| (*s).into()).collect()),
        ));
        fields.push(("restart_s".to_string(), restart_s.into()));
        fields.push(("peak_rss_end_mb".to_string(), peak_end.into()));
        let (redone, losers) = recovery.unwrap_or((0, 0));
        fields.push(("server_redo_applied".to_string(), redone.into()));
        fields.push(("server_losers_undone".to_string(), losers.into()));
    }
    Ok(RunResult {
        workload: p.workload,
        trace: p.trace,
        violations,
        attempted,
        failed,
        failed_total,
        failures,
        metrics,
        detail,
        table,
    })
}

pub fn run(p: &Params) -> Result<RunResult, String> {
    std::fs::create_dir_all(&p.scratch)
        .map_err(|e| format!("create {}: {e}", p.scratch.display()))?;
    match p.workload {
        Workload::ServedMixed => run_served(p),
        _ => Ok(run_inproc(p)),
    }
}
