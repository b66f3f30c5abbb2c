//! `bench_e2e`: the end-to-end and per-layer benchmark of the GiST
//! engine. See `README.md` beside this package for what it measures and
//! why; `BENCHMARK.json` at the repository root is its contract.

mod bench;
mod compare;
mod hist;
mod inproc;
mod json;
mod layers;
mod metrics;
mod run;
mod served;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;

use bench::RunResult;
use json::{obj, Json};
use metrics::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use run::Params;

/// Dataset size. 60,000 keys is a 432-node, height-3 tree of 8 KiB pages:
/// what the time the driver allots per run can set up three times over.
/// Results compare only at equal `keys`.
const DEFAULT_KEYS: i64 = 60_000;
const DEFAULT_SECONDS: f64 = 10.0;
const WARMUP_S: f64 = 1.0;

const USAGE: &str =
    "usage: bench_e2e [--workload <name>] [--seed <n>] [--seconds <n>] [--trace [0|1]]
                 [--keys <n>] [--out <file.json>] [--serve-bin <path>] [--scratch <dir>]
       bench_e2e --smoke [--serve-bin <path>] [--scratch <dir>]
       bench_e2e --compare <a.json> <b.json>
workloads: point-read-hot scan-insert-hot mixed-cold-file served-mixed (default: all four)";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    keys: i64,
    out: Option<PathBuf>,
    serve_bin: PathBuf,
    scratch: PathBuf,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let target =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()));
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        keys: DEFAULT_KEYS,
        out: None,
        serve_bin: target.join("release/gist-serve"),
        scratch: target.join("bench-scratch"),
        smoke: false,
        compare: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
    }
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => {
                let name = value(&mut i, flag)?;
                cli.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => cli.seed = num(flag, value(&mut i, flag)?)?,
            "--seconds" | "--secs" => cli.seconds = num(flag, value(&mut i, flag)?)?,
            "--keys" => cli.keys = num(flag, value(&mut i, flag)?)?,
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => (cli.trace, i) = (false, i + 1),
                Some("1") => (cli.trace, i) = (true, i + 1),
                _ => cli.trace = true,
            },
            "--out" => cli.out = Some(value(&mut i, flag)?.into()),
            "--serve-bin" => cli.serve_bin = value(&mut i, flag)?.into(),
            "--scratch" => cli.scratch = value(&mut i, flag)?.into(),
            "--smoke" => cli.smoke = true,
            "--compare" => {
                cli.compare = Some((value(&mut i, flag)?.into(), value(&mut i, flag)?.into()))
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".to_string());
    }
    if cli.keys < 1000 {
        return Err("--keys must be at least 1000".to_string());
    }
    Ok(cli)
}

/// Panic messages of threads other than `main`, kept instead of printed:
/// an engine panic is a counted failure, not a crash of the benchmark.
pub static PANICS: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn install_quiet_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() == Some("main") {
            let seen = PANICS.lock().map(|p| p.clone()).unwrap_or_default();
            if !seen.is_empty() {
                eprintln!("panics on other threads before this one: {seen:#?}");
            }
            default(info);
        } else if let Ok(mut seen) = PANICS.lock() {
            if seen.len() < 32 {
                seen.push(format!(
                    "[{}] {info}",
                    std::thread::current().name().unwrap_or("client")
                ));
            }
        }
    }));
}

fn params(cli: &Cli, workload: Workload, trace: bool) -> Params {
    Params {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace,
        keys: cli.keys,
        warmup_s: WARMUP_S,
        serve_bin: cli.serve_bin.clone(),
        scratch: cli.scratch.clone(),
    }
}

/// One line per `(workload, metric, value, unit)`, then the table of a
/// traced run, then what failed.
fn print_result(r: &RunResult) {
    for (name, value, unit) in &r.metrics {
        println!("{} {name} {value} {unit}", r.workload.name());
    }
    println!(
        "{} failed_ratio {} ratio ({} failed of {} attempted in the timed slices; {} failed in the whole run)",
        r.workload.name(),
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted,
        r.failed_total
    );
    if let Some(table) = &r.table {
        println!(
            "{} per-layer breakdown (traced window):\n{table}",
            r.workload.name()
        );
    }
    for (msg, n) in &r.failures {
        eprintln!("{}: {n} transaction(s) failed: {msg}", r.workload.name());
    }
    for v in &r.violations {
        eprintln!("{}: CORRECTNESS VIOLATION: {v}", r.workload.name());
    }
}

fn result_json(r: &RunResult) -> Json {
    obj([
        ("workload", r.workload.name().into()),
        ("why", r.workload.why().into()),
        ("trace", r.trace.into()),
        ("correct", r.correct().into()),
        (
            "violations",
            Json::Arr(r.violations.iter().map(|v| v.as_str().into()).collect()),
        ),
        ("attempted", r.attempted.into()),
        ("failed", r.failed.into()),
        ("failed_total", r.failed_total.into()),
        (
            "failures",
            Json::Arr(
                r.failures
                    .iter()
                    .map(|(m, n)| obj([("message", m.as_str().into()), ("count", (*n).into())]))
                    .collect(),
            ),
        ),
        ("metrics", r.metrics_json()),
        ("detail", r.detail.clone()),
    ])
}

fn definition(name: &str, unit: &str, better: metrics::Better, bound: Option<f64>) -> Json {
    let mut fields = vec![
        ("name", name.into()),
        ("unit", unit.into()),
        ("better", better.as_str().into()),
    ];
    fields.extend(bound.map(|b| ("bound", b.into())));
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The report file: what ran where, the metric definitions, one entry per
/// run, and the panics seen on threads that were not clients.
fn report(cli: &Cli, runs: Vec<Json>, panics: Vec<Json>) -> Json {
    // The CPUs this process may run on (one, under `run.sh`'s pinning) and
    // the CPUs the host has.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpus_allowed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|l| l.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let host_cpus = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |t| {
        t.lines().filter(|l| l.starts_with("processor")).count()
    });
    obj([
        ("bench", "bench_e2e".into()),
        ("cores", (cores as u64).into()),
        ("cpus_allowed", cpus_allowed.into()),
        ("host_cpus", (host_cpus as u64).into()),
        ("git_revision", git_revision().into()),
        ("seed", cli.seed.into()),
        ("keys", (cli.keys as u64).into()),
        ("seconds", cli.seconds.into()),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| definition(m.name, m.unit, m.better, Some(m.bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| definition(m.name, m.unit, m.better, None))
                    .collect(),
            ),
        ),
        ("runs", Json::Arr(runs)),
        ("panics_on_engine_threads", Json::Arr(panics)),
        // This benchmark defines the measurement; it claims no gain.
        ("claim", Json::Null),
    ])
}

/// Every named metric must be there and finite.
fn check_complete(r: &RunResult) -> Vec<String> {
    let expected: Vec<&str> = if r.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut problems = Vec::new();
    for name in expected {
        match r.metrics.iter().find(|m| m.0 == name) {
            None => problems.push(format!("{}: {name} missing", r.workload.name())),
            Some((_, v, _)) if !v.is_finite() => {
                problems.push(format!("{}: {name} = {v}", r.workload.name()))
            }
            Some((_, v, _)) if !r.trace && *v <= 0.0 => problems.push(format!(
                "{}: end-to-end {name} = {v}, must be positive",
                r.workload.name()
            )),
            Some(_) => {}
        }
    }
    problems
}

fn write_report(cli: &Cli, runs: Vec<Json>, panics: Vec<Json>) -> bool {
    let Some(out) = &cli.out else {
        return true;
    };
    match std::fs::write(out, report(cli, runs, panics).pretty()) {
        Ok(()) => {
            eprintln!("wrote {}", out.display());
            true
        }
        Err(e) => {
            eprintln!("bench_e2e: write {}: {e}", out.display());
            false
        }
    }
}

fn pass_name(trace: bool) -> &'static str {
    if trace {
        "traced"
    } else {
        "timed"
    }
}

/// One workload, one pass, in this process: what a driver runs.
fn run_one(cli: &Cli, workload: Workload, trace: bool) -> ExitCode {
    eprintln!("== {} ({}) ==", workload.name(), pass_name(trace));
    let r = match bench::run(&params(cli, workload, trace)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_result(&r);
    let panics = PANICS.lock().map(|p| p.clone()).unwrap_or_default();
    let panics = panics.iter().map(|p| p.as_str().into()).collect();
    let mut problems = check_complete(&r);
    if !write_report(cli, vec![result_json(&r)], panics) {
        problems.push("the report file was not written".to_string());
    }
    if !r.correct() {
        problems.push(format!("{}: outputs were not correct", r.workload.name()));
    }
    // The line the driver reads is the last thing on standard output.
    println!("{}", r.contract_line());
    for p in &problems {
        eprintln!("bench_e2e: {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Several runs, each in a process of its own, as a driver runs them: a
/// process that has run one workload still holds its memory, and the next
/// one's `peak_rss_mb` would read that. The children print their own
/// lines; their report files are merged into one.
fn run_set(cli: &Cli, runs: &[(Workload, bool)]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench_e2e: cannot find this program to run it again: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut merged, mut panics, mut ok) = (Vec::new(), Vec::new(), true);
    for &(w, trace) in runs {
        let part = cli
            .scratch
            .join(format!("report-{}-{}.json", w.name(), pass_name(trace)));
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--keys", &cli.keys.to_string()])
            .arg("--serve-bin")
            .arg(&cli.serve_bin)
            .arg("--scratch")
            .arg(&cli.scratch)
            .arg("--out")
            .arg(&part)
            .status();
        ok &= status.is_ok_and(|s| s.success());
        let child = std::fs::read_to_string(&part)
            .ok()
            .and_then(|t| Json::parse(&t).ok());
        let _ = std::fs::remove_file(&part);
        let Some(child) = child else {
            eprintln!(
                "bench_e2e: {} ({}) left no report",
                w.name(),
                pass_name(trace)
            );
            ok = false;
            continue;
        };
        let list = |key: &str| child.get(key).map_or(&[][..], Json::as_arr).to_vec();
        merged.extend(list("runs"));
        panics.extend(list("panics_on_engine_threads"));
    }
    // Whatever the children reported is written, a failed one's too.
    let written = write_report(cli, merged, panics);
    if ok && written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("bench_e2e: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some((a, b)) = &cli.compare {
        let load = |p: &PathBuf| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("{}: {e}", p.display()))
                .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
        };
        let rows = load(a).and_then(|a| compare::compare(&a, &load(b)?));
        return match rows {
            Ok(rows) if compare::print(&rows) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                ExitCode::from(2)
            }
        };
    }

    install_quiet_panic_hook();
    if cli.smoke {
        // Small and quick, but the whole path: all four workloads, timed
        // and traced, including the spawned server.
        cli.keys = 20_000;
        cli.seconds = 2.0;
    }
    let workloads: Vec<Workload> = cli.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    // One workload: the pass that was asked for. All of them: the timed
    // pass, then the traced one if asked for.
    let passes: Vec<bool> = if cli.workload.is_some() && !cli.smoke {
        vec![cli.trace]
    } else if cli.trace || cli.smoke {
        vec![false, true]
    } else {
        vec![false]
    };
    let runs: Vec<(Workload, bool)> = passes
        .iter()
        .flat_map(|&trace| workloads.iter().map(move |&w| (w, trace)))
        .collect();
    match runs[..] {
        [(workload, trace)] => run_one(&cli, workload, trace),
        _ => run_set(&cli, &runs),
    }
}
