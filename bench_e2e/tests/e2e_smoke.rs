//! Two runs of the real thing, one after the other.
//!
//! `run.sh --smoke` — the command `BENCHMARK.json` names, so pinned to one
//! CPU like every measured run: all four workloads, timed and traced, at
//! 20,000 keys with 2 s windows, including building and spawning
//! `gist-serve`. Every metric `BENCHMARK.json` names must come out, finite.
//!
//! Then the binary by itself, on every CPU the host allows: with two or
//! more, the engine's WAL segment-directory race fires within seconds and
//! transactions panic. The run must still end with exit code 0 and correct
//! outputs, its failures counted and listed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Mutex;

/// The two runs would otherwise share the CPU the first is pinned to.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root")
        .to_path_buf()
}

fn text(out: &Output) -> (String, String) {
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every `"name": "<x>"` in `BENCHMARK.json`, in file order: the four
/// workloads, then the end-to-end metrics, then the per-layer ones.
fn benchmark_names(root: &Path) -> Vec<String> {
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    spec.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn smoke_reports_every_named_metric() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let root = root();
    let out = Command::new("bash")
        .args(["bench_e2e/run.sh", "--smoke"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join("target"))
        .output()
        .expect("run bench_e2e/run.sh");
    let (stdout, stderr) = text(&out);
    assert!(
        out.status.success(),
        "run.sh --smoke failed\n{stdout}\n{stderr}"
    );

    let names = benchmark_names(&root);
    let (workloads, metrics) = names.split_at(4);
    assert!(
        metrics.len() > 50 && metrics[0] == "setup_s",
        "unexpected BENCHMARK.json layout: {names:?}"
    );
    for w in workloads {
        for m in metrics.iter().map(String::as_str).chain(["failed_ratio"]) {
            let prefix = format!("{w} {m} ");
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no line for {w} {m}\n{stdout}"));
            let value: f64 = line[prefix.len()..]
                .split(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("a number");
            assert!(value.is_finite(), "{line}");
        }
    }
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
}

/// The number after `"<key>": ` in a report file.
fn number_in(report: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\": ");
    let rest = &report[report
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in the report"))
        + tag.len()..];
    rest[..rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len())]
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a count"))
}

#[test]
fn on_every_cpu_engine_panics_are_counted_not_fatal() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2e-every-cpu");
    let report_file = dir.join("report.json");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--workload", "point-read-hot", "--keys", "20000"])
        .args(["--seconds", "4", "--trace", "0", "--scratch"])
        .arg(&dir)
        .arg("--out")
        .arg(&report_file)
        .output()
        .expect("run bench_e2e");
    let (stdout, stderr) = text(&out);
    assert!(
        out.status.success(),
        "a run on every CPU must end well whatever the engine does\n{stdout}\n{stderr}"
    );
    let last = stdout.lines().last().expect("output");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");

    let report = std::fs::read_to_string(&report_file).expect("report file");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        number_in(&report, "cores"),
        cores as u64,
        "the placement is recorded"
    );
    // Whether the race fired is the scheduler's business; that what fired
    // is in the ledger is ours.
    let failed_total = number_in(&report, "failed_total");
    assert!(failed_total >= number_in(&report, "failed"));
    assert_eq!(
        failed_total > 0,
        report.contains("\"message\": "),
        "{failed_total} failed transactions against this ledger:\n{stderr}"
    );
}
