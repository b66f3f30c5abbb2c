//! `--compare a.json b.json`: is `b` worse than `a` by more than the
//! benchmark's own bounds?

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse by more than the bound, more failed transactions, or a
    /// workload or metric of `a` that `b` does not report.
    Regressed,
    /// The spread between slices (or between the two sets) is wider than
    /// the bound, so the comparison cannot resolve a change of that size.
    Unresolved,
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    /// NaN when `b` does not report the metric.
    pub b: f64,
    /// Signed share by which `b` is worse than `a` (negative: better);
    /// for `failed_ratio`, the rise in the ratio itself.
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// The timed (untraced) runs of a report.
fn timed_runs(report: &Json) -> impl Iterator<Item = &Json> {
    report
        .get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
}

fn workload_of(run: &Json) -> &str {
    run.get("workload").and_then(Json::as_str).unwrap_or("?")
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Failed ÷ attempted transactions of the timed slices.
fn failed_ratio(run: &Json) -> Option<f64> {
    let count = |k: &str| run.get(k).and_then(Json::as_f64);
    Some(count("failed")? / count("attempted")?.max(1.0))
}

/// Relative in-run spread `(max slice − min slice) ÷ median`, where the
/// report carries slices for the metric.
fn in_run_spread(run: &Json, name: &str) -> f64 {
    let Some(s) = run.get("detail").and_then(|d| d.get(name)) else {
        return 0.0;
    };
    let get = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    if get("median") > 0.0 {
        (get("max_slice") - get("min_slice")) / get("median")
    } else {
        0.0
    }
}

/// One row per `(workload, end-to-end metric)` of `a`, plus one for the
/// failed ratio. `Err` when the two reports cannot be compared at all:
/// different dataset size or CPU count, or outputs that were not correct.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for key in ["keys", "cores"] {
        let (va, vb) = (a.get(key), b.get(key));
        if va != vb {
            return Err(format!(
                "not comparable: {key} is {} in a and {} in b",
                va.map_or("absent".to_string(), Json::render),
                vb.map_or("absent".to_string(), Json::render)
            ));
        }
    }
    for (side, report) in [("a", a), ("b", b)] {
        if let Some(run) = timed_runs(report).find(|r| r.get("correct") != Some(&Json::Bool(true)))
        {
            return Err(format!(
                "{side}: the outputs of {} were not correct; its numbers mean nothing",
                workload_of(run)
            ));
        }
    }
    let mut rows = Vec::new();
    for run_a in timed_runs(a) {
        let workload = workload_of(run_a);
        let run_b = timed_runs(b).find(|r| workload_of(r) == workload);
        for e in END_TO_END {
            let Some(va) = metric(run_a, e.name) else {
                continue;
            };
            let vb = run_b.and_then(|r| metric(r, e.name));
            let worse_by = vb.map_or(f64::NAN, |vb| match e.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            });
            let spread =
                in_run_spread(run_a, e.name).max(run_b.map_or(0.0, |r| in_run_spread(r, e.name)));
            let verdict = if worse_by <= e.bound {
                Verdict::Ok
            } else if vb.is_some() && spread > e.bound {
                Verdict::Unresolved
            } else {
                Verdict::Regressed
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: e.name,
                a: va,
                b: vb.unwrap_or(f64::NAN),
                worse_by,
                bound: e.bound,
                verdict,
            });
        }
        // May not rise at all.
        let fa = failed_ratio(run_a).unwrap_or(0.0);
        let fb = run_b.and_then(failed_ratio);
        let worse_by = fb.map_or(f64::NAN, |fb| fb - fa);
        rows.push(Row {
            workload: workload.to_string(),
            metric: "failed_ratio",
            a: fa,
            b: fb.unwrap_or(f64::NAN),
            worse_by,
            bound: 0.0,
            verdict: if worse_by <= 0.0 {
                Verdict::Ok
            } else {
                Verdict::Regressed
            },
        });
    }
    Ok(rows)
}

/// Print the table; `true` when nothing regressed.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        };
        println!(
            "{:<16} {:<20} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            100.0 * r.bound
        );
    }
    !rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn run(workload: &str, txn_per_s: f64, p50: f64, min_slice: f64, failed: u64) -> Json {
        let m = |v: f64| obj([("value", v.into()), ("unit", "x".into())]);
        obj([
            ("workload", workload.into()),
            ("trace", false.into()),
            ("correct", true.into()),
            ("attempted", 1000u64.into()),
            ("failed", failed.into()),
            (
                "metrics",
                obj([("txn_per_s", m(txn_per_s)), ("txn_p50_us", m(p50))]),
            ),
            (
                "detail",
                obj([(
                    "txn_per_s",
                    obj([
                        ("median", txn_per_s.into()),
                        ("min_slice", min_slice.into()),
                        ("max_slice", txn_per_s.into()),
                    ]),
                )]),
            ),
        ])
    }

    fn report_of(runs: Vec<Json>) -> Json {
        obj([
            ("keys", 60_000u64.into()),
            ("cores", 1u64.into()),
            ("runs", Json::Arr(runs)),
        ])
    }

    fn report(txn_per_s: f64, p50: f64, min_slice: f64) -> Json {
        report_of(vec![run("point-read-hot", txn_per_s, p50, min_slice, 0)])
    }

    fn verdict_of(a: &Json, b: &Json, metric: &str) -> Verdict {
        compare(a, b)
            .expect("comparable")
            .into_iter()
            .find(|r| r.metric == metric)
            .expect("a row for the metric")
            .verdict
    }

    #[test]
    fn verdicts() {
        let base = report(1000.0, 30.0, 990.0);
        // Slower by less than the bound, and faster: both fine.
        assert_eq!(
            verdict_of(&base, &report(950.0, 29.0, 940.0), "txn_per_s"),
            Verdict::Ok
        );
        assert_eq!(
            verdict_of(&base, &report(1200.0, 29.0, 1190.0), "txn_per_s"),
            Verdict::Ok
        );
        // Throughput down 30% with tight slices: a regression.
        assert_eq!(
            verdict_of(&base, &report(700.0, 30.0, 690.0), "txn_per_s"),
            Verdict::Regressed
        );
        // Down 30% but the slices themselves spread 40%: cannot tell.
        assert_eq!(
            verdict_of(&base, &report(700.0, 30.0, 420.0), "txn_per_s"),
            Verdict::Unresolved
        );
        // Latency is lower-is-better.
        assert_eq!(
            verdict_of(&base, &report(1000.0, 40.0, 990.0), "txn_p50_us"),
            Verdict::Regressed
        );
        assert!(!print(
            &compare(&base, &report(700.0, 30.0, 690.0)).unwrap()
        ));
        assert!(print(&compare(&base, &base).unwrap()));
    }

    #[test]
    fn what_b_lacks_or_fails_is_a_regression() {
        let base = report_of(vec![
            run("point-read-hot", 1000.0, 30.0, 990.0, 0),
            run("scan-insert-hot", 100.0, 300.0, 99.0, 2),
        ]);
        // b dropped a workload: every metric of it regressed.
        let rows = compare(&base, &report(1000.0, 30.0, 990.0)).unwrap();
        let dropped: Vec<_> = rows
            .iter()
            .filter(|r| r.workload == "scan-insert-hot")
            .collect();
        assert_eq!(dropped.len(), 3);
        assert!(dropped
            .iter()
            .all(|r| r.verdict == Verdict::Regressed && r.b.is_nan()));
        assert!(!print(&rows));
        // b dropped one metric.
        let mut partial = run("point-read-hot", 1000.0, 30.0, 990.0, 0);
        if let Json::Obj(fields) = &mut partial {
            let at = fields.iter().position(|f| f.0 == "metrics").unwrap();
            fields[at].1 = obj([(
                "txn_per_s",
                obj([("value", 1000.0.into()), ("unit", "x".into())]),
            )]);
        }
        let b = report_of(vec![partial]);
        let a = report(1000.0, 30.0, 990.0);
        assert_eq!(verdict_of(&a, &b, "txn_per_s"), Verdict::Ok);
        assert_eq!(verdict_of(&a, &b, "txn_p50_us"), Verdict::Regressed);
        // More failed transactions, equal speed: regressed. Fewer: fine.
        let failing = report_of(vec![run("point-read-hot", 1000.0, 30.0, 990.0, 1)]);
        assert_eq!(verdict_of(&a, &failing, "failed_ratio"), Verdict::Regressed);
        assert_eq!(verdict_of(&failing, &a, "failed_ratio"), Verdict::Ok);
    }

    #[test]
    fn reports_that_cannot_be_compared_are_refused() {
        let a = report(1000.0, 30.0, 990.0);
        let mut wrong = run("point-read-hot", 1000.0, 30.0, 990.0, 0);
        if let Json::Obj(fields) = &mut wrong {
            let at = fields.iter().position(|f| f.0 == "correct").unwrap();
            fields[at].1 = false.into();
        }
        assert!(compare(&a, &report_of(vec![wrong])).is_err());
        let two_cpus = obj([
            ("keys", 60_000u64.into()),
            ("cores", 2u64.into()),
            (
                "runs",
                Json::Arr(vec![run("point-read-hot", 1000.0, 30.0, 990.0, 0)]),
            ),
        ]);
        assert!(compare(&a, &two_cpus).is_err());
    }
}
