//! The closed loop every workload runs in: two client threads, a warm-up,
//! then one or two timed windows cut into slices.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use crate::hist::Hist;
use crate::metrics::Workload;
use crate::trace::{self, now_ns, Kind, Span};

/// Callers that each wait for their reply: a closed loop with this many
/// clients. Fixed (the host has two cores); `cores` is recorded.
pub const CLIENTS: usize = 2;
/// Slices per timed window; the median slice is what is reported.
pub const SLICES: usize = 5;

#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub keys: i64,
    pub warmup_s: f64,
    pub serve_bin: PathBuf,
    pub scratch: PathBuf,
}

/// Deterministic xorshift64* generator; every key choice comes from it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        // SplitMix64 of (seed, stream) so nearby seeds give unrelated streams.
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x1234_5678_9ABC_DEF1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)).max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Skewed towards low values by repeated halving of the range (the
    /// generator `gist-bench`'s `XorShift::skewed` uses): a quarter of
    /// the draws are uniform over `n`, a quarter of the rest over `n/2`,
    /// and so on.
    pub fn skewed(&mut self, n: u64) -> u64 {
        let mut range = n.max(1);
        while range > 1 && self.below(4) != 0 {
            range /= 2;
        }
        self.below(range)
    }
}

/// One timed slice of the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub start: u64,
    pub len: u64,
    pub traced: bool,
}

impl Slice {
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    fn holds(&self, t: u64) -> bool {
        t >= self.start && t < self.end()
    }
}

/// How one transaction ended.
pub enum TxnEnd {
    Committed,
    /// Non-retryable error, retries exhausted, or a panic: counted, and
    /// the client carries on.
    Failed(String),
    /// Committed, but the rows were not the rows the dataset holds: a
    /// correctness violation.
    Wrong(String),
}

/// One client's side of a workload.
pub trait Driver: Send {
    /// Run the next transaction to completion (retries included),
    /// pushing one duration per wire round trip into `requests`.
    fn run(&mut self, requests: &mut Vec<u64>) -> TxnEnd;
}

#[derive(Default, Clone)]
pub struct SliceAcc {
    pub txn_ns: Hist,
    pub req_ns: Hist,
    pub committed: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl SliceAcc {
    fn merge(&mut self, other: &SliceAcc) {
        self.txn_ns.merge(&other.txn_ns);
        self.req_ns.merge(&other.req_ns);
        self.committed += other.committed;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one client thread hands back.
pub struct ClientOut {
    /// One per slice of the schedule.
    pub slices: Vec<SliceAcc>,
    pub spans: Vec<Span>,
    /// Transactions that failed at any time: warm-up and slice edges too.
    pub failed_total: u64,
    /// Failure message → count (first 32 distinct messages), over the
    /// same transactions as `failed_total`.
    pub failures: BTreeMap<String, u64>,
    /// Wrong rows, whenever they were returned.
    pub wrong: Vec<String>,
}

fn note(map: &mut BTreeMap<String, u64>, msg: String) {
    if map.len() < 32 || map.contains_key(&msg) {
        *map.entry(msg).or_default() += 1;
    }
}

/// `schedule` is shared with the controller and unset during warm-up.
fn client_loop(driver: &mut dyn Driver, schedule_cell: &OnceLock<Vec<Slice>>) -> ClientOut {
    let mut out = ClientOut {
        slices: Vec::new(),
        spans: Vec::new(),
        failed_total: 0,
        failures: BTreeMap::new(),
        wrong: Vec::new(),
    };
    let mut schedule: &[Slice] = &[];
    let mut recording = false;
    let mut requests = Vec::new();
    loop {
        if schedule.is_empty() {
            if let Some(s) = schedule_cell.get() {
                schedule = s;
                out.slices = vec![SliceAcc::default(); s.len()];
            }
        }
        let t0 = now_ns();
        if schedule.last().is_some_and(|s| t0 >= s.end()) {
            break;
        }
        let slice = schedule.iter().position(|s| s.holds(t0));
        let traced = slice.is_some_and(|i| schedule[i].traced);
        if traced != recording {
            trace::thread_enable(traced);
            recording = traced;
        }
        requests.clear();
        let root = trace::open(Kind::Txn);
        let end = driver.run(&mut requests);
        trace::close(root);
        let t1 = now_ns();
        // What a failure leaves behind (a leaked credit, a write of
        // unknown fate) and a wrong row are facts of the whole run, so
        // they are kept whenever they happen: the output checks are over
        // everything the clients did, warm-up included.
        match &end {
            TxnEnd::Committed => {}
            TxnEnd::Failed(msg) => {
                out.failed_total += 1;
                note(&mut out.failures, msg.clone());
            }
            TxnEnd::Wrong(msg) => {
                if out.wrong.len() < 8 {
                    out.wrong.push(msg.clone());
                }
            }
        }
        // The rates are of the timed slices: a transaction counts in the
        // slice it starts and completes in; one that straddles a slice
        // edge, or runs in warm-up, is in no rate.
        let Some(i) = slice.filter(|&i| schedule[i].holds(t1)) else {
            continue;
        };
        let acc = &mut out.slices[i];
        acc.attempted += 1;
        for &r in &requests {
            acc.req_ns.record(r);
        }
        if matches!(end, TxnEnd::Committed) {
            acc.committed += 1;
            acc.txn_ns.record(t1 - t0);
        } else {
            acc.failed += 1;
        }
    }
    trace::thread_enable(false);
    out.spans = trace::thread_take();
    out
}

fn sleep_until(t: u64) {
    let now = now_ns();
    if t > now {
        std::thread::sleep(Duration::from_nanos(t - now));
    }
}

/// Everything the timed slices produced, clients merged.
pub struct Measured {
    /// The untraced slices: all of an untraced run, every other one of a
    /// traced run.
    pub plain: Vec<SliceAcc>,
    /// The traced slices of a traced run.
    pub traced: Option<Vec<SliceAcc>>,
    pub slice_s: f64,
    pub spans: Vec<Vec<Span>>,
    /// Failed transactions of the whole run (the slices carry only those
    /// that fell inside them).
    pub failed_total: u64,
    pub failures: BTreeMap<String, u64>,
    pub wrong: Vec<String>,
}

/// Warm up, then run the timed slices over `drivers` (one thread each):
/// `SLICES` untraced slices, or — in a traced run — `SLICES` untraced and
/// `SLICES` traced ones taking turns, so that drift in the dataset falls
/// on both alike and their ratio is the tracing overhead. `edge` is
/// called on the controller thread at each traced slice's start (`false`)
/// and end (`true`) — where counter snapshots belong.
pub fn drive<D: Driver>(p: &Params, drivers: &mut [D], mut edge: impl FnMut(bool)) -> Measured {
    let ctl = OnceLock::new();
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .map(|d| {
                let ctl = &ctl;
                scope.spawn(move || client_loop(d, ctl))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(p.warmup_s));
        let count = if p.trace { 2 * SLICES } else { SLICES };
        let len = (p.seconds * 1e9 / count as f64) as u64;
        let start = now_ns() + 2_000_000;
        let schedule: Vec<Slice> = (0..count)
            .map(|i| Slice {
                start: start + i as u64 * len,
                len,
                traced: p.trace && i % 2 == 1,
            })
            .collect();
        ctl.set(schedule.clone()).expect("schedule set once");
        for s in &schedule {
            sleep_until(s.start);
            if s.traced {
                edge(false);
                trace::set_tracing(true);
            }
            sleep_until(s.end());
            if s.traced {
                trace::set_tracing(false);
                edge(true);
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let schedule = ctl.get().expect("schedule");
    let merged = |traced: bool| -> Vec<SliceAcc> {
        let mut slices = Vec::new();
        for (i, _) in schedule
            .iter()
            .enumerate()
            .filter(|(_, s)| s.traced == traced)
        {
            let mut acc = SliceAcc::default();
            for out in &outs {
                acc.merge(&out.slices[i]);
            }
            slices.push(acc);
        }
        slices
    };
    let mut m = Measured {
        plain: merged(false),
        traced: p.trace.then(|| merged(true)),
        slice_s: schedule[0].len as f64 / 1e9,
        spans: Vec::new(),
        failed_total: 0,
        failures: BTreeMap::new(),
        wrong: Vec::new(),
    };
    for out in outs {
        m.spans.push(out.spans);
        m.failed_total += out.failed_total;
        for (msg, n) in out.failures {
            *m.failures.entry(msg).or_default() += n;
        }
        m.wrong.extend(out.wrong);
    }
    m
}

/// Median of a non-empty list.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median, min and max slice of a per-slice quantity.
#[derive(Debug, Clone)]
pub struct Sliced {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub values: Vec<f64>,
}

impl Sliced {
    pub fn of(values: Vec<f64>) -> Sliced {
        Sliced {
            median: median(values.clone()),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            values,
        }
    }
}

/// Committed transactions per second, per slice.
pub fn throughput(slices: &[SliceAcc], slice_s: f64) -> Sliced {
    Sliced::of(
        slices
            .iter()
            .map(|s| s.committed as f64 / slice_s)
            .collect(),
    )
}

/// The `q`-quantile of `pick(slice)` per slice, in microseconds, with the
/// quantile actually supported by the smallest slice.
pub fn percentile_us(
    slices: &[SliceAcc],
    pick: impl Fn(&SliceAcc) -> &Hist,
    q: f64,
) -> (Sliced, f64) {
    let per: Vec<(f64, f64)> = slices
        .iter()
        .map(|s| pick(s).percentile_supported(q))
        .collect();
    let used = per.iter().map(|p| p.1).fold(q, f64::min);
    (Sliced::of(per.iter().map(|p| p.0 / 1e3).collect()), used)
}

/// `VmHWM` of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails every transaction, each with a message of its own kind.
    struct Failing {
        n: u64,
        kinds: u64,
    }

    impl Driver for Failing {
        fn run(&mut self, _requests: &mut Vec<u64>) -> TxnEnd {
            std::thread::sleep(Duration::from_micros(200));
            self.n += 1;
            TxnEnd::Failed(format!("boom {}", self.n % self.kinds))
        }
    }

    fn params() -> Params {
        Params {
            workload: Workload::PointReadHot,
            seed: 1,
            seconds: 0.1,
            trace: false,
            keys: 1000,
            warmup_s: 0.05,
            serve_bin: PathBuf::new(),
            scratch: PathBuf::new(),
        }
    }

    /// A failure in warm-up or across a slice edge is in no slice, and
    /// must still be in the run's total and its ledger: the leak checks
    /// forgive exactly that many leftovers.
    #[test]
    fn failures_outside_the_slices_are_counted() {
        let mut drivers = vec![Failing { n: 0, kinds: 2 }, Failing { n: 0, kinds: 2 }];
        let m = drive(&params(), &mut drivers, |_| {});
        let ran: u64 = drivers.iter().map(|d| d.n).sum();
        let in_slices: u64 = m.plain.iter().map(|s| s.failed).sum();
        assert_eq!(m.failed_total, ran);
        assert_eq!(m.failures.values().sum::<u64>(), ran);
        assert!(in_slices > 0 && in_slices < ran, "{in_slices} of {ran}");
        assert_eq!(m.plain.iter().map(|s| s.committed).sum::<u64>(), 0);
    }

    /// The ledger keeps 32 distinct messages; the total keeps counting.
    #[test]
    fn the_total_does_not_depend_on_the_message_cap() {
        let mut drivers = vec![Failing { n: 0, kinds: 50 }];
        let m = drive(&params(), &mut drivers, |_| {});
        assert_eq!(m.failures.len(), 32);
        assert_eq!(m.failed_total, drivers[0].n);
        assert!(m.failures.values().sum::<u64>() < m.failed_total);
    }
}
