//! The metric and workload names this benchmark reports. `BENCHMARK.json`
//! at the repository root lists the same names; a unit test keeps the
//! two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// What a user of the system sees. Measured with tracing off, on every
/// workload; none of them is ever 0.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "txn_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "space_bytes_per_key",
        unit: "B/key",
        better: Better::Lower,
        bound: 0.02,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// One layer each, from the traced run. A layer the workload bypasses
/// reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    pl("wire.encode_ns_per_req", "ns", Lower),
    pl("wire.decode_ns_per_req", "ns", Lower),
    pl("wire.bytes_per_txn", "B", Lower),
    pl("serve.restart_s", "s", Lower),
    pl("serve.req_p50_us", "us", Lower),
    pl("serve.req_p99_us", "us", Lower),
    pl("serve.ping_rtt_us", "us", Lower),
    pl("serve.requests", "count", Higher),
    pl("serve.busy_sheds", "count", Lower),
    pl("serve.protocol_errors", "count", Lower),
    pl("serve.engine_share", "ratio", Higher),
    pl("overload.admit_ns", "ns", Lower),
    pl("overload.shed", "count", Lower),
    pl("overload.forced", "count", Lower),
    pl("overload.parked", "count", Lower),
    pl("txn.begin_us", "us", Lower),
    pl("txn.commit_us", "us", Lower),
    pl("txn.retries_per_ktxn", "1/ktxn", Lower),
    pl("txn.retries_exhausted", "count", Lower),
    pl("txn.backoff_us_per_txn", "us", Lower),
    pl("txn.failed_per_ktxn", "1/ktxn", Lower),
    pl("lockmgr.lock_release_ns", "ns", Lower),
    pl("lockmgr.locks_per_txn", "1/txn", Lower),
    pl("lockmgr.waits_per_ktxn", "1/ktxn", Lower),
    pl("lockmgr.deadlocks_per_ktxn", "1/ktxn", Lower),
    pl("lockmgr.timeouts", "count", Lower),
    pl("predlock.attach_check_ns", "ns", Lower),
    pl("predlock.attachments_per_scan", "1/scan", Lower),
    pl("predlock.live_end", "count", Lower),
    pl("core.search_us", "us", Lower),
    pl("core.range_us", "us", Lower),
    pl("core.insert_us", "us", Lower),
    pl("core.delete_us", "us", Lower),
    pl("core.op_self_us", "us", Lower),
    pl("core.pages_per_lookup", "1/op", Lower),
    pl("core.opt_hit_ratio", "ratio", Higher),
    pl("core.opt_fallbacks_per_kop", "1/kop", Lower),
    pl("core.tree_height", "count", Lower),
    pl("core.entries_per_leaf", "count", Higher),
    pl("pagestore.hit_ratio", "ratio", Higher),
    pl("pagestore.misses_per_kop", "1/kop", Lower),
    pl("pagestore.evictions_per_kop", "1/kop", Lower),
    pl("pagestore.writebacks_per_kop", "1/kop", Lower),
    pl("pagestore.direct_reads_per_kop", "1/kop", Lower),
    pl("pagestore.fetch_hit_ns", "ns", Lower),
    pl("pagestore.fetch_miss_us", "us", Lower),
    pl("pagestore.store_read_us", "us", Lower),
    pl("pagestore.store_write_us", "us", Lower),
    pl("pagestore.store_sync_us", "us", Lower),
    pl("pagestore.store_reads", "count", Lower),
    pl("pagestore.store_writes", "count", Lower),
    pl("pagestore.store_syncs", "count", Lower),
    pl("pagestore.io_share", "ratio", Lower),
    pl("wal.records_per_txn", "1/txn", Lower),
    pl("wal.append_ns", "ns", Lower),
    pl("wal.log_bytes_per_user_byte", "ratio", Lower),
    pl("wal.backpressure_parks", "count", Lower),
    pl("wal.backpressure_stalls", "count", Lower),
    pl("wal.restart_load_s", "s", Lower),
    pl("wal.restart_recover_s", "s", Lower),
    pl("wal.redo_applied", "count", Lower),
    pl("wal.losers_undone", "count", Lower),
    pl("commitpipe.syncs", "count", Lower),
    pl("commitpipe.mean_batch", "1/sync", Higher),
    pl("commitpipe.commit_wait_p50_us", "us", Lower),
    pl("commitpipe.commit_wait_p99_us", "us", Lower),
    pl("commitpipe.flusher_panics", "count", Lower),
    pl("maint.gc_runs", "count", Higher),
    pl("maint.entries_reclaimed", "count", Higher),
    pl("maint.checkpoints", "count", Higher),
    pl("maint.queue_depth_end", "count", Lower),
    pl("maint.marked_entries_end", "count", Lower),
    pl("epoch.pin_ns", "ns", Lower),
    pl("epoch.pending_end", "count", Lower),
    pl("epoch.stalls", "count", Lower),
    pl("epoch.forced_advances", "count", Lower),
    pl("trace.overhead_ratio", "ratio", Higher),
    pl("trace.unattributed_share", "ratio", Lower),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointReadHot,
    ScanInsertHot,
    MixedColdFile,
    ServedMixed,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::PointReadHot,
    Workload::ScanInsertHot,
    Workload::MixedColdFile,
    Workload::ServedMixed,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointReadHot => "point-read-hot",
            Workload::ScanInsertHot => "scan-insert-hot",
            Workload::MixedColdFile => "mixed-cold-file",
            Workload::ServedMixed => "served-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it loads and which it
    /// bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PointReadHot => {
                "resident pool, one point read per txn: CPU cost of traversal, record lock, begin/commit, epoch pin; bypasses store I/O, WAL volume and predicate conflicts"
            }
            Workload::ScanInsertHot => {
                "resident pool, range scan then insert into the scanned range plus a delete: predicate attach/check, lock waits, deadlock retries, WAL and group commit beside reads"
            }
            Workload::MixedColdFile => {
                "tree 4x the pool, uniform 50/25/25 read/insert/delete with checkpoints and GC running: misses, eviction scan, dirty write-back, direct reads, background interference"
            }
            Workload::ServedMixed => {
                "the shipped gist-serve process restarted from a crash image, 6-request txns over 2 TCP connections: wire, session loop, admission, and restart redo/undo at size"
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = spec.get("workloads").unwrap().as_arr();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (spec_w, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(spec_w, "name"), w.name());
            assert_eq!(field(spec_w, "why"), w.why());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        let e2e = spec.get("end_to_end").unwrap().as_arr();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (spec_m, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(spec_m, "name"), m.name);
            assert_eq!(field(spec_m, "unit"), m.unit);
            assert_eq!(field(spec_m, "better"), m.better.as_str());
            assert_eq!(spec_m.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let layers = spec.get("per_layer").unwrap().as_arr();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (spec_m, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(spec_m, "name"), m.name);
            assert_eq!(field(spec_m, "unit"), m.unit);
            assert_eq!(field(spec_m, "better"), m.better.as_str());
        }
    }
}
