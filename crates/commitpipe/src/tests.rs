//! Pipeline unit tests: inline fallback, group commit batching, the
//! idle sweep, drain semantics and stats.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gist_wal::{LogManager, Lsn, RecordBody, TxnId};

use crate::CommitPipeline;

fn log_with_commits(n: u64) -> (Arc<LogManager>, Vec<Lsn>) {
    let log = Arc::new(LogManager::new());
    let lsns = (0..n)
        .map(|i| log.append(TxnId(i + 1), Lsn::NULL, RecordBody::TxnCommit))
        .collect();
    (log, lsns)
}

#[test]
fn inline_fallback_is_synchronous() {
    let (log, lsns) = log_with_commits(3);
    let pipe = CommitPipeline::new(log.clone());
    // Not started: commit_durable must flush before returning.
    pipe.commit_durable(lsns[2]).unwrap();
    assert!(log.flushed_lsn() >= lsns[2]);
    let s = pipe.stats();
    assert_eq!(s.commits_flushed, 1);
    assert!(!s.running);
}

#[test]
fn flusher_serves_immediate_commit() {
    let (log, lsns) = log_with_commits(1);
    let pipe = CommitPipeline::new(log.clone());
    pipe.start();
    pipe.commit_durable(lsns[0]).unwrap();
    assert!(log.flushed_lsn() >= lsns[0]);
    assert!(pipe.stats().running);
    pipe.stop(true);
    assert!(!pipe.stats().running);
}

#[test]
fn batched_commits_share_fsyncs() {
    let log = Arc::new(LogManager::new());
    // A slow device makes batching observable: 8 committers against a
    // 3 ms sync can't each get a private fsync — whoever arrives while
    // one is in flight rides the next.
    log.set_sync_latency(Duration::from_millis(3));
    let pipe = CommitPipeline::new(log.clone());
    pipe.start();
    let threads: Vec<_> = (0..8u64)
        .map(|i| {
            let pipe = pipe.clone();
            let log = log.clone();
            std::thread::spawn(move || {
                let lsn = log.append(TxnId(i + 1), Lsn::NULL, RecordBody::TxnCommit);
                pipe.commit_durable(lsn)
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap().unwrap();
    }
    let s = pipe.stats();
    assert_eq!(s.commits_flushed, 8);
    assert!(
        s.batches_flushed < 8,
        "8 commits must share fsyncs, got {} batches",
        s.batches_flushed
    );
    assert!(s.mean_batch_size > 1.0);
    assert!(s.commit_wait_p99_us > 0);
    pipe.stop(true);
}

#[test]
fn mean_batch_size_ignores_syncs_that_carried_no_commit() {
    let log = Arc::new(LogManager::new());
    log.set_sync_latency(Duration::from_millis(3));
    let pipe = CommitPipeline::new(log.clone());
    pipe.start();
    // Barrier traffic first (page write-back, checkpoints): syncs, no
    // commits.
    for i in 0..5u64 {
        let lsn = log.append(TxnId(100 + i), Lsn::NULL, RecordBody::TxnEnd);
        pipe.barrier(lsn).unwrap();
    }
    let barrier_syncs = pipe.stats().batches_flushed;
    assert!(barrier_syncs >= 1);
    assert_eq!(pipe.stats().mean_batch_size, 0.0, "no commit has been flushed yet");

    let threads: Vec<_> = (0..8u64)
        .map(|i| {
            let (pipe, log) = (pipe.clone(), log.clone());
            std::thread::spawn(move || {
                let lsn = log.append(TxnId(i + 1), Lsn::NULL, RecordBody::TxnCommit);
                pipe.commit_durable(lsn)
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap().unwrap();
    }
    let s = pipe.stats();
    assert_eq!(s.commits_flushed, 8);
    let commit_syncs = s.batches_flushed - barrier_syncs;
    assert!(commit_syncs >= 1);
    assert_eq!(s.mean_batch_size, 8.0 / commit_syncs as f64, "{s:?}");
    pipe.stop(true);
}

#[test]
fn idle_sweep_picks_up_unforced_records() {
    let log = Arc::new(LogManager::new());
    let pipe = CommitPipeline::new(log.clone());
    pipe.start();
    // An end record appended with no durability request at all.
    let e = log.append(TxnId(1), Lsn::NULL, RecordBody::TxnEnd);
    let deadline = Instant::now() + Duration::from_secs(2);
    while log.flushed_lsn() < e {
        assert!(Instant::now() < deadline, "idle sweep never flushed the tail");
        std::thread::sleep(Duration::from_millis(1));
    }
    pipe.stop(true);
}

#[test]
fn stop_with_drain_flushes_everything() {
    let (log, lsns) = log_with_commits(5);
    let pipe = CommitPipeline::new(log.clone());
    pipe.start();
    pipe.stop(true);
    assert!(log.flushed_lsn() >= lsns[4], "drain made the log durable");
}

#[test]
fn stop_without_drain_can_lose_the_tail() {
    let log = Arc::new(LogManager::new());
    // A slow device holds the flusher inside the first record's sync
    // while the second is appended behind it.
    log.set_sync_latency(Duration::from_millis(200));
    let first = log.append(TxnId(1), Lsn::NULL, RecordBody::TxnCommit);
    let pipe = CommitPipeline::new(log.clone());
    // Requested before the flusher runs, so its first act is that batch.
    pipe.request(false);
    pipe.start();
    let deadline = Instant::now() + Duration::from_secs(2);
    while pipe.state.lock().due {
        assert!(Instant::now() < deadline, "the flusher never cut the batch");
        std::thread::sleep(Duration::from_micros(100));
    }
    // Time to read the batch's target and enter the 200 ms sync.
    std::thread::sleep(Duration::from_millis(20));
    let second = log.append(TxnId(2), Lsn::NULL, RecordBody::TxnCommit);
    pipe.stop(false);
    assert!(log.flushed_lsn() >= first, "the sync in flight completes");
    assert!(log.flushed_lsn() < second, "no drain: the tail stays volatile");
}

#[test]
fn barrier_blocks_until_durable() {
    let (log, lsns) = log_with_commits(2);
    let pipe = CommitPipeline::new(log.clone());
    pipe.start();
    pipe.barrier(lsns[1]).unwrap();
    assert!(log.flushed_lsn() >= lsns[1]);
    // Already-durable barrier is free.
    pipe.barrier(lsns[0]).unwrap();
    pipe.stop(true);
}

#[test]
fn append_commit_appends_the_commit_record() {
    let (log, _) = log_with_commits(0);
    let pipe = CommitPipeline::new(log.clone());
    let c = pipe.append_commit(TxnId(7), Lsn::NULL).unwrap();
    assert_eq!(log.get(c).body.kind_name(), "TxnCommit");
    assert_eq!(log.get(c).txn, TxnId(7));
    assert_eq!(log.last_lsn(), c);
}

#[test]
fn stats_report_pipeline_lag() {
    let log = Arc::new(LogManager::new());
    let pipe = CommitPipeline::new(log.clone());
    let a = log.append(TxnId(1), Lsn::NULL, RecordBody::TxnBegin);
    let s = pipe.stats();
    assert_eq!(s.append_lsn, a.0);
    assert_eq!(s.durable_lsn, 0);
    assert_eq!(s.batches_flushed, 0);
}
