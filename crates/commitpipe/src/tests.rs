//! Pipeline unit tests: group commit batching, nothing syncing unasked,
//! drain and stop semantics, and stats.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gist_wal::{LogManager, Lsn, RecordBody, TxnId};

use crate::{CommitPipeline, PipeError};

fn log_with_commits(n: u64) -> (Arc<LogManager>, Vec<Lsn>) {
    let log = Arc::new(LogManager::new());
    let lsns = (0..n)
        .map(|i| log.append(TxnId(i + 1), Lsn::NULL, RecordBody::TxnCommit))
        .collect();
    (log, lsns)
}

#[test]
fn flusher_serves_immediate_commit() {
    let (log, lsns) = log_with_commits(1);
    let pipe = CommitPipeline::new(log.clone());
    pipe.start().unwrap();
    pipe.commit_durable(lsns[0]).unwrap();
    assert!(log.flushed_lsn() >= lsns[0]);
    assert_eq!(pipe.stats().commits_flushed, 1);
    pipe.stop(true);
}

#[test]
fn batched_commits_share_fsyncs() {
    let log = Arc::new(LogManager::new());
    // A slow device makes batching observable: 8 committers against a
    // 3 ms sync can't each get a private fsync — whoever arrives while
    // one is in flight rides the next.
    log.set_sync_latency(Duration::from_millis(3));
    let pipe = CommitPipeline::new(log.clone());
    pipe.start().unwrap();
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
    assert!(s.commit_wait_p99_us > 0);
    pipe.stop(true);
}

#[test]
fn nothing_syncs_until_a_request_asks() {
    let log = Arc::new(LogManager::new());
    let pipe = CommitPipeline::new(log.clone());
    pipe.start().unwrap();
    let mut last = Lsn::NULL;
    for i in 0..10_000u64 {
        last = log.append(TxnId(i + 1), Lsn::NULL, RecordBody::TxnEnd);
    }
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(log.flushed_lsn(), Lsn::NULL, "a sync ran that nobody asked for");
    assert_eq!(pipe.stats().batches_flushed, 0);
    pipe.barrier(last).unwrap();
    assert_eq!(log.flushed_lsn(), last, "one barrier makes the whole tail durable");
    assert_eq!(pipe.stats().commits_flushed, 0, "a barrier is not a commit");
    pipe.stop(true);
}

#[test]
fn stop_with_drain_flushes_everything() {
    let (log, lsns) = log_with_commits(5);
    let pipe = CommitPipeline::new(log.clone());
    pipe.start().unwrap();
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
    pipe.start().unwrap();
    let committer = {
        let pipe = pipe.clone();
        std::thread::spawn(move || pipe.commit_durable(first))
    };
    // Time for the flusher to read the batch's target and enter the
    // 200 ms sync.
    std::thread::sleep(Duration::from_millis(20));
    let second = log.append(TxnId(2), Lsn::NULL, RecordBody::TxnCommit);
    pipe.stop(false);
    assert!(log.flushed_lsn() >= first, "the sync in flight completes");
    assert!(log.flushed_lsn() < second, "no drain: the tail stays volatile");
    committer.join().unwrap().unwrap();
}

#[test]
fn requests_after_stop_fail_at_once_unless_covered() {
    let (log, lsns) = log_with_commits(2);
    let pipe = CommitPipeline::new(log.clone());
    pipe.start().unwrap();
    pipe.commit_durable(lsns[0]).unwrap();
    let late = log.append(TxnId(9), Lsn::NULL, RecordBody::TxnCommit);
    pipe.stop(false);
    let started = Instant::now();
    assert_eq!(pipe.commit_durable(late), Err(PipeError::Stalled(late)));
    assert!(started.elapsed() < Duration::from_secs(1), "the refusal waited");
    pipe.commit_durable(lsns[1]).expect("an LSN the horizon covers needs no flusher");
}

#[test]
fn stop_fails_parked_callers_at_once() {
    let (log, lsns) = log_with_commits(1);
    let lsn = lsns[0];
    // Never started: the barrier parks with no flusher to serve it.
    let pipe = CommitPipeline::new(log);
    let parked = {
        let pipe = pipe.clone();
        std::thread::spawn(move || {
            let started = Instant::now();
            (pipe.barrier(lsn), started.elapsed())
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    pipe.stop(false);
    let (res, waited) = parked.join().unwrap();
    assert_eq!(res, Err(PipeError::Stalled(lsn)));
    assert!(waited < Duration::from_secs(5), "stop left the caller to its park timeout");
}

#[test]
fn commits_flushed_counts_every_acknowledged_commit() {
    let (log, lsns) = log_with_commits(3);
    let pipe = CommitPipeline::new(log.clone());
    pipe.start().unwrap();
    pipe.commit_durable(lsns[2]).unwrap();
    // Already durable: acknowledged on the fast path, still one commit.
    pipe.commit_durable(lsns[0]).unwrap();
    pipe.barrier(lsns[1]).unwrap();
    let s = pipe.stats();
    assert_eq!(s.commits_flushed, 2, "{s:?}");
    assert_eq!(s.batches_flushed, 1, "{s:?}");
    pipe.stop(true);
}

#[test]
fn barrier_blocks_until_durable() {
    let (log, lsns) = log_with_commits(2);
    let pipe = CommitPipeline::new(log.clone());
    pipe.start().unwrap();
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
    assert_eq!(log.get(c).body, RecordBody::TxnCommit);
    assert_eq!(log.get(c).txn, TxnId(7));
    assert_eq!(log.last_lsn(), c);
}
