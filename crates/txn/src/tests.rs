//! Transaction-manager tests over the toy cell resource manager.

use std::sync::Arc;

use parking_lot::Mutex;

use gist_lockmgr::{LockManager, LockMode, LockName};
use gist_pagestore::PageId;
use gist_predlock::{PredKind, PredicateManager};
use gist_wal::recovery::{RecoveryError, RecoveryHandler};
use gist_wal::{LogManager, LogRecord, Lsn, Payload, RecordBody, TxnId};

use crate::{GcCandidate, SavepointId, TxnEndObserver, TxnError, TxnManager};

/// Toy resource manager: an array of u64 cells; payload encodes
/// `cell(u32), new(u64), old(u64)`.
struct Cells {
    cells: Mutex<Vec<(u64, Lsn)>>,
}

impl Cells {
    fn new(n: usize) -> Self {
        Cells { cells: Mutex::new(vec![(0, Lsn::NULL); n]) }
    }

    fn payload(cell: u32, new: u64, old: u64) -> Payload {
        let mut b = Vec::new();
        b.extend_from_slice(&cell.to_le_bytes());
        b.extend_from_slice(&new.to_le_bytes());
        b.extend_from_slice(&old.to_le_bytes());
        Payload::new(vec![cell], b)
    }

    fn decode(b: &[u8]) -> (u32, u64, u64) {
        (
            u32::from_le_bytes(b[0..4].try_into().unwrap()),
            u64::from_le_bytes(b[4..12].try_into().unwrap()),
            u64::from_le_bytes(b[12..20].try_into().unwrap()),
        )
    }

    fn set(&self, mgr: &TxnManager, txn: TxnId, cell: u32, new: u64) -> Lsn {
        let mut cells = self.cells.lock();
        let old = cells[cell as usize].0;
        let lsn = mgr
            .log_update(txn, RecordBody::Payload(Self::payload(cell, new, old)))
            .unwrap();
        cells[cell as usize] = (new, lsn);
        lsn
    }

    fn get(&self, cell: u32) -> u64 {
        self.cells.lock()[cell as usize].0
    }
}

impl RecoveryHandler for Cells {
    fn redo(&self, lsn: Lsn, payload: &Payload) -> Result<bool, RecoveryError> {
        if payload.bytes.is_empty() {
            return Ok(false);
        }
        let (cell, new, _) = Self::decode(&payload.bytes);
        let mut cells = self.cells.lock();
        if cells[cell as usize].1 < lsn {
            cells[cell as usize] = (new, lsn);
            return Ok(true);
        }
        Ok(false)
    }

    fn undo(
        &self,
        _rec: &LogRecord,
        payload: &Payload,
        _restart: bool,
        log_clr: &mut dyn FnMut(Payload) -> Lsn,
    ) -> Result<(), RecoveryError> {
        let (cell, _, old) = Self::decode(&payload.bytes);
        let clr_lsn = log_clr(Self::payload(cell, old, 0));
        let mut cells = self.cells.lock();
        cells[cell as usize] = (old, clr_lsn);
        Ok(())
    }
}

fn setup() -> (Arc<TxnManager>, Cells, Arc<LogManager>, Arc<LockManager>) {
    let log = Arc::new(LogManager::new());
    let locks = Arc::new(LockManager::new());
    let preds = Arc::new(PredicateManager::new());
    let mgr = Arc::new(TxnManager::new(log.clone(), locks.clone(), preds));
    (mgr, Cells::new(8), log, locks)
}

#[test]
fn begin_takes_own_id_lock() {
    let (mgr, _cells, _log, locks) = setup();
    let t = mgr.begin();
    assert_eq!(locks.holds(t, LockName::Txn(t)), Some(LockMode::X));
    assert!(mgr.is_active(t));
}

#[test]
fn commit_releases_locks_and_predicates() {
    let (mgr, cells, log, locks) = setup();
    let preds = mgr.preds().clone();
    let t = mgr.begin();
    cells.set(&mgr, t, 0, 11);
    let p = preds.register(t, PredKind::Scan, vec![1]);
    preds.attach(p, (1, PageId(1)));
    mgr.commit(t).unwrap();
    assert!(!mgr.is_active(t));
    assert!(locks.holds(t, LockName::Txn(t)).is_none());
    assert_eq!(preds.stats().predicates, 0);
    // The end record after the commit is unforced; the commit record
    // itself must be durable (last_lsn is the TxnEnd, one past it).
    assert!(log.flushed_lsn().0 >= log.last_lsn().0 - 1, "commit forced its record");
    assert_eq!(cells.get(0), 11);
}

#[test]
fn abort_undoes_updates() {
    let (mgr, cells, _log, _locks) = setup();
    let t = mgr.begin();
    cells.set(&mgr, t, 0, 11);
    cells.set(&mgr, t, 1, 22);
    mgr.abort(t, &cells).unwrap();
    assert_eq!(cells.get(0), 0);
    assert_eq!(cells.get(1), 0);
    assert!(!mgr.is_active(t));
}

#[test]
fn double_commit_is_an_error() {
    let (mgr, _cells, _log, _locks) = setup();
    let t = mgr.begin();
    mgr.commit(t).unwrap();
    assert_eq!(mgr.commit(t), Err(TxnError::NotActive(t)));
}

#[test]
fn savepoint_partial_rollback() {
    let (mgr, cells, _log, _locks) = setup();
    let t = mgr.begin();
    cells.set(&mgr, t, 0, 1);
    let sp = mgr.savepoint(t).unwrap();
    cells.set(&mgr, t, 1, 2);
    cells.set(&mgr, t, 0, 3);
    mgr.rollback_to_savepoint(t, sp, &cells).unwrap();
    assert_eq!(cells.get(0), 1, "pre-savepoint update survives");
    assert_eq!(cells.get(1), 0, "post-savepoint update undone");
    assert!(mgr.is_active(t), "transaction still running");
    // Can keep working and commit.
    cells.set(&mgr, t, 2, 9);
    mgr.commit(t).unwrap();
    assert_eq!(cells.get(2), 9);
}

#[test]
fn savepoint_can_be_rolled_back_to_twice() {
    let (mgr, cells, _log, _locks) = setup();
    let t = mgr.begin();
    let sp = mgr.savepoint(t).unwrap();
    cells.set(&mgr, t, 0, 5);
    mgr.rollback_to_savepoint(t, sp, &cells).unwrap();
    assert_eq!(cells.get(0), 0);
    cells.set(&mgr, t, 0, 6);
    mgr.rollback_to_savepoint(t, sp, &cells).unwrap();
    assert_eq!(cells.get(0), 0);
    mgr.commit(t).unwrap();
}

#[test]
fn later_savepoints_discarded_by_rollback() {
    let (mgr, cells, _log, _locks) = setup();
    let t = mgr.begin();
    let sp1 = mgr.savepoint(t).unwrap();
    cells.set(&mgr, t, 0, 1);
    let sp2 = mgr.savepoint(t).unwrap();
    mgr.rollback_to_savepoint(t, sp1, &cells).unwrap();
    assert_eq!(
        mgr.rollback_to_savepoint(t, sp2, &cells),
        Err(TxnError::NoSuchSavepoint(sp2))
    );
    mgr.commit(t).unwrap();
}

#[test]
fn unknown_savepoint_rejected() {
    let (mgr, cells, _log, _locks) = setup();
    let t = mgr.begin();
    assert_eq!(
        mgr.rollback_to_savepoint(t, SavepointId(99), &cells),
        Err(TxnError::NoSuchSavepoint(SavepointId(99)))
    );
    mgr.commit(t).unwrap();
}

#[test]
fn abort_after_savepoint_undoes_everything() {
    let (mgr, cells, _log, _locks) = setup();
    let t = mgr.begin();
    cells.set(&mgr, t, 0, 1);
    let _sp = mgr.savepoint(t).unwrap();
    cells.set(&mgr, t, 1, 2);
    mgr.abort(t, &cells).unwrap();
    assert_eq!(cells.get(0), 0);
    assert_eq!(cells.get(1), 0);
}

#[test]
fn nta_survives_abort() {
    let (mgr, cells, _log, _locks) = setup();
    let t = mgr.begin();
    cells.set(&mgr, t, 0, 1);
    let nta = mgr.begin_nta(t).unwrap();
    cells.set(&mgr, t, 5, 555);
    mgr.end_nta(t, nta).unwrap();
    cells.set(&mgr, t, 1, 2);
    mgr.abort(t, &cells).unwrap();
    assert_eq!(cells.get(0), 0);
    assert_eq!(cells.get(1), 0);
    assert_eq!(cells.get(5), 555, "structure modification not rolled back");
}

#[test]
fn savepoint_pins_signaling_locks() {
    let (mgr, _cells, _log, locks) = setup();
    let t = mgr.begin();
    let node = LockName::Node { index: 1, page: PageId(4) };
    locks.lock(t, node, LockMode::S).unwrap();
    assert!(!mgr.is_pinned(t, node));
    mgr.savepoint(t).unwrap();
    assert!(mgr.is_pinned(t, node), "existing signaling lock pinned");
    let other = LockName::Node { index: 1, page: PageId(5) };
    locks.lock(t, other, LockMode::S).unwrap();
    assert!(!mgr.is_pinned(t, other), "later lock not pinned");
    mgr.commit(t).unwrap();
}

#[test]
fn oldest_active_begin_lsn_tracks_table() {
    let (mgr, cells, _log, _locks) = setup();
    assert_eq!(mgr.oldest_active_begin_lsn(), Lsn::MAX);
    let t1 = mgr.begin();
    let t2 = mgr.begin();
    cells.set(&mgr, t2, 0, 1);
    let oldest = mgr.oldest_active_begin_lsn();
    assert!(oldest <= mgr.last_lsn(t1).unwrap());
    mgr.commit(t1).unwrap();
    let after = mgr.oldest_active_begin_lsn();
    assert!(after > oldest, "oldest advances when the old txn ends");
    mgr.commit(t2).unwrap();
    assert_eq!(mgr.oldest_active_begin_lsn(), Lsn::MAX);
}

#[test]
fn wait_for_txn_blocks_until_owner_ends() {
    let (mgr, _cells, _log, _locks) = setup();
    let owner = mgr.begin();
    let waiter = mgr.begin();
    let mgr2 = mgr.clone();
    let t = std::thread::spawn(move || mgr2.wait_for_txn(waiter, owner));
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(!t.is_finished(), "waiter parked on the owner's id");
    mgr.commit(owner).unwrap();
    t.join().unwrap().unwrap();
    mgr.commit(waiter).unwrap();
}

#[test]
fn checkpoint_lists_active_txns() {
    let (mgr, _cells, log, _locks) = setup();
    let t1 = mgr.begin();
    let _t2 = mgr.begin();
    mgr.checkpoint_with(Lsn(1), Vec::new());
    let cp = log.last_checkpoint().unwrap();
    match log.get(cp).body {
        RecordBody::Checkpoint { active_txns, .. } => {
            assert_eq!(active_txns.len(), 2);
            assert!(active_txns.iter().any(|(t, _)| *t == t1));
        }
        other => panic!("expected checkpoint, got {other:?}"),
    }
}

#[test]
fn is_certainly_committed_semantics() {
    let (mgr, cells, _log, _locks) = setup();
    let t1 = mgr.begin();
    assert!(!mgr.is_certainly_committed(t1), "active txn is in doubt");
    mgr.commit(t1).unwrap();
    assert!(mgr.is_certainly_committed(t1));
    let t2 = mgr.begin();
    cells.set(&mgr, t2, 0, 1);
    mgr.abort(t2, &cells).unwrap();
    // Aborted txns also leave the table, but their marks were undone, so
    // treating "gone" as committed is safe for delete-mark GC.
    assert!(mgr.is_certainly_committed(t2));
}

/// End hook that records what it was handed and, for each ending
/// transaction, whether a name that transaction held is X-lockable
/// without waiting.
struct EndProbe {
    locks: Arc<LockManager>,
    held: LockName,
    seen: Mutex<Vec<(TxnId, Vec<GcCandidate>, bool)>>,
}

impl TxnEndObserver for EndProbe {
    fn txn_ended(&self, txn: TxnId, gc: Vec<GcCandidate>) {
        let probe = TxnId(u64::MAX);
        let free = self.locks.try_lock(probe, self.held, LockMode::X);
        self.locks.release_all(probe);
        self.seen.lock().push((txn, gc, free));
    }
}

/// The end hook gets a commit's GC candidates exactly once, after the
/// transaction's locks are gone; an abort hands over none.
#[test]
fn end_hook_delivers_commit_candidates_after_release() {
    let (mgr, cells, _log, locks) = setup();
    let held = LockName::Node { index: 1, page: PageId(7) };
    let probe =
        Arc::new(EndProbe { locks: locks.clone(), held, seen: Mutex::new(Vec::new()) });
    let obs: Arc<dyn TxnEndObserver> = probe.clone();
    mgr.set_end_observer(Arc::downgrade(&obs));
    let cand = GcCandidate { index: 1, leaf: PageId(7), parent_hint: Some(PageId(2)) };

    let t1 = mgr.begin();
    locks.lock(t1, held, LockMode::S).unwrap();
    mgr.note_gc_candidate(t1, cand);
    mgr.note_gc_candidate(t1, cand);
    mgr.commit(t1).unwrap();
    // A second commit attempt finds nothing to finish.
    assert_eq!(mgr.commit(t1), Err(TxnError::NotActive(t1)));

    let t2 = mgr.begin();
    locks.lock(t2, held, LockMode::S).unwrap();
    cells.set(&mgr, t2, 0, 1);
    mgr.note_gc_candidate(t2, cand);
    mgr.abort(t2, &cells).unwrap();

    let seen = probe.seen.lock();
    assert_eq!(*seen, vec![(t1, vec![cand], true), (t2, Vec::new(), true)]);
}

/// An operation scope poisons its transaction only when a panic unwinds
/// through it: a scope left normally, or by an early `Err` return,
/// leaves the transaction committable.
#[test]
fn op_guard_poisons_only_on_panic() {
    let (mgr, cells, _log, _locks) = setup();

    // Panic inside the scope: commit is refused, abort still works.
    let t = mgr.begin();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _op = mgr.op_enter(t).unwrap();
        cells.set(&mgr, t, 0, 5);
        panic!("operation bug");
    }));
    assert!(unwound.is_err());
    assert!(mgr.is_poisoned(t));
    assert_eq!(mgr.op_enter(t).err(), Some(TxnError::MustAbort(t)));
    assert_eq!(mgr.commit(t), Err(TxnError::MustAbort(t)));
    mgr.abort(t, &cells).unwrap();
    assert_eq!(cells.get(0), 0);
    assert!(!mgr.is_active(t));

    // Normal exit and an early error return both leave it committable.
    let t = mgr.begin();
    {
        let _op = mgr.op_enter(t).unwrap();
        cells.set(&mgr, t, 1, 7);
    }
    let early = || -> Result<(), TxnError> {
        let _op = mgr.op_enter(t)?;
        Err(TxnError::Undo("clean failure".into()))
    };
    assert!(early().is_err());
    assert!(!mgr.is_poisoned(t));
    mgr.commit(t).unwrap();
    assert_eq!(cells.get(1), 7);
    assert_eq!(mgr.op_enter(t).err(), Some(TxnError::NotActive(t)));
}

// ---- commit durability: the committer syncs, one sync serves a batch ----

#[test]
fn commit_syncs_its_own_record() {
    let (mgr, cells, log, _locks) = setup();
    let t = mgr.begin();
    cells.set(&mgr, t, 0, 1);
    mgr.commit(t).unwrap();
    let commit = log.scan_from(Lsn(1)).into_iter().find(|r| r.body == RecordBody::TxnCommit);
    assert!(log.flushed_lsn() >= commit.unwrap().lsn, "acknowledged before durable");
    let s = mgr.pipeline().stats();
    assert_eq!((s.commits_flushed, s.batches_flushed), (1, 1), "{s:?}");
}

#[test]
fn append_commit_appends_the_commit_record() {
    let (mgr, _cells, log, _locks) = setup();
    let t = mgr.begin();
    mgr.commit(t).unwrap();
    let recs: Vec<_> = log.scan_from(Lsn(1)).into_iter().filter(|r| r.txn == t).collect();
    let bodies: Vec<_> = recs.iter().map(|r| r.body.clone()).collect();
    assert_eq!(bodies, vec![RecordBody::TxnBegin, RecordBody::TxnCommit, RecordBody::TxnEnd]);
    assert_eq!(recs[1].prev_lsn, recs[0].lsn, "the commit record extends the backchain");
    assert_eq!(recs[2].prev_lsn, recs[1].lsn);
}

#[test]
fn batched_commits_share_fsyncs() {
    let (mgr, _cells, log, _locks) = setup();
    // A slow device makes batching observable: 8 committers against a
    // 3 ms sync can't each get a private sync — whoever appends while
    // one is in flight queues on the device and rides the next.
    log.set_sync_latency(std::time::Duration::from_millis(3));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let mgr = mgr.clone();
            std::thread::spawn(move || {
                let t = mgr.begin();
                mgr.commit(t)
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap().unwrap();
    }
    let s = mgr.pipeline().stats();
    assert_eq!(s.commits_flushed, 8);
    assert!(s.batches_flushed < 8, "8 commits must share syncs, got {} syncs", s.batches_flushed);
    assert!(s.commit_wait_p99_us > 0);
    assert_eq!(s.flusher_panics, 0);
}

#[test]
fn nothing_syncs_until_a_request_asks() {
    let (mgr, _cells, log, _locks) = setup();
    let mut last = Lsn::NULL;
    for i in 0..10_000u64 {
        last = log.append(TxnId(i + 1), Lsn::NULL, RecordBody::TxnEnd);
    }
    let t = mgr.begin();
    assert_eq!(log.flushed_lsn(), Lsn::NULL, "a sync ran that nobody asked for");
    assert_eq!(mgr.pipeline().stats().batches_flushed, 0);
    log.sync_to(last).unwrap();
    assert_eq!(log.flushed_lsn(), log.last_lsn(), "one sync makes the whole tail durable");
    assert_eq!(mgr.pipeline().stats().commits_flushed, 0, "a sync is not a commit");
    mgr.commit(t).unwrap();
}

/// A checkpoint's sync is a whole-log sync like any other: end records
/// and other unforced records appended before it become durable too.
#[test]
fn checkpoint_syncs_the_whole_log() {
    let (mgr, cells, log, _locks) = setup();
    let t = mgr.begin();
    cells.set(&mgr, t, 0, 1);
    mgr.commit(t).unwrap();
    assert!(log.flushed_lsn() < log.last_lsn(), "the end record rides the next sync");
    let u = mgr.begin();
    cells.set(&mgr, u, 1, 2);
    let cp = mgr.checkpoint_with(log.last_lsn(), Vec::new());
    assert_eq!(log.flushed_lsn(), cp, "the checkpoint synced everything before it");
    mgr.commit(u).unwrap();
}

#[test]
fn commits_flushed_counts_every_acknowledged_commit() {
    let (mgr, _cells, log, _locks) = setup();
    let (t1, t2) = (mgr.begin(), mgr.begin());
    mgr.commit(t1).unwrap();
    mgr.commit(t2).unwrap();
    mgr.checkpoint_with(log.last_lsn(), Vec::new());
    let s = mgr.pipeline().stats();
    assert_eq!(s.commits_flushed, 2, "{s:?}");
    assert_eq!(s.batches_flushed, 3, "a checkpoint's sync is counted, not as a commit: {s:?}");
}
