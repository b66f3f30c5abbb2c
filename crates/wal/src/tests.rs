//! Unit tests for the log manager, nested top actions, rollback and
//! restart, using a toy resource manager (an array of versioned cells).

use std::sync::Mutex;

use crate::codec::{decode_record, encode_record};
use crate::recovery::{analysis, restart_with_floor, rollback, TxnStatus};
use crate::{
    LogManager, LogRecord, Lsn, Payload, RecordBody, RecoveryError, RecoveryHandler, TxnId,
};

/// Toy resource manager: `cells[i]` holds `(value, page_lsn)`. Payload
/// bytes encode `op(1)=set, cell(u32), new(u64), old(u64)`.
struct Cells {
    cells: Mutex<Vec<(u64, Lsn)>>,
    log: std::sync::Arc<LogManager>,
}

impl Cells {
    fn new(n: usize, log: std::sync::Arc<LogManager>) -> Self {
        Cells { cells: Mutex::new(vec![(0, Lsn::NULL); n]), log }
    }

    fn payload(cell: u32, new: u64, old: u64) -> Payload {
        let mut b = vec![1u8];
        b.extend_from_slice(&cell.to_le_bytes());
        b.extend_from_slice(&new.to_le_bytes());
        b.extend_from_slice(&old.to_le_bytes());
        Payload::new(vec![cell], b)
    }

    fn decode(bytes: &[u8]) -> (u32, u64, u64) {
        let cell = u32::from_le_bytes(bytes[1..5].try_into().unwrap());
        let new = u64::from_le_bytes(bytes[5..13].try_into().unwrap());
        let old = u64::from_le_bytes(bytes[13..21].try_into().unwrap());
        (cell, new, old)
    }

    /// Forward operation: log then apply.
    fn set(&self, txn: TxnId, prev: Lsn, cell: u32, new: u64) -> Lsn {
        let mut cells = self.cells.lock().unwrap();
        let old = cells[cell as usize].0;
        let lsn = self.log.append(txn, prev, RecordBody::Payload(Self::payload(cell, new, old)));
        cells[cell as usize] = (new, lsn);
        lsn
    }

    fn get(&self, cell: u32) -> u64 {
        self.cells.lock().unwrap()[cell as usize].0
    }

    /// Simulate losing all in-memory state (cells revert to what "disk"
    /// had — here we model disk as empty, so redo must rebuild).
    fn wipe(&self) {
        let mut cells = self.cells.lock().unwrap();
        for c in cells.iter_mut() {
            *c = (0, Lsn::NULL);
        }
    }
}

impl RecoveryHandler for Cells {
    fn redo(&self, lsn: Lsn, payload: &Payload) -> Result<bool, RecoveryError> {
        if payload.bytes.is_empty() {
            return Ok(false);
        }
        let (cell, new, _old) = Self::decode(&payload.bytes);
        let mut cells = self.cells.lock().unwrap();
        let slot = &mut cells[cell as usize];
        if slot.1 < lsn {
            *slot = (new, lsn);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn undo(
        &self,
        payload: &Payload,
        log_clr: &mut dyn FnMut(Payload) -> Lsn,
    ) -> Result<(), RecoveryError> {
        let (cell, _new, old) = Self::decode(&payload.bytes);
        // ARIES discipline: log the CLR first, stamp the page (cell) with
        // its LSN.
        let clr_lsn = log_clr(Self::payload(cell, old, 0));
        let mut cells = self.cells.lock().unwrap();
        cells[cell as usize] = (old, clr_lsn);
        Ok(())
    }
}

fn setup(cells: usize) -> (std::sync::Arc<LogManager>, Cells) {
    let log = std::sync::Arc::new(LogManager::new());
    let rm = Cells::new(cells, log.clone());
    (log, rm)
}

/// Restart with the redo start left to the dirty-page table.
fn restart(log: &LogManager, rm: &Cells) -> Result<crate::RestartOutcome, RecoveryError> {
    restart_with_floor(log, rm, Lsn(u64::MAX))
}

#[test]
fn lsns_are_dense_and_monotonic() {
    let log = LogManager::new();
    let a = log.append(TxnId(1), Lsn::NULL, RecordBody::TxnBegin);
    let b = log.append(TxnId(1), a, RecordBody::TxnCommit);
    assert_eq!(a, Lsn(1));
    assert_eq!(b, Lsn(2));
    assert_eq!(log.last_lsn(), Lsn(2));
    assert_eq!(log.get(a).body, RecordBody::TxnBegin);
}

#[test]
fn flush_and_crash_truncate_unflushed_suffix() {
    let log = LogManager::new();
    let a = log.append(TxnId(1), Lsn::NULL, RecordBody::TxnBegin);
    log.sync_to(a).unwrap();
    let _b = log.append(TxnId(1), a, RecordBody::TxnCommit);
    assert_eq!(log.flushed_lsn(), a);
    let lost = log.crash();
    assert_eq!(lost, 1);
    assert_eq!(log.last_lsn(), a);
}

#[test]
fn flush_is_monotone_and_bounded() {
    let log = LogManager::new();
    let a = log.append(TxnId(1), Lsn::NULL, RecordBody::TxnBegin);
    log.sync_to(Lsn(100)).unwrap(); // beyond end: clamps
    assert_eq!(log.flushed_lsn(), a);
    log.sync_to(Lsn::NULL).unwrap(); // never regresses
    assert_eq!(log.flushed_lsn(), a);
}

#[test]
fn rollback_undoes_in_reverse_and_writes_clrs() {
    let (log, rm) = setup(4);
    let t = TxnId(1);
    let l0 = log.append(t, Lsn::NULL, RecordBody::TxnBegin);
    let l1 = rm.set(t, l0, 0, 10);
    let l2 = rm.set(t, l1, 1, 20);
    let l3 = rm.set(t, l2, 0, 30);
    assert_eq!(rm.get(0), 30);

    let end = rollback(&log, &rm, t, l3, Lsn::NULL).unwrap();
    assert_eq!(rm.get(0), 0);
    assert_eq!(rm.get(1), 0);
    // Three CLRs were written and the chain end moved forward.
    assert!(end > l3);
    let clr = log.get(end);
    assert!(matches!(clr.body, RecordBody::Clr { .. }));
}

#[test]
fn partial_rollback_stops_at_savepoint() {
    let (log, rm) = setup(4);
    let t = TxnId(1);
    let l0 = log.append(t, Lsn::NULL, RecordBody::TxnBegin);
    let l1 = rm.set(t, l0, 0, 10);
    // A savepoint is the transaction's last LSN when it was taken.
    let sp = l1;
    let l2 = rm.set(t, sp, 1, 20);
    let l3 = rm.set(t, l2, 0, 30);

    rollback(&log, &rm, t, l3, sp).unwrap();
    // Updates after the savepoint are gone; the one before survives.
    assert_eq!(rm.get(1), 0);
    assert_eq!(rm.get(0), 10);
}

#[test]
fn nta_records_are_skipped_by_rollback() {
    let (log, rm) = setup(4);
    let t = TxnId(1);
    let l0 = log.append(t, Lsn::NULL, RecordBody::TxnBegin);
    let l1 = rm.set(t, l0, 0, 10);
    // Structure modification: cells 2 and 3 updated inside an NTA, whose
    // dummy CLR points back to the last LSN before the unit.
    let s1 = rm.set(t, l1, 2, 111);
    let s2 = rm.set(t, s1, 3, 222);
    let l2 = log.append(t, s2, RecordBody::NtaEnd { undo_next: l1 });
    let l3 = rm.set(t, l2, 1, 20);

    rollback(&log, &rm, t, l3, Lsn::NULL).unwrap();
    // Content updates are undone, the NTA's updates survive.
    assert_eq!(rm.get(0), 0);
    assert_eq!(rm.get(1), 0);
    assert_eq!(rm.get(2), 111);
    assert_eq!(rm.get(3), 222);
}

#[test]
fn incomplete_nta_is_undone_at_restart() {
    let (log, rm) = setup(4);
    let t = TxnId(1);
    let l0 = log.append(t, Lsn::NULL, RecordBody::TxnBegin);
    let s1 = rm.set(t, l0, 2, 111);
    let _s2 = rm.set(t, s1, 3, 222);
    // Crash before the NtaEnd: the NTA is incomplete and must be rolled
    // back.
    log.flush_all();
    log.crash();
    rm.wipe();

    let out = restart(&log, &rm).unwrap();
    assert_eq!(out.losers, vec![t]);
    assert_eq!(rm.get(2), 0);
    assert_eq!(rm.get(3), 0);
}

#[test]
fn restart_redoes_committed_and_undoes_losers() {
    let (log, rm) = setup(4);
    let t1 = TxnId(1);
    let t2 = TxnId(2);
    let b1 = log.append(t1, Lsn::NULL, RecordBody::TxnBegin);
    let b2 = log.append(t2, Lsn::NULL, RecordBody::TxnBegin);
    let u1 = rm.set(t1, b1, 0, 10);
    let u2 = rm.set(t2, b2, 1, 20);
    let c1 = log.append(t1, u1, RecordBody::TxnCommit);
    log.sync_to(c1).unwrap();
    let _u2b = rm.set(t2, u2, 2, 30);
    // Crash: t1 committed (flushed), t2 in flight; t2's second update was
    // never flushed and is lost entirely.
    log.crash();
    rm.wipe();

    let out = restart(&log, &rm).unwrap();
    assert_eq!(rm.get(0), 10, "committed update redone");
    assert_eq!(rm.get(1), 0, "loser update undone");
    assert_eq!(rm.get(2), 0, "unflushed update lost");
    assert!(out.losers.contains(&t2));
    assert!(out.completed_winners.contains(&t1));
}

#[test]
fn restart_is_idempotent() {
    let (log, rm) = setup(4);
    let t = TxnId(1);
    let b = log.append(t, Lsn::NULL, RecordBody::TxnBegin);
    let u = rm.set(t, b, 0, 42);
    let c = log.append(t, u, RecordBody::TxnCommit);
    log.sync_to(c).unwrap();
    log.crash();
    rm.wipe();

    restart(&log, &rm).unwrap();
    let v1 = rm.get(0);
    // A second restart over the same (now longer) log must not change
    // anything.
    let out2 = restart(&log, &rm).unwrap();
    assert_eq!(rm.get(0), v1);
    assert!(out2.losers.is_empty());
}

#[test]
fn crash_during_restart_undo_converges() {
    let (log, rm) = setup(4);
    let t = TxnId(1);
    let b = log.append(t, Lsn::NULL, RecordBody::TxnBegin);
    let u1 = rm.set(t, b, 0, 10);
    let u2 = rm.set(t, u1, 1, 20);
    let _u3 = rm.set(t, u2, 2, 30);
    log.flush_all();
    rm.wipe();

    // First restart: runs fully, but we then simulate the *next* crash by
    // keeping only a prefix that contains some CLRs.
    restart(&log, &rm).unwrap();
    // Find the first CLR and flush only up to it.
    let first_clr = log
        .scan_from(Lsn(1))
        .into_iter()
        .find(|r| matches!(r.body, RecordBody::Clr { .. }))
        .unwrap()
        .lsn;
    // Rewind durability to just past the first CLR, losing later CLRs.
    let log2 = LogManager::new();
    for rec in log.scan_from(Lsn(1)) {
        if rec.lsn <= first_clr {
            log2.append(rec.txn, rec.prev_lsn, rec.body.clone());
        }
    }
    log2.flush_all();
    rm.wipe();
    restart(&log2, &rm).unwrap();
    // All three updates are undone regardless of the crash point.
    assert_eq!(rm.get(0), 0);
    assert_eq!(rm.get(1), 0);
    assert_eq!(rm.get(2), 0);
}

#[test]
fn analysis_tracks_statuses_and_checkpoint() {
    let (log, rm) = setup(4);
    let t1 = TxnId(1);
    let t2 = TxnId(2);
    let t3 = TxnId(3);
    let b1 = log.append(t1, Lsn::NULL, RecordBody::TxnBegin);
    let b2 = log.append(t2, Lsn::NULL, RecordBody::TxnBegin);
    let _cp = log.append(
        TxnId::NONE,
        Lsn::NULL,
        RecordBody::Checkpoint {
            scan_start: b2,
            active_txns: vec![(t1, b1), (t2, b2)],
            dirty_pages: vec![],
        },
    );
    let b3 = log.append(t3, Lsn::NULL, RecordBody::TxnBegin);
    let u1 = rm.set(t1, b1, 0, 1);
    let c1 = log.append(t1, u1, RecordBody::TxnCommit);
    let e1 = log.append(t1, c1, RecordBody::TxnEnd);
    let u3 = rm.set(t3, b3, 1, 2);
    log.sync_to(e1).unwrap();

    let res = analysis(&log);
    assert_eq!(res.start_lsn, b2, "scan resumes at the checkpoint's scan_start");
    assert!(!res.txn_table.contains_key(&t1), "ended txn dropped");
    assert_eq!(res.txn_table[&t2], (b2, TxnStatus::Active), "seeded by the checkpoint");
    assert_eq!(res.txn_table[&t3], (u3, TxnStatus::Active));
    assert!(res.dirty_pages.contains_key(&1));
}

#[test]
fn codec_roundtrips_all_record_kinds() {
    let bodies = vec![
        RecordBody::TxnBegin,
        RecordBody::TxnCommit,
        RecordBody::TxnEnd,
        RecordBody::Clr {
            undo_next: Lsn(3),
            redo: Payload::new(vec![1, 2], vec![9, 8, 7]),
        },
        RecordBody::NtaEnd { undo_next: Lsn(5) },
        RecordBody::Checkpoint {
            scan_start: Lsn(9),
            active_txns: vec![(TxnId(1), Lsn(2)), (TxnId(3), Lsn(4))],
            dirty_pages: vec![(11, Lsn(6)), (12, Lsn(7))],
        },
        RecordBody::Payload(Payload::new(vec![], vec![])),
        RecordBody::Payload(Payload::new(vec![42], (0..255u8).collect())),
        RecordBody::Noop,
    ];
    for (i, body) in bodies.into_iter().enumerate() {
        let rec = LogRecord { lsn: Lsn(i as u64 + 1), prev_lsn: Lsn(i as u64), txn: TxnId(9), body };
        let enc = encode_record(&rec);
        let dec = decode_record(&enc).unwrap();
        assert_eq!(rec, dec);
    }
}

#[test]
fn codec_rejects_truncation_and_junk() {
    let rec = LogRecord {
        lsn: Lsn(1),
        prev_lsn: Lsn::NULL,
        txn: TxnId(1),
        body: RecordBody::Payload(Payload::new(vec![1], vec![1, 2, 3])),
    };
    let enc = encode_record(&rec);
    for cut in 0..enc.len() {
        assert!(decode_record(&enc[..cut]).is_err(), "cut at {cut} must fail");
    }
    let mut junk = enc.clone();
    junk[24] = 200; // invalid tag
    assert!(decode_record(&junk).is_err());
    // The abort and savepoint records' old tags stay unassigned.
    let end = encode_record(&LogRecord { body: RecordBody::TxnEnd, ..rec });
    for retired in [3u8, 5] {
        let mut old = end.clone();
        old[24] = retired;
        assert!(decode_record(&old).is_err(), "tag {retired} must not decode");
    }
}

#[test]
fn file_persist_and_load_roundtrip() {
    let (log, rm) = setup(2);
    let t = TxnId(1);
    let b = log.append(t, Lsn::NULL, RecordBody::TxnBegin);
    let u = rm.set(t, b, 0, 5);
    let c = log.append(t, u, RecordBody::TxnCommit);
    log.sync_to(c).unwrap();
    let _unflushed = log.append(t, c, RecordBody::TxnEnd);

    let dir = std::env::temp_dir().join(format!("gist-wal-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    log.persist_file(&path).unwrap();
    let loaded = LogManager::load_file(&path).unwrap();
    // Only the durable prefix survives the round trip.
    assert_eq!(loaded.last_lsn(), c);
    assert_eq!(loaded.get(u), log.get(u));
    std::fs::remove_dir_all(&dir).ok();
}

/// A second persist replaces the file instead of rewriting it in place:
/// a reader of the first image (or a crash mid-write) never sees it
/// truncated or half-overwritten.
#[test]
fn persist_replaces_the_file_instead_of_truncating_it() {
    let (log, rm) = setup(2);
    let t = TxnId(1);
    let b = log.append(t, Lsn::NULL, RecordBody::TxnBegin);
    let u = rm.set(t, b, 0, 5);
    log.sync_to(u).unwrap();
    let dir = std::env::temp_dir().join(format!("gist-wal-replace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.wal");
    log.persist_file(&path).unwrap();
    let first = std::fs::read(&path).unwrap();
    let mut old = std::fs::File::open(&path).unwrap();

    let c = log.append(t, u, RecordBody::TxnCommit);
    log.sync_to(c).unwrap();
    log.persist_file(&path).unwrap();

    let mut seen = Vec::new();
    std::io::Read::read_to_end(&mut old, &mut seen).unwrap();
    assert_eq!(seen, first, "the old handle still reads exactly the first image");
    assert_eq!(LogManager::load_file(&path).unwrap().last_lsn(), c);
    assert!(!dir.join("db.wal.tmp").exists(), "the temporary image was renamed away");
    std::fs::remove_dir_all(&dir).ok();
}

/// Persist a small committed log to a temp file and return
/// `(dir, path, durable_lsn_count)`. The caller removes `dir`.
fn persisted_log(tag: &str) -> (std::path::PathBuf, std::path::PathBuf, u64) {
    let (log, rm) = setup(2);
    let t = TxnId(1);
    let b = log.append(t, Lsn::NULL, RecordBody::TxnBegin);
    let u1 = rm.set(t, b, 0, 5);
    let u2 = rm.set(t, u1, 1, 9);
    let c = log.append(t, u2, RecordBody::TxnCommit);
    let e = log.append(t, c, RecordBody::TxnEnd);
    log.sync_to(e).unwrap();
    let dir = std::env::temp_dir().join(format!("gist-wal-fault-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    log.persist_file(&path).unwrap();
    (dir, path, e.0)
}

#[test]
fn torn_tail_is_truncated_not_fatal() {
    let (dir, path, durable) = persisted_log("torn");
    // Cut into the final frame: a crash mid-append of the last record.
    crate::faults::truncate_tail(&path, 3).unwrap();
    let (loaded, report) = LogManager::load_file_report(&path).unwrap();
    assert!(report.tail_truncated, "tear detected");
    assert_eq!(loaded.last_lsn(), Lsn(durable - 1), "only the torn record dropped");
    assert!(report.dropped_bytes > 0);
    // The surviving prefix is intact and scannable.
    assert_eq!(loaded.scan_from(Lsn(1)).len() as u64, durable - 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bitflipped_final_record_is_truncated() {
    let (dir, path, durable) = persisted_log("flip-tail");
    // Flip a byte inside the final record's body: checksum catches it.
    crate::faults::flip_tail_byte(&path, 2, 0x40).unwrap();
    let (loaded, report) = LogManager::load_file_report(&path).unwrap();
    assert!(report.tail_truncated);
    assert_eq!(loaded.last_lsn(), Lsn(durable - 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interior_corruption_is_a_hard_error() {
    let (dir, path, _) = persisted_log("interior");
    // Flip a byte well before the durable tail (inside the first
    // record's frame, just past the 8-byte magic + 12-byte header).
    crate::faults::flip_byte(&path, 8 + 12 + 2, 0x10).unwrap();
    let Err(err) = LogManager::load_file(&path).map(|_| ()) else {
        panic!("interior corruption must not load");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("before the durable tail"),
        "classified as interior corruption: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_into_earlier_frames_drops_only_the_tail() {
    let (dir, path, durable) = persisted_log("deep-trunc");
    // Cut away the last frame and a bite of the one before it: both are
    // tail damage (nothing corrupt is *followed* by good bytes).
    let len = crate::faults::file_len(&path).unwrap();
    crate::faults::truncate_tail(&path, len / 3).unwrap();
    let (loaded, report) = LogManager::load_file_report(&path).unwrap();
    assert!(report.tail_truncated);
    assert!(loaded.last_lsn() < Lsn(durable));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wrong_magic_is_a_hard_error() {
    let dir = std::env::temp_dir().join(format!("gist-wal-fault-magic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    // No magic at all, and the previous format's, which is named.
    let cases: [(&[u8], &str); 2] =
        [(b"NOTAWAL!rest of garbage", "not a log file"), (b"GISTWAL1", "GISTWAL1")];
    for (bytes, named) in cases {
        std::fs::write(&path, bytes).unwrap();
        let Err(err) = LogManager::load_file(&path).map(|_| ()) else {
            panic!("{named}: must not load");
        };
        let msg = err.to_string();
        assert!(msg.contains(&path.display().to_string()) && msg.contains(named), "{msg}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Restart resolves two winners and two losers without syncing in
/// between: its end records are unforced, and the one sync follows the
/// undo pass. A handler that watches the durable horizon at every undo
/// sees it where the crash left it.
#[test]
fn restart_syncs_once_after_its_undo_pass() {
    struct Watch<'a> {
        rm: &'a Cells,
        durable_at_undo: Mutex<Vec<Lsn>>,
    }
    impl RecoveryHandler for Watch<'_> {
        fn redo(&self, lsn: Lsn, payload: &Payload) -> Result<bool, RecoveryError> {
            self.rm.redo(lsn, payload)
        }
        fn undo(
            &self,
            payload: &Payload,
            log_clr: &mut dyn FnMut(Payload) -> Lsn,
        ) -> Result<(), RecoveryError> {
            self.durable_at_undo.lock().unwrap().push(self.rm.log.flushed_lsn());
            self.rm.undo(payload, log_clr)
        }
    }
    let (log, rm) = setup(4);
    for t in 1..=4u64 {
        let b = log.append(TxnId(t), Lsn::NULL, RecordBody::TxnBegin);
        let u = rm.set(TxnId(t), b, t as u32 - 1, t);
        if t <= 2 {
            log.append(TxnId(t), u, RecordBody::TxnCommit);
        }
    }
    log.flush_all();
    log.crash();
    rm.wipe();
    let crashed_at = log.flushed_lsn();

    let watch = Watch { rm: &rm, durable_at_undo: Mutex::new(Vec::new()) };
    let out = restart_with_floor(&log, &watch, Lsn(u64::MAX)).unwrap();
    assert_eq!((out.completed_winners.len(), out.losers.len()), (2, 2));
    let seen = watch.durable_at_undo.into_inner().unwrap();
    assert_eq!(seen, vec![crashed_at; 2], "restart synced before its undo pass ended");
    assert_eq!(log.flushed_lsn(), log.last_lsn(), "restart ends with the log durable");
}

#[test]
fn rollback_with_corrupt_backchain_errors_instead_of_panicking() {
    let (log, rm) = setup(2);
    let t = TxnId(1);
    let b = log.append(t, Lsn::NULL, RecordBody::TxnBegin);
    let _u = rm.set(t, b, 0, 5);
    // A backchain pointer beyond the end of the log (corrupt chain).
    let bogus = Lsn(999);
    let err = rollback(&log, &rm, t, bogus, Lsn::NULL).unwrap_err();
    assert!(err.0.contains("beyond end of log"), "{err}");
}

/// Records live in fixed chunks: a crash that cuts the log at, just
/// past, or well inside a chunk boundary keeps exactly the durable
/// prefix, and the log stays dense and readable on both sides of the cut.
#[test]
fn crash_truncates_across_chunk_boundaries() {
    for durable in [512u64, 700, 1_024] {
        let log = LogManager::new();
        for i in 1..=1_500u64 {
            log.append(TxnId(i), Lsn::NULL, RecordBody::TxnBegin);
        }
        assert_eq!(log.crash_at(Lsn(durable)), (1_500 - durable) as usize);
        assert_eq!(log.last_lsn(), Lsn(durable));
        assert_eq!(log.try_get(Lsn(durable)).map(|r| r.txn), Some(TxnId(durable)));
        assert!(log.try_get(Lsn(durable + 1)).is_none(), "the volatile suffix is gone");
        let next = log.append(TxnId(9_999), Lsn::NULL, RecordBody::TxnCommit);
        assert_eq!(next, Lsn(durable + 1), "the next append stays dense");
        assert_eq!(log.get(next).txn, TxnId(9_999));
        let lsns: Vec<u64> = log.scan_from(Lsn(500)).iter().map(|r| r.lsn.0).collect();
        assert_eq!(lsns, (500..=durable + 1).collect::<Vec<_>>());
    }
}

#[test]
fn fsync_pays_serialized_device_latency_once_per_advance() {
    let log = LogManager::new();
    log.set_sync_latency(std::time::Duration::from_millis(5));
    let mut last = Lsn::NULL;
    for i in 0..8u64 {
        last = log.append(TxnId(i + 1), Lsn::NULL, RecordBody::TxnBegin);
    }
    let t0 = std::time::Instant::now();
    log.sync_to(last).unwrap(); // one batch: one device sync
    assert!(t0.elapsed() >= std::time::Duration::from_millis(5), "the device latency was paid");
    assert_eq!(log.syncs(), 1, "batched advance pays the device once, not per record");
    // Already durable: free.
    log.sync_to(last).unwrap();
    assert_eq!(log.syncs(), 1, "an already-durable advance synced again");
}

/// Group commit without a flusher: a leader holds the device for a
/// slow sync while a follower whose record the leader's sync covers
/// queues behind it. The follower returns with its LSN durable and no
/// second sync is paid — 2 commits, 1 sync — whichever of the two
/// reaches the device first.
#[test]
fn fsync_covered_while_queued_is_not_paid_again() {
    use std::time::{Duration, Instant};
    let log = std::sync::Arc::new(LogManager::new());
    log.set_sync_latency(Duration::from_millis(20));
    let first = log.append(TxnId(1), Lsn::NULL, RecordBody::TxnCommit);
    let last = log.append(TxnId(2), Lsn::NULL, RecordBody::TxnCommit);
    let started = Instant::now();
    let a = {
        let log = log.clone();
        std::thread::spawn(move || log.sync_to(first).unwrap())
    };
    // B asks while A is inside its 20 ms sync; A's sync covers it, so B
    // must not pay a second device sync.
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(log.sync_to(last), Ok(last));
    assert!(started.elapsed() >= Duration::from_millis(20), "B returned before A's sync");
    assert_eq!(a.join().unwrap(), last, "the leader synced through the follower's record");
    assert_eq!(log.syncs(), 1, "2 commits, 1 sync: a covered sync was paid again");
}

#[test]
fn concurrent_appends_get_unique_lsns() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let log = std::sync::Arc::new(LogManager::new());
    // A syncer races the appenders: after every sync, the horizon is
    // at most `last`, and the record `last` names is already readable
    // (an append takes its LSN and stores its record in one critical
    // section, so no LSN is visible before its record).
    let done = std::sync::Arc::new(AtomicBool::new(false));
    let syncer = {
        let (log, done) = (log.clone(), done.clone());
        std::thread::spawn(move || {
            let mut syncs = 0u64;
            while syncs == 0 || !done.load(Ordering::Acquire) {
                for target in [log.last_lsn(), Lsn::MAX] {
                    log.sync_to(target).unwrap();
                    let durable = log.flushed_lsn();
                    let last = log.last_lsn();
                    assert!(durable <= last, "durable {durable} is beyond last {last}");
                    if last != Lsn::NULL {
                        let seen = log.try_get(last).map(|r| r.lsn);
                        assert_eq!(seen, Some(last), "LSN {last} visible before its record");
                    }
                    syncs += 1;
                }
            }
            syncs
        })
    };
    let mut handles = Vec::new();
    for i in 0..8u64 {
        let log = log.clone();
        handles.push(std::thread::spawn(move || {
            let mut lsns = Vec::new();
            for _ in 0..500 {
                lsns.push(log.append(TxnId(i + 1), Lsn::NULL, RecordBody::TxnBegin));
            }
            lsns
        }));
    }
    let mut all: Vec<Lsn> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    done.store(true, Ordering::Release);
    assert!(syncer.join().unwrap() > 0);
    all.sort();
    all.dedup();
    assert_eq!(all.len(), 8 * 500);
    assert_eq!(log.last_lsn(), Lsn(4000));
    assert_eq!(log.sync_to(Lsn::MAX), Ok(Lsn(4000)));
}

#[test]
fn stable_hash_bytes_matches_itself_and_spreads() {
    use crate::stable_hash_bytes;
    let page = vec![7u8; 8192];
    assert_eq!(stable_hash_bytes(&page), stable_hash_bytes(&page));
    let mut flipped = page.clone();
    flipped[4096] ^= 1;
    assert_ne!(stable_hash_bytes(&page), stable_hash_bytes(&flipped));
    // Tail handling: lengths not divisible by eight still digest
    // every byte.
    assert_ne!(stable_hash_bytes(b"abcdefghi"), stable_hash_bytes(b"abcdefghj"));
    assert_ne!(stable_hash_bytes(b""), stable_hash_bytes(b"\0"));
}

#[test]
fn stable_hash_bytes_digests_are_pinned() {
    // The digest is part of the page-image and WAL-file formats: these
    // values were produced by the construction every existing file was
    // written with, so any change to it breaks reading old files.
    let page: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(crate::stable_hash_bytes(&page), 0x9ea4_50b8_43f8_5f51);
    assert_eq!(crate::stable_hash_bytes(b"abcdefghi"), 0xd9a4_4bb2_4fdc_6d5c);
}

/// A crashed log makes nothing durable — not what it held, not what
/// the crashed incarnation appends afterwards — until restart takes it
/// over, dropping those late records; restart's own sync then succeeds.
#[test]
fn sync_refuses_after_crash_until_restart() {
    let (log, rm) = setup(2);
    let t = TxnId(1);
    let b = log.append(t, Lsn::NULL, RecordBody::TxnBegin);
    let c = log.append(t, b, RecordBody::TxnCommit);
    log.sync_to(c).unwrap();
    let lost = log.append(t, c, RecordBody::TxnEnd);
    assert_eq!(log.crash(), 1);
    let late = log.append(TxnId(2), Lsn::NULL, RecordBody::TxnBegin);
    assert_eq!(late, lost, "the log stays dense after the cut");
    assert_eq!(log.sync_to(late), Err(crate::SyncError::Crashed));
    assert_eq!(log.syncs(), 1);
    let out = restart(&log, &rm).unwrap();
    assert_eq!(out.completed_winners, vec![t]);
    assert!(out.losers.is_empty(), "restart saw a record appended after the crash");
    assert_eq!(log.flushed_lsn(), log.last_lsn(), "restart syncs again");
}

/// A crash is the log's stop: after it, a sync the horizon does not
/// cover fails at once, without touching the device, and one the
/// horizon covers succeeds. That includes a record the crash cut off:
/// the crash lowers `last` below its LSN, and only the fence may answer
/// for it.
#[test]
fn requests_after_stop_fail_at_once_unless_covered() {
    use std::time::{Duration, Instant};
    let log = LogManager::new();
    let covered = log.append(TxnId(1), Lsn::NULL, RecordBody::TxnCommit);
    assert_eq!(log.sync_to(covered), Ok(covered));
    let cut = log.append(TxnId(2), Lsn::NULL, RecordBody::TxnCommit);
    assert_eq!(log.crash(), 1);
    assert_eq!(log.sync_to(cut), Err(crate::SyncError::Crashed), "a cut record read as durable");
    log.set_sync_latency(Duration::from_millis(200));
    let late = log.append(TxnId(3), Lsn::NULL, RecordBody::TxnCommit);
    let started = Instant::now();
    assert_eq!(log.sync_to(late), Err(crate::SyncError::Crashed));
    assert!(started.elapsed() < Duration::from_millis(200), "the refusal waited");
    assert_eq!(log.sync_to(covered), Ok(covered), "an LSN the horizon covers needs no sync");
    log.flush_all();
    assert_eq!(log.flushed_lsn(), covered, "flush_all leaves the horizon where it was");
    assert_eq!(log.syncs(), 1);
}

/// A caller queued for the device behind a sync in flight, with the
/// crash queued ahead of it, fails as soon as the crash has run: it
/// does not sync the record the crash cut off.
#[test]
fn stop_fails_parked_callers_at_once() {
    use std::sync::Arc;
    use std::time::Duration;
    let log = Arc::new(LogManager::new());
    log.set_sync_latency(Duration::from_millis(300));
    let first = log.append(TxnId(1), Lsn::NULL, RecordBody::TxnCommit);
    let syncer = {
        let log = log.clone();
        std::thread::spawn(move || log.sync_to(first))
    };
    // Time for the syncer to take the device and enter its 300 ms sync,
    // then for the crash to queue behind it.
    std::thread::sleep(Duration::from_millis(50));
    let second = log.append(TxnId(2), Lsn::NULL, RecordBody::TxnCommit);
    let crasher = {
        let log = log.clone();
        std::thread::spawn(move || log.crash())
    };
    std::thread::sleep(Duration::from_millis(50));
    let parked = {
        let log = log.clone();
        std::thread::spawn(move || log.sync_to(second))
    };
    assert_eq!(syncer.join().unwrap(), Ok(first));
    assert_eq!(crasher.join().unwrap(), 1, "the record behind the sync is lost");
    assert_eq!(parked.join().unwrap(), Err(crate::SyncError::Crashed));
    assert_eq!(log.syncs(), 1, "the parked caller synced after the crash");
    assert_eq!(log.flushed_lsn(), first);
}

/// A sync that is not a commit's — a checkpoint's, a page write-back's —
/// is a barrier: it returns once its LSN is durable, and an LSN already
/// durable costs nothing.
#[test]
fn barrier_blocks_until_durable() {
    use std::time::{Duration, Instant};
    let log = LogManager::new();
    log.set_sync_latency(Duration::from_millis(5));
    let a = log.append(TxnId(1), Lsn::NULL, RecordBody::TxnCommit);
    let b = log.append(TxnId(2), Lsn::NULL, RecordBody::TxnCommit);
    let started = Instant::now();
    assert_eq!(log.sync_to(b), Ok(b));
    assert!(started.elapsed() >= Duration::from_millis(5), "the device latency was paid");
    assert!(log.flushed_lsn() >= b);
    assert_eq!(log.sync_to(a), Ok(b));
    assert_eq!(log.syncs(), 1, "an already-durable barrier synced");
}

/// A crash waits for the sync in flight — its records survive — and
/// loses the tail appended behind it.
#[test]
fn crash_keeps_the_sync_in_flight_and_loses_the_tail() {
    use std::time::Duration;
    let log = std::sync::Arc::new(LogManager::new());
    log.set_sync_latency(Duration::from_millis(200));
    let first = log.append(TxnId(1), Lsn::NULL, RecordBody::TxnCommit);
    let (started, syncing) = std::sync::mpsc::channel();
    let syncer = {
        let log = log.clone();
        std::thread::spawn(move || {
            started.send(()).unwrap();
            log.sync_to(first)
        })
    };
    // Time for the syncer to take the device and enter its 200 ms sync.
    syncing.recv().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let second = log.append(TxnId(2), Lsn::NULL, RecordBody::TxnCommit);
    assert_eq!(log.crash(), 1, "the tail behind the sync is lost");
    assert_eq!(syncer.join().unwrap(), Ok(first), "the sync in flight completes");
    assert_eq!((log.flushed_lsn(), log.last_lsn()), (first, first));
    assert!(log.try_get(second).is_none());
}
