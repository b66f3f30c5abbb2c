//! Randomized (but deterministic) tests for the log-record byte codec.
//!
//! Previously written against `proptest`; rewritten around a seeded
//! xorshift generator so the workspace carries no external dev-deps and
//! every CI run exercises the identical case set.

use gist_wal::codec::{decode_record, encode_record};
use gist_wal::{LogRecord, Lsn, Payload, RecordBody, TxnId};

/// Seeded xorshift64 generator.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform value in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, max_len: u64) -> Vec<u8> {
        let len = self.below(max_len) as usize;
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn payload(&mut self) -> Payload {
        let npages = self.below(5) as usize;
        let pages: Vec<u32> = (0..npages).map(|_| self.next() as u32).collect();
        let bytes = self.bytes(200);
        Payload::new(pages, bytes)
    }

    fn body(&mut self) -> RecordBody {
        match self.below(8) {
            0 => RecordBody::TxnBegin,
            1 => RecordBody::TxnCommit,
            2 => RecordBody::TxnEnd,
            3 => RecordBody::Clr { undo_next: Lsn(self.next()), redo: self.payload() },
            4 => RecordBody::NtaEnd { undo_next: Lsn(self.next()) },
            5 => RecordBody::Noop,
            6 => {
                let ntxn = self.below(6) as usize;
                let active_txns =
                    (0..ntxn).map(|_| (TxnId(self.next()), Lsn(self.next()))).collect();
                let ndirty = self.below(6) as usize;
                let dirty_pages =
                    (0..ndirty).map(|_| (self.next() as u32, Lsn(self.next()))).collect();
                RecordBody::Checkpoint {
                    scan_start: Lsn(self.next()),
                    active_txns,
                    dirty_pages,
                }
            }
            _ => RecordBody::Payload(self.payload()),
        }
    }

    fn record(&mut self) -> LogRecord {
        LogRecord {
            lsn: Lsn(self.next()),
            prev_lsn: Lsn(self.next()),
            txn: TxnId(self.next()),
            body: self.body(),
        }
    }
}

#[test]
fn roundtrip() {
    let mut g = Gen::new(0x9E37_79B9_7F4A_7C15);
    for case in 0..512 {
        let rec = g.record();
        let enc = encode_record(&rec);
        let dec = decode_record(&enc).unwrap_or_else(|e| panic!("case {case}: decode failed: {e:?}"));
        assert_eq!(rec, dec, "case {case}");
    }
}

/// Truncation at any point is detected, never mis-decoded.
#[test]
fn truncation_always_fails() {
    let mut g = Gen::new(0xA5A5_A5A5_5A5A_5A5A);
    for case in 0..64 {
        let rec = LogRecord { lsn: Lsn(1), prev_lsn: Lsn(0), txn: TxnId(1), body: g.body() };
        let enc = encode_record(&rec);
        for cut in 0..enc.len() {
            assert!(
                decode_record(&enc[..cut]).is_err(),
                "case {case}: truncation at {cut}/{} decoded",
                enc.len()
            );
        }
    }
}

/// Appending junk after a record is rejected (records are framed by the
/// caller; trailing garbage means corruption).
#[test]
fn trailing_bytes_rejected() {
    let mut g = Gen::new(0xFEED_FACE_CAFE_BEEF);
    for case in 0..128 {
        let rec = LogRecord { lsn: Lsn(1), prev_lsn: Lsn(0), txn: TxnId(1), body: g.body() };
        let mut enc = encode_record(&rec);
        let junk_len = 1 + g.below(9) as usize;
        for _ in 0..junk_len {
            enc.push(g.next() as u8);
        }
        assert!(decode_record(&enc).is_err(), "case {case}: trailing bytes accepted");
    }
}
