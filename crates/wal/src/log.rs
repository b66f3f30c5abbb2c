//! The log manager: append, durability, scan, and crash simulation.
//!
//! The records sit behind one mutex. An append takes the next LSN and
//! pushes its record in the same critical section, so every LSN a reader
//! can see already names a readable record. Two watermarks order the
//! log, `durable ≤ last`: an append moves `last`, and an fsync
//! (simulated by [`LogManager::fsync_to`]) moves `durable`.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gist_sync::{Condvar, Mutex};

use crate::codec;
use crate::{audit, LogRecord, Lsn, NestedTopAction, RecordBody, TxnId};

/// Anything that can force the log durable up to an LSN.
///
/// The buffer pool uses this to enforce the write-ahead rule: before a
/// dirty page with page-LSN `l` goes to disk, `flush_until(l)` must have
/// completed.
pub trait LogFlusher: Send + Sync {
    /// Make every record with LSN ≤ `lsn` durable.
    fn flush_until(&self, lsn: Lsn);
}

/// Records per chunk. Each chunk is allocated at full capacity once and
/// never moves, so the log grows without copying the records it holds.
const CHUNK: usize = 512;

/// The records, dense from LSN 1: LSN `l` sits at
/// `chunks[(l - 1) / CHUNK][(l - 1) % CHUNK]`.
#[derive(Default)]
struct Records {
    chunks: Vec<Vec<LogRecord>>,
}

impl Records {
    fn len(&self) -> u64 {
        self.chunks.last().map_or(0, |c| ((self.chunks.len() - 1) * CHUNK + c.len()) as u64)
    }

    fn get(&self, lsn: u64) -> Option<&LogRecord> {
        let i = lsn.checked_sub(1)? as usize;
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    fn push(&mut self, rec: LogRecord) {
        match self.chunks.last_mut() {
            Some(c) if c.len() < CHUNK => c.push(rec),
            _ => {
                let mut c = Vec::with_capacity(CHUNK);
                c.push(rec);
                self.chunks.push(c);
            }
        }
    }

    /// Keep the first `len` records.
    fn truncate(&mut self, len: u64) {
        let len = len as usize;
        self.chunks.truncate(len.div_ceil(CHUNK));
        let full = self.chunks.len().saturating_sub(1) * CHUNK;
        if let Some(c) = self.chunks.last_mut() {
            c.truncate(len - full);
        }
    }

    /// Records with LSN ≥ `from`, in LSN order.
    fn iter_from(&self, from: u64) -> impl Iterator<Item = &LogRecord> {
        let skip = from.saturating_sub(1) as usize;
        self.chunks.iter().skip(skip / CHUNK).flatten().skip(skip % CHUNK)
    }
}

/// In-memory write-ahead log with an explicit durable prefix.
///
/// LSNs are dense (`1, 2, 3, …`), which keeps them strictly monotonically
/// increasing as §10.1 requires for NSN generation. [`LogManager::crash`]
/// models a system failure by discarding the non-durable suffix.
pub struct LogManager {
    /// Every record appended and not lost to a crash.
    records: Mutex<Records>,
    /// LSN of the last record (the paper's global NSN counter, §10.1).
    /// Stored under `records` once the record is in place, read without
    /// the lock.
    last: AtomicU64,
    /// Durable prefix: everything with LSN ≤ `durable` survives a crash.
    /// Advances only under `sync_mutex`.
    durable: AtomicU64,
    /// Simulated device sync cost in microseconds (benches model a real
    /// fsync; tests leave it at zero). Paid once per durability advance,
    /// serialized by `sync_mutex` like a real single log device.
    sync_micros: AtomicU64,
    /// Serializes durability advances (one fsync in flight at a time).
    sync_mutex: Mutex<()>,
    /// Wakeup generation for group-commit waiters: [`LogManager::notify_durable`]
    /// bumps it under this mutex before signalling, and
    /// [`LogManager::wait_durable`] checks the horizon and snapshots the
    /// generation under the same mutex before parking — so a notify can
    /// never land unseen between a waiter's check and its park.
    wait_mutex: Mutex<u64>,
    /// Signalled whenever the durable prefix advances; committers parked
    /// on their commit LSN wake here (the commit pipeline batches the
    /// fsync and then calls [`LogManager::notify_durable`]).
    flush_cv: Condvar,
    /// Model-checker shadow cells for the two watermarks (see
    /// `crate::audit`); zero when the `latch-audit` feature is off.
    hb_last: u64,
    hb_durable: u64,
}

impl Default for LogManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LogManager {
    /// Empty log.
    pub fn new() -> Self {
        Self::from_records(Records::default())
    }

    /// A log holding `records`, all of them durable.
    fn from_records(records: Records) -> LogManager {
        let n = records.len();
        LogManager {
            records: Mutex::new(records),
            last: AtomicU64::new(n),
            durable: AtomicU64::new(n),
            sync_micros: AtomicU64::new(0),
            sync_mutex: Mutex::new(()),
            wait_mutex: Mutex::new(0),
            flush_cv: Condvar::new(),
            hb_last: audit::new_cell_id(),
            hb_durable: audit::new_cell_id(),
        }
    }

    /// Append a record; returns its LSN.
    ///
    /// `prev_lsn` is the transaction's backchain pointer (the caller —
    /// normally the transaction manager — tracks each transaction's last
    /// LSN). The LSN is taken, the record stored and `last` published in
    /// one critical section. An append never waits for or forces the
    /// durable horizon: making records durable is the commit pipeline's
    /// job.
    pub fn append(&self, txn: TxnId, prev_lsn: Lsn, body: RecordBody) -> Lsn {
        let mut records = self.records.lock();
        let lsn = Lsn(records.len() + 1);
        records.push(LogRecord { lsn, prev_lsn, txn, body });
        audit::atomic_store(self.hb_last, "wal-last-store");
        self.last.store(lsn.0, Ordering::Release);
        lsn
    }

    /// LSN of the most recently appended record ([`Lsn::NULL`] if empty).
    ///
    /// This is the paper's "global NSN" counter when NSNs are sourced from
    /// the log (§10.1).
    pub fn last_lsn(&self) -> Lsn {
        audit::atomic_load(self.hb_last, "wal-last-read");
        Lsn(self.last.load(Ordering::Acquire))
    }

    /// Durable prefix of the log.
    pub fn flushed_lsn(&self) -> Lsn {
        audit::atomic_load(self.hb_durable, "wal-durable-read");
        Lsn(self.durable.load(Ordering::Acquire))
    }

    /// Set the simulated per-fsync device latency (benches model a real
    /// log device; zero — the default — makes durability advances free).
    pub fn set_sync_latency(&self, latency: Duration) {
        self.sync_micros.store(latency.as_micros() as u64, Ordering::Relaxed);
    }

    /// Advance the durable horizon to `min(lsn, last)` *without* waking
    /// waiters — the commit pipeline's flusher separates the fsync from
    /// the wakeup so a crash between them is testable. Returns the new
    /// durable horizon.
    ///
    /// A caller that finds its target already durable returns for free
    /// (real code checks the horizon before issuing a sync). A caller
    /// that decided to sync pays the full simulated device latency even
    /// when a concurrent sync covered its target while it was queued for
    /// the device: each sync is its own device barrier, which is exactly
    /// the per-commit cost a group-commit flusher amortizes away.
    pub fn fsync_to(&self, lsn: Lsn) -> Lsn {
        let target = lsn.0.min(self.last_lsn().0);
        audit::atomic_load(self.hb_durable, "wal-durable-read");
        if target <= self.durable.load(Ordering::Acquire) {
            return self.flushed_lsn();
        }
        let _device = self.sync_mutex.lock();
        let micros = self.sync_micros.load(Ordering::Relaxed);
        if micros > 0 {
            std::thread::sleep(Duration::from_micros(micros));
        }
        // Only fsync_to moves the horizon, always under the device lock,
        // so a monotonicity check suffices.
        if target > self.durable.load(Ordering::Acquire) {
            audit::atomic_store(self.hb_durable, "wal-durable-store");
            self.durable.store(target, Ordering::Release);
        }
        self.flushed_lsn()
    }

    /// Wake everyone parked in [`LogManager::wait_durable`]: bump the
    /// wakeup generation under the wait mutex, then signal. A waiter
    /// checks the horizon and snapshots the generation under the same
    /// mutex before parking, so this bump is impossible to miss — the
    /// waiter either sees the new horizon, sees the new generation, or
    /// is already parked and receives the signal.
    pub fn notify_durable(&self) {
        let mut gen = self.wait_mutex.lock();
        *gen = gen.wrapping_add(1);
        drop(gen);
        self.flush_cv.notify_all();
    }

    /// Park until the durable horizon reaches `lsn` or `timeout` elapses;
    /// returns whether the horizon was reached.
    ///
    /// The wait is a generation handshake with [`LogManager::notify_durable`]
    /// (no polling): each loop checks the horizon under the wait mutex,
    /// then parks for the full remaining time. A timed-out wait whose
    /// generation is unchanged means no durability advance was
    /// announced while parked, so one final horizon check decides
    /// (covering [`LogManager::fsync_to`] callers that advance the
    /// horizon without a notify, which is that method's contract). The
    /// `wal-lost-wakeup` model-check scenario pins the no-missed-notify
    /// property across every explored schedule.
    pub fn wait_durable(&self, lsn: Lsn, timeout: Duration) -> bool {
        if gist_chaos::armed("wal.wait-durable-unguarded-park") {
            return self.wait_durable_unguarded_park(lsn, timeout);
        }
        let deadline = Instant::now() + timeout;
        let mut gen = self.wait_mutex.lock();
        loop {
            if self.flushed_lsn() >= lsn {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let seen = *gen;
            let timed_out = self.flush_cv.wait_for(&mut gen, deadline - now).timed_out();
            if timed_out && *gen == seen {
                return self.flushed_lsn() >= lsn;
            }
        }
    }

    /// Historical lost-wakeup bug behind a mutation switch (compiled
    /// away unless gist-chaos is `enabled`, armed by model-checker
    /// self-tests): the horizon check happens *outside* the wait mutex
    /// and the park ignores the generation, so a notify that lands
    /// between the check and the park is lost and the waiter sleeps its
    /// full timeout.
    fn wait_durable_unguarded_park(&self, lsn: Lsn, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.flushed_lsn() >= lsn {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let mut gen = self.wait_mutex.lock();
            // The buggy wait ignores the result on purpose: this body
            // reproduces the historical race verbatim.
            let _ = self.flush_cv.wait_for(&mut gen, deadline - now); // lint: allow-ignored-io
            drop(gen);
        }
    }

    /// Force everything up to (and including) `lsn` durable and wake
    /// waiters. (Internal to the WAL/commit-pipeline layers; everything
    /// above them requests durability through the pipeline — the
    /// `no-inline-flush` lint enforces this.)
    pub fn flush(&self, lsn: Lsn) {
        self.fsync_to(lsn);
        self.notify_durable();
    }

    /// Force the entire log durable.
    pub fn flush_all(&self) {
        self.fsync_to(Lsn::MAX);
        self.notify_durable();
    }

    /// Fetch the record with the given LSN.
    ///
    /// # Panics
    /// Panics if `lsn` is null or beyond the end of the log — both indicate
    /// a corrupted backchain, which must not be silently ignored. Recovery
    /// code paths use [`LogManager::try_get`] instead and surface a
    /// recovery error rather than taking the process down.
    pub fn get(&self, lsn: Lsn) -> LogRecord {
        match self.try_get(lsn) {
            Some(rec) => rec,
            None => panic!("lsn {lsn} is null or beyond end of log ({})", self.len()),
        }
    }

    /// Fetch the record with the given LSN, or `None` when `lsn` is null
    /// or beyond the end of the log (a corrupt backchain pointer).
    pub fn try_get(&self, lsn: Lsn) -> Option<LogRecord> {
        self.records.lock().get(lsn.0).cloned()
    }

    /// Clone of every record with LSN ≥ `from`, in LSN order.
    pub fn scan_from(&self, from: Lsn) -> Vec<LogRecord> {
        self.records.lock().iter_from(from.0).cloned().collect()
    }

    /// Number of records currently in the log.
    pub fn len(&self) -> usize {
        self.last_lsn().0 as usize
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Simulate a system crash: every record past the durable prefix is
    /// lost, exactly as if the machine died after its last `fsync`.
    ///
    /// Returns the number of records discarded.
    pub fn crash(&self) -> usize {
        let mut records = self.records.lock();
        let durable = self.flushed_lsn().0;
        let lost = records.len() - durable;
        records.truncate(durable);
        audit::atomic_store(self.hb_last, "wal-last-store");
        self.last.store(durable, Ordering::Release);
        lost as usize
    }

    /// LSN of the most recent checkpoint record, if any.
    pub fn last_checkpoint(&self) -> Option<Lsn> {
        let records = self.records.lock();
        let mut newest_first = records.chunks.iter().rev().flat_map(|c| c.iter().rev());
        newest_first.find(|r| matches!(r.body, RecordBody::Checkpoint { .. })).map(|r| r.lsn)
    }

    /// Begin a nested top action for `txn` whose backchain currently ends
    /// at `txn_last_lsn`.
    pub fn begin_nta(&self, txn_last_lsn: Lsn) -> NestedTopAction {
        NestedTopAction { undo_next: txn_last_lsn }
    }

    /// Finish a nested top action: writes the dummy CLR that makes the
    /// whole unit of work invisible to rollback. Returns the new last LSN
    /// for the transaction's backchain.
    ///
    /// The terminator is not forced, here or by the transaction layer:
    /// prefix durability makes a lost terminator indistinguishable from
    /// a crash inside the unit (`TxnManager::end_nta`).
    pub fn end_nta(&self, txn: TxnId, txn_last_lsn: Lsn, nta: NestedTopAction) -> Lsn {
        self.append(txn, txn_last_lsn, RecordBody::NtaEnd { undo_next: nta.undo_next })
    }

    /// Persist the durable prefix to a file (see [`LogManager::load_file`]).
    ///
    /// Format: an 8-byte magic, then one frame per record —
    /// `[len: u32][checksum: u64][body]` with the checksum (FNV-1a +
    /// fmix64) over the encoded body. The framing is what lets
    /// [`LogManager::load_file`] tell a torn tail from interior
    /// corruption.
    pub fn persist_file(&self, path: &Path) -> io::Result<()> {
        let records = self.records.lock();
        let durable = self.flushed_lsn().0 as usize;
        let mut buf = Vec::with_capacity(16 + durable * 64);
        buf.extend_from_slice(WAL_MAGIC);
        for rec in records.iter_from(1).take(durable) {
            let enc = codec::encode_record(rec);
            buf.extend_from_slice(&(enc.len() as u32).to_le_bytes());
            buf.extend_from_slice(&crate::stable_hash_bytes(&enc).to_le_bytes());
            buf.extend_from_slice(&enc);
        }
        drop(records);
        let mut f = fs::File::create(path)?;
        f.write_all(&buf)?;
        f.sync_all()
    }

    /// Load a log persisted by [`LogManager::persist_file`]; the loaded
    /// prefix is entirely durable. Equivalent to
    /// [`LogManager::load_file_report`] with the report discarded.
    pub fn load_file(path: &Path) -> io::Result<LogManager> {
        Self::load_file_report(path).map(|(log, _)| log)
    }

    /// Load a log file, classifying malformed bytes:
    ///
    /// - A **torn or corrupt tail** — the *final* frame is incomplete
    ///   (truncated mid-frame), fails its checksum, fails to decode, or
    ///   breaks LSN density — is what a crash during the last append
    ///   leaves behind. It is *truncated*: the log loads up to the last
    ///   good record and the report says what was dropped.
    /// - The same damage **before the durable tail** (a frame followed by
    ///   further bytes) cannot be explained by a crash mid-append and
    ///   stays a hard `InvalidData` error.
    ///
    /// A missing or wrong magic is always a hard error. One inherent
    /// ambiguity: interior corruption *of a length field* that makes the
    /// frame overshoot EOF is indistinguishable from a tear and is
    /// truncated.
    pub fn load_file_report(path: &Path) -> io::Result<(LogManager, WalTailReport)> {
        let mut bytes = Vec::new();
        fs::File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "log file magic missing or wrong (not a WAL file)",
            ));
        }
        let mut records = Records::default();
        let mut off = WAL_MAGIC.len();
        let mut report = WalTailReport::default();
        while off < bytes.len() {
            // Frame header: length + body checksum.
            if off + 12 > bytes.len() {
                report.tail_truncated = true;
                break;
            }
            let mut len4 = [0u8; 4];
            len4.copy_from_slice(&bytes[off..off + 4]);
            let len = u32::from_le_bytes(len4) as usize;
            let mut sum8 = [0u8; 8];
            sum8.copy_from_slice(&bytes[off + 4..off + 12]);
            let stored_sum = u64::from_le_bytes(sum8);
            let body_start = off + 12;
            let Some(body_end) = body_start.checked_add(len) else {
                report.tail_truncated = true;
                break;
            };
            if body_end > bytes.len() {
                // Frame runs past EOF: torn tail.
                report.tail_truncated = true;
                break;
            }
            let is_final = body_end == bytes.len();
            let body = &bytes[body_start..body_end];
            let recno = records.len() as usize + 1;
            if crate::stable_hash_bytes(body) != stored_sum {
                if is_final {
                    report.tail_truncated = true;
                    break;
                }
                return Err(interior_corruption(recno, "checksum mismatch"));
            }
            let rec = match codec::decode_record(body) {
                Ok(rec) => rec,
                Err(e) => {
                    if is_final {
                        report.tail_truncated = true;
                        break;
                    }
                    return Err(interior_corruption(recno, &format!("decode: {e}")));
                }
            };
            let expect = Lsn(records.len() + 1);
            if rec.lsn != expect {
                if is_final {
                    report.tail_truncated = true;
                    break;
                }
                return Err(interior_corruption(
                    recno,
                    &format!("not dense: got {} expected {}", rec.lsn, expect),
                ));
            }
            records.push(rec);
            off = body_end;
        }
        if report.tail_truncated {
            report.dropped_bytes = bytes.len() - off;
        }
        report.loaded = records.len() as usize;
        Ok((LogManager::from_records(records), report))
    }
}

/// Magic prefix of a persisted WAL file.
const WAL_MAGIC: &[u8; 8] = b"GISTWAL1";

fn interior_corruption(recno: usize, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("log corrupt before the durable tail (record {recno}): {what}"),
    )
}

/// What [`LogManager::load_file_report`] found at the end of the file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalTailReport {
    /// Records successfully loaded.
    pub loaded: usize,
    /// Whether a torn/corrupt tail was detected and truncated.
    pub tail_truncated: bool,
    /// Bytes dropped with the tail.
    pub dropped_bytes: usize,
}
