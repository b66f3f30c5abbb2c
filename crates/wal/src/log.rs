//! The log manager: append, durability, scan, and crash simulation.
//!
//! The records sit behind one mutex. An append takes the next LSN and
//! pushes its record in the same critical section, so every LSN a reader
//! can see already names a readable record. Two watermarks order the
//! log, `durable ≤ last`: an append moves `last`, and
//! [`LogManager::fsync_to`] (a simulated device sync, the log's one
//! durability primitive) moves `durable`. Waiting for the horizon is the
//! commit pipeline's job (`crates/commitpipe`), not the log's.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use gist_sync::Mutex;

use crate::codec;
use crate::{LogRecord, Lsn, RecordBody, TxnId};

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
        self.last.store(lsn.0, Ordering::Release);
        lsn
    }

    /// LSN of the most recently appended record ([`Lsn::NULL`] if empty).
    ///
    /// This is the paper's "global NSN" counter when NSNs are sourced from
    /// the log (§10.1).
    pub fn last_lsn(&self) -> Lsn {
        Lsn(self.last.load(Ordering::Acquire))
    }

    /// Durable prefix of the log.
    pub fn flushed_lsn(&self) -> Lsn {
        Lsn(self.durable.load(Ordering::Acquire))
    }

    /// Set the simulated per-fsync device latency (benches model a real
    /// log device; zero — the default — makes durability advances free).
    pub fn set_sync_latency(&self, latency: Duration) {
        self.sync_micros.store(latency.as_micros() as u64, Ordering::Relaxed);
    }

    /// Make every record with LSN ≤ `min(lsn, last)` durable; returns the
    /// new durable horizon. The only code that moves the horizon.
    ///
    /// A target already durable returns at once, and so does one that a
    /// concurrent sync covered while this caller queued for the device:
    /// the horizon is re-checked under the device lock, so a covered
    /// sync is never paid twice.
    pub fn fsync_to(&self, lsn: Lsn) -> Lsn {
        let target = lsn.0.min(self.last_lsn().0);
        if target <= self.flushed_lsn().0 {
            return self.flushed_lsn();
        }
        let _device = self.sync_mutex.lock();
        if target <= self.flushed_lsn().0 {
            return self.flushed_lsn();
        }
        let micros = self.sync_micros.load(Ordering::Relaxed);
        if micros > 0 {
            std::thread::sleep(Duration::from_micros(micros));
        }
        // Only fsync_to moves the horizon, always under the device lock,
        // and the check above saw it below `target`.
        self.durable.store(target, Ordering::Release);
        self.flushed_lsn()
    }

    /// Force the entire log durable.
    // The log's own whole-log force (shutdown, drain, tests): the one
    // sanctioned `fsync_to` caller outside the commit pipeline.
    #[allow(clippy::disallowed_methods)]
    pub fn flush_all(&self) {
        self.fsync_to(Lsn::MAX);
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
        self.last.store(durable, Ordering::Release);
        lost as usize
    }

    /// LSN of the most recent checkpoint record, if any.
    pub fn last_checkpoint(&self) -> Option<Lsn> {
        let records = self.records.lock();
        let mut newest_first = records.chunks.iter().rev().flat_map(|c| c.iter().rev());
        newest_first.find(|r| matches!(r.body, RecordBody::Checkpoint { .. })).map(|r| r.lsn)
    }

    /// Persist the durable prefix to a file (see [`LogManager::load_file`]).
    ///
    /// Format: an 8-byte magic, then one frame per record —
    /// `[len: u32][checksum: u64][body]` with the checksum (FNV-1a +
    /// fmix64) over the encoded body. The framing is what lets
    /// [`LogManager::load_file`] tell a torn tail from interior
    /// corruption.
    ///
    /// The image is written to `<path>.tmp` beside `path`, synced, and
    /// renamed over `path`, and the directory is synced: a crash at any
    /// point leaves either the old file or the new one, never a
    /// truncated log beside pages that are ahead of it.
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
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
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
    /// A missing or wrong magic is always a hard error naming the file;
    /// a `GISTWAL1` file (the format before this one) is refused as
    /// such. One inherent ambiguity: interior corruption *of a length
    /// field* that makes the frame overshoot EOF is indistinguishable
    /// from a tear and is truncated.
    pub fn load_file_report(path: &Path) -> io::Result<(LogManager, WalTailReport)> {
        let mut bytes = Vec::new();
        fs::File::open(path)?.read_to_end(&mut bytes)?;
        let magic = bytes.get(..WAL_MAGIC.len());
        if magic != Some(WAL_MAGIC.as_slice()) {
            let what = if magic == Some(OLD_WAL_MAGIC.as_slice()) {
                "was written by an older log format (GISTWAL1, with abort and savepoint \
                 records); this build reads only GISTWAL2"
            } else {
                "has no WAL magic (not a log file)"
            };
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {what}", path.display()),
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
const WAL_MAGIC: &[u8; 8] = b"GISTWAL2";

/// Magic of the format before the abort and savepoint records were
/// dropped. Refused by name: its tags 3 and 5 would otherwise read as a
/// torn tail or as interior corruption.
const OLD_WAL_MAGIC: &[u8; 8] = b"GISTWAL1";

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
