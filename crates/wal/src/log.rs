//! The log manager: reserve-then-fill append, durability, scan, and
//! crash simulation.
//!
//! Appends are two-phase (PR 6): a *reservation* draws the next LSN from
//! an atomic counter and pins a slot in a segmented buffer; the *fill*
//! publishes the record into that slot. No mutex is held across record
//! construction, so the log is no longer the global serialization point
//! it was when every append pushed onto a `Vec` under one lock. A
//! contiguous *filled* watermark trails the reservation counter; only the
//! filled prefix can become durable, so a reservation abandoned mid-fill
//! (a crash between reserve and fill) fences durability exactly like a
//! torn tail in the on-disk format.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gist_sync::{Condvar, Mutex, RwLock};

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

/// Slots per segment (power of two so slot lookup is a mask).
const SEGMENT_BITS: u32 = 9;
const SEGMENT_SIZE: usize = 1 << SEGMENT_BITS;

/// One fixed-size run of record slots. A slot is written exactly once
/// (by the reservation's owner) and read many times.
struct Segment {
    cells: Vec<OnceLock<LogRecord>>,
}

impl Segment {
    fn new() -> Arc<Segment> {
        Arc::new(Segment { cells: (0..SEGMENT_SIZE).map(|_| OnceLock::new()).collect() })
    }
}

/// A reserved LSN whose slot has not been filled yet.
///
/// Dropping a reservation without [`LogManager::fill`]ing it leaves a
/// hole that permanently fences the durable horizon — callers must fill
/// every reservation on all non-crash paths (see
/// [`LogManager::fill_noop`] for the graceful abandonment path).
#[must_use = "an unfilled reservation fences the durable horizon forever"]
pub struct Reservation {
    lsn: Lsn,
    txn: TxnId,
    prev_lsn: Lsn,
}

impl Reservation {
    /// The LSN this reservation pinned.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }
}

/// In-memory write-ahead log with an explicit durable prefix.
///
/// LSNs are dense (`1, 2, 3, …`), which keeps them strictly monotonically
/// increasing as §10.1 requires for NSN generation. [`LogManager::crash`]
/// models a system failure by discarding the non-durable suffix.
///
/// Three watermarks order the pipeline:
/// `durable ≤ filled ≤ reserved`. Reservation moves `reserved`, a fill at
/// the frontier moves `filled`, and an fsync (simulated by
/// [`LogManager::fsync_to`]) moves `durable`.
pub struct LogManager {
    /// Segment directory: `segments[i]` holds LSNs
    /// `[i·SEGMENT_SIZE + 1, (i+1)·SEGMENT_SIZE]`. The write lock is taken
    /// only to extend the directory or to rebuild after a crash.
    segments: RwLock<Vec<Arc<Segment>>>,
    /// Last reserved LSN (the paper's global NSN counter, §10.1).
    reserved: AtomicU64,
    /// Contiguous filled prefix: every LSN ≤ `filled` has its record
    /// published.
    filled: AtomicU64,
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
    /// Backpressure high-watermark on the in-flight backlog
    /// (`reserved − durable`); `0` disables the gate.
    bp_limit: AtomicU64,
    /// How long a gated reservation parks (microseconds) before
    /// escalating to an inline flush and proceeding anyway.
    bp_timeout_micros: AtomicU64,
    /// Reservations that parked on the backpressure gate.
    bp_parks: AtomicU64,
    /// Parks that expired with the backlog still over the limit — the
    /// flusher was stalled or absent, and the reservation escalated to
    /// an inline flush.
    bp_stalls: AtomicU64,
    /// Model-checker shadow cells for the three watermarks (see
    /// `crate::audit`); zero when the `latch-audit` feature is off.
    hb_reserved: u64,
    hb_filled: u64,
    hb_durable: u64,
}

impl Default for LogManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LogManager {
    /// Records per segment of the in-memory directory: appends whose LSNs
    /// straddle a multiple of this are the ones that extend it.
    pub const SEGMENT_RECORDS: u64 = SEGMENT_SIZE as u64;

    /// Empty log.
    pub fn new() -> Self {
        LogManager {
            segments: RwLock::new(Vec::new()),
            reserved: AtomicU64::new(0),
            filled: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            sync_micros: AtomicU64::new(0),
            sync_mutex: Mutex::new(()),
            wait_mutex: Mutex::new(0),
            flush_cv: Condvar::new(),
            bp_limit: AtomicU64::new(0),
            bp_timeout_micros: AtomicU64::new(100_000),
            bp_parks: AtomicU64::new(0),
            bp_stalls: AtomicU64::new(0),
            hb_reserved: audit::new_cell_id(),
            hb_filled: audit::new_cell_id(),
            hb_durable: audit::new_cell_id(),
        }
    }

    fn from_records(records: Vec<LogRecord>) -> LogManager {
        let log = LogManager::new();
        let n = records.len() as u64;
        log.install_records(records);
        log.reserved.store(n, Ordering::SeqCst);
        log.filled.store(n, Ordering::SeqCst);
        log.durable.store(n, Ordering::SeqCst);
        log
    }

    /// Replace the segment directory with exactly `records` (dense from
    /// LSN 1). Caller updates the watermarks.
    fn install_records(&self, records: Vec<LogRecord>) {
        let mut segs = self.segments.write();
        segs.clear();
        for rec in records {
            let idx = ((rec.lsn.0 - 1) >> SEGMENT_BITS) as usize;
            while segs.len() <= idx {
                segs.push(Segment::new());
            }
            let cell = &segs[idx].cells[((rec.lsn.0 - 1) as usize) & (SEGMENT_SIZE - 1)];
            // OnceLock::set into cells just cleared above can only
            // succeed; not an I/O result.
            let _ = cell.set(rec); // lint: allow-ignored-io
        }
    }

    /// The segment holding `lsn`, or `None` when the directory does not
    /// reach that far yet. `reserved` is bumped before the reserver
    /// extends the directory, so a reader that has seen the new
    /// `reserved` may ask for a segment that is a moment from existing;
    /// its cells are then, by definition, not set.
    fn segment_for(&self, lsn: u64) -> Option<Arc<Segment>> {
        let idx = ((lsn - 1) >> SEGMENT_BITS) as usize;
        self.segments.read().get(idx).cloned()
    }

    fn cell_get(&self, lsn: u64) -> Option<LogRecord> {
        let seg = self.segment_for(lsn)?;
        seg.cells[((lsn - 1) as usize) & (SEGMENT_SIZE - 1)].get().cloned()
    }

    fn cell_is_set(&self, lsn: u64) -> bool {
        self.segment_for(lsn)
            .is_some_and(|seg| seg.cells[((lsn - 1) as usize) & (SEGMENT_SIZE - 1)].get().is_some())
    }

    /// Reserve the next LSN for `txn` (backchain `prev_lsn`). The slot is
    /// pinned; [`LogManager::fill`] publishes the record. The two-phase
    /// split exists so the commit pipeline can inject crash points between
    /// reservation and publication; ordinary appenders use
    /// [`LogManager::append`].
    pub fn reserve(&self, txn: TxnId, prev_lsn: Lsn) -> Reservation {
        self.backpressure_gate();
        audit::atomic_rmw(self.hb_reserved, "wal-reserve");
        let lsn = self.reserved.fetch_add(1, Ordering::SeqCst) + 1;
        // Make sure the slot's segment exists before returning: the fill
        // of this reservation relies on it. Other threads' readers can
        // run between the bump above and the push below; they treat the
        // missing segment as an unset cell (`segment_for`).
        let idx = ((lsn - 1) >> SEGMENT_BITS) as usize;
        if self.segments.read().len() <= idx {
            let mut segs = self.segments.write();
            while segs.len() <= idx {
                segs.push(Segment::new());
            }
        }
        Reservation { lsn: Lsn(lsn), txn, prev_lsn }
    }

    /// Configure reservation backpressure: once the in-flight backlog
    /// (`reserved − durable`) reaches `limit` records, new reservations
    /// park until the durable horizon advances or `timeout` elapses.
    /// `limit == 0` disables the gate (the default).
    pub fn set_backpressure(&self, limit: u64, timeout: Duration) {
        self.bp_limit.store(limit, Ordering::Relaxed);
        self.bp_timeout_micros.store(timeout.as_micros() as u64, Ordering::Relaxed);
    }

    /// Snapshot of the backpressure gate for `robustness_stats()`.
    pub fn backpressure_stats(&self) -> WalBackpressureStats {
        audit::atomic_load(self.hb_reserved, "wal-reserved-read");
        let reserved = self.reserved.load(Ordering::Acquire);
        audit::atomic_load(self.hb_durable, "wal-durable-read");
        let durable = self.durable.load(Ordering::Acquire);
        WalBackpressureStats {
            limit: self.bp_limit.load(Ordering::Relaxed),
            backlog: reserved.saturating_sub(durable),
            parks: self.bp_parks.load(Ordering::Relaxed),
            stalls: self.bp_stalls.load(Ordering::Relaxed),
        }
    }

    /// Reservation-side backpressure: park (deadline-bounded, on the
    /// same generation handshake group-commit waiters use, so every
    /// [`LogManager::notify_durable`] releases parked writers too) while
    /// the backlog sits at its high-watermark. A park that expires with
    /// the backlog still full means the flusher is stalled or absent;
    /// the writer then *escalates to an inline flush* of the filled
    /// prefix — the same degradation the commit pipeline uses — and
    /// proceeds regardless. Reservations therefore never fail and never
    /// wait unboundedly: shedding is the admission controller's job, and
    /// the bounded park is what makes the parking provably
    /// deadlock-free against the flusher (the `wal-backpressure`
    /// model-check scenario pins this).
    fn backpressure_gate(&self) {
        let limit = self.bp_limit.load(Ordering::Relaxed);
        if limit == 0 {
            return;
        }
        let backlog = || {
            audit::atomic_load(self.hb_reserved, "wal-reserved-read");
            let reserved = self.reserved.load(Ordering::Acquire);
            audit::atomic_load(self.hb_durable, "wal-durable-read");
            reserved.saturating_sub(self.durable.load(Ordering::Acquire))
        };
        if backlog() < limit {
            return;
        }
        self.bp_parks.fetch_add(1, Ordering::Relaxed);
        let timeout = Duration::from_micros(self.bp_timeout_micros.load(Ordering::Relaxed));
        let deadline = Instant::now() + timeout;
        let mut gen = self.wait_mutex.lock();
        loop {
            if backlog() < limit {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let seen = *gen;
            let timed_out = self.flush_cv.wait_for(&mut gen, deadline - now).timed_out();
            if timed_out && *gen == seen {
                break;
            }
        }
        drop(gen);
        if backlog() < limit {
            return;
        }
        // Stalled flusher (or a durable horizon fenced by a hole):
        // degrade to an inline flush and let the reservation through.
        // Over-cap excursions are bounded by the number of concurrently
        // escalating writers, never unbounded growth.
        self.bp_stalls.fetch_add(1, Ordering::Relaxed);
        self.flush(self.filled_lsn());
    }

    /// Publish the record for a reservation and advance the filled
    /// watermark over any newly contiguous prefix.
    pub fn fill(&self, res: Reservation, body: RecordBody) -> Lsn {
        let lsn = res.lsn;
        let rec = LogRecord { lsn, prev_lsn: res.prev_lsn, txn: res.txn, body };
        let seg = self
            .segment_for(lsn.0)
            .unwrap_or_else(|| unreachable!("reserve() created the segment of {lsn}"));
        let set = seg.cells[((lsn.0 - 1) as usize) & (SEGMENT_SIZE - 1)].set(rec);
        debug_assert!(set.is_ok(), "slot {lsn} filled twice");
        self.advance_filled();
        lsn
    }

    /// Publish a no-op filler for a reservation that is being abandoned
    /// gracefully (e.g. a chaos *error* injection between reserve and
    /// fill). Keeps the log dense so the durable horizon is not fenced; a
    /// *panic* between reserve and fill skips this and leaves a real hole.
    pub fn fill_noop(&self, res: Reservation) -> Lsn {
        let lsn = res.lsn;
        self.fill(Reservation { lsn, txn: TxnId::NONE, prev_lsn: Lsn::NULL }, RecordBody::Noop)
    }

    /// Cooperatively advance `filled` while the next slot is published.
    fn advance_filled(&self) {
        loop {
            audit::atomic_rmw(self.hb_filled, "wal-filled-advance");
            audit::atomic_load(self.hb_reserved, "wal-reserved-read");
            let f = self.filled.load(Ordering::Acquire);
            if f >= self.reserved.load(Ordering::Acquire) || !self.cell_is_set(f + 1) {
                return;
            }
            // Lost races just mean another filler advanced it; retry from
            // the new frontier either way (not an I/O result).
            let _ = self.filled.compare_exchange( // lint: allow-ignored-io
                f,
                f + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
    }

    /// Append a record; returns its LSN.
    ///
    /// `prev_lsn` is the transaction's backchain pointer (the caller —
    /// normally the transaction manager — tracks each transaction's last
    /// LSN).
    pub fn append(&self, txn: TxnId, prev_lsn: Lsn, body: RecordBody) -> Lsn {
        let res = self.reserve(txn, prev_lsn);
        self.fill(res, body)
    }

    /// LSN of the most recently reserved record ([`Lsn::NULL`] if empty).
    ///
    /// This is the paper's "global NSN" counter when NSNs are sourced from
    /// the log (§10.1).
    pub fn last_lsn(&self) -> Lsn {
        audit::atomic_load(self.hb_reserved, "wal-reserved-read");
        Lsn(self.reserved.load(Ordering::Acquire))
    }

    /// Contiguous published prefix: every record with LSN ≤ this has been
    /// filled. Only this prefix can become durable.
    pub fn filled_lsn(&self) -> Lsn {
        audit::atomic_load(self.hb_filled, "wal-filled-read");
        Lsn(self.filled.load(Ordering::Acquire))
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

    /// Advance the durable horizon to `min(lsn, filled)` *without* waking
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
        audit::atomic_load(self.hb_filled, "wal-filled-read");
        let target = lsn.0.min(self.filled.load(Ordering::Acquire));
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

    /// Force the entire filled prefix durable.
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

    /// Fetch the record with the given LSN, or `None` when `lsn` is null,
    /// beyond the end of the log (a corrupt backchain pointer), or a
    /// reserved-but-unfilled hole.
    pub fn try_get(&self, lsn: Lsn) -> Option<LogRecord> {
        if lsn.is_null() || lsn.0 > self.reserved.load(Ordering::Acquire) {
            return None;
        }
        self.cell_get(lsn.0)
    }

    /// Clone of every record with LSN ≥ `from` in LSN order, up to the
    /// filled watermark.
    pub fn scan_from(&self, from: Lsn) -> Vec<LogRecord> {
        let upto = self.filled.load(Ordering::Acquire);
        let start = from.0.max(1);
        let mut out = Vec::with_capacity(upto.saturating_sub(start - 1) as usize);
        for lsn in start..=upto {
            if let Some(rec) = self.cell_get(lsn) {
                out.push(rec);
            }
        }
        out
    }

    /// Number of contiguously published records currently in the log.
    pub fn len(&self) -> usize {
        self.filled.load(Ordering::Acquire) as usize
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Simulate a system crash: every record past the durable prefix is
    /// lost (including reserved-but-unfilled holes), exactly as if the
    /// machine died after its last `fsync`.
    ///
    /// Returns the number of reservations discarded.
    pub fn crash(&self) -> usize {
        let durable = self.durable.load(Ordering::Acquire);
        let lost = self.reserved.load(Ordering::Acquire).saturating_sub(durable);
        let keep: Vec<LogRecord> =
            (1..=durable).filter_map(|l| self.cell_get(l)).collect();
        debug_assert_eq!(keep.len() as u64, durable, "durable prefix must be contiguous");
        self.install_records(keep);
        self.filled.store(durable, Ordering::SeqCst);
        self.reserved.store(durable, Ordering::SeqCst);
        lost as usize
    }

    /// LSN of the most recent checkpoint record, if any.
    pub fn last_checkpoint(&self) -> Option<Lsn> {
        let upto = self.filled.load(Ordering::Acquire);
        (1..=upto)
            .rev()
            .find(|&l| {
                matches!(
                    self.cell_get(l).map(|r| r.body),
                    Some(RecordBody::Checkpoint { .. })
                )
            })
            .map(Lsn)
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
        let durable = self.durable.load(Ordering::Acquire);
        let mut buf = Vec::with_capacity(16 + durable as usize * 64);
        buf.extend_from_slice(WAL_MAGIC);
        for lsn in 1..=durable {
            let Some(rec) = self.cell_get(lsn) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("durable prefix has a hole at lsn {lsn}"),
                ));
            };
            let enc = codec::encode_record(&rec);
            buf.extend_from_slice(&(enc.len() as u32).to_le_bytes());
            buf.extend_from_slice(&gist_striped::stable_hash_bytes(&enc).to_le_bytes());
            buf.extend_from_slice(&enc);
        }
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
        let mut records = Vec::new();
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
            let recno = records.len() + 1;
            if gist_striped::stable_hash_bytes(body) != stored_sum {
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
            let expect = Lsn(records.len() as u64 + 1);
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
        report.loaded = records.len();
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

/// Snapshot of the reservation backpressure gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalBackpressureStats {
    /// Configured backlog high-watermark (`0` = gate disabled).
    pub limit: u64,
    /// Current in-flight backlog (`reserved − durable`).
    pub backlog: u64,
    /// Reservations that parked on the gate.
    pub parks: u64,
    /// Parks that expired and escalated to an inline flush.
    pub stalls: u64,
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

impl LogFlusher for LogManager {
    fn flush_until(&self, lsn: Lsn) {
        self.flush(lsn);
    }
}
