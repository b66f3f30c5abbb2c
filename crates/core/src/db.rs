//! The database façade: wires the buffer pool, WAL, lock manager,
//! predicate manager, transaction manager and page allocator together,
//! owns the index catalog, and implements the database-wide
//! [`RecoveryHandler`] for the Table 1 record set.
//!
//! One handler serves every index regardless of key type because all redo
//! and undo actions are byte/page-oriented (see [`crate::logrec`]); the
//! only "logical" part — locating a leaf entry that later splits moved
//! rightward (§9.2) — needs nothing but RID comparison and link walking.

use std::collections::HashSet;
use std::fmt;
use std::fs::{File, OpenOptions, TryLockError};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;

use gist_epoch::EpochGc;
use gist_lockmgr::LockManager;
use gist_overload::{AdmissionConfig, AdmissionController, AdmissionStats, HealthState};
use gist_maint::{MaintDaemon, MaintStatsSnapshot};
use gist_pagestore::{
    BufferPool, FileStore, HeapFile, PageAllocator, PageId, PageStore, PageWriteGuard, Rid,
    SlotId,
};
use gist_predlock::PredicateManager;
use gist_txn::{GcCandidate, SavepointId, TxnEndObserver, TxnManager};
use gist_wal::recovery::{RecoveryError, RecoveryHandler};
use gist_wal::{LogManager, LogRecord, Lsn, Payload, RecordBody, TxnId, WalTailReport};

use crate::entry::LeafEntry;
use crate::logrec::GistRecord;
use crate::{GistError, Result};

/// Where node sequence numbers come from (§10.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NsnSource {
    /// A dedicated tree-global counter, incremented per split. Must be
    /// recovered at restart (we rebuild it from the redo pass).
    DedicatedCounter,
    /// The paper's optimization: LSNs double as NSNs — the split's log
    /// record LSN becomes the node's new NSN, making the counter
    /// recoverable "without having to write any log records".
    WalLsn,
}

/// Transactional isolation degree for index operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationLevel {
    /// Degree 3 (§4): hybrid record + predicate locking; phantom-free.
    RepeatableRead,
    /// Degree 2 (cursor stability / read committed): writers still 2PL
    /// their record locks (so scans never see uncommitted inserts or
    /// deletes), but scans release each record's S lock as soon as the
    /// entry is delivered and attach no predicates — a re-scan may see
    /// phantoms. The paper targets Degree 3; this level exists because
    /// "the access method should support the degrees of transactional
    /// isolation offered by the query language of the DBMS" (§1).
    ReadCommitted,
    /// Latch-only operation: no record locks, no predicates. Structurally
    /// safe (the link protocol still applies) but no isolation — used by
    /// the protocol benchmarks to isolate concurrency-control costs.
    Latching,
}

/// Which phantom-avoidance mechanism scans/inserts use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateMode {
    /// §4.3: predicates attached to visited nodes; inserts check only
    /// their target leaf's list.
    Hybrid,
    /// §4.2 baseline: one tree-global predicate list, checked before any
    /// traversal.
    PureGlobal,
}

/// Database configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Buffer-pool frames.
    pub pool_capacity: usize,
    /// NSN source (§10.1).
    pub nsn_source: NsnSource,
    /// Isolation degree.
    pub isolation: IsolationLevel,
    /// Phantom-avoidance mechanism.
    pub predicate_mode: PredicateMode,
    /// With [`NsnSource::WalLsn`]: memorize the parent page's LSN instead
    /// of reading the log manager's counter when descending (§10.1's
    /// second optimization, which relieves the high-frequency counter).
    pub memorize_parent_lsn: bool,
    /// Maintenance-daemon tuning (deferred GC, drain, checkpoints).
    pub maint: gist_maint::MaintConfig,
    /// Admission control for transaction begins: at most
    /// [`AdmissionConfig::max_in_flight`] transactions run at once;
    /// [`Db::try_begin`] sheds with [`GistError::Overloaded`] after
    /// parking [`AdmissionConfig::admit_timeout`], while [`Db::begin`]
    /// barges past the cap after the same park (it cannot fail).
    /// `max_in_flight: 0` disables admission entirely.
    pub admission: AdmissionConfig,
}

/// Lock-wait timeout (safety net behind deadlock detection).
const LOCK_TIMEOUT: Duration = Duration::from_secs(10);

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            pool_capacity: 256,
            nsn_source: NsnSource::WalLsn,
            isolation: IsolationLevel::RepeatableRead,
            predicate_mode: PredicateMode::Hybrid,
            memorize_parent_lsn: true,
            maint: gist_maint::MaintConfig::default(),
            admission: AdmissionConfig::default(),
        }
    }
}

/// A catalog entry (one per index), stored as a cell on page 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Index id (database-unique).
    pub id: u32,
    /// Current root page.
    pub root: PageId,
    /// Whether the index enforces uniqueness (§8).
    pub unique: bool,
    /// Index name.
    pub name: String,
    /// Catalog-page slot holding this entry.
    pub slot: SlotId,
}

fn encode_catalog_cell(id: u32, root: PageId, unique: bool, name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + name.len());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&root.0.to_le_bytes());
    out.push(unique as u8);
    out.extend_from_slice(name.as_bytes());
    out
}

fn le_u32(b: &[u8]) -> u32 {
    let mut v = [0u8; 4];
    v.copy_from_slice(&b[..4]);
    u32::from_le_bytes(v)
}

fn decode_catalog_cell(slot: SlotId, cell: &[u8]) -> CatalogEntry {
    assert!(cell.len() >= 9, "catalog cell too short");
    CatalogEntry {
        id: le_u32(&cell[0..4]),
        root: PageId(le_u32(&cell[4..8])),
        unique: cell[8] != 0,
        name: String::from_utf8_lossy(&cell[9..]).into_owned(),
        slot,
    }
}

/// Summary of a completed restart.
#[derive(Debug)]
pub struct RestartReport {
    /// The WAL driver's redo/undo summary.
    pub outcome: gist_wal::recovery::RestartOutcome,
    /// Indexes found in the recovered catalog.
    pub indexes: usize,
    /// Pages on the rebuilt free list.
    pub free_pages: usize,
    /// Pages whose on-disk image failed its checksum (torn write) or was
    /// unreadable; they were quarantined — zeroed in the pool — and
    /// rebuilt by forcing the redo pass to repeat history from the log
    /// start.
    pub repaired_pages: Vec<PageId>,
    /// What loading the log file found at its end ([`Db::open_path`]
    /// only; `None` when the caller handed [`Db::restart`] a log).
    pub log_tail: Option<WalTailReport>,
}

/// The restart banner: `recovered: N indexes, N losers undone, N records
/// redone`, plus a second line when the log file's torn tail was dropped.
impl fmt::Display for RestartReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovered: {} indexes, {} losers undone, {} records redone",
            self.indexes,
            self.outcome.losers.len(),
            self.outcome.redo_applied
        )?;
        match self.log_tail {
            Some(t) if t.tail_truncated => write!(
                f,
                "\nlog tail: dropped {} bytes of a torn final record after record {}",
                t.dropped_bytes, t.loaded
            ),
            _ => Ok(()),
        }
    }
}

/// The files behind a database opened with [`Db::open_path`].
struct DbFiles {
    /// `<base>.wal`: [`Db::flush`] (which [`Db::shutdown`] calls) and
    /// [`Db::crash`] write the log's durable prefix here.
    wal: PathBuf,
    /// `<base>.pages`, opened once more to hold an exclusive lock for the
    /// database's lifetime (the lock goes with the handle).
    _lock: File,
}

fn with_ext(base: &Path, ext: &str) -> PathBuf {
    let mut path = base.as_os_str().to_owned();
    path.push(".");
    path.push(ext);
    PathBuf::from(path)
}

/// The database: all substrates plus the catalog.
pub struct Db {
    pool: Arc<BufferPool>,
    log: Arc<LogManager>,
    locks: Arc<LockManager>,
    preds: Arc<PredicateManager>,
    txns: Arc<TxnManager>,
    alloc: Arc<PageAllocator>,
    heap: HeapFile,
    /// The background maintenance daemon. Created with the database and
    /// fed by its end-of-transaction hook immediately, so GC candidates
    /// accumulate even before the worker thread is started; call
    /// [`Db::start_maint`] for background processing or
    /// [`Db::maint_sync`] to drain the queue deterministically.
    maint: Arc<MaintDaemon>,
    config: DbConfig,
    /// Tree-global counter for [`NsnSource::DedicatedCounter`]; mirrors
    /// the max observed NSN in [`NsnSource::WalLsn`] mode.
    nsn_counter: AtomicU64,
    /// gist-audit instance id for NSN-uniqueness tracking (0 when
    /// auditing is off).
    audit_nsn: u64,
    catalog: Mutex<Vec<CatalogEntry>>,
    /// Former roots (demoted by root splits in this incarnation). Node
    /// deletion skips them: an operation reads the catalog root pointer
    /// and then signal-locks it, and that window is not covered by the
    /// under-parent-latch locking discipline that protects every other
    /// node. Restart clears the set, which is safe: no operation survives
    /// a crash, so no stale root pointers exist afterwards.
    retired_roots: Mutex<HashSet<PageId>>,
    /// [`Db::run_txn`] retries performed (attempts beyond each first).
    retries: AtomicU64,
    /// Total microseconds [`Db::run_txn`] slept in backoff.
    backoff_micros: AtomicU64,
    /// Panics contained by [`Db::contained`] / [`Db::run_txn`].
    panics_contained: AtomicU64,
    /// Per-process state for deterministic backoff jitter.
    jitter_state: AtomicU64,
    /// Epoch-reclamation domain: optimistic traversals pin it; §7.2
    /// page frees and dropped-index frees retire through its bin.
    epoch: Arc<EpochGc>,
    /// Nodes served by a validated optimistic copy-out.
    opt_hits: AtomicU64,
    /// Seqlock validation failures that re-read a node optimistically.
    opt_retries: AtomicU64,
    /// Optimistic traversals that flipped to the latched access.
    opt_fallbacks: AtomicU64,
    /// Admission controller gating transaction begins (overload shed).
    admission: AdmissionController,
    /// [`Db::run_txn`] calls that exhausted their retry budget on a
    /// retryable error and surfaced it to the caller.
    retries_exhausted: AtomicU64,
    /// Set by [`Db::open_path`]: the log file and the page-file lock.
    files: OnceLock<DbFiles>,
}

/// Point-in-time snapshot of the database's degradation and self-healing
/// counters ([`Db::robustness_stats`]): how often operations had to be
/// retried, how long they backed off, how many worker panics were
/// contained, the lock manager's contention tallies, and whether the
/// buffer pool has degraded to read-only.
#[derive(Debug, Clone)]
pub struct RobustnessStats {
    /// [`Db::run_txn`] retry attempts (beyond each call's first try).
    pub txn_retries: u64,
    /// Total microseconds spent sleeping in retry backoff.
    pub backoff_micros: u64,
    /// Operation panics contained (transaction aborted, caller got
    /// [`GistError::Panicked`] instead of a dead thread).
    pub panics_contained: u64,
    /// Lock requests granted without waiting.
    pub lock_immediate_grants: u64,
    /// Lock requests that had to wait.
    pub lock_waits: u64,
    /// Deadlock victims selected by the detector.
    pub lock_deadlocks: u64,
    /// Lock waits that hit the timeout safety net.
    pub lock_timeouts: u64,
    /// Whether the buffer pool is poisoned (storage failed; read-only).
    pub pool_poisoned: bool,
    /// The poison reason, when poisoned.
    pub pool_poison_reason: Option<String>,
    /// Device syncs of the log (one sync covers every commit queued
    /// behind it).
    pub wal_batches_flushed: u64,
    /// Median commit wait for durability, in microseconds.
    pub commit_wait_p50_us: u64,
    /// 99th-percentile commit wait for durability, in microseconds.
    pub commit_wait_p99_us: u64,
    /// Log append watermark (last LSN).
    pub wal_append_lsn: u64,
    /// Log durable watermark; `wal_append_lsn - wal_durable_lsn` is the
    /// volatile tail a crash right now would lose.
    pub wal_durable_lsn: u64,
    /// Nodes served by a validated optimistic copy-out.
    pub opt_read_hits: u64,
    /// Seqlock validation failures that re-read the same node
    /// optimistically (a concurrent writer touched the frame mid-copy,
    /// or evicted it).
    pub opt_read_retries: u64,
    /// Optimistic traversals whose node kept moving past the retry
    /// budget and that restarted from the root latched (delivered rows
    /// kept).
    pub opt_read_fallbacks: u64,
    /// Epochs the oldest live pin trails the global epoch by (0 =
    /// nothing is holding reclamation back).
    pub epoch_lag: u64,
    /// Deferred §7.2 page frees waiting in the epoch bin.
    pub epoch_pending: u64,
    /// [`Db::run_txn`] calls that exhausted their retry budget on a
    /// retryable error (the caller got the last underlying failure).
    pub retries_exhausted: u64,
    /// Admission-controller counters ([`Db::try_begin`] sheds,
    /// [`Db::begin`] forced admissions, parked begins).
    pub admission: AdmissionStats,
    /// Always 0: WAL appends never park. Kept only because the
    /// benchmark's `wal.backpressure_parks` row reads it.
    pub wal_bp_parks: u64,
    /// Always 0: WAL appends never sync. Kept only because the
    /// benchmark's `wal.backpressure_stalls` row reads it.
    pub wal_bp_stalls: u64,
    /// Always 0: the epoch domain has no stall detector. Kept only
    /// because the benchmark's `epoch.stalls` row reads it.
    pub epoch_stalls: u64,
    /// Always 0: the epoch is never forced forward. Kept only because
    /// the benchmark's `epoch.forced_advances` row reads it.
    pub epoch_forced_advances: u64,
    /// The aggregate health verdict ([`Db::health`]).
    pub health: HealthState,
}

impl Db {
    /// Open a database over `store` and `log`. A store with no pages is
    /// bootstrapped (catalog page created and flushed); otherwise the
    /// catalog and free list are loaded from the store. Use
    /// [`Db::restart`] instead when the previous incarnation crashed.
    pub fn open(
        store: Arc<dyn PageStore>,
        log: Arc<LogManager>,
        config: DbConfig,
    ) -> Result<Arc<Db>> {
        let db = Self::build(store, log, config)?;
        db.load_catalog()?;
        db.alloc.rebuild_from_store(&db.pool, 1)?;
        Ok(db)
    }

    fn build(
        store: Arc<dyn PageStore>,
        log: Arc<LogManager>,
        config: DbConfig,
    ) -> Result<Arc<Db>> {
        let locks = Arc::new(LockManager::with_timeout(LOCK_TIMEOUT));
        let preds = Arc::new(PredicateManager::new());
        let txns = Arc::new(TxnManager::new(log.clone(), locks.clone(), preds.clone()));
        let pool = BufferPool::new(store.clone(), config.pool_capacity);
        // WAL-before-data: a page write-back syncs the log through its
        // page LSN first, riding any sync a committer already has in
        // flight.
        pool.set_log(log.clone());
        // One reclamation domain per database: §7.2 page frees defer
        // behind the optimistic readers' pins.
        let epoch = Arc::new(EpochGc::new());
        if store.page_count() == 0 {
            // Bootstrap the catalog page and make it durable immediately
            // so redo can always assume a formatted page 0.
            let mut g = pool.new_page_write(PageId(0), 0)?;
            g.mark_dirty_unlogged();
            drop(g);
            pool.flush_all()?;
            pool.sync_store()?;
        }
        let alloc = Arc::new(PageAllocator::new(1));
        let heap = HeapFile::new(pool.clone(), alloc.clone());
        let maint =
            MaintDaemon::new(txns.clone(), pool.clone(), log.clone(), config.maint.clone());
        let admission = AdmissionController::new(config.admission.clone());
        let db = Arc::new(Db {
            pool,
            log,
            locks,
            preds,
            txns,
            alloc,
            heap,
            maint,
            config,
            nsn_counter: AtomicU64::new(0),
            audit_nsn: gist_audit::new_instance_id(),
            catalog: Mutex::new(Vec::new()),
            retired_roots: Mutex::new(HashSet::new()),
            retries: AtomicU64::new(0),
            backoff_micros: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
            jitter_state: AtomicU64::new(0x1234_5678_9ABC_DEF0),
            epoch,
            opt_hits: AtomicU64::new(0),
            opt_retries: AtomicU64::new(0),
            opt_fallbacks: AtomicU64::new(0),
            admission,
            retries_exhausted: AtomicU64::new(0),
            files: OnceLock::new(),
        });
        // Admission credits and GC hand-off ride the transaction's
        // lifetime exactly: the end observer fires once per
        // transaction-table removal (commit or abort), so a credit can
        // never outlive its transaction or leak on any exit path. Weak
        // so the manager does not keep the database alive.
        let observer: std::sync::Weak<dyn TxnEndObserver> = Arc::downgrade(&db) as _;
        db.txns.set_end_observer(observer);
        Ok(db)
    }

    /// Open the database stored at `base`: pages in `<base>.pages`, the
    /// log in `<base>.wal`. Until the log is written as it grows, the log
    /// file is the durable prefix written by [`Db::flush`] (which
    /// [`Db::shutdown`] calls) or [`Db::crash`].
    ///
    /// - A log file exists: load it and [`Db::restart`]; the report is
    ///   returned.
    /// - No log, and the page file is missing or empty: a new database.
    /// - No log, but the page file has pages: refused. A session died
    ///   without writing its log, and opening its pages as a new
    ///   database would lose what they hold.
    ///
    /// The page file stays exclusively locked while the database lives;
    /// a second opener, in this process or another, is refused.
    pub fn open_path(
        base: impl AsRef<Path>,
        config: DbConfig,
    ) -> Result<(Arc<Db>, Option<RestartReport>)> {
        let base = base.as_ref();
        let pages = with_ext(base, "pages");
        let wal = with_ext(base, "wal");
        let lock =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&pages)?;
        lock.try_lock().map_err(|e| match e {
            TryLockError::WouldBlock => io::Error::new(
                io::ErrorKind::WouldBlock,
                format!("{} is locked: the database is open elsewhere", pages.display()),
            ),
            TryLockError::Error(e) => e,
        })?;
        let store = Arc::new(FileStore::open(&pages)?);
        let (db, report) = if wal.exists() {
            let (log, tail) = LogManager::load_file_report(&wal)?;
            let (db, mut report) = Db::restart(store, Arc::new(log), config)?;
            report.log_tail = Some(tail);
            (db, Some(report))
        } else if store.page_count() == 0 {
            (Db::open(store, Arc::new(LogManager::new()), config)?, None)
        } else {
            return Err(GistError::Recovery(format!(
                "{} holds {} pages but {} is missing: the last session ended \
                 without writing its log; refusing to open it as a new database",
                pages.display(),
                store.page_count(),
                wal.display()
            )));
        };
        db.files
            .set(DbFiles { wal, _lock: lock })
            .unwrap_or_else(|_| unreachable!("unset until now: `db` was built just above"));
        Ok((db, report))
    }

    /// Restart after a crash: run analysis/redo/undo over the durable
    /// log, then rebuild the free list and catalog. Refused when a page
    /// on disk carries an LSN past the log's end (the log is older than
    /// the pages, so recovering with it would corrupt them).
    pub fn restart(
        store: Arc<dyn PageStore>,
        log: Arc<LogManager>,
        config: DbConfig,
    ) -> Result<(Arc<Db>, RestartReport)> {
        let db = Self::build(store, log, config)?;
        // Torn-page repair (checksum self-healing): scan the store for
        // pages whose image fails its checksum — a write torn by the
        // crash — or cannot be read at all, and quarantine each as a
        // zeroed dirty frame with page LSN 0. Since the log is never
        // truncated, redo can rebuild them from scratch; the floor forces
        // the pass to repeat all of history, and page-LSN idempotence
        // keeps the wider scan free for every healthy page. The same pass
        // refuses a page that is ahead of the log.
        let repaired_pages = db.pool.quarantine_torn_pages(db.log.last_lsn())?;
        let floor = if repaired_pages.is_empty() { Lsn(u64::MAX) } else { Lsn(1) };
        let outcome = gist_wal::recovery::restart_with_floor(&db.log, db.as_ref(), floor)
            .map_err(|e| GistError::Recovery(e.0))?;
        db.alloc.rebuild_from_store(&db.pool, 1)?;
        db.load_catalog()?;
        // In WalLsn mode the counter is implicitly recovered (it *is* the
        // LSN); in DedicatedCounter mode redo tracked the max split NSN.
        if db.config.nsn_source == NsnSource::WalLsn {
            db.nsn_counter.store(db.log.last_lsn().0, Ordering::SeqCst);
        }
        let report = RestartReport {
            outcome,
            indexes: db.catalog.lock().len(),
            free_pages: db.alloc.free_count(),
            repaired_pages,
            log_tail: None,
        };
        Ok((db, report))
    }

    fn load_catalog(&self) -> Result<()> {
        let g = self.pool.fetch_read(PageId(0))?;
        let mut cat = self.catalog.lock();
        cat.clear();
        for (slot, cell) in g.iter_cells() {
            cat.push(decode_catalog_cell(slot, cell));
        }
        Ok(())
    }

    // ---- accessors ----

    /// The buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The write-ahead log.
    pub fn log(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// The lock manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The predicate manager.
    pub fn preds(&self) -> &Arc<PredicateManager> {
        &self.preds
    }

    /// The transaction manager.
    pub fn txns(&self) -> &Arc<TxnManager> {
        &self.txns
    }

    /// The page allocator.
    pub fn alloc(&self) -> &Arc<PageAllocator> {
        &self.alloc
    }

    /// The unlogged heap file for data records.
    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// The maintenance daemon.
    pub fn maint(&self) -> &Arc<MaintDaemon> {
        &self.maint
    }

    /// The epoch-reclamation domain optimistic readers pin.
    pub fn epoch(&self) -> &Arc<EpochGc> {
        &self.epoch
    }

    pub(crate) fn note_opt_hits(&self, n: u64) {
        self.opt_hits.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_opt_retry(&self) {
        self.opt_retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_opt_fallback(&self) {
        self.opt_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Spawn the maintenance daemon's worker thread (idempotent). Until
    /// this is called (or [`Db::maint_sync`] is driven by hand), queued
    /// work — post-commit GC and drains — just accumulates, one item per
    /// leaf. Fails only if the worker thread cannot be spawned.
    pub fn start_maint(&self) -> Result<()> {
        self.maint.start()?;
        Ok(())
    }

    /// Synchronously process every queued maintenance item on the
    /// calling thread — the deterministic escape hatch for tests and
    /// single-threaded tools. Returns the number of items processed.
    pub fn maint_sync(&self) -> usize {
        let n = self.maint.run_until_idle();
        // Drain whatever the epoch bin can prove quiescent, so tests
        // driving maintenance by hand observe deterministic reuse.
        self.epoch.try_collect();
        n
    }

    /// A snapshot of the maintenance counters.
    pub fn maint_stats(&self) -> MaintStatsSnapshot {
        self.maint.stats.snapshot()
    }

    /// Write a fuzzy checkpoint now (§9-style: capture the log position,
    /// then the dirty-page table, then the active-transaction table —
    /// nothing is quiesced). Restart's analysis pass will begin at the
    /// captured position instead of the log start, and redo at the
    /// oldest recLSN in the captured dirty-page table. Returns the
    /// checkpoint record's LSN.
    ///
    /// The capture syncs the store first (the lost-write barrier — see
    /// `MaintDaemon::checkpoint_now`), so this fails if the device does:
    /// a checkpoint that cannot vouch for its dirty-page table is not
    /// written.
    pub fn checkpoint(&self) -> Result<Lsn> {
        Ok(self.maint.checkpoint_now()?)
    }

    /// The configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    // ---- transactions ----

    /// Begin a transaction; its commit will be forced.
    ///
    /// Infallible by contract, so under admission pressure it parks up
    /// to the admit timeout and then *barges* past the cap (counted in
    /// [`AdmissionStats::forced`]). Callers that can shed — batch jobs,
    /// retry loops — should prefer [`Db::try_begin`].
    pub fn begin(&self) -> TxnId {
        self.admission.force_admit();
        let txn = self.txns.begin();
        self.admission.bind(txn.0);
        txn
    }

    /// Begin a transaction, or shed with [`GistError::Overloaded`] if
    /// the admission controller is at capacity and no credit frees up
    /// within the configured admit timeout. Nothing is started on the
    /// shed path, so backing off and retrying is always safe —
    /// [`Db::run_txn`] does exactly that.
    pub fn try_begin(&self) -> Result<TxnId> {
        if !self.admission.try_admit() {
            return Err(GistError::Overloaded);
        }
        let txn = self.txns.begin();
        self.admission.bind(txn.0);
        Ok(txn)
    }

    /// The admission controller gating [`Db::begin`]/[`Db::try_begin`].
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Commit a transaction (forces the log, releases predicates and
    /// locks).
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        self.txns.commit(txn)?;
        Ok(())
    }

    /// Abort a transaction (logical undo through the database recovery
    /// handler).
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        self.txns.abort(txn, self)?;
        Ok(())
    }

    /// Abort a *session-owned* transaction during connection teardown
    /// (the serving layer's funnel). Identical to [`Db::abort`] except
    /// that the already-gone shape — a racing commit completed, the
    /// drain sweep got there first — is absorbed as success: teardown
    /// must be idempotent because the session thread and the drain sweep
    /// can both observe the same dying connection. Resources still release exactly once regardless of
    /// who wins: every ending funnels through the transaction table's
    /// single removal and its [`TxnEndObserver`] notification.
    pub fn end_session_txn(&self, txn: TxnId) -> Result<()> {
        match self.abort(txn) {
            Err(GistError::Txn(gist_txn::TxnError::NotActive(_))) => Ok(()),
            other => other,
        }
    }

    /// Run `f` against its own transaction, retrying on retryable
    /// failures ([`GistError::is_retryable`]: deadlock victim, lock
    /// timeout, admission shed) with bounded exponential backoff plus
    /// jitter. Each attempt gets a fresh transaction; the previous one is
    /// aborted before the retry, so no hand-written retry loop is ever
    /// needed at call sites. Panics inside `f` are contained (see
    /// [`Db::contained`]) and surface as [`GistError::Panicked`] —
    /// not retried, since a panic is a bug, not contention.
    ///
    /// `f` must be idempotent across attempts (standard optimistic-retry
    /// contract): everything it did in a failed attempt is rolled back
    /// before the next one starts.
    ///
    /// A transaction `run_txn` could not end is never left behind
    /// silently: when the `abort` after a failed attempt fails too (after
    /// a failed commit, that abort completes a commit whose record is in
    /// the log), it returns [`GistError::TxnUnfinished`] without
    /// retrying. The caller ends that transaction with [`Db::abort`] on
    /// the id the error names.
    pub fn run_txn<T>(&self, f: impl Fn(TxnId) -> Result<T>) -> Result<T> {
        const MAX_ATTEMPTS: u32 = 10;
        let mut backoff = Duration::from_millis(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            // Fallible begin: under overload the shed happens here, before
            // any work — the backoff below then doubles as admission
            // throttling (no transaction to abort on this path).
            let txn = match self.try_begin() {
                Ok(txn) => txn,
                Err(err) => {
                    if !err.is_retryable() || attempt >= MAX_ATTEMPTS {
                        if err.is_retryable() {
                            self.retries_exhausted.fetch_add(1, Ordering::Relaxed);
                        }
                        return Err(err);
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff_sleep(&mut backoff);
                    continue;
                }
            };
            // A failed attempt or commit leaves the transaction for us to
            // end. `contained` already aborted on panic (aborting an ended
            // transaction is an ignorable NotActive), and its
            // `TxnUnfinished` already says that abort failed. So does
            // ours: that error is not retryable and ends the loop.
            let err = match self.contained(txn, || f(txn)) {
                Ok(v) => match self.commit(txn) {
                    Ok(()) => return Ok(v),
                    Err(e) => self.end_failed(txn, e),
                },
                Err(e @ GistError::TxnUnfinished { .. }) => return Err(e),
                Err(e) => self.end_failed(txn, e),
            };
            if !err.is_retryable() || attempt >= MAX_ATTEMPTS {
                if err.is_retryable() {
                    // Budget exhausted on a contention-class error: the
                    // caller sees the last underlying failure, and the
                    // counter lets operators tell "slow" from "losing".
                    self.retries_exhausted.fetch_add(1, Ordering::Relaxed);
                }
                return Err(err);
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            self.backoff_sleep(&mut backoff);
        }
    }

    /// One jittered backoff step for [`Db::run_txn`]: sleep a
    /// uniformly-drawn slice of the current window (full jitter over a
    /// deterministic xorshift stream, so colliding retriers spread out
    /// instead of thundering back in lockstep), then double the window.
    fn backoff_sleep(&self, backoff: &mut Duration) {
        const MAX_BACKOFF: Duration = Duration::from_millis(64);
        let mut x = self.jitter_state.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        let span = backoff.as_micros().max(1) as u64;
        let wait = Duration::from_micros(span / 2 + x % (span / 2 + 1));
        self.backoff_micros.fetch_add(wait.as_micros() as u64, Ordering::Relaxed);
        std::thread::sleep(wait);
        *backoff = (*backoff * 2).min(MAX_BACKOFF);
    }

    /// Run `f` with panic containment: a panic unwinding out of `f` is
    /// caught, the unwind's shadow-state hygiene is checked (audit rule
    /// `unwind-residue` — RAII must have released every latch and
    /// scope), `txn` is aborted (its [`OpGuard`] poisoning
    /// already marked it must-abort, and every page latch was released
    /// by RAII during the unwind, so logical undo runs cleanly), and the
    /// caller gets [`GistError::Panicked`]. One dead operation therefore
    /// never wedges peer threads: its latches, locks and predicates are
    /// all gone by the time this returns — unless that abort fails, when
    /// the caller gets [`GistError::TxnUnfinished`] naming `txn`, which
    /// is still open and must be aborted again.
    ///
    /// [`OpGuard`]: gist_txn::OpGuard
    pub fn contained<T>(&self, txn: TxnId, f: impl FnOnce() -> Result<T>) -> Result<T> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => r,
            Err(payload) => {
                self.panics_contained.fetch_add(1, Ordering::Relaxed);
                gist_audit::assert_unwind_clear("Db::contained after operation panic");
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(self.end_failed(txn, GistError::Panicked(msg)))
            }
        }
    }

    /// End `txn` after `err` failed it. The `abort` rolls it back, or,
    /// when `err` is a failed commit whose record reached the log (a
    /// lost acknowledgement), completes that commit. Returns `err`, or
    /// [`GistError::TxnUnfinished`] when the abort failed and left `txn`
    /// open with its locks held.
    fn end_failed(&self, txn: TxnId, err: GistError) -> GistError {
        match self.abort(txn) {
            Err(cause) if self.txns.is_active(txn) => {
                GistError::TxnUnfinished { txn, cause: Box::new(cause) }
            }
            _ => err,
        }
    }

    /// Snapshot the robustness counters: retry/backoff behavior of
    /// [`Db::run_txn`], contained panics, lock-manager contention, and
    /// buffer-pool poison state.
    pub fn robustness_stats(&self) -> RobustnessStats {
        let ls = &self.locks.stats;
        let ps = self.txns.pipeline().stats();
        let es = self.epoch.stats();
        RobustnessStats {
            txn_retries: self.retries.load(Ordering::Relaxed),
            backoff_micros: self.backoff_micros.load(Ordering::Relaxed),
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
            lock_immediate_grants: ls.immediate_grants.load(Ordering::Relaxed),
            lock_waits: ls.waits.load(Ordering::Relaxed),
            lock_deadlocks: ls.deadlocks.load(Ordering::Relaxed),
            lock_timeouts: ls.timeouts.load(Ordering::Relaxed),
            pool_poisoned: self.pool.is_poisoned(),
            pool_poison_reason: self.pool.poison_error().map(|e| e.to_string()),
            wal_batches_flushed: ps.batches_flushed,
            commit_wait_p50_us: ps.commit_wait_p50_us,
            commit_wait_p99_us: ps.commit_wait_p99_us,
            wal_append_lsn: self.log.last_lsn().0,
            wal_durable_lsn: self.log.flushed_lsn().0,
            opt_read_hits: self.opt_hits.load(Ordering::Relaxed),
            opt_read_retries: self.opt_retries.load(Ordering::Relaxed),
            opt_read_fallbacks: self.opt_fallbacks.load(Ordering::Relaxed),
            epoch_lag: es.epoch_lag,
            epoch_pending: es.pending,
            retries_exhausted: self.retries_exhausted.load(Ordering::Relaxed),
            admission: self.admission.stats(),
            wal_bp_parks: 0,
            wal_bp_stalls: 0,
            epoch_stalls: 0,
            epoch_forced_advances: 0,
            health: self.health(),
        }
    }

    /// The database's aggregate health verdict, computed from current
    /// conditions (no latched state — safe to poll): `ReadOnly` when the
    /// buffer pool is poisoned, otherwise `Degraded` while admission is
    /// at capacity, otherwise `Healthy`. Saturation clears itself, so the
    /// verdict recovers as soon as the load does.
    pub fn health(&self) -> HealthState {
        if self.pool.is_poisoned() {
            let why = self
                .pool
                .poison_error()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "unknown storage failure".into());
            HealthState::ReadOnly { reasons: vec![format!("buffer pool poisoned: {why}")] }
        } else if self.admission.is_saturated() {
            HealthState::Degraded {
                reasons: vec!["admission controller saturated; begins park or shed".into()],
            }
        } else {
            HealthState::Healthy
        }
    }

    /// Establish a savepoint (§10.2).
    pub fn savepoint(&self, txn: TxnId) -> Result<SavepointId> {
        Ok(self.txns.savepoint(txn)?)
    }

    /// Partial rollback to a savepoint.
    pub fn rollback_to_savepoint(&self, txn: TxnId, sp: SavepointId) -> Result<()> {
        self.txns.rollback_to_savepoint(txn, sp, self)?;
        Ok(())
    }

    /// Simulate a crash: the buffer pool drops every unflushed page and
    /// the log loses its non-durable suffix and refuses to sync until
    /// restart, so a thread of this incarnation still committing makes
    /// nothing durable. Reopen with [`Db::restart`]
    /// (or [`Db::open_path`], after which the durable prefix is written to
    /// the log file here).
    ///
    /// The maintenance worker is stopped first — *without* draining
    /// the queue (a crash abandons pending work; recovery and later
    /// sweeps make it up) — because the pool's crash asserts that no
    /// page is pinned.
    pub fn crash(&self) {
        self.maint.stop(false);
        self.pool.crash();
        self.log.crash();
        if let Err(e) = self.persist_log() {
            // A crash has no caller to fail; what the file lacks now is
            // what restart will not find.
            eprintln!("crash: writing the log file failed: {e}");
        }
        // A crash implies quiescence (the pool just asserted it), so the
        // epoch bin can drain — deferred page frees are moot (the
        // allocator is rebuilt at restart anyway).
        self.epoch.try_collect();
    }

    /// Make everything logged so far durable and write every dirty page
    /// back, leaving the database running: the whole log with one sync,
    /// then the log file (a database opened with
    /// [`Db::open_path`]) before the pages, WAL-before-data on disk. The
    /// final store sync is what upgrades "written back" to "durable";
    /// its failure is reported rather than swallowed.
    pub fn flush(&self) -> Result<()> {
        self.log.sync_to(self.log.last_lsn()).map_err(gist_txn::TxnError::from)?;
        self.persist_log()?;
        self.pool.flush_all()?;
        self.pool.sync_store()?;
        Ok(())
    }

    /// Clean shutdown: drain the maintenance queue (queued GC/drain work
    /// completes and its log records land, so a clean restart owes
    /// nothing), then [`Db::flush`]. A failed flush is returned and the
    /// database stays up.
    pub fn shutdown(&self) -> Result<()> {
        self.maint.stop(true);
        self.flush()?;
        self.epoch.try_collect();
        Ok(())
    }

    /// Write the log's durable prefix to the log file, if there is one.
    /// ROADMAP item 1(b) takes this over with one append-only file that
    /// `LogManager::sync_to` writes and syncs as it makes each prefix
    /// durable.
    fn persist_log(&self) -> Result<()> {
        match self.files.get() {
            Some(files) => Ok(self.log.persist_file(&files.wal)?),
            None => Ok(()),
        }
    }

    // ---- NSN management (§10.1) ----

    /// Read the tree-global counter ("memorize the global counter value").
    pub fn global_nsn(&self) -> u64 {
        match self.config.nsn_source {
            NsnSource::DedicatedCounter => self.nsn_counter.load(Ordering::SeqCst),
            NsnSource::WalLsn => self.log.last_lsn().0,
        }
    }

    /// The NSN a split assigns to the original node. In `WalLsn` mode it
    /// is the split record's LSN; in `DedicatedCounter` mode the counter
    /// is incremented.
    pub fn split_nsn(&self, split_record_lsn: Lsn) -> u64 {
        let nsn = match self.config.nsn_source {
            NsnSource::DedicatedCounter => self.nsn_counter.fetch_add(1, Ordering::SeqCst) + 1,
            NsnSource::WalLsn => split_record_lsn.0,
        };
        // Every NSN handed to a split must be unique for this tree: a
        // reissued value would defeat the memorized-counter split check.
        gist_audit::nsn_drawn(self.audit_nsn, nsn);
        nsn
    }

    // ---- catalog ----

    /// Create an index: allocates and formats its root leaf and adds the
    /// catalog entry, as one atomic unit of work under a short system
    /// transaction. The name check, the id, the catalog slot, the
    /// catalog cell and the cached entry are one step under page 0's X
    /// latch, so concurrent creates get distinct ids and slots.
    ///
    /// A failed commit ends the transaction as in [`Db::run_txn`]: the
    /// abort completes a commit whose record reached the log, and
    /// otherwise ends the transaction around the unit, which as a nested
    /// top action survives it. The commit's error is returned either way,
    /// or [`GistError::TxnUnfinished`] if that abort failed too.
    pub fn create_index_raw(&self, name: &str, unique: bool) -> Result<CatalogEntry> {
        let txn = self.begin();
        let nta = self.txns.begin_nta(txn)?;
        let root = self.alloc.allocate();
        // Get-Page: format the root as an empty leaf (empty BP = covers
        // nothing).
        let get = GistRecord::GetPage { page: root.0, level: 0, bp: Vec::new() };
        self.log_apply(txn, &get, &mut [&mut self.pool.new_page_write(root, 0)?])?;
        let mut cat_g = self.pool.fetch_write(PageId(0))?;
        let mut cat = self.catalog.lock();
        if cat.iter().any(|e| e.name == name) {
            drop((cat, cat_g));
            self.abort(txn)?;
            self.alloc.free(root);
            return Err(GistError::Config(format!("index {name:?} already exists")));
        }
        let id = cat.iter().map(|e| e.id).max().unwrap_or(0) + 1;
        let slot = cat_g.next_insert_slot();
        let cell = encode_catalog_cell(id, root, unique, name);
        self.log_apply(txn, &GistRecord::CatalogAdd { slot, cell }, &mut [&mut cat_g])?;
        let entry = CatalogEntry { id, root, unique, name: name.to_string(), slot };
        cat.push(entry.clone());
        drop((cat, cat_g));
        self.txns.end_nta(txn, nta)?;
        self.commit(txn).map_err(|e| self.end_failed(txn, e))?;
        Ok(entry)
    }

    /// Look up an index by name.
    pub fn open_index_raw(&self, name: &str) -> Option<CatalogEntry> {
        self.catalog.lock().iter().find(|e| e.name == name).cloned()
    }

    /// Names of every cataloged index (serving-layer re-registration
    /// after restart).
    pub fn catalog_names(&self) -> Vec<String> {
        self.catalog.lock().iter().map(|e| e.name.clone()).collect()
    }

    /// One human-readable line per cataloged index.
    pub fn catalog_summary(&self) -> Vec<String> {
        self.catalog
            .lock()
            .iter()
            .map(|e| {
                format!(
                    "{} (id {}, root {}{})",
                    e.name,
                    e.id,
                    e.root,
                    if e.unique { ", unique" } else { "" }
                )
            })
            .collect()
    }

    /// Drop an index: remove its catalog entry and free every page of
    /// its tree, as one atomic unit of work under a short system
    /// transaction. The caller must guarantee no concurrent operations
    /// use the index (DDL is serialized above the index layer in a real
    /// DBMS). Returns the number of pages freed.
    ///
    /// A failed commit ends the transaction as in
    /// [`Db::create_index_raw`]. The cached catalog entry goes and the
    /// pages return to the allocator once the transaction has ended, when
    /// the drop stands; a transaction left open
    /// ([`GistError::TxnUnfinished`]) leaves them as they were.
    pub fn drop_index_raw(&self, name: &str) -> Result<usize> {
        let entry = self
            .open_index_raw(name)
            .ok_or_else(|| GistError::Config(format!("no index named {name:?}")))?;
        // Collect every page of the tree (entries + rightlinks).
        let mut pages = Vec::new();
        let mut queue = vec![entry.root];
        let mut seen = HashSet::new();
        while let Some(pid) = queue.pop() {
            if pid.is_invalid() || !seen.insert(pid) {
                continue;
            }
            let g = self.pool.fetch_read(pid)?;
            if g.is_available() {
                continue; // dangling rightlink into an already-freed page
            }
            pages.push(pid);
            queue.push(g.rightlink());
            if !g.is_leaf() {
                for (_, cell) in g.iter_cells().filter(|(s, _)| *s != 0) {
                    queue.push(crate::entry::InternalEntry::decode_child(cell));
                }
            }
        }
        let txn = self.begin();
        let nta = self.txns.begin_nta(txn)?;
        // Undoable catalog removal first (InternalEntryDelete on page 0),
        // then the page frees — all inside one unit, so a crash midway
        // rolls the whole drop back.
        {
            let mut cat_g = self.pool.fetch_write(PageId(0))?;
            let cell = cat_g
                .cell(entry.slot)
                .ok_or_else(|| GistError::Corrupt("catalog cell vanished".into()))?
                .to_vec();
            let rec = GistRecord::InternalEntryDelete { page: 0, slot: entry.slot, cell };
            self.log_apply(txn, &rec, &mut [&mut cat_g])?;
        }
        for pid in &pages {
            let rec = GistRecord::FreePage { page: pid.0 };
            self.log_apply(txn, &rec, &mut [&mut self.pool.fetch_write(*pid)?])?;
        }
        self.txns.end_nta(txn, nta)?;
        let ended = self.commit(txn).map_err(|e| self.end_failed(txn, e));
        if let Err(e @ GistError::TxnUnfinished { .. }) = ended {
            return Err(e);
        }
        self.catalog.lock().retain(|e| e.slot != entry.slot);
        self.retired_roots.lock().remove(&entry.root);
        // The dropped index's pages go back to the allocator through the
        // epoch bin: an optimistic traversal that raced the drop may
        // still dereference them until its pin drains.
        let alloc = self.alloc.clone();
        let freed: Vec<PageId> = pages.clone();
        self.epoch.retire(move || {
            for pid in freed {
                alloc.free(pid);
            }
        });
        ended.map(|()| pages.len())
    }

    /// Current root of an index, reading through the catalog page (kept
    /// in the buffer pool, so this is cheap). Reading the durable cell —
    /// not a cached field — is what makes a concurrently executed root
    /// split visible.
    pub fn current_root(&self, entry_slot: SlotId) -> Result<PageId> {
        let g = self.pool.fetch_read(PageId(0))?;
        let cell = g
            .cell(entry_slot)
            .ok_or_else(|| GistError::Corrupt(format!("catalog slot {entry_slot} missing")))?;
        Ok(decode_catalog_cell(entry_slot, cell).root)
    }

    /// Update an index's root pointer (inside the caller's root-split
    /// NTA). Logs the catalog cell update and applies it.
    pub fn set_root(&self, txn: TxnId, entry_slot: SlotId, new_root: PageId) -> Result<()> {
        {
            let mut g = self.pool.fetch_write(PageId(0))?;
            let old_cell = g
                .cell(entry_slot)
                .ok_or_else(|| GistError::Corrupt(format!("catalog slot {entry_slot} missing")))?
                .to_vec();
            let e = decode_catalog_cell(entry_slot, &old_cell);
            let new_cell = encode_catalog_cell(e.id, new_root, e.unique, &e.name);
            let rec =
                GistRecord::InternalEntryUpdate { page: 0, slot: entry_slot, new_cell, old_cell };
            self.log_apply(txn, &rec, &mut [&mut g])?;
        }
        // Refresh the cache and remember the demoted root.
        let mut cat = self.catalog.lock();
        if let Some(e) = cat.iter_mut().find(|e| e.slot == entry_slot) {
            self.retired_roots.lock().insert(e.root);
            e.root = new_root;
        }
        Ok(())
    }

    /// Log `rec` for `txn` and apply it to `pages`, the X-latched guards
    /// of every page it names. Returns the record's LSN.
    pub(crate) fn log_apply(
        &self,
        txn: TxnId,
        rec: &GistRecord,
        pages: &mut [&mut PageWriteGuard],
    ) -> Result<Lsn> {
        debug_assert_eq!(pages.len(), rec.pages().len(), "{rec:?}");
        let lsn = self.txns.log_update(txn, RecordBody::Payload(rec.to_payload()))?;
        for g in pages {
            rec.apply(g, lsn)?;
        }
        Ok(lsn)
    }

    /// Revert `rec` inside a failed atomic unit of work, under the
    /// latches the unit still holds: log its compensation as a CLR whose
    /// rollback resumes at `undo_next` (the unit's start) and apply it to
    /// `pages`, the guards of every page the compensation names.
    pub(crate) fn compensate(
        &self,
        txn: TxnId,
        undo_next: Lsn,
        rec: &GistRecord,
        pages: &mut [&mut PageWriteGuard],
    ) -> Result<()> {
        let Some(clr) = rec.compensation() else {
            return Ok(());
        };
        debug_assert_eq!(pages.len(), clr.pages().len(), "{clr:?}");
        let lsn = self.txns.log_compensation(txn, undo_next, clr.to_payload())?;
        for g in pages {
            clr.apply(g, lsn)?;
        }
        Ok(())
    }

    /// Whether `page` is a current or former root (node deletion must
    /// leave such pages alone; see `retired_roots`).
    pub fn is_protected_root(&self, page: PageId) -> bool {
        self.catalog.lock().iter().any(|e| e.root == page)
            || self.retired_roots.lock().contains(&page)
    }

    // ---- logical-undo support ----

    /// Locate the leaf entry with data RID `rid`, starting from the page
    /// it was logged on and compensating for later splits by walking
    /// rightlinks (§9.2: "between the time the index operation was
    /// performed and the time the transaction is aborted, the tree
    /// structure could have changed … the relevant entries may be moved
    /// rightward"). Falls back to a breadth-first sweep when the start
    /// page is no longer a leaf (root split moved the level down).
    /// Applies `apply` under the found page's X latch.
    fn locate_and_apply(
        &self,
        start: PageId,
        rid: Rid,
        apply: impl FnOnce(&mut PageWriteGuard, SlotId) -> Result<()>,
    ) -> std::result::Result<(), RecoveryError> {
        let mut queue = vec![start];
        let mut visited: HashSet<PageId> = HashSet::new();
        while let Some(pid) = queue.pop() {
            if pid.is_invalid() || !visited.insert(pid) {
                continue;
            }
            let mut g = self
                .pool
                .fetch_write(pid)
                .map_err(|e| RecoveryError(format!("fetch {pid} for undo: {e}")))?;
            if g.is_leaf() {
                if let Some(slot) = crate::node::find_leaf_by_rid(&g, rid) {
                    return apply(&mut g, slot).map_err(|e| RecoveryError(format!("undo: {e}")));
                }
                queue.push(g.rightlink());
            } else {
                // Root split demoted the original page: sweep children.
                queue.extend(crate::node::internal_views(&g).map(|(_, e)| e.child()));
                queue.push(g.rightlink());
            }
        }
        Err(RecoveryError(format!("leaf entry with {rid:?} not found from {start} during undo")))
    }
}

impl TxnEndObserver for Db {
    /// Free the transaction's admission credit the instant it leaves the
    /// transaction table — commit, owner abort, or the serving layer's
    /// session teardown all funnel through here, so a credit never
    /// outlives its transaction — then queue a commit's GC candidates
    /// with the maintenance daemon.
    fn txn_ended(&self, txn: TxnId, gc: Vec<GcCandidate>) {
        self.admission.release(txn.0);
        if !gc.is_empty() {
            self.maint.enqueue_gc(gc);
        }
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        // The maintenance worker (which holds the pool, the log and the
        // transaction manager) keeps the engine alive on its own; a Db
        // dropped without `shutdown`/`crash` must still stop it or every
        // short-lived database leaks it. No drain: a drop without
        // shutdown carries no durability promise.
        self.maint.stop(false);
    }
}

impl RecoveryHandler for Db {
    fn redo(&self, lsn: Lsn, payload: &Payload) -> std::result::Result<bool, RecoveryError> {
        if payload.bytes.is_empty() {
            return Ok(false); // empty CLR
        }
        let rec = GistRecord::decode(&payload.bytes)
            .map_err(|e| RecoveryError(format!("redo decode: {e}")))?;
        if let GistRecord::Split { orig_nsn_new, .. } = &rec {
            // Recover the dedicated counter as redo repeats history
            // (zero = LSN sentinel, see the record's docs).
            let nsn = if *orig_nsn_new == 0 { lsn.0 } else { *orig_nsn_new };
            self.nsn_counter.fetch_max(nsn, Ordering::SeqCst);
        }
        rec.redo(&self.pool, lsn).map_err(|e| RecoveryError(format!("redo apply: {e}")))
    }

    fn undo(
        &self,
        _rec: &LogRecord,
        payload: &Payload,
        _restart: bool,
        log_clr: &mut dyn FnMut(Payload) -> Lsn,
    ) -> std::result::Result<(), RecoveryError> {
        let gr = GistRecord::decode(&payload.bytes)
            .map_err(|e| RecoveryError(format!("undo decode: {e}")))?;
        // Redo-only records (Table 1: Parent-Entry-Update and
        // Garbage-Collection) and CLRs have none: `rollback` writes an
        // empty CLR to keep the chain skipping.
        let Some(clr) = gr.compensation() else {
            return Ok(());
        };
        // Logical undo of the two leaf records: locate the entry (it may
        // have moved right) and compensate it where it is. Per Table 1 we
        // skip the optional immediate garbage collection during restart;
        // as a conservative simplification we also skip it on live abort
        // (BPs stay valid upper bounds; the next reorganization shrinks
        // them).
        if let GistRecord::AddLeafEntry { page, cell, .. }
        | GistRecord::MarkLeafEntry { page, old_cell: cell, .. } = &gr
        {
            return self.locate_and_apply(PageId(*page), LeafEntry::decode_rid(cell), |g, slot| {
                let clr = clr.located_at(g.page_id(), slot);
                clr.apply(g, log_clr(clr.to_payload()))
            });
        }
        let lsn = log_clr(clr.to_payload());
        for page in clr.pages() {
            let mut g =
                self.pool.fetch_write(PageId(page)).map_err(|e| RecoveryError(e.to_string()))?;
            clr.apply(&mut g, lsn).map_err(|e| RecoveryError(format!("undo: {e}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_pagestore::InMemoryStore;

    fn fresh_db() -> Arc<Db> {
        let store = Arc::new(InMemoryStore::new());
        let log = Arc::new(LogManager::new());
        Db::open(store, log, DbConfig::default()).unwrap()
    }

    #[test]
    fn bootstrap_creates_catalog_page() {
        let db = fresh_db();
        assert!(db.pool().store().page_count() >= 1);
        assert!(db.open_index_raw("nope").is_none());
    }

    #[test]
    fn create_index_is_recoverable() {
        let store = Arc::new(InMemoryStore::new());
        let log = Arc::new(LogManager::new());
        let db = Db::open(store.clone(), log.clone(), DbConfig::default()).unwrap();
        let e = db.create_index_raw("t", false).unwrap();
        assert_eq!(e.name, "t");
        assert!(!e.unique);
        db.crash();
        let (db2, report) = Db::restart(store, log, DbConfig::default()).unwrap();
        assert_eq!(report.indexes, 1);
        let e2 = db2.open_index_raw("t").unwrap();
        assert_eq!(e2.id, e.id);
        assert_eq!(e2.root, e.root);
        // The root page was re-formatted by redo.
        let g = db2.pool().fetch_read(e2.root).unwrap();
        assert!(g.is_leaf());
        assert!(!g.is_available());
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let db = fresh_db();
        db.create_index_raw("t", false).unwrap();
        assert!(matches!(db.create_index_raw("t", true), Err(GistError::Config(_))));
    }

    /// Four threads create indexes named `name(thread)` at once, `rounds`
    /// times, each round on a fresh database that is then crashed and
    /// restarted; returns each round's results and restarted database.
    fn create_concurrently(
        rounds: usize,
        name: impl Fn(usize) -> String + Sync,
    ) -> Vec<(Vec<Result<CatalogEntry>>, Arc<Db>)> {
        (0..rounds)
            .map(|_| {
                let store = Arc::new(InMemoryStore::new());
                let log = Arc::new(LogManager::new());
                let db = Db::open(store.clone(), log.clone(), DbConfig::default()).unwrap();
                let barrier = std::sync::Barrier::new(4);
                let made: Vec<_> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..4)
                        .map(|i| {
                            let (db, barrier, name) = (&db, &barrier, &name);
                            s.spawn(move || {
                                barrier.wait();
                                db.create_index_raw(&name(i), false)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("a create panicked")).collect()
                });
                assert_eq!(db.txns().active_count(), 0, "a create left its transaction open");
                db.crash();
                (made, Db::restart(store, log, DbConfig::default()).unwrap().0)
            })
            .collect()
    }

    #[test]
    fn concurrent_creates_get_distinct_ids_and_slots() {
        for (made, db) in create_concurrently(50, |i| format!("i{i}")) {
            let made: Vec<CatalogEntry> = made.into_iter().map(|r| r.unwrap()).collect();
            for (field, values) in [
                ("id", made.iter().map(|e| e.id).collect::<HashSet<_>>()),
                ("slot", made.iter().map(|e| u32::from(e.slot)).collect()),
                ("root", made.iter().map(|e| e.root.0).collect()),
            ] {
                assert_eq!(values.len(), 4, "two creates share a {field}: {made:?}");
            }
            for e in &made {
                assert_eq!(db.open_index_raw(&e.name).as_ref(), Some(e), "lost by restart");
            }
            assert_eq!(db.catalog_names().len(), 4);
        }
    }

    #[test]
    fn concurrent_creates_of_one_name_make_one_index() {
        for (made, db) in create_concurrently(20, |_| "t".into()) {
            let created: Vec<_> = made.iter().filter_map(|r| r.as_ref().ok()).collect();
            assert_eq!(created.len(), 1, "{made:?}");
            assert!(made.iter().all(|r| r.is_ok() || matches!(r, Err(GistError::Config(_)))));
            assert_eq!(db.open_index_raw("t").as_ref(), Some(created[0]));
            assert_eq!(db.catalog_names(), vec!["t".to_string()]);
        }
    }

    #[test]
    fn multiple_indexes_get_distinct_roots_and_ids() {
        let db = fresh_db();
        let a = db.create_index_raw("a", false).unwrap();
        let b = db.create_index_raw("b", true).unwrap();
        assert_ne!(a.id, b.id);
        assert_ne!(a.root, b.root);
        assert!(b.unique);
        assert_eq!(db.current_root(a.slot).unwrap(), a.root);
    }

    #[test]
    fn set_root_updates_catalog_durably() {
        let store = Arc::new(InMemoryStore::new());
        let log = Arc::new(LogManager::new());
        let db = Db::open(store.clone(), log.clone(), DbConfig::default()).unwrap();
        let e = db.create_index_raw("t", false).unwrap();
        let txn = db.begin();
        db.set_root(txn, e.slot, PageId(42)).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(db.current_root(e.slot).unwrap(), PageId(42));
        db.crash();
        let (db2, _) = Db::restart(store, log, DbConfig::default()).unwrap();
        assert_eq!(db2.current_root(e.slot).unwrap(), PageId(42));
    }

    #[test]
    fn nsn_sources_behave() {
        let store = Arc::new(InMemoryStore::new());
        let log = Arc::new(LogManager::new());
        let db = Db::open(
            store,
            log.clone(),
            DbConfig { nsn_source: NsnSource::WalLsn, ..DbConfig::default() },
        )
        .unwrap();
        assert_eq!(db.global_nsn(), log.last_lsn().0);
        let lsn = log.append(TxnId(1), Lsn::NULL, RecordBody::TxnBegin);
        assert_eq!(db.global_nsn(), lsn.0);
        assert_eq!(db.split_nsn(lsn), lsn.0);

        let store2 = Arc::new(InMemoryStore::new());
        let db2 = Db::open(
            store2,
            Arc::new(LogManager::new()),
            DbConfig { nsn_source: NsnSource::DedicatedCounter, ..DbConfig::default() },
        )
        .unwrap();
        assert_eq!(db2.global_nsn(), 0);
        assert_eq!(db2.split_nsn(Lsn(999)), 1, "dedicated counter ignores the LSN");
        assert_eq!(db2.global_nsn(), 1);
    }
}
