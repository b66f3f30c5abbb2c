//! Buffer pool: frames, latches, pinning, eviction, WAL enforcement.
//!
//! Frame latches are the paper's *latches* (§5 footnote 8): physically
//! addressed reader/writer locks on buffer frames, never checked for
//! deadlock, and entirely separate from the lock manager — a transaction
//! can hold a *lock* on a node while another holds the *latch* on its
//! frame. All the GiST protocol's "latch node in S/X mode" steps map to
//! [`BufferPool::fetch_read`] / [`BufferPool::fetch_write`] guards.
//!
//! The pool enforces the write-ahead rule: before a dirty page is written
//! back, the registered log ([`BufferPool::set_log`]) is synced through
//! the page's LSN with [`LogManager::sync_to`]; if that fails, the page
//! stays dirty in the pool.
//!
//! The frame table is one mutex-guarded map from page id to frame. The
//! mutex is held only to find, pin, insert or remove a frame — never
//! across store I/O or a latch wait; those happen under the frame's own
//! latch.
//!
//! ## Optimistic reads
//!
//! Each frame additionally carries a **sequence-lock version word**:
//! even = stable, odd = an X latch (or eviction) is mutating the frame.
//! [`BufferPool::fetch_optimistic`] returns an [`OptimisticReadGuard`]
//! that pins nothing and takes no latch — readers copy what they need
//! out via [`OptimisticReadGuard::read_with`] and then prove the copy
//! consistent with [`OptimisticReadGuard::validate`]. A miss loads the
//! page through the ordinary latched path first, so every page enters
//! memory one way. Eviction marks a frame dead under its X latch — the
//! version word odd permanently — and drops the table's `Arc`; a guard
//! that still holds the frame keeps the dead incarnation alive by itself
//! and reads it as a moved copy, never as a reloaded incarnation of the
//! same page id. The frame's lifetime is its `Arc`'s alone: the pool
//! knows nothing of the epoch domain that defers §7.2 page frees.
//!
//! ## Fault handling
//!
//! Every store I/O goes through a bounded exponential-backoff retry for
//! *transient* errors ([`is_transient_io`]). Page images are
//! checksum-stamped on write-back and verified on load, so torn on-disk
//! writes surface as `InvalidData` at the first fetch. A load failure is
//! recorded in the frame and propagated to **every** waiter parked on the
//! frame latch (not retried forever). A *persistent* write or sync
//! failure **poisons** the pool: further writes are refused with a
//! [`StoragePoisoned`]-carrying error while reads keep working — the
//! graceful read-only degradation mode.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::lock_api::{ArcRwLockReadGuard, ArcRwLockWriteGuard};
use parking_lot::{Mutex, RawRwLock, RwLock};

use gist_wal::{LogManager, Lsn};

use crate::audit;
use crate::page::{IdMap, Page, PageId};
use crate::store::PageStore;

type ReadLatch = ArcRwLockReadGuard<RawRwLock, FrameData>;
type WriteLatch = ArcRwLockWriteGuard<RawRwLock, FrameData>;

/// Transient-I/O retry cap: a load/write/sync is attempted at most
/// `1 + IO_RETRY_LIMIT` times before the error is treated as persistent.
const IO_RETRY_LIMIT: u32 = 4;
/// First retry backoff; doubles per attempt (100µs, 200µs, 400µs, 800µs).
const IO_RETRY_BASE: Duration = Duration::from_micros(100);

/// Whether an I/O error is worth retrying: the kinds a real kernel or
/// device returns for conditions that clear on their own.
pub fn is_transient_io(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Run `op`, retrying transient failures with bounded exponential
/// backoff. The final error (transient or not) is returned as-is.
fn with_io_retry<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient_io(&e) && attempt < IO_RETRY_LIMIT => {
                std::thread::sleep(IO_RETRY_BASE * (1 << attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Marker payload of the error returned for writes refused because the
/// pool is poisoned (read-only degradation after a persistent storage
/// failure). Detect it with [`is_storage_poisoned`].
#[derive(Debug)]
pub struct StoragePoisoned {
    /// The original failure that tripped read-only mode.
    pub reason: String,
}

impl std::fmt::Display for StoragePoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "storage failed, pool is read-only: {}", self.reason)
    }
}

impl std::error::Error for StoragePoisoned {}

/// Whether `e` is the pool's "read-only, storage poisoned" refusal.
pub fn is_storage_poisoned(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<StoragePoisoned>())
}

fn storage_poisoned_error(reason: String) -> io::Error {
    io::Error::other(StoragePoisoned { reason })
}

/// The latched content of a buffer frame.
pub struct FrameData {
    /// The page image.
    pub page: Page,
    /// Whether the image has been loaded from the store (or freshly
    /// formatted). While false the loading thread holds the write latch.
    loaded: bool,
    /// Set when the load failed (error kind + message); every waiter
    /// parked on the frame latch returns this error instead of retrying.
    load_error: Option<(io::ErrorKind, String)>,
    /// Order summary of `page` as it is now ([`FrameData::summary`]).
    /// Built by the first reader that asks for it; dropped by every
    /// [`PageWriteGuard`] as it takes the X latch, so it never outlives
    /// the image it describes.
    summary: OnceLock<Box<[u64]>>,
}

impl FrameData {
    fn load_error(&self) -> Option<io::Error> {
        self.load_error.as_ref().map(|(k, m)| io::Error::new(*k, m.clone()))
    }

    /// The order summary of the current image: `build(&self.page)` the
    /// first time a reader asks after a write, the cached words after
    /// that. Callers hold the S latch or are inside
    /// [`OptimisticReadGuard::read_frame_with`], so the image cannot
    /// change while the summary is built or read. The pool does not
    /// know what the words mean; every reader of one page must pass the
    /// same `build` (the page's owner decides it). `build` must take no
    /// lock and block on nothing: concurrent readers of the frame wait
    /// for it inside `OnceLock::get_or_init`.
    pub fn summary(&self, build: impl FnOnce(&Page) -> Box<[u64]>) -> &[u64] {
        self.summary.get_or_init(|| build(&self.page))
    }
}

struct Frame {
    id: PageId,
    /// Owning pool's audit instance id (copied here so guards can report
    /// releases without a pool reference; 0 when auditing is off).
    audit_id: u64,
    latch: Arc<RwLock<FrameData>>,
    pins: AtomicUsize,
    dirty: AtomicBool,
    /// recLSN: the first LSN that may have dirtied the page since it was
    /// last written back (0 = clean, or dirtied by an unlogged change).
    /// Reported by [`BufferPool::dirty_page_table`] to fuzzy checkpoints.
    rec_lsn: AtomicU64,
    tick: AtomicU64,
    /// Sequence-lock version word for the optimistic read path. Even =
    /// stable; odd = a [`PageWriteGuard`] is live (bumped odd at guard
    /// construction, even again at drop/downgrade) or the frame is dead
    /// (eviction/crash/failed load bump it odd *forever*). It moves only
    /// while the X latch is held (or the pool is quiescent, at a crash).
    /// Optimistic guards snapshot it at fetch and fail validation on any
    /// change.
    seq: AtomicU64,
}

impl Frame {
    /// A zeroed frame for `id`, pinned once by its creator. `loaded` is
    /// false while the creator still has to fill the image from the
    /// store (holding the write latch until it has).
    fn new(id: PageId, audit_id: u64, tick: u64, loaded: bool) -> Arc<Frame> {
        Arc::new(Frame {
            id,
            audit_id,
            latch: Arc::new(RwLock::new(FrameData {
                page: Page::zeroed(),
                loaded,
                load_error: None,
                summary: OnceLock::new(),
            })),
            pins: AtomicUsize::new(1),
            dirty: AtomicBool::new(false),
            rec_lsn: AtomicU64::new(0),
            tick: AtomicU64::new(tick),
            seq: AtomicU64::new(0),
        })
    }

    /// Kill the frame for optimistic readers: a permanently odd version
    /// word. Callers hold the frame's write latch raw (or have proven
    /// quiescence), so the word is even on entry — no `PageWriteGuard`
    /// can exist.
    fn mark_evicted(&self) {
        self.seq.fetch_add(1, Ordering::AcqRel);
    }

    /// Blocking X acquisition of the frame latch. A task managed by a
    /// model-check scheduler must never block inside the raw rwlock —
    /// it would hold the scheduler token through a block the scheduler
    /// cannot see and freeze the whole exploration — so it spins on the
    /// `try_` variant with each miss parked virtually instead. Outside
    /// model checking this is exactly `write_arc()`.
    #[allow(clippy::disallowed_methods)] // the pool takes its own frame latches
    fn latch_write_blocking(&self) -> WriteLatch {
        if audit::latch_managed() {
            loop {
                if let Some(g) = self.latch.try_write_arc() {
                    return g;
                }
                audit::latch_contended(self.audit_id, u64::from(self.id.0));
            }
        } else {
            self.latch.write_arc()
        }
    }

    /// Blocking S acquisition of the frame latch; see
    /// [`Frame::latch_write_blocking`] for the model-check virtualization.
    #[allow(clippy::disallowed_methods)] // the pool takes its own frame latches
    fn latch_read_blocking(&self) -> ReadLatch {
        if audit::latch_managed() {
            loop {
                if let Some(g) = self.latch.try_read_arc() {
                    return g;
                }
                audit::latch_contended(self.audit_id, u64::from(self.id.0));
            }
        } else {
            self.latch.read_arc()
        }
    }
}

/// Buffer-pool counters.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Fetches served from memory.
    pub hits: AtomicU64,
    /// Fetches that had to read the store.
    pub misses: AtomicU64,
    /// Frames evicted.
    pub evictions: AtomicU64,
    /// Dirty pages written back.
    pub writebacks: AtomicU64,
    /// Always 0: every miss loads through the pool. Kept only while the
    /// benchmark's layer table reads it (ROADMAP 2(a) drops both).
    pub direct_reads: AtomicU64,
}

/// The buffer pool.
pub struct BufferPool {
    store: Arc<dyn PageStore>,
    /// gist-audit instance id isolating this pool's latch events from
    /// other pools in the same process (0 when auditing is off).
    audit_id: u64,
    /// The log synced before each write-back (WAL-before-data); none in
    /// tests of the pool alone.
    log: Mutex<Option<Arc<LogManager>>>,
    capacity: usize,
    /// The frame table. A `gist-sync` mutex, so it is a yield point for
    /// the model checker's optimistic-reader scenarios.
    frames: gist_sync::Mutex<IdMap<PageId, Arc<Frame>>>,
    clock: AtomicU64,
    /// Set after a persistent write/sync failure: the pool is read-only.
    poisoned: AtomicBool,
    /// The failure that poisoned the pool (empty until then).
    poison_reason: Mutex<String>,
    /// Pages written back since the last successful [`Self::sync_store`],
    /// with the recLSN they had when written. Until the store is synced a
    /// write-back may still be *lost* by a crash, so these stay in the
    /// dirty-page table and restart redo re-covers them.
    unsynced: Mutex<HashMap<u32, u64>>,
    /// Counters (hits/misses/evictions/writebacks).
    pub stats: PoolStats,
}

impl BufferPool {
    /// Pool over `store` holding at most `capacity` frames (soft limit:
    /// if every frame is pinned the pool grows rather than deadlocks).
    pub fn new(store: Arc<dyn PageStore>, capacity: usize) -> Arc<Self> {
        assert!(capacity > 0, "capacity must be positive");
        Arc::new(BufferPool {
            store,
            audit_id: audit::new_instance_id(),
            log: Mutex::new(None),
            capacity,
            frames: gist_sync::Mutex::new(IdMap::default()),
            clock: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            poison_reason: Mutex::new(String::new()),
            unsynced: Mutex::new(HashMap::new()),
            stats: PoolStats::default(),
        })
    }

    /// Whether a persistent storage failure has tripped read-only mode.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// The poisoned-pool refusal error, if the pool is poisoned.
    pub fn poison_error(&self) -> Option<io::Error> {
        if self.is_poisoned() {
            Some(storage_poisoned_error(self.poison_reason.lock().clone()))
        } else {
            None
        }
    }

    fn poison(&self, e: &io::Error) {
        if !self.poisoned.swap(true, Ordering::SeqCst) {
            *self.poison_reason.lock() = e.to_string();
        }
    }

    fn check_writable(&self) -> io::Result<()> {
        match self.poison_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Run a store mutation with transient retry; a persistent failure
    /// poisons the pool (storage can no longer be trusted for writes).
    fn retry_write_op<T>(&self, op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        match with_io_retry(op) {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poison(&e);
                Err(e)
            }
        }
    }

    /// Register the log whose records a write-back must not overtake.
    pub fn set_log(&self, log: Arc<LogManager>) {
        *self.log.lock() = Some(log);
    }

    /// The underlying page store.
    pub fn store(&self) -> &Arc<dyn PageStore> {
        &self.store
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The hit probe every latching fetch shares: pin `id`'s cached
    /// frame and stamp its LRU tick under the table lock, so eviction
    /// (which checks pins under the same lock) cannot take it away
    /// before the caller reaches the latch.
    fn pin_cached(&self, id: PageId) -> Option<Arc<Frame>> {
        self.frames.lock().get(&id).map(|f| {
            f.pins.fetch_add(1, Ordering::Relaxed);
            f.tick.store(self.tick(), Ordering::Relaxed);
            f.clone()
        })
    }

    /// Enter a freshly created frame into the table; `false` when
    /// another thread cached the page first (the caller retries through
    /// the hit path).
    fn install(&self, frame: &Arc<Frame>) -> bool {
        let mut frames = self.frames.lock();
        if frames.contains_key(&frame.id) {
            return false;
        }
        frames.insert(frame.id, frame.clone());
        true
    }

    /// Latch page `id` in S mode. Never holds any other latch during the
    /// store read.
    pub fn fetch_read(self: &Arc<Self>, id: PageId) -> io::Result<PageReadGuard> {
        loop {
            match self.fetch_inner(id, false, true)? {
                FetchResult::Read(g) => return Ok(g),
                FetchResult::Write(_) => unreachable!("asked for read"),
                FetchResult::Retry => continue,
            }
        }
    }

    /// Latch page `id` in X mode. Refused with a [`StoragePoisoned`]
    /// error while the pool is in read-only degradation.
    pub fn fetch_write(self: &Arc<Self>, id: PageId) -> io::Result<PageWriteGuard> {
        self.check_writable()?;
        self.fetch_write_with(id, true)
    }

    /// `fetch_write` with an explicit blocking intent: `try_fetch_write`'s
    /// miss fallback passes `blocking = false` so the audit order graph
    /// records no deadlock-relevant edge for an acquisition that cannot
    /// park behind another holder.
    fn fetch_write_with(self: &Arc<Self>, id: PageId, blocking: bool) -> io::Result<PageWriteGuard> {
        loop {
            match self.fetch_inner(id, true, blocking)? {
                FetchResult::Write(g) => return Ok(g),
                FetchResult::Read(_) => unreachable!("asked for write"),
                FetchResult::Retry => continue,
            }
        }
    }

    #[allow(clippy::disallowed_methods)] // the pool takes its own frame latches
    fn fetch_inner(
        self: &Arc<Self>,
        id: PageId,
        write: bool,
        blocking: bool,
    ) -> io::Result<FetchResult> {
        assert!(!id.is_invalid(), "fetch of the invalid page id");
        // Fast path: hit.
        if let Some(frame) = self.pin_cached(id) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            // Block on the frame latch (no other latch is held here).
            if write {
                let g = frame.latch_write_blocking();
                if let Some(e) = g.load_error() {
                    // The load failed: every parked waiter gets the error
                    // rather than re-fetching forever (the loader already
                    // exhausted the transient-retry budget).
                    drop(g);
                    frame.pins.fetch_sub(1, Ordering::Relaxed);
                    return Err(e);
                }
                debug_assert!(g.loaded);
                audit::latch_acquired(self.audit_id, u64::from(id.0), true, blocking);
                return Ok(FetchResult::Write(PageWriteGuard::new(frame, g)));
            }
            let g = frame.latch_read_blocking();
            if let Some(e) = g.load_error() {
                drop(g);
                frame.pins.fetch_sub(1, Ordering::Relaxed);
                return Err(e);
            }
            debug_assert!(g.loaded);
            audit::latch_acquired(self.audit_id, u64::from(id.0), false, blocking);
            return Ok(FetchResult::Read(PageReadGuard { frame, guard: g }));
        }

        // Miss: create the frame, holding its write latch across the load
        // so waiters park on the latch rather than re-reading the store.
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let frame = Frame::new(id, self.audit_id, self.tick(), false);
        let mut g = frame.latch.write_arc();
        if !self.install(&frame) {
            return Ok(FetchResult::Retry);
        }
        self.evict_excess();
        audit::io_event(self.audit_id, u64::from(id.0), "page-load");
        // Transient read errors are retried with backoff; a loaded image
        // must then pass checksum verification (torn-write detection).
        let res = with_io_retry(|| self.store.read(id, &mut g.page)).and_then(|()| {
            if !g.page.verify_checksum() {
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("page {id} checksum mismatch on load (torn or corrupt image)"),
                ))
            } else {
                Ok(())
            }
        });
        match res {
            Ok(()) => {
                g.loaded = true;
                audit::latch_acquired(self.audit_id, u64::from(id.0), write, blocking);
                if write {
                    Ok(FetchResult::Write(PageWriteGuard::new(frame, g)))
                } else {
                    let rg = ArcRwLockWriteGuard::downgrade(g);
                    Ok(FetchResult::Read(PageReadGuard { frame, guard: rg }))
                }
            }
            Err(e) => {
                g.load_error = Some((e.kind(), e.to_string()));
                if self.frames.lock().remove(&id).is_some() {
                    frame.mark_evicted();
                }
                drop(g);
                frame.pins.fetch_sub(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Optimistic latch-free fetch: a version-stamped handle to page
    /// `id`'s frame that pins nothing, takes no latch, and never touches
    /// the LRU clock — on a hit the read-path synchronization cost is a
    /// table probe plus one atomic load. Copy data out with
    /// [`OptimisticReadGuard::read_with`], then prove the copies
    /// consistent with [`OptimisticReadGuard::validate`].
    ///
    /// A miss loads the page through [`Self::fetch_read`]: the version
    /// word is read while that S latch is held (so it is even), and the
    /// optimistic section opens only after the latch drops, so the
    /// no-latch-inside-section discipline holds. A page that cannot be
    /// loaded surfaces the loader's error.
    pub fn fetch_optimistic(self: &Arc<Self>, id: PageId) -> io::Result<OptimisticReadGuard> {
        assert!(!id.is_invalid(), "fetch of the invalid page id");
        let cached = self.frames.lock().get(&id).cloned();
        let (frame, seq) = match cached {
            Some(frame) => {
                let seq = frame.seq.load(Ordering::Acquire);
                (frame, seq)
            }
            None => {
                let g = self.fetch_read(id)?;
                (g.frame.clone(), g.frame.seq.load(Ordering::Acquire))
            }
        };
        audit::optimistic_enter(self.audit_id, u64::from(id.0));
        Ok(OptimisticReadGuard { frame, seq })
    }

    /// Latch page `id` in X mode without blocking on the latch. Returns
    /// `None` if the latch is currently held (used by opportunistic
    /// operations — e.g. node deletion — whose latch order would
    /// otherwise risk deadlock). May still perform I/O on a miss (the
    /// fresh frame's latch is uncontended).
    #[allow(clippy::disallowed_methods)] // the pool takes its own frame latches
    pub fn try_fetch_write(self: &Arc<Self>, id: PageId) -> io::Result<Option<PageWriteGuard>> {
        self.check_writable()?;
        if let Some(frame) = self.pin_cached(id) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            match frame.latch.try_write_arc() {
                Some(g) => {
                    if let Some(e) = g.load_error() {
                        drop(g);
                        frame.pins.fetch_sub(1, Ordering::Relaxed);
                        return Err(e);
                    }
                    audit::latch_acquired(self.audit_id, u64::from(id.0), true, false);
                    return Ok(Some(PageWriteGuard::new(frame, g)));
                }
                None => {
                    frame.pins.fetch_sub(1, Ordering::Relaxed);
                    return Ok(None);
                }
            }
        }
        // Miss: the regular path's load latch is uncontended by
        // construction, so this never blocks on another holder.
        self.fetch_write_with(id, false).map(Some)
    }

    /// Create (or reformat) page `id` in the pool without reading the
    /// store, formatted as an empty page at `level`. The frame starts
    /// dirty so the formatted image cannot be lost to eviction.
    pub fn new_page_write(self: &Arc<Self>, id: PageId, level: u16) -> io::Result<PageWriteGuard> {
        self.check_writable()?;
        self.retry_write_op(|| self.store.ensure_capacity(id.0 + 1))?;
        // The page begins a new life: latch orders observed against its
        // previous incarnation no longer constrain it.
        audit::latch_page_fresh(self.audit_id, u64::from(id.0));
        let mut g = self.fetch_write_or_fresh(id)?;
        g.data_mut().page.format(id, level);
        g.frame.dirty.store(true, Ordering::Relaxed);
        Ok(g)
    }

    /// Fetch for write, but if the page is not cached, produce a fresh
    /// zeroed frame without a store read (content will be overwritten).
    #[allow(clippy::disallowed_methods)] // the pool takes its own frame latches
    fn fetch_write_or_fresh(self: &Arc<Self>, id: PageId) -> io::Result<PageWriteGuard> {
        loop {
            if let Some(frame) = self.pin_cached(id) {
                let g = frame.latch_write_blocking();
                if g.load_error.is_some() {
                    // The failed loader already removed the frame from the
                    // table; loop to create a fresh one (no store read on
                    // this path — the content is about to be overwritten).
                    drop(g);
                    frame.pins.fetch_sub(1, Ordering::Relaxed);
                    continue;
                }
                // Audited as non-blocking: this is the allocation path
                // (`new_page_write`) — the page is private to the
                // allocating thread, so the acquisition cannot be part of
                // a deadlock cycle with structured tree operations (any
                // residual holder is a transient stale rightlink chaser).
                audit::latch_acquired(self.audit_id, u64::from(id.0), true, false);
                return Ok(PageWriteGuard::new(frame, g));
            }
            let frame = Frame::new(id, self.audit_id, self.tick(), true);
            let g = frame.latch.write_arc();
            if !self.install(&frame) {
                continue;
            }
            self.evict_excess();
            audit::latch_acquired(self.audit_id, u64::from(id.0), true, false);
            return Ok(PageWriteGuard::new(frame, g));
        }
    }

    /// Evict clean-or-flushable unpinned frames until within capacity.
    ///
    /// The victim is the oldest-tick unpinned frame whose latch can be
    /// taken without waiting, chosen under the table lock (pins only
    /// rise under that lock, so none can appear mid-scan). The table
    /// lock is dropped before the write-back; the latch keeps the victim.
    #[allow(clippy::disallowed_methods)] // the pool takes its own frame latches
    fn evict_excess(self: &Arc<Self>) {
        loop {
            // A poisoned pool cannot write dirty frames back; only clean
            // frames are eviction candidates (the pool grows otherwise).
            let poisoned = self.is_poisoned();
            let (frame, guard) = {
                let frames = self.frames.lock();
                if frames.len() <= self.capacity {
                    return;
                }
                let mut best: Option<(u64, Arc<Frame>, WriteLatch)> = None;
                for f in frames.values() {
                    let t = f.tick.load(Ordering::Relaxed);
                    if f.pins.load(Ordering::Relaxed) != 0
                        || (poisoned && f.dirty.load(Ordering::Relaxed))
                        || best.as_ref().is_some_and(|(bt, _, _)| *bt <= t)
                    {
                        continue;
                    }
                    if let Some(g) = f.latch.try_write_arc() {
                        best = Some((t, f.clone(), g));
                    }
                }
                // Everything pinned or latched: grow rather than deadlock.
                let Some((_, frame, guard)) = best else { return };
                (frame, guard)
            };
            // Write back outside the table lock, latch held. If the
            // write-back fails the frame stays dirty and cached (its
            // content must not be dropped): a store failure already
            // poisoned the pool, and a log that cannot sync will refuse
            // the next victim too, so give up on shrinking this round.
            if frame.dirty.load(Ordering::Relaxed) && self.write_back(&frame, &guard.page).is_err() {
                return;
            }
            // Remove only if still unpinned (a fetcher may be parked on
            // the latch; its pin protects it) and still the mapped frame.
            let removed = {
                let mut frames = self.frames.lock();
                if frame.pins.load(Ordering::Relaxed) == 0
                    && frames.get(&frame.id).is_some_and(|f| Arc::ptr_eq(f, &frame))
                {
                    frames.remove(&frame.id);
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            };
            if removed {
                // Kill the frame for optimistic readers while its write
                // latch is still held. A latch-free guard may still own
                // an `Arc` to it and the page id may be reloaded into a
                // fresh frame at once: the guard keeps reading this dead
                // incarnation, whose permanently odd version word fails
                // every validation, and the allocation goes with the
                // last `Arc`.
                frame.mark_evicted();
            }
        }
    }

    /// Write one frame back: flush the log to the page LSN (WAL rule),
    /// stamp the checksum on a copy of the image, and write with
    /// transient retry. On persistent failure the frame stays dirty and
    /// the pool is poisoned; a log that cannot sync (a crashed log, an
    /// injected fault) fails the write-back before it starts, frame
    /// dirty, pool healthy.
    fn write_back(&self, frame: &Frame, page: &Page) -> io::Result<()> {
        audit::io_event(self.audit_id, u64::from(frame.id.0), "writeback");
        let lsn = page.page_lsn();
        if !lsn.is_null() {
            if let Some(log) = self.log.lock().clone() {
                log.sync_to(lsn).map_err(|e| io::Error::other(format!("log sync: {e:?}")))?;
            }
        }
        // Stamp a copy: the in-pool image must not carry a checksum that
        // goes stale on the next mark_dirty.
        let mut img = page.clone();
        img.stamp_checksum();
        // Record the pre-write recLSN *before* clearing it: until the
        // store is synced this write may still be lost by a crash, so the
        // page stays in the dirty-page table under its old recLSN.
        let rl = frame.rec_lsn.load(Ordering::Relaxed);
        self.retry_write_op(|| self.store.write(frame.id, &img))?;
        {
            let mut unsynced = self.unsynced.lock();
            let entry = unsynced.entry(frame.id.0).or_insert(u64::MAX);
            *entry = (*entry).min(if rl == 0 { 1 } else { rl });
        }
        frame.dirty.store(false, Ordering::Relaxed);
        frame.rec_lsn.store(0, Ordering::Relaxed);
        self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Snapshot every cached frame.
    fn snapshot_frames(&self) -> Vec<Arc<Frame>> {
        self.frames.lock().values().cloned().collect()
    }

    /// Write every dirty page back to the store (log flushed first).
    /// Stops at the first persistent failure (which poisons the pool).
    pub fn flush_all(&self) -> io::Result<()> {
        for frame in self.snapshot_frames() {
            if !frame.dirty.load(Ordering::Relaxed) {
                continue;
            }
            let g = frame.latch_read_blocking();
            if frame.dirty.load(Ordering::Relaxed) {
                self.write_back(&frame, &g.page)?;
            }
        }
        Ok(())
    }

    /// Fsync barrier: make every completed write-back durable. Pages
    /// written back before a successful sync leave the dirty-page table;
    /// a persistent sync failure poisons the pool (an fsync that failed
    /// may have lost arbitrary earlier writes — see the fuzzy-checkpoint
    /// contract in `checkpoint_now`).
    pub fn sync_store(&self) -> io::Result<()> {
        // A poisoned pool must not vouch for durability: some write-back
        // already failed for good, so a "successful" sync here would let
        // a checkpoint record a dirty-page table that understates what
        // recovery still has to redo.
        self.check_writable()?;
        // Take the pending set *before* issuing the sync: a write-back
        // racing with the sync inserts into the live map and stays
        // tracked (it may not be covered), while everything taken here is.
        let taken = std::mem::take(&mut *self.unsynced.lock());
        audit::io_event(self.audit_id, u64::MAX, "store-sync");
        match self.retry_write_op(|| self.store.sync()) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Nothing became durable: merge the taken entries back.
                let mut unsynced = self.unsynced.lock();
                for (id, rl) in taken {
                    let entry = unsynced.entry(id).or_insert(u64::MAX);
                    *entry = (*entry).min(rl);
                }
                Err(e)
            }
        }
    }

    /// Simulate a crash: every cached frame is dropped without write-back,
    /// exactly as if the process died. Outstanding guards must not exist.
    pub fn crash(&self) {
        let mut frames = self.frames.lock();
        // Assert quiescence before dropping anything, so a pinned frame
        // cannot leave a half-cleared pool behind the panic.
        if let Some(f) = frames.values().find(|f| f.pins.load(Ordering::Relaxed) != 0) {
            panic!("crash() with outstanding guards on {}", f.id);
        }
        for f in frames.values() {
            // No write guard is live: the word is even and goes
            // permanently odd.
            f.mark_evicted();
        }
        frames.clear();
        drop(frames);
        self.unsynced.lock().clear();
    }

    /// Number of frames currently cached.
    pub fn cached_frames(&self) -> usize {
        self.frames.lock().len()
    }

    /// Snapshot `(page, recLSN)` for every dirty frame — the dirty-page
    /// table of a fuzzy checkpoint — plus every page written back since
    /// the last successful [`Self::sync_store`] (a write-back is only
    /// trusted once an fsync covers it; until then a crash may *lose* it,
    /// so restart redo must still re-cover the page). Purely atomic reads
    /// plus the unsynced map, no latches: an entry may be stale-dirty
    /// (harmlessly conservative), and any page dirtied after the caller
    /// captured its `scan_start` is re-observed by the restart analysis
    /// scan, so missing it here is also safe. Frames dirtied by unlogged
    /// changes report the log start.
    pub fn dirty_page_table(&self) -> Vec<(u32, Lsn)> {
        let mut merged: HashMap<u32, u64> = HashMap::new();
        for f in self.snapshot_frames() {
            if f.dirty.load(Ordering::Relaxed) {
                let rl = f.rec_lsn.load(Ordering::Relaxed);
                let rl = if rl == 0 { 1 } else { rl };
                let entry = merged.entry(f.id.0).or_insert(u64::MAX);
                *entry = (*entry).min(rl);
            }
        }
        for (&id, &rl) in self.unsynced.lock().iter() {
            let entry = merged.entry(id).or_insert(u64::MAX);
            *entry = (*entry).min(rl);
        }
        let mut out: Vec<(u32, Lsn)> = merged.into_iter().map(|(p, l)| (p, Lsn(l))).collect();
        out.sort_unstable();
        out
    }

    /// Restart-time torn-page scan: read every raw store page, verify
    /// its checksum, and *quarantine* failures (torn writes, bit rot, or
    /// persistently unreadable pages) by seeding a zeroed dirty frame in
    /// the pool — page LSN 0, so a full-history redo rebuilds every
    /// logged byte and the repaired image is written back at the next
    /// flush. Returns the quarantined page ids; the caller (restart)
    /// must widen its redo window to the log start when any page was
    /// quarantined. Must run on a quiescent pool before recovery fetches.
    ///
    /// The same pass enforces WAL-before-data across restarts: a healthy
    /// page whose LSN is past `log_end` was written under a log this one
    /// does not contain, so redo and undo over it would corrupt the
    /// tree. The scan then fails with `InvalidData` naming the page and
    /// both LSNs, before any frame is seeded.
    pub fn quarantine_torn_pages(self: &Arc<Self>, log_end: Lsn) -> io::Result<Vec<PageId>> {
        let mut quarantined = Vec::new();
        let mut scratch = Page::zeroed();
        for raw in 0..self.store.page_count() {
            let id = PageId(raw);
            audit::io_event(self.audit_id, u64::from(raw), "torn-scan");
            match with_io_retry(|| self.store.read(id, &mut scratch)) {
                Ok(()) if !scratch.verify_checksum() => quarantined.push(id),
                Ok(()) if scratch.page_lsn() > log_end => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "page {id} has LSN {} but the log ends at LSN {log_end}: \
                             the page file is ahead of its log",
                            scratch.page_lsn()
                        ),
                    ));
                }
                Ok(()) => {}
                // Persistently unreadable during recovery: treat like a
                // torn image — redo can rebuild it from the log anyway.
                Err(_) => quarantined.push(id),
            }
        }
        for &id in &quarantined {
            let mut g = self.fetch_write_or_fresh(id)?;
            g.data_mut().page = Page::zeroed();
            g.frame.dirty.store(true, Ordering::Relaxed);
            g.frame.rec_lsn.store(0, Ordering::Relaxed);
        }
        Ok(quarantined)
    }
}

enum FetchResult {
    Read(PageReadGuard),
    Write(PageWriteGuard),
    Retry,
}

/// Latch-free, pin-free handle to a page image: one frame and the
/// seqlock version word observed at fetch.
///
/// The guard holds an `Arc` to the frame, so memory safety is never at
/// stake — Rust keeps the allocation alive. *Logical* safety — the page
/// id still mapping to this frame, the image not mutating under the
/// reader — is exactly what [`Self::read_with`] + [`Self::validate`]
/// prove. Callers must not act on copied data until `validate` returns
/// `true`, and must hold an epoch pin for the guard's whole life so
/// drained pages cannot be reallocated mid-traversal (enforced by the
/// `optimistic-unpinned` audit rule). A guard that outlives its frame's
/// eviction keeps the dead frame alive itself; the frame's permanently
/// odd word fails every later read and validation, like a moved copy.
pub struct OptimisticReadGuard {
    frame: Arc<Frame>,
    seq: u64,
}

impl OptimisticReadGuard {
    /// Id of the observed page.
    pub fn page_id(&self) -> PageId {
        self.frame.id
    }

    /// Run `f` over the page image if the frame still holds the version
    /// the guard recorded, returning `None` when it does not (a writer is
    /// active or was, or the frame died) or when the latch is exclusively
    /// held or wanted — the caller re-reads. The word is checked once,
    /// under the shared `try_read`: writers move it only while they hold
    /// X, so it cannot move while `f` runs. That `try_read` is
    /// writer-preferring (it fails the moment a writer waits), so the
    /// optimistic path can never starve mutators, and it is deliberately
    /// *not* reported as a latch acquisition: the audit section stays
    /// latch-free.
    pub fn read_with<T>(&self, f: impl FnOnce(&Page) -> T) -> Option<T> {
        self.read_frame_with(|d| f(&d.page))
    }

    /// [`Self::read_with`] over the whole frame content, so `f` can also
    /// read (or build) the image's [`FrameData::summary`].
    pub fn read_frame_with<T>(&self, f: impl FnOnce(&FrameData) -> T) -> Option<T> {
        let g = self.frame.latch.try_read()?;
        if !self.validate() {
            return None;
        }
        audit::optimistic_read(self.frame.audit_id, u64::from(self.frame.id.0));
        Some(f(&g))
    }

    /// Whether every copy taken through this guard is still current: the
    /// version word was even at fetch and has not moved since.
    pub fn validate(&self) -> bool {
        self.seq & 1 == 0 && self.frame.seq.load(Ordering::Acquire) == self.seq
    }
}

impl Drop for OptimisticReadGuard {
    fn drop(&mut self) {
        audit::optimistic_exit(self.frame.audit_id, u64::from(self.frame.id.0));
    }
}

/// S-mode latch on a page.
pub struct PageReadGuard {
    frame: Arc<Frame>,
    guard: ReadLatch,
}

impl PageReadGuard {
    /// Id of the latched page.
    pub fn page_id(&self) -> PageId {
        self.frame.id
    }

    /// The latched frame content: the page and its
    /// [`FrameData::summary`].
    pub fn frame_data(&self) -> &FrameData {
        &self.guard
    }
}

impl std::ops::Deref for PageReadGuard {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.guard.page
    }
}

impl Drop for PageReadGuard {
    fn drop(&mut self) {
        audit::latch_released(self.frame.audit_id, u64::from(self.frame.id.0));
        self.frame.pins.fetch_sub(1, Ordering::Relaxed);
    }
}

/// X-mode latch on a page.
///
/// The inner guard lives in an `Option` solely so
/// [`PageWriteGuard::downgrade`] can move it out without `unsafe`; it is
/// `Some` for the guard's entire observable life.
pub struct PageWriteGuard {
    frame: Arc<Frame>,
    guard: Option<WriteLatch>,
}

impl PageWriteGuard {
    /// Wrap a freshly acquired X latch: the seqlock word goes odd for
    /// the guard's whole life, so optimistic readers refuse to copy (and
    /// any copy already taken fails validation), and the image's summary
    /// is dropped, since the holder may change the image. Every writer
    /// (redo, a reformat by `new_page_write`, quarantine zeroing, a
    /// guard later downgraded) passes here, so no summary outlives its
    /// image and none needs a version tag.
    fn new(frame: Arc<Frame>, mut guard: WriteLatch) -> PageWriteGuard {
        frame.seq.fetch_add(1, Ordering::AcqRel);
        guard.summary = OnceLock::new();
        PageWriteGuard { frame, guard: Some(guard) }
    }

    /// Id of the latched page.
    pub fn page_id(&self) -> PageId {
        self.frame.id
    }

    fn data(&self) -> &FrameData {
        match &self.guard {
            Some(g) => g,
            None => unreachable!("write guard accessed after downgrade"),
        }
    }

    fn data_mut(&mut self) -> &mut FrameData {
        match &mut self.guard {
            Some(g) => g,
            None => unreachable!("write guard accessed after downgrade"),
        }
    }

    /// Record that the page was modified under `lsn`: stamps the page LSN
    /// and marks the frame dirty (write-ahead rule enforced at
    /// write-back).
    pub fn mark_dirty(&mut self, lsn: Lsn) {
        self.data_mut().page.set_page_lsn(lsn);
        // First dirtying LSN since the page was last clean: the recLSN
        // reported to fuzzy checkpoints. The X latch excludes racing
        // mutators; a racing write-back cannot happen latch-free either.
        if self.frame.rec_lsn.load(Ordering::Relaxed) == 0 {
            self.frame.rec_lsn.store(lsn.0, Ordering::Relaxed);
        }
        self.frame.dirty.store(true, Ordering::Relaxed);
    }

    /// Mark dirty without stamping an LSN (bootstrap/unlogged changes).
    pub fn mark_dirty_unlogged(&mut self) {
        self.frame.dirty.store(true, Ordering::Relaxed);
    }

    /// Downgrade to an S-mode latch without releasing it.
    pub fn downgrade(mut self) -> PageReadGuard {
        let frame = self.frame.clone();
        let Some(guard) = self.guard.take() else {
            unreachable!("write guard downgraded twice");
        };
        // Writes are published: the seqlock word returns to even before
        // the X latch weakens to S (readers admitted after this point
        // see a stable word).
        frame.seq.fetch_add(1, Ordering::AcqRel);
        // `self` drops here with `guard == None`: the pin and the audit
        // held-entry transfer to the read guard instead of being released.
        drop(self);
        audit::latch_downgraded(frame.audit_id, u64::from(frame.id.0));
        PageReadGuard { frame, guard: ArcRwLockWriteGuard::downgrade(guard) }
    }
}

impl std::ops::Deref for PageWriteGuard {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.data().page
    }
}

impl std::ops::DerefMut for PageWriteGuard {
    fn deref_mut(&mut self) -> &mut Page {
        &mut self.data_mut().page
    }
}

impl Drop for PageWriteGuard {
    fn drop(&mut self) {
        // `None` means `downgrade` moved the latch into a read guard:
        // pin and audit entry live on there (and the seqlock word was
        // already returned to even at the downgrade).
        if let Some(g) = self.guard.take() {
            // Even again *before* the latch releases: a reader admitted
            // by the release must see a stable version word.
            self.frame.seq.fetch_add(1, Ordering::AcqRel);
            drop(g);
            audit::latch_released(self.frame.audit_id, u64::from(self.frame.id.0));
            self.frame.pins.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InMemoryStore;

    fn pool(capacity: usize) -> Arc<BufferPool> {
        let store = Arc::new(InMemoryStore::new());
        store.ensure_capacity(64).unwrap();
        BufferPool::new(store, capacity)
    }

    #[test]
    fn new_page_then_read_back() {
        let pool = pool(8);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"hello").unwrap();
            g.mark_dirty_unlogged();
        }
        let g = pool.fetch_read(PageId(1)).unwrap();
        assert_eq!(g.cell(0).unwrap(), b"hello");
        assert_eq!(g.page_id(), PageId(1));
    }

    #[test]
    fn eviction_writes_back_and_reload_preserves_content() {
        let pool = pool(2);
        for i in 1..=8u32 {
            let mut g = pool.new_page_write(PageId(i), 0).unwrap();
            g.insert_cell(format!("page-{i}").as_bytes()).unwrap();
            g.mark_dirty_unlogged();
        }
        assert!(pool.cached_frames() <= 3, "pool stayed near capacity");
        for i in 1..=8u32 {
            let g = pool.fetch_read(PageId(i)).unwrap();
            assert_eq!(g.cell(0).unwrap(), format!("page-{i}").as_bytes());
        }
        assert!(pool.stats.evictions.load(Ordering::Relaxed) > 0);
        assert!(pool.stats.writebacks.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        // The test deliberately pins three pages at once — legal here,
        // whitelisted for the latch-audit discipline checker.
        let _scope = audit::enter_scope("test-harness", usize::MAX, true, true);
        let pool = pool(2);
        let g1 = pool.new_page_write(PageId(1), 0).unwrap();
        let g2 = pool.new_page_write(PageId(2), 0).unwrap();
        let g3 = pool.new_page_write(PageId(3), 0).unwrap();
        // All pinned: pool must grow past capacity rather than evict.
        assert_eq!(pool.cached_frames(), 3);
        drop((g1, g2, g3));
    }

    #[test]
    fn crash_discards_unflushed_writes() {
        let store = Arc::new(InMemoryStore::new());
        store.ensure_capacity(8).unwrap();
        let pool = BufferPool::new(store.clone(), 8);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"durable").unwrap();
            g.mark_dirty_unlogged();
        }
        pool.flush_all().unwrap();
        {
            let mut g = pool.fetch_write(PageId(1)).unwrap();
            g.insert_cell(b"lost").unwrap();
            g.mark_dirty_unlogged();
        }
        pool.crash();
        let pool2 = BufferPool::new(store, 8);
        let g = pool2.fetch_read(PageId(1)).unwrap();
        assert_eq!(g.cell(0).unwrap(), b"durable");
        assert_eq!(g.cell(1), None, "unflushed cell gone after crash");
    }

    #[test]
    fn wal_rule_flushes_log_before_writeback() {
        let log = Arc::new(LogManager::new());
        let mut page_lsn = Lsn::NULL;
        for _ in 0..77 {
            page_lsn = log.append(gist_wal::TxnId(1), page_lsn, gist_wal::RecordBody::Noop);
        }
        let store = Arc::new(InMemoryStore::new());
        store.ensure_capacity(8).unwrap();
        let pool = BufferPool::new(store, 8);
        pool.set_log(log.clone());
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"x").unwrap();
            g.mark_dirty(page_lsn);
        }
        assert_eq!(log.flushed_lsn(), Lsn::NULL);
        pool.flush_all().unwrap();
        assert_eq!(log.flushed_lsn(), Lsn(77), "log forced to page LSN");
        log.crash();
        {
            let mut g = pool.fetch_write(PageId(1)).unwrap();
            g.mark_dirty(log.append(gist_wal::TxnId(2), Lsn::NULL, gist_wal::RecordBody::Noop));
        }
        assert!(pool.flush_all().is_err(), "a log that cannot sync refuses the write-back");
        assert!(!pool.is_poisoned(), "a refused sync is not a storage failure");
    }

    #[test]
    fn concurrent_readers_share_the_latch() {
        let _scope = audit::enter_scope("test-harness", usize::MAX, true, true);
        let pool = pool(8);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"shared").unwrap();
        }
        let r1 = pool.fetch_read(PageId(1)).unwrap();
        let r2 = pool.fetch_read(PageId(1)).unwrap();
        assert_eq!(r1.cell(0), r2.cell(0));
    }

    #[test]
    fn downgrade_keeps_the_latch() {
        let _scope = audit::enter_scope("test-harness", usize::MAX, true, true);
        let pool = pool(8);
        let mut g = pool.new_page_write(PageId(1), 0).unwrap();
        g.insert_cell(b"d").unwrap();
        let r = g.downgrade();
        // A concurrent reader can share, a writer cannot (try via thread).
        let r2 = pool.fetch_read(PageId(1)).unwrap();
        assert_eq!(r.cell(0).unwrap(), b"d");
        assert_eq!(r2.cell(0).unwrap(), b"d");
    }

    #[test]
    fn many_threads_hammer_the_pool() {
        let pool = pool(4);
        for i in 0..16u32 {
            let mut g = pool.new_page_write(PageId(i), 0).unwrap();
            g.insert_cell(&i.to_le_bytes()).unwrap();
            g.mark_dirty_unlogged();
        }
        let mut handles = Vec::new();
        for t in 0..8 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..200u32 {
                    let id = PageId((t * 7 + round) % 16);
                    let g = pool.fetch_read(id).unwrap();
                    assert_eq!(g.cell(0).unwrap(), &id.0.to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.stats.hits.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn try_fetch_write_declines_contended_latches() {
        let pool = pool(8);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"x").unwrap();
        }
        // Uncontended: granted.
        let g = pool.try_fetch_write(PageId(1)).unwrap().expect("free latch");
        // Contended from another thread: declined without blocking.
        let pool2 = pool.clone();
        let t = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            let res = pool2.try_fetch_write(PageId(1)).unwrap();
            (res.is_none(), t0.elapsed())
        });
        let (declined, took) = t.join().unwrap();
        assert!(declined, "latch was held");
        assert!(took < std::time::Duration::from_millis(100), "did not block");
        drop(g);
        // And a miss loads from the store without blocking.
        let miss = pool.try_fetch_write(PageId(7)).unwrap();
        assert!(miss.is_some());
    }

    #[test]
    fn transient_read_errors_are_retried_through() {
        use crate::fault::FaultStore;
        use gist_chaos::{Action, Plan, Trigger};
        let inner = Arc::new(InMemoryStore::new());
        inner.ensure_capacity(8).unwrap();
        let plan = Plan::new();
        let faults = FaultStore::new(inner, plan.clone());
        let pool = BufferPool::new(faults.clone(), 4);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"survives eintr").unwrap();
            g.mark_dirty_unlogged();
        }
        pool.flush_all().unwrap();
        pool.crash();
        // The next load hits IO_RETRY_LIMIT-1 consecutive transient
        // failures — still within the retry budget, so the fetch succeeds.
        plan.add("store.read", Trigger::At(0), Action::Transient(IO_RETRY_LIMIT - 1));
        plan.arm();
        let g = pool.fetch_read(PageId(1)).unwrap();
        assert_eq!(g.cell(0).unwrap(), b"survives eintr");
        assert_eq!(plan.fires("store.read"), 1);
        assert!(!pool.is_poisoned(), "transient errors never poison");
    }

    #[test]
    fn persistent_load_error_reaches_every_waiter() {
        use crate::fault::FaultStore;
        use gist_chaos::{Action, Plan, Trigger};
        let inner = Arc::new(InMemoryStore::new());
        inner.ensure_capacity(8).unwrap();
        let plan = Plan::new();
        let faults = FaultStore::new(inner, plan.clone());
        let pool = BufferPool::new(faults.clone(), 4);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"x").unwrap();
            g.mark_dirty_unlogged();
        }
        pool.flush_all().unwrap();
        pool.crash();
        // Reads fail permanently from the very first operation. Several
        // threads race the fetch: exactly one loads (and fails), the rest
        // park on the frame latch — all must get the error, none may spin.
        plan.add("store.read", Trigger::At(0), Action::Permanent);
        plan.arm();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || pool.fetch_read(PageId(1)).map(|_| ())));
        }
        for h in handles {
            let res = h.join().unwrap();
            assert!(res.is_err(), "waiter saw the load error");
        }
        assert_eq!(pool.cached_frames(), 0, "failed frame removed from the table");
    }

    #[test]
    fn persistent_write_failure_degrades_to_read_only() {
        use crate::fault::FaultStore;
        use gist_chaos::{Action, Plan, Trigger};
        let inner = Arc::new(InMemoryStore::new());
        inner.ensure_capacity(8).unwrap();
        let plan = Plan::new();
        let faults = FaultStore::new(inner, plan.clone());
        let pool = BufferPool::new(faults.clone(), 4);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"still readable").unwrap();
            g.mark_dirty_unlogged();
        }
        pool.flush_all().unwrap();
        {
            let mut g = pool.fetch_write(PageId(1)).unwrap();
            g.insert_cell(b"doomed").unwrap();
            g.mark_dirty_unlogged();
        }
        plan.add("store.write", Trigger::At(0), Action::Permanent);
        plan.arm();
        let err = pool.flush_all().unwrap_err();
        assert!(!is_transient_io(&err));
        assert!(pool.is_poisoned(), "persistent write failure poisons the pool");
        // Writes are refused with the marker error...
        let Err(werr) = pool.fetch_write(PageId(1)).map(|_| ()) else {
            panic!("poisoned pool granted a write latch");
        };
        assert!(is_storage_poisoned(&werr));
        assert!(pool.try_fetch_write(PageId(1)).is_err());
        assert!(pool.new_page_write(PageId(5), 0).is_err());
        // ...while reads keep being served (the dirty frame is cached).
        let g = pool.fetch_read(PageId(1)).unwrap();
        assert_eq!(g.cell(1).unwrap(), b"doomed");
    }

    #[test]
    fn quarantine_zeroes_torn_pages_for_redo() {
        use crate::fault::FaultStore;
        use gist_chaos::{Action, Plan, Trigger};
        let inner = Arc::new(InMemoryStore::new());
        inner.ensure_capacity(8).unwrap();
        let plan = Plan::new();
        let faults = FaultStore::new(inner, plan.clone());
        let pool = BufferPool::new(faults.clone(), 8);
        for i in 1..=3u32 {
            let mut g = pool.new_page_write(PageId(i), 0).unwrap();
            g.insert_cell(format!("page {i}").as_bytes()).unwrap();
            g.mark_dirty(Lsn(u64::from(10 + i)));
        }
        // Page 2's write-back tears after the first sector.
        plan.add("store.write", Trigger::At(1), Action::Torn(512));
        plan.arm();
        // Whichever of the three write-backs is issued second tears; the
        // scan below finds it without assuming a flush order.
        pool.flush_all().unwrap();
        plan.disarm();
        pool.crash();

        // Restart-time scan: exactly one page fails its checksum and is
        // quarantined as a zeroed dirty frame with page LSN 0.
        let pool2 = BufferPool::new(faults.clone(), 8);
        let torn = pool2.quarantine_torn_pages(Lsn(13)).unwrap();
        assert_eq!(torn.len(), 1, "exactly one torn page: {torn:?}");
        let id = torn[0];
        let g = pool2.fetch_read(id).unwrap();
        assert_eq!(g.page_lsn(), Lsn::NULL, "quarantined image redoes from scratch");
        drop(g);
        // The intact pages load and verify fine.
        for i in 1..=3u32 {
            if PageId(i) != id {
                let g = pool2.fetch_read(PageId(i)).unwrap();
                assert_eq!(g.cell(0).unwrap(), format!("page {i}").as_bytes());
            }
        }
        // And the quarantined page is dirty, so a flush persists the
        // repaired (here: zeroed) image with a fresh checksum.
        pool2.flush_all().unwrap();
        pool2.crash();
        let pool3 = BufferPool::new(faults, 8);
        assert!(pool3.quarantine_torn_pages(Lsn(13)).unwrap().is_empty(), "repair stuck");
    }

    #[test]
    fn torn_scan_refuses_a_page_ahead_of_the_log() {
        let store = Arc::new(InMemoryStore::new());
        let pool = BufferPool::new(store.clone(), 8);
        for i in 1..=2u32 {
            let mut g = pool.new_page_write(PageId(i), 0).unwrap();
            g.insert_cell(b"x").unwrap();
            g.mark_dirty(Lsn(u64::from(40 + i)));
        }
        pool.flush_all().unwrap();
        pool.crash();
        let pool2 = BufferPool::new(store, 8);
        let err = pool2.quarantine_torn_pages(Lsn(41)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("P2") && msg.contains("42") && msg.contains("41"), "{msg}");
        assert!(pool2.quarantine_torn_pages(Lsn(42)).unwrap().is_empty());
    }

    #[test]
    fn unsynced_writebacks_stay_in_the_dirty_page_table() {
        let store = Arc::new(InMemoryStore::new());
        store.ensure_capacity(8).unwrap();
        let pool = BufferPool::new(store, 8);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"x").unwrap();
            g.mark_dirty(Lsn(5));
        }
        assert_eq!(pool.dirty_page_table(), vec![(1, Lsn(5))]);
        pool.flush_all().unwrap();
        // Written back but not yet synced: still reported, same recLSN —
        // a crash could lose the write-back.
        assert_eq!(pool.dirty_page_table(), vec![(1, Lsn(5))]);
        pool.sync_store().unwrap();
        assert_eq!(pool.dirty_page_table(), vec![], "sync barrier clears the entry");
    }

    #[test]
    fn writers_exclude_each_other() {
        let pool = pool(8);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(&0u64.to_le_bytes()).unwrap();
            g.mark_dirty_unlogged();
        }
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let mut g = pool.fetch_write(PageId(1)).unwrap();
                    let v = u64::from_le_bytes(g.cell(0).unwrap().try_into().unwrap());
                    g.update_cell(0, &(v + 1).to_le_bytes()).unwrap();
                    g.mark_dirty_unlogged();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let g = pool.fetch_read(PageId(1)).unwrap();
        let v = u64::from_le_bytes(g.cell(0).unwrap().try_into().unwrap());
        assert_eq!(v, 800, "increments never lost under the X latch");
    }

    /// What an epoch pin tells the audit layer: an optimistic section
    /// must be covered by one (`optimistic-unpinned`). The pool itself
    /// never consults the epoch domain, so the tests need nothing more.
    struct Pin;

    fn pin() -> Pin {
        audit::epoch_pinned(0);
        Pin
    }

    impl Drop for Pin {
        fn drop(&mut self) {
            audit::epoch_unpinned(0);
        }
    }

    #[test]
    fn optimistic_read_round_trip() {
        let pool = pool(8);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"stable").unwrap();
            g.mark_dirty_unlogged();
        }
        let _pin = pin();
        let og = pool.fetch_optimistic(PageId(1)).unwrap();
        assert_eq!(og.page_id(), PageId(1));
        let copy = og.read_with(|p| p.cell(0).map(<[u8]>::to_vec)).expect("no writer active");
        assert_eq!(copy.unwrap(), b"stable");
        assert!(og.validate());
    }

    #[test]
    fn optimistic_miss_loads_through_the_pool() {
        let pool = pool(8);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"loaded").unwrap();
            g.mark_dirty_unlogged();
        }
        pool.flush_all().unwrap();
        pool.crash();
        let _pin = pin();
        // Not cached: the miss is loaded into a frame like any latched
        // fetch, and the guard reads that frame.
        let og = pool.fetch_optimistic(PageId(1)).unwrap();
        let copy = og.read_with(|p| p.cell(0).map(<[u8]>::to_vec)).unwrap();
        assert_eq!(copy.unwrap(), b"loaded");
        assert!(og.validate());
        assert_eq!(pool.cached_frames(), 1, "the miss is cached");
        assert_eq!(pool.stats.misses.load(Ordering::Relaxed), 1);
        assert_eq!(pool.stats.direct_reads.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn optimistic_miss_surfaces_the_loader_error() {
        // A page id beyond the store cannot be loaded; the optimistic
        // fetch reports the loader's error.
        let pool = pool(8);
        let _pin = pin();
        assert!(pool.fetch_optimistic(PageId(100)).is_err(), "loader surfaces the error");
    }

    #[test]
    fn active_writer_blocks_optimistic_copy() {
        let pool = pool(8);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"x").unwrap();
        }
        let _pin = pin();
        let g = pool.fetch_write(PageId(1)).unwrap();
        let og = pool.fetch_optimistic(PageId(1)).unwrap();
        assert!(og.read_with(|p| p.page_lsn()).is_none(), "seq odd while writer live");
        assert!(!og.validate());
        drop(g);
        // A guard taken after the writer finishes is stable again.
        let og2 = pool.fetch_optimistic(PageId(1)).unwrap();
        assert!(og2.read_with(|p| p.page_lsn()).is_some());
        assert!(og2.validate());
    }

    #[test]
    fn concurrent_writer_invalidates_taken_copies() {
        let pool = pool(8);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"v0").unwrap();
            g.mark_dirty_unlogged();
        }
        let _pin = pin();
        let og = pool.fetch_optimistic(PageId(1)).unwrap();
        let copy = og.read_with(|p| p.cell(0).map(<[u8]>::to_vec)).unwrap();
        assert_eq!(copy.unwrap(), b"v0");
        // The write runs on another thread: latching on a thread with an
        // open optimistic section is an audit violation by design.
        let writer = pool.clone();
        std::thread::spawn(move || {
            let mut g = writer.fetch_write(PageId(1)).unwrap();
            g.update_cell(0, b"v1").unwrap();
            g.mark_dirty_unlogged();
        })
        .join()
        .unwrap();
        assert!(!og.validate(), "copy is stale");
        assert!(og.read_with(|p| p.page_lsn()).is_none(), "stale guard refuses to copy");
    }

    #[test]
    fn downgrade_restores_an_even_version_word() {
        let _pin = pin();
        let pool = pool(8);
        let g = pool.new_page_write(PageId(1), 0).unwrap();
        let og = pool.fetch_optimistic(PageId(1)).unwrap();
        assert!(og.read_with(|p| p.page_lsn()).is_none(), "writer live");
        let r = g.downgrade();
        assert!(!og.validate(), "word moved while odd-snapshotted");
        let og2 = pool.fetch_optimistic(PageId(1)).unwrap();
        assert!(og2.read_with(|p| p.page_lsn()).is_some(), "shares with the S latch");
        assert!(og2.validate());
        drop(r);
    }

    #[test]
    fn eviction_kills_optimistic_guards_and_frees_frames_with_their_last_arc() {
        let pool = pool(2);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"victim").unwrap();
            g.mark_dirty_unlogged();
        }
        let pin = pin();
        let og = pool.fetch_optimistic(PageId(1)).unwrap();
        let dead = Arc::downgrade(&og.frame);
        // Flood the pool from another thread (this thread's optimistic
        // section must stay latch-free): page 1 is the unpinned
        // minimum-tick victim — the optimistic guard holds no pin.
        let flood = pool.clone();
        std::thread::spawn(move || {
            for i in 2..=8u32 {
                let mut g = flood.new_page_write(PageId(i), 0).unwrap();
                g.insert_cell(&i.to_le_bytes()).unwrap();
                g.mark_dirty_unlogged();
            }
        })
        .join()
        .unwrap();
        assert!(pool.stats.evictions.load(Ordering::Relaxed) > 0);
        assert!(!og.validate(), "an evicted frame reads as a moved copy");
        assert!(og.read_with(|p| p.page_lsn()).is_none(), "dead frame refuses to copy");
        // The guard is the dead incarnation's only owner now: the page id
        // may be reloaded, but this frame is freed with the guard.
        assert_eq!(dead.strong_count(), 1, "only the guard holds the evicted frame");
        drop(og);
        assert!(dead.upgrade().is_none(), "evicted frame freed with its last Arc");
        drop(pin);
    }

    #[test]
    fn crash_kills_optimistic_guards() {
        let pool = pool(8);
        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"gone").unwrap();
        }
        let _pin = pin();
        let og = pool.fetch_optimistic(PageId(1)).unwrap();
        pool.crash();
        assert!(!og.validate());
        assert!(og.read_with(|p| p.page_lsn()).is_none());
    }

    /// A summary describes the image it was built from: every write
    /// guard drops it under the X latch (a plain write, a downgraded
    /// one, a reformat by `new_page_write`, quarantine zeroing), and the
    /// next reader builds one of the new image. Between writes readers
    /// share the one build, latched or optimistic.
    #[test]
    fn every_write_guard_drops_the_summary() {
        use std::cell::Cell;
        let store = Arc::new(InMemoryStore::new());
        store.ensure_capacity(8).unwrap();
        let pool = BufferPool::new(store.clone(), 8);
        let builds = Cell::new(0u32);
        // The summary here is the cell count, built through `iter_cells`.
        let build = |p: &Page| -> Box<[u64]> {
            builds.set(builds.get() + 1);
            Box::new([p.iter_cells().count() as u64])
        };
        let latched = || pool.fetch_read(PageId(1)).unwrap().frame_data().summary(build).to_vec();
        let optimistic = || {
            let _pin = pin();
            let og = pool.fetch_optimistic(PageId(1)).unwrap();
            og.read_frame_with(|d| d.summary(build).to_vec()).unwrap()
        };

        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"a").unwrap();
            g.mark_dirty_unlogged();
        }
        assert_eq!((latched(), optimistic(), latched()), (vec![1], vec![1], vec![1]));
        assert_eq!(builds.get(), 1, "readers between writes share one build");

        {
            let mut g = pool.fetch_write(PageId(1)).unwrap();
            g.insert_cell(b"b").unwrap();
        }
        assert_eq!((optimistic(), latched()), (vec![2], vec![2]), "a plain write drops it");
        assert_eq!(builds.get(), 2);

        {
            let mut g = pool.fetch_write(PageId(1)).unwrap();
            g.insert_cell(b"c").unwrap();
            let r = g.downgrade();
            assert_eq!(r.frame_data().summary(build), &[3], "a downgraded writer drops it");
        }
        assert_eq!(latched(), vec![3]);
        assert_eq!(builds.get(), 3);

        {
            let mut g = pool.new_page_write(PageId(1), 0).unwrap();
            g.insert_cell(b"fresh").unwrap();
            g.mark_dirty_unlogged();
        }
        assert_eq!(latched(), vec![1], "a reformat drops it");
        assert_eq!(builds.get(), 4);

        // A torn image of page 1 in the store: quarantine zeroes the
        // cached frame through a write guard.
        let mut torn = Page::zeroed();
        torn.format(PageId(1), 0);
        torn.insert_cell(b"torn").unwrap();
        store.write(PageId(1), &torn).unwrap();
        assert_eq!(pool.quarantine_torn_pages(Lsn(0)).unwrap(), vec![PageId(1)]);
        assert_eq!((optimistic(), latched()), (vec![0], vec![0]), "quarantine drops it");
        assert_eq!(builds.get(), 5);
    }
}
