//! Daemon tests over fake indexes: queueing, retry, panic containment,
//! checkpoints and the worker thread.

use std::sync::atomic::AtomicBool;

use super::*;
use gist_lockmgr::LockManager;
use gist_pagestore::{InMemoryStore, PageStore};
use gist_predlock::PredicateManager;

struct FakeIndex {
    id: u32,
    gc_calls: AtomicU64,
    drain_calls: AtomicU64,
    /// Busy for the first N drain attempts.
    busy_until: u64,
}

impl FakeIndex {
    fn registered(d: &MaintDaemon, id: u32, busy_until: u64) -> Arc<Self> {
        let idx = Arc::new(FakeIndex {
            id,
            gc_calls: AtomicU64::new(0),
            drain_calls: AtomicU64::new(0),
            busy_until,
        });
        let a: Arc<dyn MaintIndex> = idx.clone();
        d.register_index(Arc::downgrade(&a));
        idx
    }
}

impl MaintIndex for FakeIndex {
    fn maint_index_id(&self) -> u32 {
        self.id
    }
    fn maint_gc_leaf(
        &self,
        _leaf: PageId,
        _parent_hint: Option<PageId>,
    ) -> Result<GcOutcome, MaintError> {
        self.gc_calls.fetch_add(1, Ordering::Relaxed);
        Ok(GcOutcome { reclaimed: 3, leaf_empty: true })
    }
    fn maint_try_drain(
        &self,
        _leaf: PageId,
        _parent_hint: Option<PageId>,
    ) -> Result<DrainOutcome, MaintError> {
        let n = self.drain_calls.fetch_add(1, Ordering::Relaxed);
        if n < self.busy_until {
            Ok(DrainOutcome::Busy)
        } else {
            Ok(DrainOutcome::Deleted)
        }
    }
}

fn daemon(config: MaintConfig) -> (Arc<MaintDaemon>, Arc<LogManager>) {
    let log = Arc::new(LogManager::new());
    let locks = Arc::new(LockManager::new());
    let preds = Arc::new(PredicateManager::new());
    let txns = Arc::new(TxnManager::new(log.clone(), locks, preds));
    txns.pipeline().start().unwrap();
    let store = Arc::new(InMemoryStore::new());
    store.ensure_capacity(4).unwrap();
    let pool = BufferPool::new(store, 8);
    (MaintDaemon::new(txns, pool, log.clone(), config), log)
}

/// Poll `done` for up to five seconds.
fn wait_until(done: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !done() && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn gc_feeds_drain_with_retry_until_deleted() {
    let (d, _log) = daemon(MaintConfig::default());
    let idx = FakeIndex::registered(&d, 7, 2);
    d.enqueue_gc(vec![GcCandidate { index: 7, leaf: PageId(9), parent_hint: Some(PageId(3)) }]);
    d.run_until_idle();
    assert_eq!(idx.gc_calls.load(Ordering::Relaxed), 1);
    assert_eq!(idx.drain_calls.load(Ordering::Relaxed), 3, "two busy, then deleted");
    let s = d.stats.snapshot();
    assert_eq!(s.entries_reclaimed, 3);
    assert_eq!(s.nodes_drained, 1);
    assert_eq!(s.retries, 2);
    assert_eq!(d.backlog(), 0);
}

/// A `FakeIndex` whose first GC call parks until released and then
/// asks for a retry — holds an item *in flight* on the worker thread
/// while the test calls `run_until_idle`.
struct ParkedRetryIndex {
    id: u32,
    gc_calls: AtomicU64,
    entered: std::sync::mpsc::Sender<()>,
    release: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
}

impl MaintIndex for ParkedRetryIndex {
    fn maint_index_id(&self) -> u32 {
        self.id
    }
    fn maint_gc_leaf(
        &self,
        _leaf: PageId,
        _parent_hint: Option<PageId>,
    ) -> Result<GcOutcome, MaintError> {
        if self.gc_calls.fetch_add(1, Ordering::Relaxed) == 0 {
            self.entered.send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
            return Err(MaintError::Retry("parked".into()));
        }
        Ok(GcOutcome { reclaimed: 1, leaf_empty: false })
    }
    fn maint_try_drain(
        &self,
        _leaf: PageId,
        _parent_hint: Option<PageId>,
    ) -> Result<DrainOutcome, MaintError> {
        Ok(DrainOutcome::Deleted)
    }
}

/// Regression: `run_until_idle` must not conclude "drained" while the
/// worker still owns an item — the worker's `finish` may re-enqueue it
/// (retry backoff), and a caller that returned early would race that
/// re-enqueue and observe unreclaimed work after a "sync".
#[test]
fn run_until_idle_waits_for_in_flight_retries() {
    let (d, _log) = daemon(MaintConfig::default());
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel();
    let idx = Arc::new(ParkedRetryIndex {
        id: 4,
        gc_calls: AtomicU64::new(0),
        entered: entered_tx,
        release: std::sync::Mutex::new(release_rx),
    });
    let weak: Weak<dyn MaintIndex> = {
        let a: Arc<dyn MaintIndex> = idx.clone();
        Arc::downgrade(&a)
    };
    d.register_index(weak);
    d.start().unwrap();
    d.enqueue(WorkItem::Gc { index: 4, leaf: PageId(6), parent_hint: None });
    // The worker owns the item (queue empty, in_flight = 1) ...
    entered_rx.recv().unwrap();
    // ... and is released only after the drain is underway.
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        release_tx.send(()).unwrap();
    });
    d.run_until_idle();
    releaser.join().unwrap();
    assert_eq!(
        idx.gc_calls.load(Ordering::Relaxed),
        2,
        "run_until_idle processed the retry the in-flight worker re-enqueued"
    );
    assert_eq!(d.backlog(), 0);
    d.stop(/*drain=*/ false);
}

#[test]
fn duplicate_pending_work_is_coalesced() {
    let (d, _log) = daemon(MaintConfig::default());
    let item = WorkItem::Gc { index: 1, leaf: PageId(4), parent_hint: None };
    assert!(d.enqueue(item.clone()));
    assert!(!d.enqueue(item.clone()), "identical pending work deduplicated");
    assert_eq!(d.backlog(), 1);
}

#[test]
fn exhausted_retries_drop_the_item() {
    let (d, _log) = daemon(MaintConfig::default());
    let idx = FakeIndex::registered(&d, 1, u64::MAX);
    d.enqueue(WorkItem::Drain { index: 1, leaf: PageId(2), parent_hint: None });
    d.run_until_idle();
    let s = d.stats.snapshot();
    assert_eq!(s.retries, RETRY_BUDGET as u64);
    assert_eq!(s.dropped, 1);
    assert_eq!(idx.drain_calls.load(Ordering::Relaxed), RETRY_BUDGET as u64 + 1);
    assert_eq!(d.backlog(), 0);
}

#[test]
fn checkpoint_work_writes_a_bounded_checkpoint() {
    let (d, log) = daemon(MaintConfig::default());
    let before = log.last_lsn();
    let lsn = d.checkpoint_now().unwrap();
    assert_eq!(log.last_checkpoint(), Some(lsn), "checkpoint written");
    match log.get(lsn).body {
        gist_wal::RecordBody::Checkpoint { scan_start, .. } => {
            assert_eq!(scan_start, before);
        }
        other => panic!("expected checkpoint, got {other:?}"),
    }
    assert_eq!(d.stats.snapshot().checkpoints, 1);
}

/// A drain that stays `Busy` through the whole retry budget and notes,
/// on its last attempt, whether a checkpoint record exists yet.
struct StuckDrainIndex {
    log: Arc<LogManager>,
    drain_calls: AtomicU64,
    checkpointed_before_drop: AtomicBool,
}

impl MaintIndex for StuckDrainIndex {
    fn maint_index_id(&self) -> u32 {
        5
    }
    fn maint_gc_leaf(
        &self,
        _leaf: PageId,
        _parent_hint: Option<PageId>,
    ) -> Result<GcOutcome, MaintError> {
        Ok(GcOutcome::default())
    }
    fn maint_try_drain(
        &self,
        _leaf: PageId,
        _parent_hint: Option<PageId>,
    ) -> Result<DrainOutcome, MaintError> {
        if self.drain_calls.fetch_add(1, Ordering::Relaxed) == RETRY_BUDGET as u64 {
            let seen = self.log.last_checkpoint().is_some();
            self.checkpointed_before_drop.store(seen, Ordering::Relaxed);
        }
        Ok(DrainOutcome::Busy)
    }
}

/// An item that keeps losing its race must not starve the periodic
/// checkpoint: the worker checkpoints between attempts.
#[test]
fn periodic_checkpoint_not_starved_by_retrying_drain() {
    let (d, log) = daemon(MaintConfig { checkpoint_interval: Some(Duration::from_millis(5)) });
    let idx = Arc::new(StuckDrainIndex {
        log: log.clone(),
        drain_calls: AtomicU64::new(0),
        checkpointed_before_drop: AtomicBool::new(false),
    });
    let a: Arc<dyn MaintIndex> = idx.clone();
    d.register_index(Arc::downgrade(&a));
    d.enqueue(WorkItem::Drain { index: 5, leaf: PageId(2), parent_hint: Some(PageId(1)) });
    d.start().unwrap();
    wait_until(|| d.stats.snapshot().dropped == 1);
    d.stop(/*drain=*/ false);
    let s = d.stats.snapshot();
    assert_eq!(s.dropped, 1, "the drain used up its retry budget");
    assert!(s.checkpoints >= 1);
    assert!(
        idx.checkpointed_before_drop.load(Ordering::Relaxed),
        "a checkpoint was written before the drain was dropped"
    );
}

#[test]
fn workers_process_in_background_and_stop_cleanly() {
    let (d, _log) = daemon(MaintConfig { checkpoint_interval: Some(Duration::from_millis(5)) });
    let idx = FakeIndex::registered(&d, 2, 0);
    d.start().unwrap();
    assert!(d.is_running());
    d.enqueue_gc(vec![GcCandidate { index: 2, leaf: PageId(11), parent_hint: None }]);
    wait_until(|| d.backlog() == 0);
    assert_eq!(d.backlog(), 0, "the background worker drained the queue");
    assert!(idx.gc_calls.load(Ordering::Relaxed) >= 1);
    wait_until(|| d.stats.snapshot().checkpoints > 0);
    assert!(d.stats.snapshot().checkpoints >= 1, "periodic checkpoint fired");
    d.stop(true);
    assert!(!d.is_running());
    // Post-stop enqueues are refused.
    assert!(!d.enqueue(WorkItem::Gc { index: 2, leaf: PageId(12), parent_hint: None }));
}

/// An index (id `.0`) whose GC runs a hook on the worker thread: a
/// panic, as an engine bug surfacing there would, or a stop, as a `Db`
/// dropped there does.
struct HookIndex(u32, Box<dyn Fn(PageId) + Send + Sync>);

impl MaintIndex for HookIndex {
    fn maint_index_id(&self) -> u32 {
        self.0
    }
    fn maint_gc_leaf(
        &self,
        leaf: PageId,
        _parent_hint: Option<PageId>,
    ) -> Result<GcOutcome, MaintError> {
        (self.1)(leaf);
        Ok(GcOutcome { reclaimed: 0, leaf_empty: false })
    }
    fn maint_try_drain(
        &self,
        _leaf: PageId,
        _parent_hint: Option<PageId>,
    ) -> Result<DrainOutcome, MaintError> {
        Ok(DrainOutcome::Skipped)
    }
}

#[test]
fn worker_survives_a_panicking_item_and_drains() {
    let (d, _log) = daemon(MaintConfig::default());
    let idx: Arc<dyn MaintIndex> =
        Arc::new(HookIndex(9, Box::new(|leaf| panic!("injected: gc of {leaf} blew up"))));
    d.register_index(Arc::downgrade(&idx));
    // FIFO: the panic comes first, and the second leaf's drain proves
    // the worker outlived it.
    d.enqueue(WorkItem::Gc { index: 9, leaf: PageId(3), parent_hint: None });
    d.enqueue(WorkItem::Drain { index: 9, leaf: PageId(4), parent_hint: None });
    d.start().unwrap();
    // `stop(drain)` waits for the in-flight count; a worker that died
    // mid-item would leave it at 1 forever.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopper = {
        let d = d.clone();
        std::thread::spawn(move || {
            d.stop(true);
            done_tx.send(()).unwrap();
        })
    };
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("stop(drain) hung behind the panicked item");
    stopper.join().unwrap();
    let stats = d.stats.snapshot();
    assert_eq!((stats.panics, stats.failures), (1, 1), "contained and counted once");
    assert_eq!(stats.drain_attempts, 1, "the queue behind the panic was served");
    assert_eq!(d.backlog(), 0);
}

#[test]
fn stop_on_the_worker_thread_skips_the_join_and_the_worker_exits() {
    let (d, _log) = daemon(MaintConfig::default());
    let returned = Arc::new(AtomicBool::new(false));
    let (daemon, flag) = (Arc::downgrade(&d), returned.clone());
    let idx: Arc<dyn MaintIndex> = Arc::new(HookIndex(
        5,
        Box::new(move |_| {
            if let Some(d) = daemon.upgrade() {
                d.stop(false);
            }
            flag.store(true, Ordering::Release);
        }),
    ));
    d.register_index(Arc::downgrade(&idx));
    d.enqueue(WorkItem::Gc { index: 5, leaf: PageId(1), parent_hint: None });
    d.start().unwrap();
    wait_until(|| returned.load(Ordering::Acquire));
    assert!(returned.load(Ordering::Acquire), "stop on the worker thread returned");
    // The worker drops its handle on the daemon once it leaves its loop.
    let weak = Arc::downgrade(&d);
    drop(d);
    wait_until(|| weak.upgrade().is_none());
    assert!(weak.upgrade().is_none(), "the worker exited");
}

#[test]
fn stop_without_drain_discards_the_queue() {
    let (d, _log) = daemon(MaintConfig::default());
    d.enqueue(WorkItem::Gc { index: 1, leaf: PageId(1), parent_hint: None });
    d.stop(false);
    assert_eq!(d.backlog(), 0);
    assert_eq!(d.stats.snapshot().gc_runs, 0, "nothing ran");
}
