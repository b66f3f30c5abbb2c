//! The lock manager proper: queues, grants, conversions, deadlock
//! detection.
//!
//! Lock queues are **striped** (`gist-striped`): a `LockName` hashes to
//! one of N shards, each an independent mutex + condvar, so requests on
//! distinct names never contend on a global manager lock. The §4
//! two-phase semantics and per-queue FIFO fairness are untouched — a
//! queue lives entirely inside one shard, and every grant/wait decision
//! is made under that shard's lock exactly as it was under the old
//! global one.
//!
//! Deadlock detection is **snapshot-based**: every shard keeps a version
//! counter bumped on each queue mutation, and a detector cache holds the
//! wait-for edges last computed per shard. A blocked request re-collects
//! edges only from shards whose version moved — never holding more than
//! one shard lock at a time — and runs the cycle search on the union.
//! All wait-for edges are intra-queue (waiter → holder, waiter → earlier
//! waiter, converter → other holder), so each shard's edge set is exact;
//! staleness across shards is resolved by re-checking grantability under
//! the shard lock before declaring the requester a victim.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use gist_sync::{Condvar, Mutex};

use gist_striped::Striped;
use gist_wal::TxnId;

use crate::audit;
use crate::{LockMode, LockName};

/// Why a lock request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// Granting would close a waits-for cycle; the requester is the
    /// victim and should abort (e.g. the §8 unique-insert race, which the
    /// paper resolves "in a standard manner by the lock manager").
    Deadlock,
    /// The request waited longer than the manager's timeout (a safety net
    /// against undetected cross-resource waits, e.g. latch-lock mixes).
    Timeout,
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Deadlock => write!(f, "deadlock: requester chosen as victim"),
            LockError::Timeout => write!(f, "lock wait timed out"),
        }
    }
}

impl std::error::Error for LockError {}

#[derive(Debug)]
struct Entry {
    txn: TxnId,
    mode: LockMode,
    count: u32,
    granted: bool,
    /// Pending conversion target for a granted entry.
    convert_to: Option<LockMode>,
    seq: u64,
}

impl Entry {
    /// Mode other requests must be compatible with: the conversion target
    /// is claimed eagerly so converters cannot be starved by new grants.
    fn effective_mode(&self) -> LockMode {
        match self.convert_to {
            Some(t) => self.mode.supremum(t),
            None => self.mode,
        }
    }
}

/// One stripe of the lock table. A queue (and therefore every FIFO /
/// grant decision about it) lives entirely inside one shard.
#[derive(Default)]
struct Shard {
    queues: HashMap<LockName, Vec<Entry>>,
    /// Per-shard request sequencer (FIFO comparisons only ever happen
    /// within one queue, which never spans shards).
    seq: u64,
    /// Bumped on every queue mutation; the deadlock detector's cache key.
    version: u64,
}

impl Shard {
    fn touch(&mut self) {
        self.version = self.version.wrapping_add(1);
    }
}

/// Per-shard cache of wait-for edges, keyed by the shard version they
/// were computed at.
struct EdgeCache {
    version: u64,
    edges: Vec<(TxnId, TxnId)>,
}

/// Lock-manager counters.
#[derive(Debug, Default)]
pub struct LockStats {
    /// Requests granted immediately.
    pub immediate_grants: AtomicU64,
    /// Requests that had to wait at least once.
    pub waits: AtomicU64,
    /// Requests aborted as deadlock victims.
    pub deadlocks: AtomicU64,
    /// Requests that timed out.
    pub timeouts: AtomicU64,
}

/// The lock manager.
pub struct LockManager {
    shards: Striped<Shard>,
    /// `cvs[i]` pairs with shard `i`: waiters on any queue in the shard
    /// park here and are woken by mutations of that shard only.
    cvs: Box<[Condvar]>,
    /// Names held per transaction, striped by `TxnId`. Locked only
    /// *after* a queue shard (grant/unlock paths) or entirely before any
    /// queue shard is taken (`release_all` drops it first) — a single
    /// cross-table order, so the tables cannot deadlock against each
    /// other.
    held: Striped<HashMap<TxnId, HashSet<LockName>>>,
    /// Snapshot cache for the deadlock detector; serializes detection
    /// (which is off the grant fast path — only blocked requests enter).
    detector: Mutex<Vec<EdgeCache>>,
    timeout: Duration,
    /// Counters (grants/waits/deadlocks/timeouts).
    pub stats: LockStats,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LockManager {
    /// Manager with the default 10 s wait timeout and shard count.
    pub fn new() -> Self {
        Self::with_timeout(Duration::from_secs(10))
    }

    /// Manager with a custom wait timeout and the default shard count.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_timeout_and_shards(timeout, 0)
    }

    /// Manager with an explicit queue shard count (rounded up to a power
    /// of two; `0` = `next_pow2(2×cores)`). Shard count 1 reproduces the
    /// pre-sharding single-mutex behavior exactly.
    pub fn with_timeout_and_shards(timeout: Duration, shards: usize) -> Self {
        let shards: Striped<Shard> = Striped::with_default(shards);
        let n = shards.shard_count();
        let cvs: Vec<Condvar> = (0..n).map(|_| Condvar::new()).collect();
        let detector =
            (0..n).map(|_| EdgeCache { version: u64::MAX, edges: Vec::new() }).collect();
        LockManager {
            shards,
            cvs: cvs.into_boxed_slice(),
            held: Striped::with_default(n),
            detector: Mutex::new(detector),
            timeout,
            stats: LockStats::default(),
        }
    }

    /// Number of queue shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    /// The queue shard `name` maps to (stable for the manager's lifetime;
    /// tests use this to build colliding / spread lock-name sets).
    pub fn shard_of(&self, name: &LockName) -> usize {
        self.shards.index_of(name)
    }

    /// Acquire `name` in `mode` for `txn`, blocking as needed.
    ///
    /// Re-acquisitions of covered modes are counted (see
    /// [`unlock`](Self::unlock)); stronger re-requests convert with
    /// priority over new waiters.
    pub fn lock(&self, txn: TxnId, name: LockName, mode: LockMode) -> Result<(), LockError> {
        assert!(!txn.is_none(), "locks must be owned by a transaction");
        let idx = self.shards.index_of(&name);
        let mut sh = self.shards.lock_index(idx);
        // Existing granted entry? Count or convert.
        if Self::granted_pos(&sh, &name, txn).is_some() {
            let entry = Self::entry_mut(&mut sh, &name, txn);
            if entry.mode.covers(mode) {
                entry.count += 1;
                self.stats.immediate_grants.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            let target = entry.mode.supremum(mode);
            entry.convert_to = Some(target);
            sh.touch();
            let mut waited = false;
            loop {
                if Self::conversion_compatible(&sh, &name, txn, target) {
                    let entry = Self::entry_mut(&mut sh, &name, txn);
                    entry.mode = target;
                    entry.convert_to = None;
                    entry.count += 1;
                    sh.touch();
                    drop(sh);
                    if waited {
                        self.cvs[idx].notify_all();
                    } else {
                        self.stats.immediate_grants.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(());
                }
                // Cycle-check on a cross-shard snapshot; the shard lock is
                // dropped first so detection never stacks shard mutexes.
                drop(sh);
                let dead = self.cycle_check(txn);
                sh = self.shards.lock_index(idx);
                // The world moved while unlocked: prefer granting over
                // aborting on a stale snapshot.
                if Self::conversion_compatible(&sh, &name, txn, target) {
                    continue;
                }
                if dead {
                    Self::entry_mut(&mut sh, &name, txn).convert_to = None;
                    sh.touch();
                    drop(sh);
                    self.stats.deadlocks.fetch_add(1, Ordering::Relaxed);
                    self.cvs[idx].notify_all();
                    return Err(LockError::Deadlock);
                }
                if !waited {
                    waited = true;
                    self.stats.waits.fetch_add(1, Ordering::Relaxed);
                    // §5 coupling discipline: a blocking record-lock wait
                    // must happen latch-free.
                    audit::lock_wait_sharded(
                        matches!(name, LockName::Rid(_)),
                        "lock conversion",
                        idx,
                    );
                }
                if self.cvs[idx].wait_for(sh.inner_mut(), self.timeout).timed_out() {
                    Self::entry_mut(&mut sh, &name, txn).convert_to = None;
                    sh.touch();
                    drop(sh);
                    self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    self.cvs[idx].notify_all();
                    return Err(LockError::Timeout);
                }
            }
        }

        // Fresh request: enqueue, wait until grantable.
        sh.seq += 1;
        let seq = sh.seq;
        sh.queues.entry(name).or_default().push(Entry {
            txn,
            mode,
            count: 1,
            granted: false,
            convert_to: None,
            seq,
        });
        sh.touch();
        let mut waited = false;
        loop {
            if Self::grantable(&sh, &name, txn, seq) {
                let entry = Self::waiting_entry_mut(&mut sh, &name, txn, seq);
                entry.granted = true;
                sh.touch();
                drop(sh);
                self.held.lock(&txn).entry(txn).or_default().insert(name);
                if waited {
                    self.cvs[idx].notify_all();
                } else {
                    self.stats.immediate_grants.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(());
            }
            drop(sh);
            let dead = self.cycle_check(txn);
            sh = self.shards.lock_index(idx);
            if Self::grantable(&sh, &name, txn, seq) {
                continue;
            }
            if dead {
                Self::remove_waiting(&mut sh, &name, txn, seq);
                drop(sh);
                self.stats.deadlocks.fetch_add(1, Ordering::Relaxed);
                self.cvs[idx].notify_all();
                return Err(LockError::Deadlock);
            }
            if !waited {
                waited = true;
                self.stats.waits.fetch_add(1, Ordering::Relaxed);
                // §5 coupling discipline: a blocking record-lock wait
                // must happen latch-free.
                audit::lock_wait_sharded(
                    matches!(name, LockName::Rid(_)),
                    "fresh lock request",
                    idx,
                );
            }
            if self.cvs[idx].wait_for(sh.inner_mut(), self.timeout).timed_out() {
                Self::remove_waiting(&mut sh, &name, txn, seq);
                drop(sh);
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                self.cvs[idx].notify_all();
                return Err(LockError::Timeout);
            }
        }
    }

    /// Non-blocking acquire: `Ok(true)` if granted immediately.
    pub fn try_lock(&self, txn: TxnId, name: LockName, mode: LockMode) -> bool {
        let mut sh = self.shards.lock(&name);
        if let Some(pos) = Self::granted_pos(&sh, &name, txn) {
            let (covers, target) = {
                let entry = &sh.queues[&name][pos];
                (entry.mode.covers(mode), entry.mode.supremum(mode))
            };
            if covers {
                Self::entry_mut(&mut sh, &name, txn).count += 1;
                return true;
            }
            if Self::conversion_compatible(&sh, &name, txn, target) {
                let entry = Self::entry_mut(&mut sh, &name, txn);
                entry.mode = target;
                entry.count += 1;
                sh.touch();
                return true;
            }
            return false;
        }
        sh.seq += 1;
        let seq = sh.seq;
        sh.queues.entry(name).or_default().push(Entry {
            txn,
            mode,
            count: 1,
            granted: false,
            convert_to: None,
            seq,
        });
        if Self::grantable(&sh, &name, txn, seq) {
            let entry = Self::waiting_entry_mut(&mut sh, &name, txn, seq);
            entry.granted = true;
            sh.touch();
            drop(sh);
            self.held.lock(&txn).entry(txn).or_default().insert(name);
            true
        } else {
            Self::remove_waiting(&mut sh, &name, txn, seq);
            false
        }
    }

    /// Release one acquisition of `name` by `txn` (used for signaling
    /// locks, which are released "as soon as the operation that set it
    /// visits that node", §7.2). Fully releases when the count drops to
    /// zero. Returns whether the entry was fully released.
    pub fn unlock(&self, txn: TxnId, name: LockName) -> bool {
        let idx = self.shards.index_of(&name);
        let mut sh = self.shards.lock_index(idx);
        let Some(queue) = sh.queues.get_mut(&name) else { return false };
        let Some(pos) = queue.iter().position(|e| e.txn == txn && e.granted) else {
            return false;
        };
        let entry = &mut queue[pos];
        entry.count -= 1;
        if entry.count > 0 {
            return false;
        }
        queue.remove(pos);
        if queue.is_empty() {
            sh.queues.remove(&name);
        }
        sh.touch();
        drop(sh);
        {
            let mut held = self.held.lock(&txn);
            if let Some(set) = held.get_mut(&txn) {
                set.remove(&name);
                if set.is_empty() {
                    held.remove(&txn);
                }
            }
        }
        self.cvs[idx].notify_all();
        true
    }

    /// Release every lock held by `txn` (commit/abort).
    pub fn release_all(&self, txn: TxnId) {
        // Historical orphan-grant race behind a mutation switch (armed by
        // model-checker self-tests): a single snapshot-and-purge pass
        // misses a replicated entry added by a concurrent
        // `replicate_shared`.
        let single_pass = gist_chaos::armed("lockmgr.release-all-single-pass");
        // Take the held set first and drop its shard before touching any
        // queue shard (the one cross-table ordering rule; see `held`).
        //
        // Loop until the held set stays empty: a concurrent
        // [`replicate_shared`](Self::replicate_shared) that still sees
        // `txn` granted on the split node (its queue not yet purged here)
        // adds a granted entry on the new node and re-inserts it into the
        // held set after our snapshot. That insert happens *before*
        // `replicate_shared` drops the source queue shard — which we must
        // take to purge the source name — so re-reading the held set
        // after the purge pass is guaranteed to observe the addition, and
        // the loop terminates once the source queue no longer shows `txn`
        // granted (no further replication can name it).
        loop {
            let names: Vec<LockName> = {
                let mut held = self.held.lock(&txn);
                held.remove(&txn).map(|s| s.into_iter().collect()).unwrap_or_default()
            };
            if names.is_empty() {
                return;
            }
            for name in names {
                let idx = self.shards.index_of(&name);
                let mut sh = self.shards.lock_index(idx);
                if let Some(queue) = sh.queues.get_mut(&name) {
                    queue.retain(|e| e.txn != txn);
                    if queue.is_empty() {
                        sh.queues.remove(&name);
                    }
                    sh.touch();
                }
                drop(sh);
                self.cvs[idx].notify_all();
            }
            if single_pass {
                return;
            }
        }
    }

    /// The mode `txn` holds on `name`, if any.
    pub fn holds(&self, txn: TxnId, name: LockName) -> Option<LockMode> {
        let sh = self.shards.lock(&name);
        sh.queues
            .get(&name)?
            .iter()
            .find(|e| e.txn == txn && e.granted)
            .map(|e| e.mode)
    }

    /// All granted holders of `name`.
    pub fn holders(&self, name: LockName) -> Vec<(TxnId, LockMode)> {
        let sh = self.shards.lock(&name);
        sh.queues
            .get(&name)
            .map(|q| q.iter().filter(|e| e.granted).map(|e| (e.txn, e.mode)).collect())
            .unwrap_or_default()
    }

    /// Number of requests waiting on `name`.
    pub fn waiter_count(&self, name: LockName) -> usize {
        let sh = self.shards.lock(&name);
        sh.queues.get(&name).map(|q| q.iter().filter(|e| !e.granted).count()).unwrap_or(0)
    }

    /// Names held by `txn` (snapshot).
    pub fn held_by(&self, txn: TxnId) -> Vec<LockName> {
        let held = self.held.lock(&txn);
        held.get(&txn).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    /// Force-add a granted S entry on `to` for every transaction holding
    /// a granted lock on `from`.
    ///
    /// This is the lock-manager extension §10.3 calls for: "it is also
    /// necessary to replicate the signaling locks set on a node" when it
    /// splits. Safe because the new node is not yet reachable, so `to` can
    /// have no conflicting holders. The two queue shards are taken in
    /// ascending index order ([`Striped::lock_pair`]), making the
    /// node-pair update atomic without a global lock.
    ///
    /// An owner may be terminating concurrently: replication is legal as
    /// long as it still appears granted on `from`, and the held-set insert
    /// below happens *before* the `from` queue shard is dropped, so the
    /// owner's [`release_all`](Self::release_all) (which loops over the
    /// held set until it stays empty) is guaranteed to pick up the
    /// replicated entry and purge it — no orphaned grants.
    pub fn replicate_shared(&self, from: LockName, to: LockName) {
        let (mut ga, mut gb) = self.shards.lock_pair(&from, &to);
        let owners: Vec<TxnId> = ga
            .queues
            .get(&from)
            .map(|q| q.iter().filter(|e| e.granted).map(|e| e.txn).collect())
            .unwrap_or_default();
        if owners.is_empty() {
            return;
        }
        let to_shard: &mut Shard = match gb.as_mut() {
            Some(g) => g,
            None => &mut ga,
        };
        for txn in owners {
            let already = to_shard
                .queues
                .get(&to)
                .map(|q| q.iter().any(|e| e.txn == txn && e.granted))
                .unwrap_or(false);
            if already {
                continue;
            }
            to_shard.seq += 1;
            let seq = to_shard.seq;
            to_shard.queues.entry(to).or_default().push(Entry {
                txn,
                mode: LockMode::S,
                count: 1,
                granted: true,
                convert_to: None,
                seq,
            });
            to_shard.touch();
            self.held.lock(&txn).entry(txn).or_default().insert(to);
        }
    }

    // ---- internals ----

    fn granted_pos(sh: &Shard, name: &LockName, txn: TxnId) -> Option<usize> {
        sh.queues.get(name)?.iter().position(|e| e.txn == txn && e.granted)
    }

    fn entry_mut<'a>(sh: &'a mut Shard, name: &LockName, txn: TxnId) -> &'a mut Entry {
        let found = sh
            .queues
            .get_mut(name)
            .and_then(|q| q.iter_mut().find(|e| e.txn == txn && e.granted));
        match found {
            Some(e) => e,
            None => unreachable!("granted entry vanished while converting"),
        }
    }

    fn waiting_entry_mut<'a>(
        sh: &'a mut Shard,
        name: &LockName,
        txn: TxnId,
        seq: u64,
    ) -> &'a mut Entry {
        let found = sh
            .queues
            .get_mut(name)
            .and_then(|q| q.iter_mut().find(|e| e.txn == txn && e.seq == seq));
        match found {
            Some(e) => e,
            None => unreachable!("waiting entry vanished"),
        }
    }

    fn remove_waiting(sh: &mut Shard, name: &LockName, txn: TxnId, seq: u64) {
        if let Some(q) = sh.queues.get_mut(name) {
            q.retain(|e| !(e.txn == txn && e.seq == seq && !e.granted));
            if q.is_empty() {
                sh.queues.remove(name);
            }
            sh.touch();
        }
    }

    /// A conversion to `target` by `txn` can proceed iff `target` is
    /// compatible with every *other* granted entry.
    fn conversion_compatible(sh: &Shard, name: &LockName, txn: TxnId, target: LockMode) -> bool {
        sh.queues
            .get(name)
            .map(|q| {
                q.iter()
                    .filter(|e| e.granted && e.txn != txn)
                    .all(|e| e.effective_mode().compatible(target))
            })
            .unwrap_or(true)
    }

    /// A waiting entry is grantable iff compatible with all granted
    /// entries of other transactions *and* it does not overtake an earlier
    /// conflicting waiter (fairness / starvation freedom).
    fn grantable(sh: &Shard, name: &LockName, txn: TxnId, seq: u64) -> bool {
        let Some(q) = sh.queues.get(name) else { return true };
        for e in q {
            if e.txn == txn && e.seq == seq {
                continue;
            }
            if e.granted {
                if e.txn != txn && !e.effective_mode().compatible(Self::mode_of(q, txn, seq)) {
                    return false;
                }
            } else if e.seq < seq
                && e.txn != txn
                && !e.mode.compatible(Self::mode_of(q, txn, seq))
            {
                return false;
            }
        }
        true
    }

    fn mode_of(q: &[Entry], txn: TxnId, seq: u64) -> LockMode {
        q.iter().find(|e| e.txn == txn && e.seq == seq).map(|e| e.mode).unwrap_or(LockMode::X)
    }

    /// Wait-for edges contributed by one shard. Every edge is intra-queue
    /// (waiter → conflicting granted holder, waiter → earlier conflicting
    /// waiter, converter → other conflicting granted holder), so the set
    /// is exact for the shard's current state.
    fn shard_edges(sh: &Shard) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        for q in sh.queues.values() {
            for (i, e) in q.iter().enumerate() {
                if e.granted {
                    if let Some(target) = e.convert_to {
                        for other in q.iter().filter(|o| o.granted && o.txn != e.txn) {
                            if !other.effective_mode().compatible(target) {
                                edges.push((e.txn, other.txn));
                            }
                        }
                    }
                } else {
                    for (j, other) in q.iter().enumerate() {
                        if other.txn == e.txn {
                            continue;
                        }
                        let blocks = if other.granted {
                            !other.effective_mode().compatible(e.mode)
                        } else {
                            j < i && !other.mode.compatible(e.mode)
                        };
                        if blocks {
                            edges.push((e.txn, other.txn));
                        }
                    }
                }
            }
        }
        edges
    }

    /// Check whether `requester` is on a waits-for cycle, using the
    /// version-keyed snapshot cache: only shards mutated since the last
    /// detection recompute their edge set, and at most one shard lock is
    /// held at any moment (the caller holds none). The union can mix
    /// shard states observed at slightly different instants; the caller
    /// guards against the resulting (rare) stale positive by re-checking
    /// grantability under its shard lock before aborting.
    fn cycle_check(&self, requester: TxnId) -> bool {
        let mut det = self.detector.lock();
        for idx in 0..self.shards.shard_count() {
            let sh = self.shards.lock_index(idx);
            let cache = &mut det[idx];
            if cache.version != sh.version {
                cache.edges = Self::shard_edges(&sh);
                cache.version = sh.version;
            }
        }
        let mut edges: HashMap<TxnId, HashSet<TxnId>> = HashMap::new();
        for cache in det.iter() {
            for &(a, b) in &cache.edges {
                edges.entry(a).or_default().insert(b);
            }
        }
        // DFS from the requester looking for a path back to it.
        let mut stack: Vec<TxnId> =
            edges.get(&requester).map(|s| s.iter().copied().collect()).unwrap_or_default();
        let mut seen: HashSet<TxnId> = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == requester {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = edges.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }
}
