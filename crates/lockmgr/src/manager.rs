//! The lock manager proper: queues, grants, conversions, deadlock
//! detection.
//!
//! The whole table — every queue, the per-transaction held sets and the
//! request sequencer — sits under one mutex with one condvar. A grant
//! and its held-set entry are therefore one atomic step, `release_all`
//! and `replicate_shared` each see a single consistent table, and the
//! deadlock detector searches the exact wait-for graph of that table.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use gist_pagestore::IdMap;
use gist_sync::{Condvar, Mutex};

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
    fn new(txn: TxnId, mode: LockMode, granted: bool, seq: u64) -> Entry {
        Entry { txn, mode, count: 1, granted, convert_to: None, seq }
    }

    /// Mode other requests must be compatible with: the conversion target
    /// is claimed eagerly so converters cannot be starved by new grants.
    fn effective_mode(&self) -> LockMode {
        match self.convert_to {
            Some(t) => self.mode.supremum(t),
            None => self.mode,
        }
    }
}

/// The whole lock table, under the manager's one mutex.
#[derive(Default)]
struct Table {
    queues: IdMap<LockName, Vec<Entry>>,
    /// Names held per transaction (each at most once).
    held: IdMap<TxnId, Vec<LockName>>,
    /// Request sequencer (FIFO order within a queue).
    seq: u64,
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
    table: Mutex<Table>,
    /// Waiters on any queue park here; every mutation that can make a
    /// waiter grantable notifies it after the table lock drops.
    cv: Condvar,
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
    /// Manager with the default 10 s wait timeout.
    pub fn new() -> Self {
        Self::with_timeout(Duration::from_secs(10))
    }

    /// Manager with a custom wait timeout.
    pub fn with_timeout(timeout: Duration) -> Self {
        LockManager {
            table: Mutex::new(Table::default()),
            cv: Condvar::new(),
            timeout,
            stats: LockStats::default(),
        }
    }

    /// Acquire `name` in `mode` for `txn`, blocking as needed.
    ///
    /// Re-acquisitions of covered modes are counted (see
    /// [`unlock`](Self::unlock)); stronger re-requests convert with
    /// priority over new waiters.
    pub fn lock(&self, txn: TxnId, name: LockName, mode: LockMode) -> Result<(), LockError> {
        assert!(!txn.is_none(), "locks must be owned by a transaction");
        let mut t = self.table.lock();
        let Some(pending) = t.grant_now(txn, name, mode, true) else {
            self.stats.immediate_grants.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        };
        let mut waited = false;
        let failure = loop {
            if t.on_cycle(txn) {
                self.stats.deadlocks.fetch_add(1, Ordering::Relaxed);
                break LockError::Deadlock;
            }
            if !waited {
                waited = true;
                self.stats.waits.fetch_add(1, Ordering::Relaxed);
                // §5 coupling discipline: a blocking record-lock wait
                // must happen latch-free.
                audit::lock_wait(matches!(name, LockName::Rid(_)), "lock request");
            }
            if self.cv.wait_for(&mut t, self.timeout).timed_out() {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                break LockError::Timeout;
            }
            if t.grant_pending(txn, name, pending) {
                drop(t);
                self.cv.notify_all();
                return Ok(());
            }
        };
        t.withdraw(txn, name, pending);
        drop(t);
        self.cv.notify_all();
        Err(failure)
    }

    /// Non-blocking acquire: `true` if granted immediately.
    pub fn try_lock(&self, txn: TxnId, name: LockName, mode: LockMode) -> bool {
        self.table.lock().grant_now(txn, name, mode, false).is_none()
    }

    /// Release one acquisition of `name` by `txn` (used for signaling
    /// locks, which are released "as soon as the operation that set it
    /// visits that node", §7.2). Fully releases when the count drops to
    /// zero. Returns whether the entry was fully released.
    pub fn unlock(&self, txn: TxnId, name: LockName) -> bool {
        let mut t = self.table.lock();
        let Some(queue) = t.queues.get_mut(&name) else { return false };
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
            t.queues.remove(&name);
        }
        if let Some(names) = t.held.get_mut(&txn) {
            names.retain(|n| *n != name);
            if names.is_empty() {
                t.held.remove(&txn);
            }
        }
        drop(t);
        self.cv.notify_all();
        true
    }

    /// Release every lock held by `txn` (commit/abort).
    pub fn release_all(&self, txn: TxnId) {
        let mut t = self.table.lock();
        let Some(names) = t.held.remove(&txn) else { return };
        for name in names {
            if let Some(queue) = t.queues.get_mut(&name) {
                queue.retain(|e| e.txn != txn);
                if queue.is_empty() {
                    t.queues.remove(&name);
                }
            }
        }
        drop(t);
        self.cv.notify_all();
    }

    /// The mode `txn` holds on `name`, if any.
    pub fn holds(&self, txn: TxnId, name: LockName) -> Option<LockMode> {
        let t = self.table.lock();
        t.queues.get(&name)?.iter().find(|e| e.txn == txn && e.granted).map(|e| e.mode)
    }

    /// All granted holders of `name`.
    pub fn holders(&self, name: LockName) -> Vec<(TxnId, LockMode)> {
        let t = self.table.lock();
        t.queues
            .get(&name)
            .map(|q| q.iter().filter(|e| e.granted).map(|e| (e.txn, e.mode)).collect())
            .unwrap_or_default()
    }

    /// Number of requests waiting on `name`.
    pub fn waiter_count(&self, name: LockName) -> usize {
        let t = self.table.lock();
        t.queues.get(&name).map(|q| q.iter().filter(|e| !e.granted).count()).unwrap_or(0)
    }

    /// Names held by `txn` (snapshot).
    pub fn held_by(&self, txn: TxnId) -> Vec<LockName> {
        let t = self.table.lock();
        t.held.get(&txn).cloned().unwrap_or_default()
    }

    /// Force-add a granted S entry on `to` for every transaction holding
    /// a granted lock on `from`.
    ///
    /// This is the lock-manager extension §10.3 calls for: "it is also
    /// necessary to replicate the signaling locks set on a node" when it
    /// splits. Safe because the new node is not yet reachable, so `to` can
    /// have no conflicting holders. One table-lock hold covers reading
    /// `from`, adding the entries on `to` and recording them in the
    /// owners' held sets, so an owner's concurrent
    /// [`release_all`](Self::release_all) runs wholly before (no owner
    /// left to copy) or wholly after (and purges the copies).
    pub fn replicate_shared(&self, from: LockName, to: LockName) {
        let mut guard = self.table.lock();
        let t = &mut *guard;
        let owners: Vec<TxnId> = t
            .queues
            .get(&from)
            .map(|q| q.iter().filter(|e| e.granted).map(|e| e.txn).collect())
            .unwrap_or_default();
        for txn in owners {
            let q = t.queues.entry(to).or_default();
            if !q.iter().any(|e| e.txn == txn && e.granted) {
                t.seq += 1;
                q.push(Entry::new(txn, LockMode::S, true, t.seq));
                t.held.entry(txn).or_default().push(to);
            }
        }
    }
}

/// A request `lock` parks: a conversion of the held entry to a
/// stronger mode, or a fresh entry with its sequence number.
#[derive(Clone, Copy)]
enum Pending {
    Convert(LockMode),
    Fresh(u64),
}

impl Table {
    /// Grant `mode` on `name` to `txn` if that needs no wait: a
    /// re-acquisition the held mode covers, a conversion no other holder
    /// conflicts with, or a fresh request that conflicts with no other
    /// entry (a newcomer never overtakes a conflicting waiter). Otherwise
    /// return what must wait, parked in the queue if `park` is set (a
    /// conversion claims its target through `convert_to`) and left out
    /// of it if not.
    fn grant_now(
        &mut self,
        txn: TxnId,
        name: LockName,
        mode: LockMode,
        park: bool,
    ) -> Option<Pending> {
        let q = self.queues.entry(name).or_default();
        if let Some(e) = q.iter().position(|e| e.txn == txn && e.granted) {
            let target = q[e].mode.supremum(mode);
            if !q[e].mode.covers(mode) && !grantable(q, txn, target, 0) {
                if park {
                    q[e].convert_to = Some(target);
                }
                return Some(Pending::Convert(target));
            }
            q[e].mode = target;
            q[e].count += 1;
            return None;
        }
        self.seq += 1;
        let seq = self.seq;
        let granted = grantable(q, txn, mode, u64::MAX);
        if granted || park {
            q.push(Entry::new(txn, mode, granted, seq));
        }
        if !granted {
            return Some(Pending::Fresh(seq));
        }
        self.held.entry(txn).or_default().push(name);
        None
    }

    /// Grant the parked request if it can be granted now.
    fn grant_pending(&mut self, txn: TxnId, name: LockName, pending: Pending) -> bool {
        let Some(q) = self.queues.get_mut(&name) else {
            unreachable!("queue of a parked request vanished")
        };
        let parked = |e: &Entry| {
            e.txn == txn
                && match pending {
                    Pending::Convert(_) => e.granted,
                    Pending::Fresh(seq) => e.seq == seq,
                }
        };
        let Some(pos) = q.iter().position(parked) else {
            unreachable!("parked request vanished")
        };
        match pending {
            Pending::Convert(target) if grantable(q, txn, target, 0) => {
                let e = &mut q[pos];
                e.mode = target;
                e.convert_to = None;
                e.count += 1;
            }
            Pending::Fresh(seq) if grantable(q, txn, q[pos].mode, seq) => {
                q[pos].granted = true;
                self.held.entry(txn).or_default().push(name);
            }
            _ => return false,
        }
        true
    }

    /// Take back a parked request (deadlock victim or timeout).
    fn withdraw(&mut self, txn: TxnId, name: LockName, pending: Pending) {
        match pending {
            Pending::Convert(_) => self.granted_mut(&name, txn).convert_to = None,
            Pending::Fresh(seq) => {
                if let Some(q) = self.queues.get_mut(&name) {
                    q.retain(|e| !(e.txn == txn && e.seq == seq && !e.granted));
                    if q.is_empty() {
                        self.queues.remove(&name);
                    }
                }
            }
        }
    }

    fn granted_mut(&mut self, name: &LockName, txn: TxnId) -> &mut Entry {
        let found = self
            .queues
            .get_mut(name)
            .and_then(|q| q.iter_mut().find(|e| e.txn == txn && e.granted));
        match found {
            Some(e) => e,
            None => unreachable!("granted entry vanished while converting"),
        }
    }

    /// Whether `requester` is on a cycle of the wait-for graph. Every
    /// edge is intra-queue (waiter → conflicting granted holder, waiter →
    /// earlier conflicting waiter, converter → other conflicting granted
    /// holder), and the caller holds the table lock, so the graph is
    /// exact.
    fn on_cycle(&self, requester: TxnId) -> bool {
        let mut edges: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
        for q in self.queues.values() {
            for (i, e) in q.iter().enumerate() {
                let wants = match (e.granted, e.convert_to) {
                    (true, None) => continue,
                    (true, Some(target)) => target,
                    (false, _) => e.mode,
                };
                for (j, o) in q.iter().enumerate() {
                    let blocks = o.txn != e.txn
                        && if o.granted {
                            !o.effective_mode().compatible(wants)
                        } else {
                            !e.granted && j < i && !o.mode.compatible(wants)
                        };
                    if blocks {
                        edges.entry(e.txn).or_default().push(o.txn);
                    }
                }
            }
        }
        // DFS from the requester looking for a path back to it.
        let mut stack: Vec<TxnId> = edges.get(&requester).cloned().unwrap_or_default();
        let mut seen: HashSet<TxnId> = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == requester {
                return true;
            }
            if seen.insert(t) {
                if let Some(next) = edges.get(&t) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }
}

/// Whether a request by `txn` for `mode` is compatible with every
/// granted entry of another transaction and overtakes no conflicting
/// waiter queued before it. `seq` places the request in the FIFO: a
/// conversion passes 0 (ahead of every waiter — conversion priority), a
/// newcomer `u64::MAX` (behind every waiter).
fn grantable(q: &[Entry], txn: TxnId, mode: LockMode, seq: u64) -> bool {
    q.iter().filter(|e| e.txn != txn).all(|e| {
        if e.granted {
            e.effective_mode().compatible(mode)
        } else {
            e.seq > seq || e.mode.compatible(mode)
        }
    })
}
