//! Lock manager behavior tests: grants, blocking, conversion, deadlock,
//! fairness, signaling-lock replication.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gist_pagestore::{PageId, Rid};
use gist_wal::TxnId;

use crate::{LockError, LockManager, LockMode, LockName};

fn rid(n: u32) -> LockName {
    LockName::Rid(Rid::new(PageId(n), 0))
}

#[test]
fn shared_locks_coexist() {
    let lm = LockManager::new();
    lm.lock(TxnId(1), rid(1), LockMode::S).unwrap();
    lm.lock(TxnId(2), rid(1), LockMode::S).unwrap();
    assert_eq!(lm.holders(rid(1)).len(), 2);
}

#[test]
fn exclusive_blocks_and_unblocks() {
    let lm = Arc::new(LockManager::new());
    lm.lock(TxnId(1), rid(1), LockMode::X).unwrap();
    let got_it = Arc::new(AtomicBool::new(false));
    let t = {
        let lm = lm.clone();
        let got_it = got_it.clone();
        std::thread::spawn(move || {
            lm.lock(TxnId(2), rid(1), LockMode::S).unwrap();
            got_it.store(true, Ordering::SeqCst);
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    assert!(!got_it.load(Ordering::SeqCst), "S blocked behind X");
    assert_eq!(lm.waiter_count(rid(1)), 1);
    lm.release_all(TxnId(1));
    t.join().unwrap();
    assert!(got_it.load(Ordering::SeqCst));
}

#[test]
fn reacquisition_counts_and_unlock_releases_stepwise() {
    let lm = LockManager::new();
    lm.lock(TxnId(1), rid(1), LockMode::S).unwrap();
    lm.lock(TxnId(1), rid(1), LockMode::S).unwrap();
    assert!(!lm.unlock(TxnId(1), rid(1)), "count 2 -> 1, still held");
    assert_eq!(lm.holds(TxnId(1), rid(1)), Some(LockMode::S));
    assert!(lm.unlock(TxnId(1), rid(1)), "count 1 -> 0, released");
    assert_eq!(lm.holds(TxnId(1), rid(1)), None);
}

#[test]
fn weaker_rerequest_is_covered() {
    let lm = LockManager::new();
    lm.lock(TxnId(1), rid(1), LockMode::X).unwrap();
    lm.lock(TxnId(1), rid(1), LockMode::S).unwrap();
    assert_eq!(lm.holds(TxnId(1), rid(1)), Some(LockMode::X), "no downgrade");
}

#[test]
fn conversion_upgrades_when_alone() {
    let lm = LockManager::new();
    lm.lock(TxnId(1), rid(1), LockMode::S).unwrap();
    lm.lock(TxnId(1), rid(1), LockMode::X).unwrap();
    assert_eq!(lm.holds(TxnId(1), rid(1)), Some(LockMode::X));
}

#[test]
fn conversion_waits_for_other_readers() {
    let lm = Arc::new(LockManager::new());
    lm.lock(TxnId(1), rid(1), LockMode::S).unwrap();
    lm.lock(TxnId(2), rid(1), LockMode::S).unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let t = {
        let lm = lm.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            lm.lock(TxnId(1), rid(1), LockMode::X).unwrap();
            done.store(true, Ordering::SeqCst);
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    assert!(!done.load(Ordering::SeqCst), "upgrade blocked by T2's S");
    lm.release_all(TxnId(2));
    t.join().unwrap();
    assert_eq!(lm.holds(TxnId(1), rid(1)), Some(LockMode::X));
}

#[test]
fn conversion_beats_new_waiters() {
    // T1 holds S and wants X; T3 is queued for X. When T2 releases its S,
    // the conversion must win over the queued fresh X.
    let lm = Arc::new(LockManager::new());
    lm.lock(TxnId(1), rid(1), LockMode::S).unwrap();
    lm.lock(TxnId(2), rid(1), LockMode::S).unwrap();
    let order = Arc::new(AtomicU32::new(0));
    let t1 = {
        let (lm, order) = (lm.clone(), order.clone());
        std::thread::spawn(move || {
            lm.lock(TxnId(1), rid(1), LockMode::X).unwrap();
            order.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst).ok();
            lm.release_all(TxnId(1));
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    let t3 = {
        let (lm, order) = (lm.clone(), order.clone());
        std::thread::spawn(move || {
            lm.lock(TxnId(3), rid(1), LockMode::X).unwrap();
            order.compare_exchange(0, 3, Ordering::SeqCst, Ordering::SeqCst).ok();
            lm.release_all(TxnId(3));
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    lm.release_all(TxnId(2));
    t1.join().unwrap();
    t3.join().unwrap();
    assert_eq!(order.load(Ordering::SeqCst), 1, "converter granted first");
}

#[test]
fn deadlock_detected_two_txns() {
    // T1 holds A, T2 holds B; T1 wants B (blocks), T2 wants A (deadlock).
    let lm = Arc::new(LockManager::new());
    lm.lock(TxnId(1), rid(1), LockMode::X).unwrap();
    lm.lock(TxnId(2), rid(2), LockMode::X).unwrap();
    let t = {
        let lm = lm.clone();
        std::thread::spawn(move || lm.lock(TxnId(1), rid(2), LockMode::X))
    };
    std::thread::sleep(Duration::from_millis(50));
    let res = lm.lock(TxnId(2), rid(1), LockMode::X);
    assert_eq!(res, Err(LockError::Deadlock), "closing request is the victim");
    // The victim aborts; T1's request can now proceed.
    lm.release_all(TxnId(2));
    assert_eq!(t.join().unwrap(), Ok(()));
    assert_eq!(lm.stats.deadlocks.load(Ordering::Relaxed), 1);
}

#[test]
fn conversion_deadlock_detected() {
    // Both hold S on the same name and both upgrade to X: a classic
    // conversion deadlock (the §8 unique-insert race shape).
    let lm = Arc::new(LockManager::new());
    lm.lock(TxnId(1), rid(1), LockMode::S).unwrap();
    lm.lock(TxnId(2), rid(1), LockMode::S).unwrap();
    let t = {
        let lm = lm.clone();
        std::thread::spawn(move || lm.lock(TxnId(1), rid(1), LockMode::X))
    };
    std::thread::sleep(Duration::from_millis(50));
    let res = lm.lock(TxnId(2), rid(1), LockMode::X);
    assert_eq!(res, Err(LockError::Deadlock));
    lm.release_all(TxnId(2));
    assert_eq!(t.join().unwrap(), Ok(()));
}

#[test]
fn three_txn_cycle_detected() {
    let lm = Arc::new(LockManager::new());
    lm.lock(TxnId(1), rid(1), LockMode::X).unwrap();
    lm.lock(TxnId(2), rid(2), LockMode::X).unwrap();
    lm.lock(TxnId(3), rid(3), LockMode::X).unwrap();
    let t1 = {
        let lm = lm.clone();
        std::thread::spawn(move || lm.lock(TxnId(1), rid(2), LockMode::X))
    };
    let t2 = {
        let lm = lm.clone();
        std::thread::spawn(move || lm.lock(TxnId(2), rid(3), LockMode::X))
    };
    std::thread::sleep(Duration::from_millis(80));
    let res = lm.lock(TxnId(3), rid(1), LockMode::X);
    assert_eq!(res, Err(LockError::Deadlock));
    lm.release_all(TxnId(3));
    // T2 gets rid(3) now; then release the rest so T1 finishes too.
    assert_eq!(t2.join().unwrap(), Ok(()));
    lm.release_all(TxnId(2));
    assert_eq!(t1.join().unwrap(), Ok(()));
}

#[test]
fn fifo_no_conflicting_overtake() {
    // Granted S; X waits; a later S must not overtake the waiting X.
    let lm = Arc::new(LockManager::new());
    lm.lock(TxnId(1), rid(1), LockMode::S).unwrap();
    let x_granted = Arc::new(AtomicBool::new(false));
    let tx = {
        let (lm, xg) = (lm.clone(), x_granted.clone());
        std::thread::spawn(move || {
            lm.lock(TxnId(2), rid(1), LockMode::X).unwrap();
            xg.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(50));
            lm.release_all(TxnId(2));
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    let s_granted = Arc::new(AtomicBool::new(false));
    let ts = {
        let (lm, sg) = (lm.clone(), s_granted.clone());
        std::thread::spawn(move || {
            lm.lock(TxnId(3), rid(1), LockMode::S).unwrap();
            sg.store(true, Ordering::SeqCst);
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    assert!(!s_granted.load(Ordering::SeqCst), "S queued behind waiting X");
    lm.release_all(TxnId(1));
    tx.join().unwrap();
    ts.join().unwrap();
    assert!(x_granted.load(Ordering::SeqCst));
    assert!(s_granted.load(Ordering::SeqCst));
    lm.release_all(TxnId(3));
}

#[test]
fn timeout_fires() {
    let lm = LockManager::with_timeout(Duration::from_millis(50));
    lm.lock(TxnId(1), rid(1), LockMode::X).unwrap();
    let res = lm.lock(TxnId(2), rid(1), LockMode::S);
    assert_eq!(res, Err(LockError::Timeout));
    assert_eq!(lm.waiter_count(rid(1)), 0, "timed-out waiter removed");
}

#[test]
fn try_lock_does_not_block() {
    let lm = LockManager::new();
    lm.lock(TxnId(1), rid(1), LockMode::X).unwrap();
    assert!(!lm.try_lock(TxnId(2), rid(1), LockMode::S));
    assert!(lm.try_lock(TxnId(2), rid(2), LockMode::S));
    assert_eq!(lm.waiter_count(rid(1)), 0);
}

#[test]
fn release_all_clears_every_name() {
    let lm = LockManager::new();
    for i in 0..10 {
        lm.lock(TxnId(1), rid(i), LockMode::S).unwrap();
    }
    assert_eq!(lm.held_by(TxnId(1)).len(), 10);
    lm.release_all(TxnId(1));
    assert!(lm.held_by(TxnId(1)).is_empty());
    for i in 0..10 {
        assert!(lm.holders(rid(i)).is_empty());
    }
}

#[test]
fn txn_id_lock_blocks_until_owner_ends() {
    // The §10.3 "block on a predicate" pattern: owner X-locks its own id;
    // a blocker S-locks that id and parks until release_all.
    let lm = Arc::new(LockManager::new());
    let owner = TxnId(7);
    lm.lock(owner, LockName::Txn(owner), LockMode::X).unwrap();
    let unblocked = Arc::new(AtomicBool::new(false));
    let t = {
        let (lm, ub) = (lm.clone(), unblocked.clone());
        std::thread::spawn(move || {
            lm.lock(TxnId(8), LockName::Txn(owner), LockMode::S).unwrap();
            ub.store(true, Ordering::SeqCst);
            lm.unlock(TxnId(8), LockName::Txn(owner));
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    assert!(!unblocked.load(Ordering::SeqCst));
    lm.release_all(owner);
    t.join().unwrap();
    assert!(unblocked.load(Ordering::SeqCst));
}

#[test]
fn replicate_shared_copies_signaling_locks() {
    // §10.3: a node split replicates the signaling locks of the original
    // node onto the new sibling.
    let lm = LockManager::new();
    let orig = LockName::Node { index: 1, page: PageId(10) };
    let sibling = LockName::Node { index: 1, page: PageId(11) };
    lm.lock(TxnId(1), orig, LockMode::S).unwrap();
    lm.lock(TxnId(2), orig, LockMode::S).unwrap();
    lm.replicate_shared(orig, sibling);
    let mut owners: Vec<TxnId> = lm.holders(sibling).into_iter().map(|(t, _)| t).collect();
    owners.sort();
    assert_eq!(owners, vec![TxnId(1), TxnId(2)]);
    // Replication is idempotent.
    lm.replicate_shared(orig, sibling);
    assert_eq!(lm.holders(sibling).len(), 2);
    // And release_all cleans up replicated entries too.
    lm.release_all(TxnId(1));
    assert_eq!(lm.holders(sibling).len(), 1);
}

#[test]
fn replicate_shared_racing_release_all_leaves_no_orphans() {
    // Regression: `release_all` once snapshotted the held set apart
    // from the queues; a concurrent `replicate_shared` that still saw the
    // txn granted on the source node could add a granted S entry on the
    // sibling *after* the snapshot, orphaning it forever (every later
    // conflicting request on the sibling waited to timeout).
    let lm = Arc::new(LockManager::with_timeout(Duration::from_secs(10)));
    let orig = LockName::Node { index: 1, page: PageId(10) };
    let sibling = LockName::Node { index: 1, page: PageId(11) };
    for round in 0..200u64 {
        let owner = TxnId(round + 1);
        lm.lock(owner, orig, LockMode::S).unwrap();
        let splitter = {
            let lm = lm.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    lm.replicate_shared(orig, sibling);
                }
            })
        };
        lm.release_all(owner);
        splitter.join().unwrap();
        // Whatever the interleaving, the terminated owner must survive
        // nowhere: not in its held set, not on either node.
        assert!(lm.held_by(owner).is_empty(), "round {round}: held set not empty");
        assert!(lm.holders(orig).is_empty(), "round {round}: source grant survived");
        assert!(
            lm.holders(sibling).is_empty(),
            "round {round}: orphaned replicated grant"
        );
    }
}

#[test]
fn node_deletion_drain_pattern() {
    // A deleter probes for signaling locks with try_lock X; present locks
    // make the probe fail, and once the scanner moves on the delete works.
    let lm = LockManager::new();
    let node = LockName::Node { index: 1, page: PageId(5) };
    lm.lock(TxnId(1), node, LockMode::S).unwrap(); // scanner's signal
    assert!(!lm.try_lock(TxnId(2), node, LockMode::X), "drain: deleter backs off");
    lm.unlock(TxnId(1), node); // scanner visited the node
    assert!(lm.try_lock(TxnId(2), node, LockMode::X), "no pointers left: delete ok");
}

#[test]
fn stress_many_threads_random_locks() {
    let lm = Arc::new(LockManager::with_timeout(Duration::from_secs(5)));
    let mut handles = Vec::new();
    for t in 1..=8u64 {
        let lm = lm.clone();
        handles.push(std::thread::spawn(move || {
            let mut granted = 0u32;
            for i in 0..200u32 {
                let txn = TxnId(t * 1000 + i as u64);
                let name = rid((t as u32 * 7 + i) % 5);
                let mode = if i % 3 == 0 { LockMode::X } else { LockMode::S };
                match lm.lock(txn, name, mode) {
                    Ok(()) => {
                        granted += 1;
                        lm.release_all(txn);
                    }
                    Err(LockError::Deadlock) => lm.release_all(txn),
                    Err(LockError::Timeout) => panic!("unexpected timeout"),
                }
            }
            granted
        }));
    }
    let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 8 * 200, "single-lock txns never deadlock");
    for i in 0..5 {
        assert!(lm.holders(rid(i)).is_empty(), "all queues drained");
    }
}

#[test]
fn intention_modes_compose() {
    // Table-granularity protocol sketch: IS + IX coexist; S blocks IX.
    let lm = LockManager::new();
    let table = LockName::Custom(1);
    lm.lock(TxnId(1), table, LockMode::IS).unwrap();
    lm.lock(TxnId(2), table, LockMode::IX).unwrap();
    assert!(!lm.try_lock(TxnId(3), table, LockMode::S), "S vs IX conflicts");
    lm.release_all(TxnId(2));
    assert!(lm.try_lock(TxnId(3), table, LockMode::S), "S vs IS is fine");
    // T1 escalates IS -> SIX (covers S + IX): conflicts with T3's S.
    assert!(!lm.try_lock(TxnId(1), table, LockMode::SIX));
    lm.release_all(TxnId(3));
    assert!(lm.try_lock(TxnId(1), table, LockMode::SIX));
    assert_eq!(lm.holds(TxnId(1), table), Some(LockMode::SIX));
}

#[test]
fn upgrade_wins_over_queued_fresh_request_even_under_load() {
    // Converter priority must hold with several fresh waiters queued.
    let lm = Arc::new(LockManager::new());
    lm.lock(TxnId(1), rid(1), LockMode::S).unwrap();
    lm.lock(TxnId(2), rid(1), LockMode::S).unwrap();
    let mut fresh = Vec::new();
    for t in 10..13u64 {
        let lm = lm.clone();
        fresh.push(std::thread::spawn(move || {
            lm.lock(TxnId(t), rid(1), LockMode::X).unwrap();
            lm.release_all(TxnId(t));
        }));
    }
    std::thread::sleep(Duration::from_millis(50));
    let upgrader = {
        let lm = lm.clone();
        std::thread::spawn(move || {
            lm.lock(TxnId(1), rid(1), LockMode::X).unwrap();
            let got_x = lm.holds(TxnId(1), rid(1)) == Some(LockMode::X);
            lm.release_all(TxnId(1));
            got_x
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    lm.release_all(TxnId(2)); // unblocks the upgrade first
    assert!(upgrader.join().unwrap(), "conversion granted X");
    for f in fresh {
        f.join().unwrap();
    }
    assert!(lm.holders(rid(1)).is_empty());
}

#[test]
fn replicate_shared_is_noop_without_holders() {
    let lm = LockManager::new();
    let a = LockName::Node { index: 1, page: PageId(1) };
    let b = LockName::Node { index: 1, page: PageId(2) };
    lm.replicate_shared(a, b);
    assert!(lm.holders(b).is_empty());
}

#[test]
fn unlock_of_unheld_lock_is_harmless() {
    let lm = LockManager::new();
    assert!(!lm.unlock(TxnId(1), rid(7)));
    lm.release_all(TxnId(1));
}

#[test]
fn waiter_survives_owner_abort_release_order() {
    // Release-all while a waiter is parked: the waiter gets the lock, and
    // the queue stays consistent.
    let lm = Arc::new(LockManager::new());
    lm.lock(TxnId(1), rid(1), LockMode::X).unwrap();
    let mut waiters = Vec::new();
    for t in 2..6u64 {
        let lm = lm.clone();
        waiters.push(std::thread::spawn(move || {
            lm.lock(TxnId(t), rid(1), LockMode::S).unwrap();
        }));
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(lm.waiter_count(rid(1)), 4);
    lm.release_all(TxnId(1));
    for w in waiters {
        w.join().unwrap();
    }
    assert_eq!(lm.holders(rid(1)).len(), 4, "all S waiters granted together");
}

#[test]
fn dead_parked_waiter_does_not_strand_later_waiters() {
    // A waiter whose wait dies (here: via the manager's timeout safety
    // net — the same cleanup path a panicking waiter thread unwinds
    // through) must leave the FIFO queue, or every waiter queued behind
    // it would be stranded forever once the holder releases.
    let lm = Arc::new(LockManager::with_timeout(Duration::from_millis(150)));
    lm.lock(TxnId(1), rid(1), LockMode::X).unwrap();
    // B parks behind A and will die in the queue (timeout).
    let b = {
        let lm = lm.clone();
        std::thread::spawn(move || lm.lock(TxnId(2), rid(1), LockMode::X))
    };
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(lm.waiter_count(rid(1)), 1, "B is parked");
    // C queues strictly behind B. Its own patience is irrelevant to the
    // bug: what matters is that B's corpse must not gate C's grant.
    let c = {
        let lm = lm.clone();
        std::thread::spawn(move || lm.lock(TxnId(3), rid(1), LockMode::X))
    };
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(lm.waiter_count(rid(1)), 2, "C is parked behind B");
    // B dies in the queue.
    assert_eq!(b.join().unwrap(), Err(LockError::Timeout));
    assert_eq!(lm.waiter_count(rid(1)), 1, "B's entry was reaped");
    // A releases: C — not B's ghost — must be granted.
    lm.release_all(TxnId(1));
    assert_eq!(c.join().unwrap(), Ok(()));
    let holders: Vec<TxnId> = lm.holders(rid(1)).into_iter().map(|(t, _)| t).collect();
    assert_eq!(holders, vec![TxnId(3)]);
    assert!(lm.stats.timeouts.load(Ordering::Relaxed) >= 1);
    lm.release_all(TxnId(3));
}
