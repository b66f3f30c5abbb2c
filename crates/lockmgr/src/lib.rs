#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Lock manager.
//!
//! Implements the *lock* half of the paper's latch/lock split (§5
//! footnote 8): logical, hash-table-organized, deadlock-checked locks on
//! record identifiers, nodes (the §7.2 *signaling locks*), and transaction
//! ids (used to "block on a predicate", §10.3 — every transaction holds an
//! X lock on its own id, so an S request on that id parks until the owner
//! terminates).
//!
//! Features: shared and exclusive lock modes, FIFO queues without
//! conflicting overtakes (starvation-free), S→X conversion with
//! conversion priority, waits-for-graph deadlock detection with the
//! requester as victim, per-transaction lock lists for two-phase release,
//! and individual unlock for signaling locks.

mod manager;
mod modes;
mod name;

pub use manager::{LockError, LockManager, LockStats};
pub use modes::LockMode;
pub use name::LockName;

#[cfg(test)]
mod tests;
