//! # gist-repro
//!
//! Umbrella crate for the reproduction of *Concurrency and Recovery in
//! Generalized Search Trees* (Kornacker, Mohan, Hellerstein — SIGMOD 1997).
//!
//! The actual functionality lives in the workspace crates; this crate
//! re-exports them under stable module names and hosts the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! Quick orientation:
//!
//! - [`pagestore`] — slotted pages, buffer pool with latches, page stores.
//! - [`wal`] — ARIES-style write-ahead log, nested top actions, restart.
//! - [`lockmgr`] — lock manager with deadlock detection.
//! - [`predlock`] — the predicate manager of §10.3.
//! - [`txn`] — transaction manager and savepoints.
//! - [`core`] — the GiST itself: the concurrency protocol (NSN +
//!   rightlinks), hybrid repeatable-read locking, logical delete and
//!   garbage collection, node deletion via the drain technique, the
//!   Table 1 logging/recovery protocol, and baseline protocols.
//! - [`am`] — example access methods (B-tree, R-tree, RD-tree) realized as
//!   GiST extensions.
//! - [`epoch`] — quiescent-state (epoch) reclamation guarding page reuse
//!   under the optimistic latch-free read path.
//! - [`overload`] — admission control and the health-state machine
//!   behind the overload defenses (WAL backpressure, epoch-stall
//!   degradation).
//! - [`wire`] — the length-prefixed, checksummed binary protocol spoken
//!   by the serving layer (fuzz-safe decode, incremental framing).
//! - [`serve`] — the fault-tolerant serving front-end: session-owned
//!   transactions, deadline-sliced I/O, `Busy` shedding, graceful drain.
//! - [`chaos`] — the one fault plan behind every injector: crash points,
//!   mutation switches, storage and wire faults, scheduled by (site, op
//!   index); the crash points fire only in `chaos` builds.
//! - `audit` (behind the `latch-audit` feature) — the dynamic latch/lock
//!   discipline analyzer asserting the §5 protocol invariants at runtime.

#![forbid(unsafe_code)]

pub use gist_am as am;
#[cfg(feature = "latch-audit")]
pub use gist_audit as audit;
pub use gist_chaos as chaos;
pub use gist_core as core;
pub use gist_epoch as epoch;
pub use gist_lockmgr as lockmgr;
pub use gist_maint as maint;
pub use gist_overload as overload;
pub use gist_pagestore as pagestore;
pub use gist_predlock as predlock;
pub use gist_serve as serve;
pub use gist_txn as txn;
pub use gist_wal as wal;
pub use gist_wire as wire;
