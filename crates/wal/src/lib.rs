#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! ARIES-style write-ahead logging for the GiST reproduction.
//!
//! This crate implements the recovery substrate assumed by §9 of
//! *Concurrency and Recovery in Generalized Search Trees* (SIGMOD 1997):
//! a write-ahead log with
//!
//! - log sequence numbers ([`Lsn`]) and per-transaction backchains,
//! - compensation log records (CLRs) with `undo_next` pointers,
//! - **nested top actions** ("atomic units of work", §9.1 footnote 12):
//!   a sequence of page updates whose log records are skipped during
//!   transaction rollback by a dummy CLR, so that structure modifications
//!   commit independently of the surrounding transaction,
//! - a restart driver with the classic three passes — analysis,
//!   page-oriented redo, and undo with *logical undo* delegated to a
//!   resource-manager callback ([`RecoveryHandler`]).
//!
//! The log itself is kept in memory behind one mutex, with an explicit
//! *durable prefix* (`flushed_lsn`): an append takes its LSN and stores
//! its record in one critical section, and [`LogManager::crash`]
//! discards everything past the prefix, which is exactly what a real system loses when it crashes after
//! its last `fsync`. This makes crash-injection tests deterministic without
//! giving up any of the protocol's structure. A byte-level codec
//! ([`codec`]) and file persistence ([`LogManager::persist_file`]) are
//! also provided for round-trip realism.

mod audit;
mod checksum;
mod lsn;
mod record;
pub mod codec;
pub mod faults;
pub mod log;
pub mod recovery;

pub use checksum::stable_hash_bytes;
pub use lsn::{Lsn, TxnId};
pub use record::{LogRecord, Payload, RecordBody};
pub use log::{LogFlusher, LogManager, WalTailReport};
pub use recovery::{
    restart, restart_with_floor, rollback, AnalysisResult, RecoveryError, RecoveryHandler,
    RestartOutcome, RollbackKind,
};

/// Token bracketing a nested top action (§9.1).
///
/// Created when the atomic unit of work starts; carries the transaction's
/// backchain position at that point. When the unit finishes,
/// [`LogManager::end_nta`] writes a dummy CLR whose `undo_next` points to
/// that position, so a later rollback of the surrounding transaction skips
/// every record the unit wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestedTopAction {
    /// The transaction's `last_lsn` before the unit's first record.
    pub undo_next: Lsn,
}

#[cfg(test)]
mod tests;
