#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Outside tests, no discarded I/O result: a lost write must not pass silently.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

//! ARIES-style write-ahead logging for the GiST reproduction.
//!
//! This crate implements the recovery substrate assumed by §9 of
//! *Concurrency and Recovery in Generalized Search Trees* (SIGMOD 1997):
//! a write-ahead log with
//!
//! - log sequence numbers ([`Lsn`]) and per-transaction backchains,
//! - compensation log records (CLRs) with `undo_next` pointers,
//! - the dummy CLR that closes a **nested top action** ("atomic unit of
//!   work", §9.1 footnote 12): rollback jumps over every record the unit
//!   wrote, so structure modifications commit independently of the
//!   surrounding transaction (the transaction layer brackets the unit),
//! - a restart driver with the classic three passes — analysis,
//!   page-oriented redo, and undo with *logical undo* delegated to a
//!   resource-manager callback ([`RecoveryHandler`]).
//!
//! The log itself is kept in memory behind one mutex, with an explicit
//! *durable prefix* (`flushed_lsn`): an append takes its LSN and stores
//! its record in one critical section, [`LogManager::sync_to`] is the one
//! path that makes a prefix durable, and [`LogManager::crash`]
//! discards everything past the prefix, which is exactly what a real system loses when it crashes after
//! its last `fsync`. This makes crash-injection tests deterministic without
//! giving up any of the protocol's structure. A byte-level codec
//! ([`codec`]) and file persistence ([`LogManager::persist_file`]) are
//! also provided for round-trip realism.

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
pub use log::{LogManager, SyncError, WalTailReport};
pub use recovery::{
    restart_with_floor, rollback, AnalysisResult, RecoveryError, RecoveryHandler,
    RestartOutcome, RollbackKind,
};

#[cfg(test)]
mod tests;
