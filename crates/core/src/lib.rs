#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Outside tests, no discarded result: a failed abort must not pass silently.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

//! # gist-core — Generalized Search Trees with concurrency and recovery
//!
//! A faithful implementation of *Concurrency and Recovery in Generalized
//! Search Trees* (Kornacker, Mohan, Hellerstein — SIGMOD 1997):
//!
//! - the **GiST template** of \[HNP95\], specialized through the
//!   [`GistExtension`] trait (`consistent`, `penalty`, `union`,
//!   `pickSplit`, plus codecs);
//! - the **link-based concurrency protocol** (§3, §5–§7): node sequence
//!   numbers + rightlinks, no latches held across I/Os, no lock coupling,
//!   deadlock-free latching;
//! - **repeatable read** via the hybrid mechanism (§4): two-phase record
//!   locking combined with node-attached predicate locks, logical deletes,
//!   deferred garbage collection, drain-based node deletion with
//!   signaling locks, and unique-index insertion (§8);
//! - the **logging and recovery protocol** of §9/Table 1: structure
//!   modifications as nested top actions, page-oriented redo, logical
//!   undo of leaf-entry insertion/deletion, and restart that never runs
//!   structure modifications during undo;
//! - **savepoints** and partial rollback with cursor restoration (§10.2);
//! - **baseline protocols** (subtree latching, latch coupling, no-link,
//!   pure predicate locking) used by the experiment suite to reproduce the
//!   paper's comparative claims.
//!
//! Entry points: build a [`Db`], create a [`GistIndex`] with your
//! extension (or one from `gist-am`), then run transactions.

pub(crate) mod audit;
pub mod baseline;
pub mod check;
mod db;
mod entry;
mod error;
pub mod ext;
mod logrec;
mod maint;
mod node;
mod ops;
mod scratch;
mod tree;

pub use db::{
    Db, DbConfig, IsolationLevel, NsnSource, PredicateMode, RestartReport, RobustnessStats,
};
pub use entry::{InternalEntry, InternalEntryRef, LeafEntry, LeafEntryRef};
pub use error::GistError;
pub use ext::GistExtension;
// The maintenance daemon's public surface, re-exported so users don't
// need a direct gist-maint dependency.
pub use gist_maint::{
    DrainOutcome, GcOutcome, MaintConfig, MaintDaemon, MaintError, MaintIndex,
    MaintStatsSnapshot, WorkItem,
};
// The overload-resilience surface (`DbConfig::admission`, `Db::health`,
// `RobustnessStats::admission`), re-exported for the same reason.
pub use gist_overload::{AdmissionConfig, AdmissionStats, HealthState};
pub use logrec::GistRecord;
pub use ops::cursor::{Cursor, CursorSnapshot};
pub use ops::delete::VacuumReport;
pub use tree::{GistIndex, IndexOptions, TreeStats};

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, GistError>;
