#![forbid(unsafe_code)]
// The experiment harness drives the engine from outside: a panic aborts
// an experiment run, never a database operation.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Experiment harness: workload generators and the runners behind the
//! `experiments` binary.
//!
//! Every experiment from DESIGN.md (E1–E12) has a runner here that
//! returns structured rows; the binary formats them as the tables
//! recorded in EXPERIMENTS.md. Absolute numbers depend on the host; the
//! *shapes* (who wins, by what factor, where curves cross) are the
//! reproduction targets.

pub mod experiments;
pub mod workload;

pub use experiments::*;
pub use workload::*;
