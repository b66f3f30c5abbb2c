//! Model-checker hook shim: forwards watermark transitions to
//! `gist_audit::mc` when the `latch-audit` feature is on, and compiles
//! to nothing otherwise (the no-op twins keep `log.rs` free of
//! feature gates).
//!
//! Each `LogManager` watermark (`last`, `durable`) gets a shadow-state
//! *cell id*; the hooks report every atomic transition on those cells as
//! a scheduling point plus a happens-before edge, so the explorer can
//! interleave watermark movements with the appends that publish them.

#[cfg(feature = "latch-audit")]
pub(crate) use gist_audit::mc::{atomic_load, atomic_store};

/// Fresh shadow-cell id for a watermark (0 when auditing is off: the
/// hooks that would consume it are no-ops).
#[cfg(feature = "latch-audit")]
pub(crate) fn new_cell_id() -> u64 {
    gist_audit::mc::fresh_cell_id()
}

#[cfg(not(feature = "latch-audit"))]
mod noop {
    #![allow(clippy::missing_const_for_fn)]

    #[inline(always)]
    pub(crate) fn atomic_load(_cell: u64, _what: &'static str) {}

    #[inline(always)]
    pub(crate) fn atomic_store(_cell: u64, _what: &'static str) {}

    #[inline(always)]
    pub(crate) fn new_cell_id() -> u64 {
        0
    }
}

#[cfg(not(feature = "latch-audit"))]
pub(crate) use noop::*;
