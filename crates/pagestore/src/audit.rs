//! Hooks into the gist-audit dynamic discipline analyzer.
//!
//! With the `latch-audit` feature the hooks forward to `gist_audit`'s
//! thread-local shadow state; without it they are inlined no-ops, so
//! release hot paths carry no audit cost. Call sites are identical in
//! both configurations.

#[cfg(feature = "latch-audit")]
pub(crate) use gist_audit::{
    io_event, latch_acquired, latch_contended, latch_downgraded, latch_managed,
    latch_page_fresh, latch_released, new_instance_id, optimistic_enter, optimistic_exit,
    optimistic_read,
};

// Only the buffer-pool unit tests open scopes or stand in for an epoch
// pin from this crate; production pagestore code never holds more than
// one latch and never pins.
#[cfg(all(feature = "latch-audit", test))]
pub(crate) use gist_audit::{enter_scope, epoch_pinned, epoch_unpinned};

#[cfg(not(feature = "latch-audit"))]
mod noop {
    /// No-op stand-in for `gist_audit::ScopeGuard`.
    pub(crate) struct ScopeGuard;

    #[inline(always)]
    pub(crate) fn new_instance_id() -> u64 {
        0
    }

    #[inline(always)]
    pub(crate) fn latch_acquired(_pool: u64, _page: u64, _exclusive: bool, _blocking: bool) {}

    #[inline(always)]
    pub(crate) fn latch_released(_pool: u64, _page: u64) {}

    #[inline(always)]
    pub(crate) fn latch_managed() -> bool {
        false
    }

    #[inline(always)]
    pub(crate) fn latch_contended(_pool: u64, _page: u64) {}

    #[inline(always)]
    pub(crate) fn latch_downgraded(_pool: u64, _page: u64) {}

    #[inline(always)]
    pub(crate) fn latch_page_fresh(_pool: u64, _page: u64) {}

    #[inline(always)]
    pub(crate) fn io_event(_pool: u64, _page: u64, _what: &'static str) {}

    #[inline(always)]
    pub(crate) fn optimistic_enter(_pool: u64, _page: u64) {}

    #[inline(always)]
    pub(crate) fn optimistic_exit(_pool: u64, _page: u64) {}

    #[inline(always)]
    pub(crate) fn optimistic_read(_pool: u64, _page: u64) {}

    #[inline(always)]
    #[allow(dead_code)] // mirrors the audited API; used by tests
    pub(crate) fn enter_scope(
        _name: &'static str,
        _allowance: usize,
        _io_ok: bool,
        _lock_wait_ok: bool,
    ) -> ScopeGuard {
        ScopeGuard
    }

    #[inline(always)]
    #[allow(dead_code)] // mirrors the audited API; used by tests
    pub(crate) fn epoch_pinned(_gc: u64) {}

    #[inline(always)]
    #[allow(dead_code)] // mirrors the audited API; used by tests
    pub(crate) fn epoch_unpinned(_gc: u64) {}
}

#[cfg(not(feature = "latch-audit"))]
pub(crate) use noop::*;
