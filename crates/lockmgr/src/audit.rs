//! Hooks into the gist-audit dynamic discipline analyzer (no-ops unless
//! the `latch-audit` feature is enabled). Call sites are identical in
//! both configurations.

#[cfg(feature = "latch-audit")]
pub(crate) use gist_audit::lock_wait;

#[cfg(not(feature = "latch-audit"))]
#[inline(always)]
pub(crate) fn lock_wait(_is_record: bool, _desc: &str) {}
