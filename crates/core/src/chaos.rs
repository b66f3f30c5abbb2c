//! Named crash points for the operation layer (`chaos` feature).
//!
//! With the feature on, `chaos::point("...")` forwards to `gist_chaos`
//! and an armed point can panic, inject [`GistError::Injected`], delay
//! or yield. Without it the call compiles to `Ok(())` (one relaxed
//! atomic load when on, nothing when off). Point names must appear in
//! `gist_chaos::CATALOG`; the `chaos-point-registry` lint rule checks
//! every call site against the catalog.

#[cfg(feature = "chaos")]
#[inline]
pub(crate) fn point(name: &'static str) -> crate::Result<()> {
    gist_chaos::point(name).map_err(|e| crate::GistError::Injected(e.0))
}

#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub(crate) fn point(_name: &'static str) -> crate::Result<()> {
    Ok(())
}
