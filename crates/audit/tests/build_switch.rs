//! The `enabled` feature is the analyzer's one switch. Without it every
//! hook returns at once, so a planted violation records nothing; with it
//! the same plant fires. Plain `cargo test` runs the first test, and
//! `cargo test --features latch-audit` (which turns `enabled` on) the
//! second. One test per build touches the global counters, so none races.

use gist_audit::{capture, io_event, latch_acquired, latch_released, new_instance_id, summary};

/// A second latch without a scope, then store I/O on a third page while
/// both are held.
fn plant() {
    let pool = new_instance_id();
    latch_acquired(pool, 1, false, true);
    latch_acquired(pool, 2, false, true);
    io_event(pool, 3, "page-load");
    latch_released(pool, 2);
    latch_released(pool, 1);
}

#[cfg(not(feature = "enabled"))]
#[test]
fn disabled_build_records_nothing() {
    const { assert!(!gist_audit::ENABLED) };
    let ((), violations) = capture(plant);
    assert!(violations.is_empty(), "{violations:?}");
    let zero = gist_audit::AuditSummary::default();
    assert_eq!(summary(), zero, "no hook counted");
    assert_eq!(new_instance_id(), 0);
}

#[cfg(feature = "enabled")]
#[test]
fn enabled_build_flags_both_plants() {
    const { assert!(gist_audit::ENABLED) };
    let ((), violations) = capture(plant);
    let rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, ["latch-count", "latch-across-io"], "{violations:?}");
    let s = summary();
    assert_eq!((s.latch_acquires, s.io_events, s.violations), (2, 1, 2));
}
