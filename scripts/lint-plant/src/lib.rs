//! One planted violation per toolchain check (DESIGN.md §10.2); every
//! item here is wrong on purpose. `scripts/lint_plant.sh` lists the
//! diagnostic each must draw.

// The storage crates' root attribute (crates/pagestore, crates/wal).
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
#![allow(dead_code)]

use std::sync::Arc;
use std::time::Duration;

// verify.sh's lib/bin flags: -D clippy::{unwrap_used, expect_used}, -D unsafe_code.
fn unwrap_used(o: Option<u8>) -> u8 {
    o.unwrap()
}

fn expect_used(o: Option<u8>) -> u8 {
    o.expect("planted")
}

fn unsafe_code(x: &u8) -> u8 {
    unsafe { *(x as *const u8) }
}

fn ignored_io(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    std::fs::remove_file(path).ok();
}

// clippy.toml, one call per entry. The parking_lot and gist-sync
// condvars have no unbounded `wait` to call: it does not compile.
fn unbounded_waits() {
    let m = std::sync::Mutex::new(false);
    let cv = std::sync::Condvar::new();
    let Ok(g) = m.lock() else { return };
    let Ok(g) = cv.wait(g) else { return };
    let Ok(g) = cv.wait_while(g, |done| !*done) else { return };
    drop(cv.wait_timeout(g, Duration::from_millis(1))); // bounded: allowed
}

fn latch_outside_buffer(latch: &Arc<parking_lot::RwLock<u8>>) {
    drop(latch.read_arc());
    drop(latch.write_arc());
    drop(latch.try_read_arc());
    drop(latch.try_write_arc());
}

// The record dispatchers' statement-level deny.
enum Record {
    Begin,
    Commit,
    End,
}

fn dispatch(r: Record) -> u8 {
    #[deny(clippy::wildcard_enum_match_arm)]
    match r {
        Record::Begin => 0,
        _ => 1,
    }
}
