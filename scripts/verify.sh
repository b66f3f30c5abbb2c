#!/usr/bin/env sh
# Verification tiers. Every step runs even if an earlier one failed; the
# summary at the end is computed from each step's exit code and wall
# time, and the script exits non-zero if any step failed.
#
# Tier 1: release build and the whole workspace's tests (the root
# manifest's `default-members` makes the plain commands cover every
# crate), with the maintenance-subsystem integration tests called out so
# a filtered run can't silently skip them.
#
# Tier 2: zero clippy warnings (no unwrap or unsafe outside tests), a lint
# plant each toolchain check fires on, zero gist-lint violations, scripts
# that parse, zero rustdoc warnings, the test suite under the gist-audit
# dynamic discipline analyzer (`--features latch-audit`), the
# fault/chaos/overload/serve harnesses (one of them a cross-layer
# scenario under one seeded fault plan), the process-kill tests on the
# release binaries, and the bench_e2e package's own tests.
#
# Tier 3: the crates/mc deterministic schedule explorer over its two
# scenarios, the log's sync path (two committers and a page write-back,
# as leader and follower) and epoch pin vs §7.2 drain-free-reuse, each
# explored on the current code and with its mutation switch armed (a
# sync follower returning early, the skipped epoch grace period), which
# must be found and replay byte for byte (`--features model-check`).
#
# A filtered `cargo test` whose filter matches no test fails its step
# (see `filtered`), so a renamed or deleted test cannot turn a step
# into a silent pass.
set -u
cd "$(dirname "$0")/.."

summary=""
failed=0

# step <label> <command...>: run, record exit code and seconds.
step() {
    label=$1
    shift
    echo "== $label =="
    start=$(date +%s)
    "$@"
    rc=$?
    secs=$(($(date +%s) - start))
    [ "$rc" -eq 0 ] || failed=$((failed + 1))
    summary="$summary$(printf '  %-58s %4d %6ds' "$label" "$rc" "$secs")
"
}

# filtered <command...>: run a filtered `cargo test`, echoing its
# output; fail if it fails or if no test ran at all.
filtered() {
    out=$(mktemp) && rcfile=$(mktemp) || return 1
    { "$@"; echo $? > "$rcfile"; } 2>&1 | tee "$out"
    rc=$(cat "$rcfile")
    ran=$(sed -n 's/^test result: [A-Za-z]*\. \([0-9]*\) passed; \([0-9]*\) failed.*/\1 \2/p' "$out" |
        awk '{ n += $1 + $2 } END { print n + 0 }')
    rm -f "$out" "$rcfile"
    if [ "$ran" -eq 0 ]; then
        echo "filtered: no test matched: $*"
        [ "$rc" -ne 0 ] || rc=1
    fi
    return "$rc"
}

# clippy <args...>: `cargo clippy`, failing also on a clippy.toml path that
# no longer resolves (only a warning, even under `-D warnings`).
clippy() {
    out=$(mktemp) && rcfile=$(mktemp) || return 1
    { cargo clippy "$@"; echo $? > "$rcfile"; } 2>&1 | tee "$out"
    rc=$(cat "$rcfile")
    if grep -q "does not refer to a reachable" "$out"; then
        echo "clippy: a clippy.toml path does not resolve"
        [ "$rc" -ne 0 ] || rc=1
    fi
    rm -f "$out" "$rcfile"
    return "$rc"
}

step "tier 1: cargo build --release" \
    cargo build --release
step "tier 1: cargo test -q" \
    cargo test -q
step "tier 1: maint integration tests (release)" \
    cargo test --release --test maint

step "tier 2: clippy (default features)" \
    clippy --workspace --all-targets -- -D warnings
step "tier 2: clippy (chaos,latch-audit,model-check)" \
    clippy --workspace --all-targets --features chaos,latch-audit,model-check -- -D warnings
# Library and binary code only: `#[cfg(test)]` code may unwrap.
step "tier 2: clippy lib/bin (no unwrap/expect, no unsafe)" \
    clippy --workspace --lib --bins -- -D warnings -D clippy::unwrap_used -D clippy::expect_used -D unsafe_code
step "tier 2: lint plant (every toolchain check fires)" \
    sh scripts/lint_plant.sh
step "tier 2: gist-lint static rules" \
    cargo run -q --bin gist-lint
step "tier 2: shell scripts parse (sh -n)" \
    sh -c 'for f in scripts/*.sh; do sh -n "$f" || exit 1; done'
# `--lib`: the gist-serve binary's docs would collide with the gist-serve
# crate's. Fails on broken or private intra-doc links.
step "tier 2: rustdoc (no warnings)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline
step "tier 2: cargo test -q --features latch-audit" \
    cargo test -q --features latch-audit
step "tier 2: lock/predicate/pool table stress under latch-audit" \
    filtered cargo test -q --features latch-audit --test stress table_stress::
step "tier 2: optimistic equivalence under latch-audit" \
    cargo test -q --features latch-audit --test optimistic
step "tier 2: optimistic stress under latch-audit" \
    filtered cargo test -q --features latch-audit --test stress optimistic_
step "tier 2: storage fault-injection crash harness" \
    cargo test -q --release --test fault_recovery
# Real process exits and SIGKILLs of the release gist-shell: which
# reopens Db::open_path recovers and which it refuses.
step "tier 2: process-kill durability (release gist-shell)" \
    cargo test -q --release --test durability_files
step "tier 2: operation chaos harness, seed 1 (audited)" \
    env CHAOS_SEED=1 cargo test -q --release --features chaos,latch-audit --test chaos_ops
step "tier 2: operation chaos harness, seed 2 (audited)" \
    env CHAOS_SEED=2 cargo test -q --release --features chaos,latch-audit --test chaos_ops
step "tier 2: commit and log-sync crash points (chaos, audited)" \
    filtered cargo test -q --release --features chaos,latch-audit --test fault_recovery sync_crash
step "tier 2: overload (admission, health)" \
    cargo test -q --release --test overload
step "tier 2: pinned-reader drill (chaos, audited)" \
    filtered cargo test -q --release --features chaos,latch-audit --test overload pinned_reader_blocks_no_reads_or_writes
step "tier 2: serve (wire protocol, sessions, drain)" \
    cargo test -q --release --test serve
step "tier 2: serve chaos teardown sweep" \
    cargo test -q --release --features chaos --test serve
# One seeded fault plan across store, log sync and wire (tests/serve.rs);
# FAULT_SEED picks the plan, which the test prints with its fired log.
cross_layer_seeds() {
    for seed in 1 2; do
        filtered env FAULT_SEED=$seed \
            cargo test -q --release --features chaos --test serve cross_layer || return 1
    done
}
step "tier 2: cross-layer fault plan, seeds 1 and 2" \
    cross_layer_seeds
# bench_e2e/ is frozen, but cargo rewrites its lock file whenever an
# engine crate's dependencies drift from it; restore the file byte for
# byte so the step never edits the benchmark, and keep cargo's exit code.
step "tier 2: bench_e2e package tests + smoke runs" \
    sh -c 'saved=$(mktemp) && cp bench_e2e/Cargo.lock "$saved" || exit 1
        cargo test --release --offline --manifest-path bench_e2e/Cargo.toml
        rc=$?
        cp "$saved" bench_e2e/Cargo.lock || rc=1
        rm -f "$saved"
        exit $rc'

# Fixed per-scenario budgets and schedule-generation seeds are compiled
# into tests/mc_scenarios.rs (seeded-random + PCT). Any failing
# exploration writes its minimized, byte-replayable schedule trace to
# $MC_TRACE_DIR/<scenario>.trace for offline replay.
step "tier 3: mc scenarios (log sync, epoch reuse)" \
    filtered env MC_TRACE_DIR=target/mc-traces \
    cargo test -q --release --features model-check --test mc_scenarios

echo ""
echo "verification summary"
printf '  %-58s %4s %7s\n' "step" "exit" "wall"
printf '%s' "$summary"
if [ "$failed" -ne 0 ]; then
    echo "verify.sh: $failed step(s) FAILED"
    exit 1
fi
echo "verify.sh: all green"
