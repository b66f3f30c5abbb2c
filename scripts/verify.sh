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
# Tier 2: zero clippy warnings, zero gist-lint violations, the test
# suite under the gist-audit dynamic discipline analyzer
# (`--features latch-audit`), the fault/chaos/overload/serve harnesses
# (one of them a cross-layer scenario under one seeded fault plan), the
# process-kill tests on the release binaries, and the bench_e2e
# package's own tests.
#
# Tier 3: the crates/mc deterministic schedule explorer — schedule-pinned
# regression scenarios (lock replication vs release, predicate attach vs
# replication, the commit pipeline's park, epoch reclamation),
# mutation-detection proofs for the two mutation switches left (the
# commit park's lost wakeup and the skipped epoch grace period), and
# exhaustive DFS over WAL append visibility
# (`--features model-check`).
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

step "tier 1: cargo build --release" \
    cargo build --release
step "tier 1: cargo test -q" \
    cargo test -q
step "tier 1: maint integration tests (release)" \
    cargo test --release --test maint

step "tier 2: clippy (default features)" \
    cargo clippy --workspace --all-targets -- -D warnings
step "tier 2: clippy (chaos,latch-audit,model-check)" \
    cargo clippy --workspace --all-targets --features chaos,latch-audit,model-check -- -D warnings
step "tier 2: gist-lint static rules" \
    cargo run -q --bin gist-lint
step "tier 2: cargo test -q --features latch-audit" \
    cargo test -q --features latch-audit
step "tier 2: lock/predicate/pool table stress under latch-audit" \
    cargo test -q --features latch-audit --test stress table_stress::
step "tier 2: optimistic equivalence under latch-audit" \
    cargo test -q --features latch-audit --test optimistic
step "tier 2: optimistic stress under latch-audit" \
    cargo test -q --features latch-audit --test stress optimistic_
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
step "tier 2: flusher crash points (chaos, audited)" \
    cargo test -q --release --features chaos,latch-audit --test fault_recovery flusher_crash
step "tier 2: overload (admission, health)" \
    cargo test -q --release --test overload
step "tier 2: pinned-reader drill (chaos, audited)" \
    cargo test -q --release --features chaos,latch-audit --test overload pinned_reader_blocks_no_reads_or_writes
step "tier 2: serve (wire protocol, sessions, drain)" \
    cargo test -q --release --test serve
step "tier 2: serve chaos teardown sweep" \
    cargo test -q --release --features chaos --test serve
# One seeded fault plan across store, flusher and wire (tests/serve.rs);
# FAULT_SEED picks the plan, which the test prints with its fired log.
step "tier 2: cross-layer fault plan, seeds 1 and 2" \
    sh -c 'for seed in 1 2; do
        FAULT_SEED=$seed cargo test -q --release --features chaos --test serve cross_layer || exit 1
    done'
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

# Fixed per-scenario budgets and two schedule-generation seeds per
# scenario are compiled into tests/mc_scenarios.rs (seeded-random +
# PCT; exhaustive DFS over WAL append visibility). Any
# failing exploration writes its minimized, byte-replayable schedule
# trace to $MC_TRACE_DIR/<scenario>.trace for offline replay.
step "tier 3: model checker (mc scenarios)" \
    env MC_TRACE_DIR=target/mc-traces \
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
