#!/usr/bin/env sh
# Tier-1 verification: release build, full workspace test suite, and the
# maintenance-subsystem integration tests called out explicitly so a
# filtered run can't silently skip them.
#
# Tier-2 verification gate: zero clippy warnings, zero gist-lint
# violations, and the full test suite under the gist-audit dynamic
# discipline analyzer (`--features latch-audit`).
#
# Tier-3: the crates/mc deterministic schedule explorer — schedule-pinned
# regression scenarios, mutation-detection proofs, and exhaustive DFS over
# the WAL watermark invariants (`--features model-check`).
set -eu
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (workspace) =="
cargo test -q

echo "== cargo test --release --test maint =="
cargo test --release --test maint

echo "== tier 2: cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier 2: cargo clippy --workspace --all-targets --features chaos,latch-audit,model-check =="
cargo clippy --workspace --all-targets --features chaos,latch-audit,model-check -- -D warnings

echo "== tier 2: gist-lint (static discipline rules, incl. no-owned-decode-in-traversal) =="
cargo run -q --bin gist-lint

echo "== tier 2: cargo test -q --features latch-audit (dynamic analyzer) =="
cargo test -q --features latch-audit

echo "== tier 2: shard-boundary stress under latch-audit =="
cargo test -q --features latch-audit --test stress shard_

echo "== tier 2: optimistic read-path equivalence + stress under latch-audit =="
cargo test -q --features latch-audit --test optimistic
cargo test -q --features latch-audit --test stress optimistic_

echo "== tier 2: storage fault-injection crash harness =="
cargo test -q --release --test fault_recovery

echo "== tier 2: operation-level chaos harness (two seeds, audited) =="
CHAOS_SEED=1 cargo test -q --release --features chaos,latch-audit --test chaos_ops
CHAOS_SEED=2 cargo test -q --release --features chaos,latch-audit --test chaos_ops

echo "== tier 2: commit-pipeline flusher crash points (chaos, audited) =="
cargo test -q --release --features chaos,latch-audit --test fault_recovery flusher_crash

echo "== tier 2: group-commit acceptance bench (smoke) =="
BENCH_COMMIT_SMOKE=1 cargo run -q --release -p gist-bench --bin bench_commit \
    target/BENCH_commit_smoke.json

echo "== tier 2: overload resilience (admission, backpressure, health) =="
cargo test -q --release --test overload

echo "== tier 2: epoch-stall degradation drill (chaos, audited) =="
cargo test -q --release --features chaos,latch-audit --test overload epoch_stall

echo "== tier 2: overload acceptance bench (smoke) =="
BENCH_OVERLOAD_SMOKE=1 cargo run -q --release -p gist-bench --bin bench_overload \
    target/BENCH_overload_smoke.json

echo "== tier 2: serving layer (wire protocol, sessions, drain) =="
cargo test -q --release --test serve
cargo test -q --release -p gist-wire

echo "== tier 2: serve chaos teardown sweep (every serve.* point) =="
cargo test -q --release --features chaos --test serve

echo "== tier 2: serve disconnect-storm bench (smoke) =="
BENCH_SERVE_SMOKE=1 cargo run -q --release -p gist-bench --bin bench_serve \
    target/BENCH_serve_smoke.json

echo "== tier 2: bench_e2e package (unit tests, BENCHMARK.json sync, smoke + all-CPU run) =="
cargo test --release --offline --manifest-path bench_e2e/Cargo.toml

echo "== tier 3: deterministic model checker (crates/mc) =="
# Fixed per-scenario budgets and two schedule-generation seeds per
# scenario are compiled into tests/mc_scenarios.rs (seeded-random +
# PCT; exhaustive DFS for the small WAL watermark state space). Any
# failing exploration writes its minimized, byte-replayable schedule
# trace to $MC_TRACE_DIR/<scenario>.trace for offline replay.
MC_TRACE_DIR=target/mc-traces \
    cargo test -q --release --features model-check --test mc_scenarios

echo ""
echo "verification summary"
echo "  step                                violations"
echo "  ----------------------------------  ----------"
echo "  tier-1 build + tests                         0"
echo "  clippy (default + latch-audit)               0"
echo "  gist-lint static rules                       0"
echo "  latch-audit dynamic analyzer                 0"
echo "  shard stress under latch-audit               0"
echo "  optimistic equivalence + stress              0"
echo "  fault-injection crash harness                0"
echo "  chaos harness (seeds 1+2, audited)           0"
echo "  flusher crash points (audited)               0"
echo "  group-commit acceptance (>=5x)               0"
echo "  overload: admission/backpressure             0"
echo "  epoch-stall drill (degrade, no hang)         0"
echo "  overload acceptance (>=80% goodput)          0"
echo "  serve: protocol corpus + sessions            0"
echo "  serve chaos teardown sweep                   0"
echo "  serve disconnect storm (no leaks)            0"
echo "  bench_e2e tests + smoke (0 failed txns)      0"
echo "  model checker (mc scenarios)                 0"
echo "verify.sh: all green"
