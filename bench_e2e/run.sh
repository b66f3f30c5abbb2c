#!/usr/bin/env bash
# Build the engine's server and this benchmark from source, then run the
# benchmark. Run from the root of a checkout; every argument goes to
# bench_e2e (see README.md beside this file).
set -euo pipefail

command -v taskset >/dev/null || {
  echo "bench_e2e/run.sh: taskset (util-linux) is needed to pin the run to one CPU" >&2
  exit 1
}

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
case "$CARGO_TARGET_DIR" in
  /*) ;;
  *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

# Both builds share one target directory, so the engine crates compile once.
cargo build --release --offline --quiet --bin gist-serve >&2
cargo build --release --offline --quiet --manifest-path bench_e2e/Cargo.toml >&2

# One CPU, always, for the benchmark and the server it spawns. On a 2-vCPU
# guest the scheduler sometimes packs the engine's flusher beside its
# clients and sometimes spreads them; a cross-vCPU wake-up costs tens of
# microseconds, so the same binary measured 27k or 40k point reads per
# second depending on the placement (README.md, "Why one CPU"). The report
# records the CPUs the run was allowed (`cores`, `cpus_allowed`).
cpu="$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status | cut -d, -f1 | cut -d- -f1)"

exec taskset -c "$cpu" "$CARGO_TARGET_DIR/release/bench_e2e" \
  --serve-bin "$CARGO_TARGET_DIR/release/gist-serve" \
  --scratch "$CARGO_TARGET_DIR/bench-scratch" "$@"
