#!/usr/bin/env sh
# Alternating parent/change pairs of one bench_e2e workload.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs=10] [first-seed=1]
#
# The change side is this checkout as it stands (built into `target/`).
# The parent side is `<parent-rev>` exported with `git archive` into
# `target/bench-pairs/parent` and built into its own target directory
# (`target/bench-pairs/parent-target`, kept so a second workload reuses
# the build); the exported tree is removed when the script ends. The
# export is extracted with `tar -x -m`, which stamps every file with the
# time of extraction: left at the commit's time, the sources would look
# older than the artifacts a previous export left in the kept target
# directory, and cargo would run those instead of building `<parent-rev>`. Pair i
# runs seed first-seed+i-1 on both sides with
# `bench_e2e/run.sh --workload W --seed S --seconds 10 --trace 0`,
# the parent first on odd seeds and the change first on even ones.
# Set BENCH_PAIRS_TRACE=1 to pass `--trace 1` instead (the per-layer
# table's metrics are then summarised).
#
# Building the benchmark rewrites `bench_e2e/Cargo.lock`; each tree's
# copy is restored byte for byte after every run.
#
# Output: per metric, both medians, the change in %, the parent's
# interquartile range as % of its median, the pairs the change won, the
# BENCHMARK.json bound, and `unresolved` where that IQR exceeds the
# bound; then failed/attempted per side. Every run's last stdout line is
# kept in target/bench-pairs/<workload>-<seed>-<pairs>.lines. Exits
# non-zero if any run was not `correct` or printed no verdict.
set -u
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-rev> <workload> [pairs=10] [first-seed=1]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
seed0=${4:-1}
trace=${BENCH_PAIRS_TRACE:-0}

root=$PWD
work=$root/target/bench-pairs
ptree=$work/parent
ptarget=$work/parent-target
lines=$work/$workload-$seed0-$pairs.lines

cleanup() {
    rm -rf "$ptree"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

rm -rf "$ptree"
mkdir -p "$ptree" "$ptarget" || exit 1
git archive "$rev" | tar -x -m -C "$ptree" || {
    echo "bench_pairs: cannot export $rev" >&2
    exit 1
}
: > "$lines"

# run_side <side> <tree> <target-dir> <seed>: one run, verdict appended
# to $lines as "<side> <seed> <json>".
run_side() {
    saved=$(mktemp) || exit 1
    cp "$2/bench_e2e/Cargo.lock" "$saved" || exit 1
    echo "bench_pairs: $workload seed $4 on $1" >&2
    verdict=$(cd "$2" && CARGO_TARGET_DIR=$3 bash bench_e2e/run.sh \
        --workload "$workload" --seed "$4" --seconds 10 --trace "$trace" | tail -n 1)
    cp "$saved" "$2/bench_e2e/Cargo.lock"
    rm -f "$saved"
    echo "$1 $4 $verdict" >> "$lines"
}

i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((seed0 + i))
    if [ $((seed % 2)) -eq 1 ]; then
        run_side parent "$ptree" "$ptarget" "$seed"
        run_side change "$root" "$root/target" "$seed"
    else
        run_side change "$root" "$root/target" "$seed"
        run_side parent "$ptree" "$ptarget" "$seed"
    fi
    i=$((i + 1))
done

echo "workload $workload, parent $rev, $pairs pairs, seeds $seed0..$((seed0 + pairs - 1))"
awk -v bench="$root/BENCHMARK.json" '
# Linear-interpolation quantile of the sorted a[1..n].
function quant(a, n, p,    h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    if (lo >= n) return a[n]
    return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function sortv(a, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
function field(s, key,    r) {
    if (!match(s, "\"" key "\": *[^,}]+")) return ""
    r = substr(s, RSTART, RLENGTH)
    sub(/^[^:]*: */, "", r)
    return r
}
BEGIN {
    # name -> better / bound, from the benchmark declaration.
    while ((getline l < bench) > 0) {
        if (match(l, /"name": *"[^"]+"/)) {
            name = substr(l, RSTART, RLENGTH)
            sub(/^"name": *"/, "", name)
            sub(/"$/, "", name)
        } else if (match(l, /"better": *"[a-z]+"/)) {
            b = substr(l, RSTART, RLENGTH)
            sub(/^"better": *"/, "", b)
            sub(/"$/, "", b)
            better[name] = b
        } else if (match(l, /"bound": *[0-9.]+/)) {
            b = substr(l, RSTART, RLENGTH)
            sub(/^"bound": */, "", b)
            bound[name] = b + 0
        }
    }
}
{
    side = $1
    seed = $2
    line = $0
    runs[side]++
    if (field(line, "correct") != "true") bad[side]++
    attempted[side] += field(line, "attempted")
    failed[side] += field(line, "failed")
    rest = line
    sub(/.*"metrics": *\{/, "", rest)
    while (match(rest, /"[A-Za-z0-9_.]+": *\{ *"value": *[^,}]+/)) {
        piece = substr(rest, RSTART, RLENGTH)
        rest = substr(rest, RSTART + RLENGTH)
        m = piece
        sub(/^"/, "", m)
        sub(/".*/, "", m)
        v = piece
        sub(/.*: */, "", v)
        if (!(m in seen)) { seen[m] = 1; order[++nm] = m }
        val[side, seed, m] = v
        seeds[seed] = 1
    }
}
END {
    printf "%-32s %12s %12s %8s %10s %6s %6s\n", "metric", "parent", "change", "change%", "parentIQR%", "won", "bound"
    for (k = 1; k <= nm; k++) {
        m = order[k]
        np = nc = won = npair = 0
        for (s in seeds) {
            hp = ((("parent", s, m) in val) && val["parent", s, m] != "null")
            hc = ((("change", s, m) in val) && val["change", s, m] != "null")
            if (hp) P[++np] = val["parent", s, m] + 0
            if (hc) C[++nc] = val["change", s, m] + 0
            if (hp && hc) {
                npair++
                d = val["change", s, m] - val["parent", s, m]
                if ((better[m] == "lower" && d < 0) || (better[m] != "lower" && d > 0)) won++
            }
        }
        if (np == 0 || nc == 0) continue
        sortv(P, np)
        sortv(C, nc)
        mp = quant(P, np, 0.5)
        mc = quant(C, nc, 0.5)
        iqr = quant(P, np, 0.75) - quant(P, np, 0.25)
        chg = (mp != 0) ? sprintf("%+.1f", (mc - mp) / mp * 100) : "-"
        spread = (mp != 0) ? iqr / (mp < 0 ? -mp : mp) : 0
        bd = (m in bound) ? sprintf("%.0f%%", bound[m] * 100) : "-"
        note = ((m in bound) && spread > bound[m]) ? "unresolved" : ""
        printf "%-32s %12.6g %12.6g %8s %10.1f %6s %6s %s\n", m, mp, mc, chg, spread * 100, won "/" npair, bd, note
    }
    status = 0
    for (sd = 1; sd <= 2; sd++) {
        side = (sd == 1) ? "parent" : "change"
        printf "%s: failed %d / attempted %d over %d runs", side, failed[side], attempted[side], runs[side]
        if (bad[side] > 0) { printf ", %d runs NOT correct", bad[side]; status = 1 }
        printf "\n"
    }
    exit status
}' "$lines"
