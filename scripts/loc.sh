#!/usr/bin/env sh
# Production line count per crate: the non-blank, non-comment Rust lines
# under each crate's `src/`, without `tests.rs` files, anything under a
# `tests/` directory, or inline `#[cfg(test)] mod <name> { ... }` blocks.
#
#   sh scripts/loc.sh [crate-dir...]     (default: every crates/*)
#
# Prints one `<lines> <crate-dir>` row per crate, then the total. A line
# counts unless it is blank, a `//` comment (doc comments included) or
# inside a `/* ... */` comment. Braces inside string and char literals
# are ignored when finding the end of a test module.
set -u
cd "$(dirname "$0")/.."

[ "$#" -gt 0 ] || set -- crates/*/

total=0
for dir in "$@"; do
    dir=${dir%/}
    [ -d "$dir/src" ] || { echo "loc.sh: $dir has no src/" >&2; exit 1; }
    files=$(find "$dir/src" -name '*.rs' ! -name tests.rs ! -path '*/tests/*' | sort)
    n=0
    if [ -n "$files" ]; then
        # shellcheck disable=SC2086 # one path per word
        n=$(awk '
            FNR == 1 { block = 0; skip = 0; pending = 0 }
            {
                line = $0
                sub(/^[ \t]+/, "", line)
                if (block) {
                    if (index(line, "*/")) block = 0
                    next
                }
                if (line == "" || line ~ /^\/\//) next
                if (line ~ /^\/\*/) {
                    if (!index(line, "*/")) block = 1
                    next
                }
                if (skip) {
                    depth += braces(line)
                    if (depth <= 0) skip = 0
                    next
                }
                if (line ~ /^#\[cfg\(test\)\]$/) { pending = 1; next }
                if (pending) {
                    pending = 0
                    if (line ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/) {
                        depth = braces(line)
                        skip = depth > 0
                        next
                    }
                    count++ # the attribute on a non-module item
                }
                count++
            }
            function braces(s,    t, o, c) {
                t = s
                gsub(/"([^"\\]|\\.)*"/, "", t)
                gsub(/'\''([^'\''\\]|\\.)'\''/, "", t)
                o = gsub(/\{/, "", t)
                c = gsub(/\}/, "", t)
                return o - c
            }
            END { print count + 0 }
        ' $files)
    fi
    printf '%6d %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%6d total\n' "$total"
