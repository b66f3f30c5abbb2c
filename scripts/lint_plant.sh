#!/usr/bin/env sh
# Show that every check the toolchain enforces for this repo still fires:
# clippy, with verify.sh's lint flags and the root clippy.toml, must fail
# on scripts/lint-plant and report every lint listed below, with the
# method path of each clippy.toml entry. Usage: sh scripts/lint_plant.sh
set -u
cd "$(dirname "$0")/.."

# <lint code> [<disallowed method path>], one planted line each.
expected='clippy::unwrap_used
clippy::expect_used
unsafe_code
clippy::let_underscore_must_use
clippy::unused_result_ok
clippy::wildcard_enum_match_arm
clippy::disallowed_methods std::sync::Condvar::wait
clippy::disallowed_methods std::sync::Condvar::wait_while
clippy::disallowed_methods parking_lot::RwLock::read_arc
clippy::disallowed_methods parking_lot::RwLock::write_arc
clippy::disallowed_methods parking_lot::RwLock::try_read_arc
clippy::disallowed_methods parking_lot::RwLock::try_write_arc'

out=$(mktemp) || exit 1
trap 'rm -f "$out"' EXIT
if cargo clippy --offline --quiet --message-format=json \
    --manifest-path scripts/lint-plant/Cargo.toml --target-dir target/lint-plant \
    -- -D warnings -D clippy::unwrap_used -D clippy::expect_used -D unsafe_code \
    > "$out" 2>/dev/null; then
    echo "lint-plant: clippy passed over the planted violations"
    exit 1
fi
# One JSON diagnostic per line: its lint code, and for a clippy.toml entry
# the method path (an entry whose path no longer resolves fires nothing).
echo "$expected" | {
    rc=0
    while read -r lint path; do
        if grep -F "\"code\":{\"code\":\"$lint\"" "$out" | grep -qF "${path:+\`$path\`}"; then
            echo "  fired    $lint $path"
        else
            echo "  MISSING  $lint $path"
            rc=1
        fi
    done
    exit "$rc"
}
