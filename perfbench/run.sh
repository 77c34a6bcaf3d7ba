#!/usr/bin/env bash
# Builds the release `act` binary and the benchmark from source, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-mc --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/cli" || ! -f "$root/perfbench/Cargo.toml" ]]; then
    echo "perfbench: run from the repository root (crates/ and perfbench/ not found)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --quiet --offline -p act-cli >&2
cargo build --release --quiet --offline --manifest-path "$root/perfbench/Cargo.toml" >&2

# Not `exec`: the benchmark reads its children's peak RSS from
# getrusage(RUSAGE_CHILDREN), which must not include the cargo builds above.
status=0
"$target/release/perfbench" --act "$target/release/act" --state-dir "$target/perfbench" "$@" || status=$?
exit "$status"
