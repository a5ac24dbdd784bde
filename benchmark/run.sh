#!/usr/bin/env bash
# The repo benchmark, one command. Run from the repository root:
#
#   benchmark/run.sh [--seed S] [--seconds N] [--smoke] [--trace]
#       all five workloads; prints every metric by name with its unit and
#       currency and writes benchmark/out/run-<seed>.json
#   benchmark/run.sh --workload NAME --seed S --seconds N --trace 0|1
#       one workload, one pass, as the driver runs it: the last line of
#       standard output is one JSON object
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh manifest          (prints the root BENCHMARK.json)
#
# Builds the crate twice from source: free (no features, every hook
# compiled out: rh_norec::INSTRUMENTED == false) and controlled
# (--features controlled: the deterministic scheduler and trace hooks
# compiled in). Both builds share one target directory; each binary is
# copied aside because the second build replaces the first's.

set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
build() { # $1 = name of the copy, rest = cargo flags
    local copy="$target/rh-benchmark-$1"
    shift
    cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target" "$@" >&2
    # Renamed into place, so a copy that is running is never written to.
    if ! cmp -s "$target/release/rh-benchmark" "$copy"; then
        cp -f "$target/release/rh-benchmark" "$copy.$$"
        mv -f "$copy.$$" "$copy"
    fi
}
build free
build controlled --features controlled

bin="$target/rh-benchmark-free"
case "${1:-}" in
    compare | manifest) exec "$bin" "$@" ;;
esac
mode=all
for arg in "$@"; do
    [ "$arg" = "--workload" ] && mode=run
done
exec "$bin" "$mode" --controlled-bin "$target/rh-benchmark-controlled" --out benchmark/out "$@"
