#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one run; the last line of standard output is the result as JSON
#   benchmark/run.sh [--seed N] [--seconds S]
#       the whole suite: every workload, untraced and then traced
#
# Databases, WALs and traces go to benchmark/out/; the build goes to
# $CARGO_TARGET_DIR, or benchmark/target/ when that is not set.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/molap-benchmark"

mkdir -p "$here/out"
export MOLAP_BENCH_RUSTC="$(rustc --version)"
export MOLAP_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export MOLAP_BENCH_FS="$(stat -f -c %T "$here/out")"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@" --out "$here/out"
    fi
done

status=0
for workload in q1_warm q1_cold select_sweep write_mix; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --trace "$trace" "$@" --out "$here/out" || status=1
    done
done
exit "$status"
