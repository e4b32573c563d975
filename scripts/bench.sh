#!/usr/bin/env bash
# Performance gates: the PR 5 result-cache / subsumption / coalescing
# bench, the PR 6 write-subsystem bench and the PR 10 HBI
# crossover-selectivity sweep, writing BENCH_PR5.json, BENCH_PR6.json
# and BENCH_PR10.json at the repo root.
#
#   scripts/bench.sh            full runs (enforce the acceptance bars)
#   scripts/bench.sh --smoke    ~30x smaller datasets (CI gate)
#
# Extra arguments are passed through to every bench binary. `--out`
# would collide between them; use the per-bench invocations below
# directly if you need custom output paths.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run -q --release --offline -p molap-bench --bin bench_pr5 -- "$@"
cargo run -q --release --offline -p molap-bench --bin bench_pr6 -- "$@"
cargo run -q --release --offline -p molap-bench --bin bench_pr10 -- "$@"
