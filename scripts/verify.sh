#!/usr/bin/env bash
# Full verification gate: build, tests, lints, formatting.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo test -q: the workspace members outside default-members (benches, vendored shims)"
cargo test -q --offline -p molap-bench \
  -p criterion -p crossbeam -p parking_lot -p proptest -p rand

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> molap-lint --check . --json (repo-specific static analysis)"
# The JSON report (findings + per-rule counts + call-graph stats +
# wall time) is archived as a build artifact; the run must be clean
# AND the interprocedural engine must actually have analyzed the tree
# (a zero-function call graph would mean the walker silently skipped
# the sources).
cargo run -q -p molap-lint --offline -- --check . --json > target/molap-lint.json || true
grep -q '"findings":\[\]' target/molap-lint.json || {
  echo "verify: molap-lint reported findings (see target/molap-lint.json)" >&2
  exit 1
}
if grep -q '"functions":0' target/molap-lint.json; then
  echo "verify: molap-lint call graph saw zero functions" >&2
  exit 1
fi
echo "    archived target/molap-lint.json"

echo "==> molap-lint --check crates/lint/tests/corpus (must report findings)"
# The seeded-violation corpus keeps the lint honest: if the rules rot
# into always-green, this gate fails. Exit 1 means findings; anything
# else (0 = spuriously clean, 2 = I/O or usage error) is a failure.
corpus_status=0
cargo run -q -p molap-lint --offline -- --check crates/lint/tests/corpus \
  > /dev/null || corpus_status=$?
if [ "$corpus_status" -ne 1 ]; then
  echo "verify: expected molap-lint to exit 1 on the seeded corpus, got $corpus_status" >&2
  exit 1
fi

echo "==> cargo test -p molap-server --features lock-order-tracking"
cargo test -q -p molap-server --features lock-order-tracking --offline

echo "==> cargo test -p molap-core --features lock-order-tracking"
cargo test -q -p molap-core --features lock-order-tracking --offline

echo "==> cargo test -p molap-storage --features lock-order-tracking"
cargo test -q -p molap-storage --features lock-order-tracking --offline

echo "==> bench_pr5 --smoke (result cache: exact hit >= 10x cold, subsumption >= 3x)"
cargo run -q --release --offline -p molap-bench --bin bench_pr5 -- \
  --smoke --out target/BENCH_PR5.smoke.json > /dev/null

echo "==> bench_pr6 --smoke (writes: delta-maintained herd vs invalidate-all; ratio printed, bar enforced by the full run only)"
cargo run -q --release --offline -p molap-bench --bin bench_pr6 -- \
  --smoke --out target/BENCH_PR6.smoke.json | grep '^headline'

echo "==> bench_pr10 --smoke (HBI >= 2x btree index lists at >=25% selectivity; auto <= 1.1x at points)"
cargo run -q --release --offline -p molap-bench --bin bench_pr10 -- \
  --smoke --out target/BENCH_PR10.smoke.json > /dev/null

echo "==> benchmark self-tests (benchmark/ is its own workspace: root cargo test never compiles it)"
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> benchmark/run.sh --workload q1_warm --seconds 1 (the benchmark still builds against crates/ and verifies its replies)"
bash benchmark/run.sh --workload q1_warm --seconds 1 > /dev/null

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> verify OK"
