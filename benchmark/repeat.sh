#!/usr/bin/env bash
# Repeatability: runs every workload N times (untraced) and prints, per
# end-to-end metric and workload, the median, min, max and the relative
# spread: the distance between the first and third quartile
# (statistics.quantiles(values, n=4)) as a share of the median.
#
#   benchmark/repeat.sh N [--seed S] [--seconds T]
#
# Without --seed, run i uses seed i; with it, every run uses seed S.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:?usage: repeat.sh N [--seed S] [--seconds T]}"
shift
seed=""
extra=()
while [ "$#" -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        *) extra+=("$1"); shift ;;
    esac
done

mkdir -p "$here/out"
log="$here/out/repeat.jsonl"
: > "$log"
for i in $(seq 1 "$runs"); do
    for workload in q1_warm q1_cold select_sweep write_mix; do
        echo "run $i/$runs: $workload" >&2
        result="$("$here/run.sh" --workload "$workload" --seed "${seed:-$i}" --trace 0 "${extra[@]}" | tail -n 1)"
        echo "{\"workload\": \"$workload\", \"result\": $result}" >> "$log"
    done
done

python3 - "$log" <<'PY'
import json, statistics, sys

series = {}
wrong = 0
for line in open(sys.argv[1]):
    row = json.loads(line)
    wrong += not row["result"]["correct"]
    for name, metric in row["result"]["metrics"].items():
        series.setdefault((name, row["workload"]), []).append(metric["value"])

print(f"{'metric':<24}{'workload':<14}{'median':>12}{'min':>12}{'max':>12}{'spread':>9}")
for (name, workload), values in sorted(series.items()):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"{(q3 - q1) / median:9.4f}"
    else:
        spread = "        -"
    print(f"{name:<24}{workload:<14}{median:12.4f}{min(values):12.4f}{max(values):12.4f}{spread}")
print(f"runs with a failed operation: {wrong}")
sys.exit(1 if wrong else 0)
PY
