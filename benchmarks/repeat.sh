#!/usr/bin/env bash
# Does the benchmark repeat? Runs the measured pass of every workload as
# two sets of runs of the same code, alternating sets and changing the
# seed every run, and prints per (workload, end-to-end metric) each
# set's median and quartiles, the spread of all runs (interquartile
# range / median, as Python's statistics.quantiles gives it), and whether
# the two medians agree within the metric's bound.
#
#   benchmarks/repeat.sh [--runs 5] [--seconds 25]
#
# The workloads, the metrics, their bounds and the default pass length are
# BENCHMARK.json's.
#
# If a pair fails: fix the estimator or lengthen the run. Do not widen a
# bound.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
spec="$here/../BENCHMARK.json"
runs=5 seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
workloads="$(python3 -c 'import json, sys; print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]])' "$spec")"
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        *) echo "usage: repeat.sh [--runs N] [--seconds S]" >&2; exit 2 ;;
    esac
done
if [ "$runs" -lt 2 ]; then
    echo "repeat.sh: quartiles need at least 2 runs per set" >&2
    exit 2
fi

out="$here/out"
mkdir -p "$out"
results="$out/repeat.jsonl"
: > "$results"
seed=0
for run in $(seq 1 "$runs"); do
    for set in A B; do
        seed=$((seed + 1))
        for workload in $workloads; do
            echo "run $run set $set: $workload (seed $seed)" >&2
            line="$("$here/run.sh" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0 2>>"$out/repeat.log" | tail -n 1)"
            printf '{"set":"%s","workload":"%s","result":%s}\n' "$set" "$workload" "$line" \
                >> "$results"
        done
    done
done

python3 - "$results" "$spec" <<'PY'
import json, statistics, sys

rows = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
failed = False
print("| workload | metric | set A median [q1, q3] | set B median [q1, q3] | spread of all runs | bound | medians agree |")
print("|---|---|---|---|---|---|---|")
for workload in [w["name"] for w in spec["workloads"]]:
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = {
            s: [r["result"]["metrics"][name]["value"] for r in rows
                if r["workload"] == workload and r["set"] == s]
            for s in "AB"
        }
        if not all(r["result"]["correct"] for r in rows if r["workload"] == workload):
            failed = True
        def summary(v):
            q1, _, q3 = statistics.quantiles(v, n=4)
            return statistics.median(v), q1, q3
        (ma, a1, a3), (mb, b1, b3) = summary(values["A"]), summary(values["B"])
        everything = values["A"] + values["B"]
        q1, _, q3 = statistics.quantiles(everything, n=4)
        spread = (q3 - q1) / statistics.median(everything)
        worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
        agree = abs(worse) <= bound
        failed |= not agree
        print(f"| {workload} | {name} | {ma:.4g} [{a1:.4g}, {a3:.4g}] | {mb:.4g} [{b1:.4g}, {b3:.4g}] "
              f"| {spread:.2%} | {bound:.0%} | {'yes' if agree else 'NO'} ({worse:+.2%}) |")
sys.exit(1 if failed else 0)
PY
