#!/usr/bin/env bash
# Parent-versus-change benchmark comparison, the way choosing-metrics §8
# asks for it: alternating pairs of measured passes, a fresh seed per
# pair, each side built from and run by ITS OWN tree's benchmarks/run.sh.
#
#   scripts/bench_pair.sh <parent-ref> [--workload W]... [--pairs 10] [--seed-base 100]
#
# The parent is checked out with `git worktree add` into the git-ignored
# .bench_build/parent (a worktree, so the parent's run.sh records the
# parent's commit); the change is the working tree this script lives in.
# Workloads default to BENCHMARK.json's; pass length, metrics and bounds
# are always BENCHMARK.json's. Every pass's result line lands in
# .bench_build/pairs.jsonl, and the table printed at the end gives, per
# (workload, end-to-end metric): each side's median and quartiles, the
# pairs the change won (ties count for neither), and the verdict —
#
#   gain        the change won >= 9/10 of the pairs AND the medians differ
#               by more than the parent's own interquartile range
#   within      the change's median is no worse than the parent's by more
#               than the metric's bound
#   unresolved  within the bound, but the runs spread wider than the bound
#               and not every change run beats every parent run
#   REGRESSION  worse than the parent by more than the bound
#
# plus each side's raw (un-normalised) round median and rounds/s. Exits
# non-zero on a REGRESSION or on any failed operation.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
spec="$root/BENCHMARK.json"
[ $# -ge 1 ] || { sed -n '2,8p' "${BASH_SOURCE[0]}" >&2; exit 2; }
parent_ref="$1"; shift
pairs=10 seed_base=100 workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads+=("$2"); shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --seed-base) seed_base="$2"; shift 2 ;;
        *) echo "bench_pair.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    read -r -a workloads <<< "$(python3 -c 'import json, sys; print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]])' "$spec")"
fi
if [ "$pairs" -lt 2 ]; then
    echo "bench_pair.sh: quartiles need at least 2 pairs" >&2
    exit 2
fi
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"

build="$root/.bench_build"
parent="$build/parent"
mkdir -p "$build"
if [ -e "$parent" ]; then
    git -C "$root" worktree remove --force "$parent"
fi
git -C "$root" worktree add --force --detach "$parent" "$parent_ref" >&2
trap 'git -C "$root" worktree remove --force "$parent"' EXIT

tree_of() { if [ "$1" = parent ]; then echo "$parent"; else echo "$root"; fi; }
# The parent builds outside its worktree, so the next invocation reuses
# the build; the change builds where benchmarks/run.sh always does.
run_side() {
    local side="$1"; shift
    if [ "$side" = parent ]; then
        CARGO_TARGET_DIR="$build/parent-target" bash "$parent/benchmarks/run.sh" "$@"
    else
        bash "$root/benchmarks/run.sh" "$@"
    fi
}

# Build both sides before anything is timed.
for side in parent change; do
    echo "building $side ($(git -C "$(tree_of "$side")" rev-parse --short HEAD))" >&2
    run_side "$side" --catalogue json > /dev/null
done

results="$build/pairs.jsonl"
: > "$results"
for pair in $(seq 1 "$pairs"); do
    seed=$((seed_base + pair))
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for workload in "${workloads[@]}"; do
        for side in $order; do
            tree="$(tree_of "$side")"
            echo "pair $pair/$pairs: $workload on $side (seed $seed)" >&2
            line="$(run_side "$side" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0 2>>"$build/pairs.log" | tail -n 1)" || true
            raw="$(python3 -c 'import json, sys; print(json.dumps(json.load(open(sys.argv[1]))["rounds"]))' \
                "$tree/benchmarks/out/$workload-measured-seed$seed.json")"
            printf '{"pair":%d,"side":"%s","workload":"%s","result":%s,"rounds":%s}\n' \
                "$pair" "$side" "$workload" "$line" "$raw" >> "$results"
        done
    done
done

python3 - "$results" "$spec" "${workloads[@]}" <<'PY'
import json, statistics, sys

rows = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
workloads = sys.argv[3:]
status = 0

def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3

def side(workload, name):
    return sorted((r for r in rows if r["workload"] == workload and r["side"] == name),
                  key=lambda r: r["pair"])

print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change | wins | bound | verdict |")
print("|---|---|---|---|---|---|---|---|")
for workload in workloads:
    parent, change = side(workload, "parent"), side(workload, "change")
    failed = [r for r in parent + change if not r["result"]["correct"]]
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        p = [r["result"]["metrics"][name]["value"] for r in parent]
        c = [r["result"]["metrics"][name]["value"] for r in change]
        better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
        wins = sum(better(y, x) for x, y in zip(p, c))
        losses = sum(better(x, y) for x, y in zip(p, c))
        (mp, p1, p3), (mc, c1, c3) = summary(p), summary(c)
        worse = (mc - mp) / mp if lower else (mp - mc) / mp
        spread = max((p3 - p1) / mp, (c3 - c1) / mc)
        separated = all(better(y, x) for x in p for y in c)
        if worse > bound:
            verdict, status = "REGRESSION", 1
        elif wins >= 0.9 * len(p) and better(mc, mp) and abs(mc - mp) > p3 - p1:
            verdict = "gain"
        elif spread > bound and not separated:
            verdict = "unresolved"
        else:
            verdict = "within"
        print(f"| {workload} | {name} | {mp:.4g} [{p1:.4g}, {p3:.4g}] | {mc:.4g} [{c1:.4g}, {c3:.4g}] "
              f"| {(mc - mp) / mp:+.1%} | {wins}/{len(p)} ({losses} lost) | {bound:.0%} | {verdict} |")
    if failed:
        status = 1
        print(f"| {workload} | failed operations | | | | | 0 | FAILED in {len(failed)} passes |")

print()
print("| workload | side | raw round p50 ms: median [q1, q3] | rounds/s: median [q1, q3] |")
print("|---|---|---|---|")
for workload in workloads:
    for name in ("parent", "change"):
        runs = side(workload, name)
        (m50, a1, a3) = summary([r["rounds"]["p50_ms"] for r in runs])
        (mps, b1, b3) = summary([r["rounds"]["per_s"] for r in runs])
        print(f"| {workload} | {name} | {m50:.4g} [{a1:.4g}, {a3:.4g}] | {mps:.4g} [{b1:.4g}, {b3:.4g}] |")
sys.exit(status)
PY
