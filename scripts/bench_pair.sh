#!/usr/bin/env bash
# Parent-versus-change benchmark comparison, the way choosing-metrics §8
# asks for it: alternating pairs of measured passes, a fresh seed per
# pair, each side built from and run by ITS OWN tree's benchmarks/run.sh.
#
#   scripts/bench_pair.sh <parent-ref> [--workload W]... [--pairs 10] [--seed-base 100] [--record PR]
#   scripts/bench_pair.sh --record PR
#   scripts/bench_pair.sh --trajectory
#
# The parent is a `git clone` of this repository checked out at
# <parent-ref> in the git-ignored .bench_build/parent (a clone, so the
# parent's run.sh records the parent's commit); the change is the working
# tree this script lives in. Workloads default to BENCHMARK.json's; pass
# length, metrics and bounds are always BENCHMARK.json's. Every pass's
# result line lands in .bench_build/pairs.jsonl, with its seed, its
# side's commit (`-dirty` when the change was an uncommitted working
# tree), its raw round summary, its host facts and its box slowdown, and
# the table printed at the end gives, per (workload, end-to-end metric):
# each side's median and quartiles, the pairs the change won (ties count
# for neither), and the verdict —
#
#   gain        the change won >= 9/10 of the pairs AND the medians differ
#               by more than the parent's own interquartile range
#   within      the change's median is no worse than the parent's by more
#               than the metric's bound
#   unresolved  within the bound, but the runs spread wider than the bound
#               and not every change run beats every parent run
#   REGRESSION  worse than the parent by more than the bound
#
# plus each side's raw (un-normalised) round median, rounds/s and box
# slowdown. Exits non-zero on a REGRESSION or on any failed operation.
#
# --record PR also writes BENCH_<PR>.json at the repository root: per
# gated row (workload x end-to-end metric) both sides' median and
# quartiles, pairs won and lost, and the verdict; per workload and side
# the raw round median, rounds/s and harness.box_slowdown; and the host
# facts (nproc, rustc -V), both commits and the seeds. Given alone, it
# records the pairs.jsonl of the last run without running anything.
# --trajectory prints one row per BENCH_*.json, oldest PR first.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
spec="$root/BENCHMARK.json"
build="$root/.bench_build"
results="$build/pairs.jsonl"

# The verdict table from pairs.jsonl; with a PR number, BENCH_<PR>.json too.
summarize() {
    python3 - "$results" "$spec" "$root" "${1:-}" <<'PY'
import json, os, statistics, sys

rows = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
root, record = sys.argv[3], sys.argv[4]
workloads = list(dict.fromkeys(r["workload"] for r in rows))
status = 0
gated, sides = [], []

def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3

def cell(values, digits):
    """A summary of the values a pass reported (a failed pass may report
    none), printed as `median [q1, q3]`, or None and a dash."""
    values = [v for v in values if v is not None]
    if not values:
        return None, "—"
    m, q1, q3 = summary(values)
    return {"median": m, "q1": q1, "q3": q3}, f"{m:.{digits}g} [{q1:.{digits}g}, {q3:.{digits}g}]"

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
        gated.append({
            "workload": workload, "metric": name, "unit": metric["unit"],
            "better": metric["better"], "bound": bound,
            "parent": {"median": mp, "q1": p1, "q3": p3},
            "change": {"median": mc, "q1": c1, "q3": c3},
            "change_share": (mc - mp) / mp, "wins": wins, "losses": losses,
            "pairs": len(p), "verdict": verdict,
        })
    if failed:
        status = 1
        print(f"| {workload} | failed operations | | | | | 0 | FAILED in {len(failed)} passes |")

print()
print("| workload | side | raw round p50 ms: median [q1, q3] | rounds/s: median [q1, q3] | box slowdown: median [q1, q3] |")
print("|---|---|---|---|---|")
for workload in workloads:
    for name in ("parent", "change"):
        runs = side(workload, name)
        p50, p50_text = cell([r["rounds"]["p50_ms"] for r in runs], 4)
        per_s, per_s_text = cell([r["rounds"]["per_s"] for r in runs], 4)
        slowdown, slowdown_text = cell([r["box_slowdown"] for r in runs], 3)
        print(f"| {workload} | {name} | {p50_text} | {per_s_text} | {slowdown_text} |")
        sides.append({
            "workload": workload, "side": name,
            "round_p50_ms": p50,
            "rounds_per_s": per_s,
            "box_slowdown": slowdown,
            "failed_passes": sum(not r["result"]["correct"] for r in runs),
        })

if record:
    facts = lambda key: sorted({r["host"][key] for r in rows})
    document = {
        "pr": int(record),
        "pairs": max(r["pair"] for r in rows),
        "seeds": sorted({r["seed"] for r in rows}),
        "commits": {name: ",".join(sorted({r["commit"] for r in rows if r["side"] == name}))
                    for name in ("parent", "change")},
        "host": {"nproc": facts("nproc"), "rustc": facts("rustc")},
        "rows": gated,
        "sides": sides,
    }
    path = os.path.join(root, f"BENCH_{record}.json")
    with open(path, "w") as out:
        json.dump(document, out, indent=1)
        out.write("\n")
    print(f"\nwrote {path}")
sys.exit(status)
PY
}

# One row per BENCH_*.json: each gated row's change median, its change
# against the parent and its verdict, with the box slowdown beside them.
trajectory() {
    python3 - "$root" <<'PY'
import glob, json, os, re, sys

files = sorted(glob.glob(os.path.join(sys.argv[1], "BENCH_*.json")),
               key=lambda f: int(re.sub(r"\D", "", os.path.basename(f)) or 0))
if not files:
    sys.exit("no BENCH_*.json")
records = [json.load(open(f)) for f in files]
gated = [(r["workload"], r["metric"]) for r in records[-1]["rows"]]
print("| PR | change | pairs | box slowdown | " + " | ".join(f"{w} {m}" for w, m in gated) + " |")
print("|---" * (4 + len(gated)) + "|")
for record in records:
    rows = {(r["workload"], r["metric"]): r for r in record["rows"]}
    slowdowns = [s["box_slowdown"]["median"] for s in record["sides"]
                 if s["side"] == "change" and s["box_slowdown"] is not None]
    cells = []
    for key in gated:
        row = rows.get(key)
        cells.append("—" if row is None else
                     f'{row["change"]["median"]:.4g} ({row["change_share"]:+.1%}, {row["verdict"]})')
    slowdown = f"{max(slowdowns):.2f}" if slowdowns else "—"
    print(f'| {record["pr"]} | {record["commits"]["change"][:9]} | {record["pairs"]} '
          f'| {slowdown} | ' + " | ".join(cells) + " |")
PY
}

usage() { sed -n '6,8p' "${BASH_SOURCE[0]}" >&2; exit 2; }
case "${1:-}" in
    "") usage ;;
    --trajectory) trajectory; exit ;;
    --record) [ $# -eq 2 ] || usage; summarize "$2"; exit ;;
esac
parent_ref="$1"; shift
pairs=10 seed_base=100 workloads=() record=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads+=("$2"); shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --seed-base) seed_base="$2"; shift 2 ;;
        --record) record="$2"; shift 2 ;;
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

parent="$build/parent"
mkdir -p "$build"
parent_sha="$(git -C "$root" rev-parse --verify "$parent_ref^{commit}")"
change_sha="$(git -C "$root" rev-parse HEAD)"
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    change_sha="$change_sha-dirty"
fi
rm -rf "$parent"
git clone --quiet --no-checkout "$root" "$parent"
git -C "$parent" checkout --quiet --detach "$parent_sha"
trap 'rm -rf "$parent"' EXIT

tree_of() { if [ "$1" = parent ]; then echo "$parent"; else echo "$root"; fi; }
commit_of() { if [ "$1" = parent ]; then echo "$parent_sha"; else echo "$change_sha"; fi; }
# The parent builds outside its clone, so the next invocation reuses the
# build; the change builds where benchmarks/run.sh always does.
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

: > "$results"
for pair in $(seq 1 "$pairs"); do
    seed=$((seed_base + pair))
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for workload in "${workloads[@]}"; do
        for side in $order; do
            tree="$(tree_of "$side")"
            echo "pair $pair/$pairs: $workload on $side (seed $seed)" >&2
            line="$(run_side "$side" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0 2>"$build/pass.log" | tail -n 1)" || true
            cat "$build/pass.log" >> "$build/pairs.log"
            # A measured pass prints its box slowdown on stderr only.
            slowdown="$(sed -n 's/.* at box slowdown \([0-9.]*\);.*/\1/p' "$build/pass.log" | tail -n 1)"
            document="$tree/benchmarks/out/$workload-measured-seed$seed.json"
            raw="$(python3 -c 'import json, sys; print(json.dumps(json.load(open(sys.argv[1]))["rounds"]))' "$document")"
            host="$(python3 -c 'import json, sys; print(json.dumps(json.load(open(sys.argv[1]))["host"]))' "$document")"
            printf '{"pair":%d,"side":"%s","workload":"%s","seed":%d,"commit":"%s","box_slowdown":%s,"result":%s,"rounds":%s,"host":%s}\n' \
                "$pair" "$side" "$workload" "$seed" "$(commit_of "$side")" "${slowdown:-null}" \
                "$line" "$raw" "$host" >> "$results"
        done
    done
done

summarize "$record"
