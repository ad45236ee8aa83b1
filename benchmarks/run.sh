#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#       one pass of one workload; the last line of stdout is the result
#       object (this is the form BENCHMARK.json's `command` names)
#   benchmarks/run.sh [--seed N] [--seconds S]
#       every workload, measured pass then traced pass
#   benchmarks/run.sh --smoke
#       every workload's measured pass with one set-up and one second of
#       rounds: all output checks on, numbers meaningless
#   benchmarks/run.sh --catalogue json|markdown
#       BENCHMARK.json / the README's metric tables, from the code
#
# Exits non-zero if the build fails or any output check does.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# One service thread next to the one load-generating thread: on a 2-core
# box the numbers then measure the program, not the scheduler.
export CALADRIUS_THREADS=1
export CALADRIUS_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export CALADRIUS_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/caladrius-benchmarks"

workload="" smoke=0 args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke) smoke=1; shift ;;
        --workload) workload="$2"; args+=("$1" "$2"); shift 2 ;;
        *) args+=("$1"); shift ;;
    esac
done

if [ "${args[0]:-}" = "--catalogue" ]; then
    exec "$bin" "${args[@]}"
fi
args+=(--out "$here/out")
if [ -n "$workload" ]; then
    exec "$bin" "${args[@]}"
fi

status=0
for workload in whatif_hit minute_round fleet_drift onboard_replay; do
    if [ "$smoke" = 1 ]; then
        "$bin" --workload "$workload" --seconds 1 --setups 1 --trace 0 "${args[@]}" || status=1
    else
        "$bin" --workload "$workload" "${args[@]}" --trace 0 || status=1
        "$bin" --workload "$workload" "${args[@]}" --trace 1 || status=1
    fi
done
exit $status
