#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build/test pass.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# --all-targets: test, example and bench code is linted like the library.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# A deleted item leaves its intra-doc links ([`MetricsDb::select`]-style)
# dangling; rustdoc only warns about that unless told otherwise.
echo "==> cargo doc (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps

# core has one cache protocol (freshness::StampedCache); the plan cache's
# own version compare and its fingerprint confirm step went in PR 20.
# core has one fit (Caladrius::fit, over the kept training window) fed
# by one windowed provider read (series_set); the cold-only fit bodies
# and the two old trait reads went in PR 21.
# The request path has no timer on it: the accept thread blocks in
# `accept` (the 5 ms non-blocking poll went in PR 22), and the saturation
# search leaves its loop at the interval's floating-point fixed point
# instead of running all 200 halvings. Its probes walk the DAG themselves
# and keep one bit each (PR 24): nothing between the search's signature
# and the next function may build a report. The Gram matrix accumulates
# over row slices; the indexed loop survives only as the test reference.
echo "==> deleted mechanisms stay deleted"
if grep -rnE 'forecast_fingerprint|quantize_rate|PlanCacheLookup|fn lock_(cache|histories|forecasters|plan_cache)|fit_topology_stats|fit_cpu_stats|full_fit_entry|absorb_delta|fn component_series|fn per_instance_series' crates src tests examples; then
    exit 1
fi
if grep -n 'set_nonblocking' crates/api/src/http.rs; then
    exit 1
fi
grep -q 'if mid <= lo || mid >= hi' crates/core/src/model/topology.rs
if sed -n '/pub fn saturation_source_rate/,/pub fn backpressure_risk/p' crates/core/src/model/topology.rs |
    grep -n 'self\.predict('; then
    exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/forecast/src/linalg.rs | grep -n 'out\[(i, j)\] +='; then
    exit 1
fi
# The Gorilla codec's bit cursors move words (PR 25); the bit-at-a-time
# pair survives only as the test reference they are held to. There is one
# production encoder and one production decoder, both fused (several
# fields per cursor call): the field-at-a-time codec generic over bit
# sinks and sources lives only in the #[cfg(test)] reference module.
if sed '/#\[cfg(test)\]/,$d' crates/tsdb/src/encoding.rs |
    grep -nE 'BytesMut|BufMut|for i in \(0\.\.count\)\.rev\(\)|fn (encode|decode)<|impl BitSink|impl BitSource'; then
    exit 1
fi
# The event core's agenda is a sorted tick list: the binary-heap
# scheduler and its event kinds are gone. The fluid model is built from
# the tick kernel's tables, never re-derived from the topology and its
# packing plan. The fleet tier registers topologies in core's tracker.
if [ -e crates/heron-sim/src/scheduler.rs ]; then
    exit 1
fi
if grep -rnE 'BinaryHeap|EventQueue|EventKind' crates/heron-sim/src; then
    exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/heron-sim/src/fluid.rs |
    grep -nE 'container_of|\.shares\(|kind\.work\(\)'; then
    exit 1
fi
if grep -rn 'struct FleetTracker' crates/fleet/src; then
    exit 1
fi
# One front door: api's FrontDoor owns the only route table and job
# runner, and a fleet is one of its Tenants. The fleet builds no second
# service, mounts no aliases of the door's own routes, and the api crate
# exports no plumbing for one. Admission control (load shedding, its
# priority header, shed counter and flight-recorder ring) is gone: no
# shipped front door ever switched it on. The simulator's idle-CPU
# baseline is a constant, and a tsdb column has one bulk write
# (append_series, which counts the batch).
for f in crates/fleet/src/*.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" |
        grep -nE 'struct FleetService|JobRunner::new'; then
        echo "$f"
        exit 1
    fi
done
if grep -rnE 'AdmissionConfig|AdmissionController|with_admission|PRIORITY_HEADER|x-priority|record_shed|ShedEvent|caladrius_fleet_shed_total|/fleet/jobs|/fleet/health|CALADRIUS_SCALE_DEBUG|ids_for_name' crates src tests examples; then
    exit 1
fi
if grep -nwE 'handle_request|shared_route|job_status_response|too_many_requests|route_p99' crates/api/src/lib.rs; then
    exit 1
fi
if grep -rn 'base_cpu_overhead' crates/heron-sim/src; then
    exit 1
fi
if grep -n 'fn write_batch' crates/tsdb/src/db.rs; then
    exit 1
fi
# A window read is one linear pass over sorted input: the fit joins its
# ascending columns with cursors (per-instance columns included), not
# per-series `ts -> value` maps or per-minute binary searches (the map
# assemblers survive only as the test reference), and merging bucketed
# series is a k-way merge. The one sort left on the read path is
# `aggregate_runs`, the stated fallback for input that is not ascending.
if sed '/#\[cfg(test)\]/,$d' crates/core/src/providers/metrics.rs | grep -nE 'BTreeMap<i64|binary_search'; then
    exit 1
fi
if sed -n '/^pub fn merge_bucketed/,/^}/p' crates/tsdb/src/query.rs |
    grep -nE '\.sort(_|\()|^ *aggregate_runs\('; then
    exit 1
fi

# The graph layer is one typed DAG (graph::TopologyDag) and a path-count
# DP: the property graph, its traversal layer, the physical-graph builder
# and core's graph cache are gone. Enumerating paths is exponential in
# depth, so the depth-first enumeration lives only in the graph crate's
# property test, as the reference the DP is checked against.
if grep -rnE 'MetadataCache|GraphService|CachedLogical|Traversal|PropValue|build_physical|source_sink_paths|instance_of' crates src tests examples; then
    exit 1
fi
if grep -rnE 'spout_sink_paths|critical_path_candidates|predict_path' crates src tests examples |
    grep -v '^crates/graph/tests/prop_graph\.rs:'; then
    exit 1
fi
# One measurement system: the end-to-end benchmark under benchmarks/.
# The paper's figures are tier-1 tests (tests/paper_figures.rs), and the
# perf gates that count a mechanism (rows read, searches run, exact ticks
# executed) are tier-1 tests too; the hand-run bench crate, its vendored
# Criterion shim and their env-var knobs are gone. A tsdb series is
# written through its handle (register + append), never by key per sample.
for d in crates/bench vendor/criterion; do
    if [ -e "$d" ]; then
        echo "$d"
        exit 1
    fi
done
if grep -rnE 'CALADRIUS_BENCH_REPEATS|CALADRIUS_BENCH_FAST|MetricsDb::write|db(\(\))?\.write\(([^)]|$)' crates src tests examples; then
    exit 1
fi
# The simulator records only the series the models read (execute-count,
# emit-count, source-offered, backpressure-time, cpu-load): the queue,
# latency, fail and stream-manager series and their accumulators are
# gone. Its run-long sink buffers one f64 column per series beside one
# shared minute-timestamp column, not a Sample column per series.
if grep -rnE 'QUEUE_BYTES|LATENCY_MS|FAIL_COUNT|STMGR_TUPLES|register_container|record_container' crates src tests examples; then
    exit 1
fi
if grep -nF 'Vec<(SeriesHandle, Vec<Sample>)>' crates/heron-sim/src/engine.rs; then
    exit 1
fi
# Holt-Winters is gone: it could never fit in the default 240-minute
# window (it needs two days) and was last on every column of the backtest.
# Its name survives only in core's test that a request for it is a 404.
if grep -rnE 'HoltWinters|holtwinters|holt_winters' crates src tests examples |
    grep -vE '^crates/core/src/traffic\.rs:[0-9]+: +for name in \["nope", "holt_winters"\] \{$'; then
    exit 1
fi

# One training window: every model and forecaster is the batch fit over
# exactly the configured window. The anchored, expanding window (its
# anchor, both re-anchor rules), the forecasters' incremental update and
# AR's streaming gap statistics are gone.
if grep -rnE 'reanchor|fitted_from|UpdateOutcome|CachedForecaster|GapStats' crates src tests examples; then
    exit 1
fi
# One kept window per topology: the source history is the training
# window's source column, slid with it, and models and forecasts are a
# Hit or a fit over that window. The separate history slide, the
# uncalled plan validation and registry run-all are gone, and core's
# service decides Stale in one place (its window accessor).
if grep -rnE 'slide_source_history|validate_plan|PlanValidation|fn run_all' crates src tests examples; then
    exit 1
fi
stale="$(sed '/#\[cfg(test)\]/,$d' crates/core/src/service.rs | grep -c 'Freshness::Stale' || true)"
if [ "$stale" != 1 ]; then
    echo "crates/core/src/service.rs: $stale Freshness::Stale comparisons outside tests, want 1"
    exit 1
fi
# One read path per topology: accuracy claims are realised from the kept
# window's source and sink columns, so core's service reads the store
# only through that window, never a series set of its own. The per-spout
# forecast path (and its config key) is gone: it read around the window.
if grep -rn 'per_spout' crates src tests examples; then
    exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/core/src/service.rs | grep -n 'series_set('; then
    exit 1
fi

echo "==> cargo build --release (tier-1)"
cargo build --release

echo "==> cargo build --examples"
cargo build --examples

echo "==> cargo test -q (tier-1)"
cargo test -q

# Tests in this binary start their own services, which share the
# process-global registry: an assertion that reads a sibling's row only
# fails under some interleavings, so one green run proves little.
echo "==> cargo test -q --test observability x10 (default parallelism)"
for _ in $(seq 10); do
    cargo test -q --test observability
done

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Forced single-threading: every exec pool degrades to its inline
# sequential path, so any output depending on parallel scheduling
# (and any accidental nondeterminism) shows up as a diff here. The
# equivalence suite carries the event-scheduler contract (closed-form
# advancement within 0.1% of exact across profile regimes; overloaded
# runs drain each backpressure episode in closed form with per-minute
# backpressure time identical to exact), and exec_determinism covers
# event-mode replay (replay always runs event_mode=true), so
# wide-vs-1-thread replay stays byte-identical. The paper figures'
# printed tables must be the same one thread wide.
echo "==> CALADRIUS_THREADS=1 determinism variant (incl. event-mode equivalence)"
CALADRIUS_THREADS=1 cargo test -q -p caladrius-exec
CALADRIUS_THREADS=1 cargo test -q --test exec_determinism --test capacity_plan
CALADRIUS_THREADS=1 cargo test -q --test sim_kernel_equivalence
CALADRIUS_THREADS=1 cargo test -q --test paper_figures

# The same suite as the benchmark builds it: release drops debug
# assertions and wraps on overflow, and the drain's tick arithmetic
# must hold there too. More proptest cases than the default.
echo "==> PROPTEST_CASES=512 sim_kernel_equivalence (release)"
PROPTEST_CASES=512 cargo test -q --release --test sim_kernel_equivalence

# The figures' printed tables must not depend on the build profile.
echo "==> paper figures (release)"
cargo test -q --release --test paper_figures

# The fleet e2e fans out cluster planning across the "fleet-plan" pool;
# the single-thread run proves the fleet tier's answers (grants, shard
# routing) do not depend on parallel scheduling.
echo "==> CALADRIUS_THREADS=1 fleet tier e2e"
CALADRIUS_THREADS=1 cargo test -q --test fleet_scale

# Incremental replanning: the plan-cache suite proves cache hits are
# bit-identical with zero new searches and that every staleness edge
# (watermark, plan version, truncation, ResourceLimits) invalidates;
# the planner package carries the warm-start == cold-search equivalence
# proptests.
echo "==> CALADRIUS_THREADS=1 plan cache + warm-start equivalence"
CALADRIUS_THREADS=1 cargo test -q --test plan_cache
CALADRIUS_THREADS=1 cargo test -q -p caladrius-planner

# Sliding == batch over the window: the forecast package's proptests
# hold a forecaster refitted as its window slides equal to a fresh fit;
# the core service suite carries the kept window. Every model and
# forecast is the batch fit over one training window per topology, read
# whole or slid, so a warm model equals a fresh service's by
# construction; the suite still pins it bit for bit (CPU lines
# included), the truncation/retention full-read regressions, the failed
# slide -> full read fallback, and that the first of a fit and a
# forecast in a minute reads each (component, metric) series set exactly
# once (spout source-offered included), the second nothing, and never a
# minute before the window. Single-threaded so the read fan-out cannot
# mask ordering dependencies in the compensated sums. Its proptest holds
# the source history, the models and the forecasts bitwise equal to a
# from-scratch service's over random append/gap/hostile-sample/truncate/
# rescale schedules (core and fleet providers), and forecast_equivalence
# holds a warm service equal to a fresh one at every minute of three
# windows.
echo "==> CALADRIUS_THREADS=1 sliding-window equivalence"
CALADRIUS_THREADS=1 cargo test -q -p caladrius-forecast --test prop_sliding
CALADRIUS_THREADS=1 cargo test -q -p caladrius-core --lib
CALADRIUS_THREADS=1 cargo test -q -p caladrius-core --test source_history_equivalence
CALADRIUS_THREADS=1 cargo test -q --test forecast_equivalence

# The read path's one-pass bucketing and k-way merge against the
# stable-sort oracle, bit for bit, over ascending, unsorted and empty
# runs, i64-extreme timestamps and hostile values; more cases than the
# default.
echo "==> PROPTEST_CASES=2048 read-path merge == sort"
PROPTEST_CASES=2048 cargo test -q -p caladrius-tsdb --test prop_query

# The codec round-trips hostile chunks, and `decompress` is total: any
# (count, bytes) block decodes or fails as CorruptChunk, never panics.
echo "==> PROPTEST_CASES=2048 Gorilla codec round trip and totality"
PROPTEST_CASES=2048 cargo test -q -p caladrius-tsdb --test prop_encoding

# A bulk append seals whole chunks straight from the input; the chunks
# (ranges and bytes) and the head must be exactly a push loop's, on the
# direct path and on its fallback (unsorted or behind-head input).
echo "==> PROPTEST_CASES=2048 append_series direct seal == push loop"
PROPTEST_CASES=2048 cargo test -q -p caladrius-tsdb --test prop_extend

echo "==> observability smoke (scrape /metrics/service)"
cargo run --release --example obs_smoke

# benchmarks/ is a standalone package outside the workspace: no cargo
# command above compiles it, yet it consumes the crates' public API.
echo "==> benchmark smoke (compiles benchmarks/, all output checks on)"
bash benchmarks/run.sh --smoke

# The benchmark's files are the driver's to compare against: nothing
# above may have rewritten them. The usual culprit is a crate gaining or
# losing a non-dev dependency, which the smoke build writes through to
# benchmarks/Cargo.lock.
echo "==> benchmarks/ and BENCHMARK.json untouched"
dirty="$(git status --porcelain benchmarks BENCHMARK.json)"
if [ -n "$dirty" ]; then
    echo "$dirty"
    exit 1
fi

echo "CI gate passed."
