//! The names this benchmark fixes: workloads, end-to-end metrics and
//! per-layer metrics, each with the reason it exists. `BENCHMARK.json`
//! at the repository root lists the same names (a test keeps the two in
//! step); later changes refer to workloads and metrics by these names.
//!
//! A per-layer metric's `moves` says which end-to-end metric, on which
//! workload, a change to it should move. On every workload not named the
//! prediction is "no change".

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, i.e. run and gated by the driver. The
    /// driver's 4 + 22 passes per listed workload, with three set-ups
    /// each, must fit in 57 minutes: three workloads at 25 s do, four do
    /// only at 15 s, which is too short on a box whose speed moves for
    /// minutes at a time. An unlisted workload runs by hand
    /// (`run.sh --workload <name>`) and in `run.sh` without arguments.
    pub listed: bool,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "whatif_hit",
        why:
            "what-if requests over loopback HTTP with every cache a Hit: only the front door \
              (api::http, obs, core cache probe, graph) works; tsdb/forecast/planner/heron-sim idle",
        listed: true,
    },
    WorkloadSpec {
        name: "minute_round",
        why: "ingest a minute, forecast what-if, plan and poll, per topology: the Stale path end \
              to end (tail read, incremental fit, Prophet refit, warm-started search)",
        listed: true,
    },
    WorkloadSpec {
        name: "fleet_drift",
        why: "128 small tenants on 4 shards replanned all-drifted, 10%-drifted under a budget, \
              and unchanged: fleet partition, exec fan-out, allocator, many small fits",
        // The dearest set-up (128 tenants, 6-8 s, three times a pass) and
        // the fewest rounds per second; its tsdb/core/forecast/planner
        // code is `minute_round`'s, and every traced pass probes `fleet.*`.
        listed: false,
    },
    WorkloadSpec {
        name: "onboard_replay",
        why: "simulate a new topology's first day into a fresh store, cold fit, cold plan, sim \
              replay: every cache Cold, heron-sim and full-window tsdb decode do the work",
        listed: true,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before the change is a regression; `None` for per-layer
    /// metrics, which are not gated.
    pub bound: Option<f64>,
    /// What the metric means and what it should move.
    pub moves: &'static str,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

use Better::{Higher, Lower};

/// The same three on every workload. Failed or refused operations are
/// not a metric here: they are the result's `failed` / `attempted`
/// counts, and any failure fails the run. Both times are normalised by
/// the interleaved reference kernel (see `boxspeed`): on a shared
/// 2-core box the raw median, tails and throughput of a pass follow the
/// neighbours, not the program, so those are reported ungated, under
/// `harness.` in the traced pass.
pub const END_TO_END: &[MetricSpec] = &[
    gated(
        "round_norm_ms",
        "ms",
        Lower,
        0.25,
        "median wall time of a measured round, its CPU-busy part scaled to the speed of the undisturbed box by the reference kernel run around it",
    ),
    gated(
        "peak_rss_mb",
        "MiB",
        Lower,
        0.10,
        "VmHWM of the workload process at the end of the measured phase",
    ),
    gated(
        "setup_s",
        "s",
        Lower,
        0.25,
        "service ready: stage the day, feed history, cold fits and plans (median of 3 set-ups, each normalised like a round)",
    ),
];

pub const PER_LAYER: &[MetricSpec] = &[
    // api
    layer("api.http_transport_ms", "ms", Lower,
        "loopback client latency minus time inside the handler: accept loop, parse, write -> round_norm_ms@whatif_hit"),
    layer("api.handle_evaluate_us", "us", Lower,
        "ApiService::handle of a fixed-rate what-if on warm caches -> round_norm_ms@whatif_hit"),
    layer("api.route_overhead_us", "us", Lower,
        "api.handle_evaluate_us - core.evaluate_hit_us: routing, JSON, obs accounting -> round_norm_ms@whatif_hit"),
    layer("api.json_parse_us", "us", Lower,
        "json::parse of a recorded plan result -> round_norm_ms@minute_round"),
    layer("api.json_render_us", "us", Lower,
        "Value::to_json of a recorded plan result -> round_norm_ms@minute_round"),
    layer("api.plan_submit_us", "us", Lower,
        "POST /topology/{t}/plan until the 202: admission, body parse, job submit -> round_norm_ms@minute_round"),
    layer("api.job_queue_wait_us", "us", Lower,
        "no-op job from submit to observed Done: queue hand-off and wake-up -> round_norm_ms@minute_round,fleet_drift"),
    layer("api.job_turnaround_ms", "ms", Lower,
        "stale plan from POST to observed Done -> round_norm_ms@minute_round"),
    layer("api.requests", "count", Higher,
        "requests the front doors of this process counted (work done)"),
    layer("api.shed", "count", Lower,
        "requests answered 429 (admission is off in every workload: must stay 0)"),
    // core
    layer("core.evaluate_hit_us", "us", Lower,
        "Caladrius::evaluate at a fixed rate, models cached -> round_norm_ms@whatif_hit"),
    layer("core.fitted_models_stale_us", "us", Lower,
        "fitted_models after one new minute: tail read + incremental fit -> round_norm_ms@minute_round,fleet_drift"),
    layer("core.forecast_traffic_ms", "ms", Lower,
        "forecast_traffic(prophet) after one new minute: full Prophet refit -> round_norm_ms@minute_round,fleet_drift"),
    layer("core.plan_warm_ms", "ms", Lower,
        "plan_capacity after one new minute, front-door order (models and forecast already fresh): warm-started search -> round_norm_ms@minute_round,fleet_drift"),
    layer("core.plan_hit_us", "us", Lower,
        "plan_capacity on unchanged data: plan-cache Hit -> round_norm_ms@fleet_drift"),
    layer("core.fitted_models_cold_ms", "ms", Lower,
        "fitted_models on a scratch service: full-window read and fit -> round_norm_ms@onboard_replay, setup_s@whatif_hit,minute_round,fleet_drift"),
    layer("core.plan_cold_ms", "ms", Lower,
        "first plan_capacity on a scratch service: Prophet fit + cold search -> round_norm_ms@onboard_replay, setup_s@minute_round,fleet_drift"),
    layer("core.incremental_fit_share", "ratio", Higher,
        "incremental fits / all fits on the shadow service over the stale loop"),
    layer("core.model_cache_hit_ratio", "ratio", Higher,
        "model-cache hits / probes on the shadow service over the stale loop"),
    layer("core.plan_cache_hit_ratio", "ratio", Higher,
        "plan-cache hits / (hits + misses) on the shadow service over the stale loop"),
    layer("core.oracle_memo_hit_ratio", "ratio", Higher,
        "oracle memo hits / assessments inside the shadow service's plan searches"),
    // tsdb
    layer("tsdb.ingest_batch_us", "us", Lower,
        "MetricsDb::ingest_batch of one minute of one topology -> round_norm_ms@minute_round,fleet_drift"),
    layer("tsdb.ingest_samples_per_s", "1/s", Higher,
        "samples/s while feeding the probe fixture's history -> setup_s everywhere"),
    layer("tsdb.read_since_us", "us", Lower,
        "component_sum_since over the newest minute: the tail read an incremental fit does -> round_norm_ms@minute_round"),
    layer("tsdb.tail_cache_hit_ratio", "ratio", Higher,
        "decoded-tail cache hits / reads over the stale loop -> round_norm_ms@minute_round"),
    layer("tsdb.read_window_ms", "ms", Lower,
        "component_sum over the whole training window: chunk decode -> round_norm_ms@onboard_replay"),
    layer("tsdb.sim_record_samples_per_s", "1/s", Higher,
        "append_series of one simulated day, column by column: the simulator's record path -> round_norm_ms@onboard_replay"),
    layer("tsdb.bytes_per_sample", "B", Lower,
        "storage_bytes / sample_count of the probe store -> peak_rss_mb@whatif_hit,minute_round,fleet_drift"),
    // forecast
    layer("forecast.prophet_fit_ms", "ms", Lower,
        "Prophet::fit on the topology's source history -> round_norm_ms@minute_round,fleet_drift"),
    layer("forecast.prophet_predict_us", "us", Lower,
        "Prophet::predict over the 60-minute horizon -> round_norm_ms@minute_round"),
    layer("forecast.stats_summary_update_us", "us", Lower,
        "StatsSummaryModel::update with one new point: the streaming path Prophet lacks"),
    // planner
    layer("planner.search_warm_us", "us", Lower,
        "plan_horizon_warm from the previous timeline on the fitted-model oracle -> round_norm_ms@minute_round,fleet_drift"),
    layer("planner.search_cold_ms", "ms", Lower,
        "plan_horizon from scratch on the fitted-model oracle -> round_norm_ms@onboard_replay"),
    layer("planner.oracle_evals_warm", "count", Lower,
        "oracle evaluations of the warm search (repeats exactly)"),
    layer("planner.oracle_evals_cold", "count", Lower,
        "oracle evaluations of the cold search (repeats exactly)"),
    layer("planner.replay_window_ms", "ms", Lower,
        "replay_timeline wall time per plan window -> round_norm_ms@onboard_replay"),
    // heron-sim
    layer("heron-sim.event_day_ms", "ms", Lower,
        "one day of the load cycle in event mode into a fresh store -> round_norm_ms@onboard_replay"),
    layer("heron-sim.exact_day_ms", "ms", Lower,
        "the same day on the exact-tick kernel -> setup_s everywhere (staging), most on onboard_replay"),
    layer("heron-sim.closed_form_share", "ratio", Higher,
        "ticks of the event-mode day advanced in closed form / all ticks"),
    layer("heron-sim.events_per_day", "count", Lower,
        "scheduler events the event-mode day processed"),
    layer("heron-sim.build_us", "us", Lower,
        "Simulation::new: packing and routing tables -> round_norm_ms@onboard_replay"),
    layer("heron-sim.reset_us", "us", Lower,
        "Simulation::reset_with at unchanged parallelism: the replay pool's rewind -> round_norm_ms@onboard_replay"),
    // fleet (a 16-tenant probe fleet of the workload's tenant shape)
    layer("fleet.plan_alldrift_ms", "ms", Lower,
        "POST /fleet/plan to Done after a fresh minute for every probe tenant -> round_norm_ms@fleet_drift"),
    layer("fleet.plan_drift10_ms", "ms", Lower,
        "budgeted replan after a fresh minute for 2 of 16 probe tenants -> round_norm_ms@fleet_drift"),
    layer("fleet.plan_unchanged_ms", "ms", Lower,
        "replan with nothing changed: partition + plan-cache Hits -> round_norm_ms@fleet_drift"),
    layer("fleet.allocate_greedy_us", "us", Lower,
        "allocate_greedy on the probe fleet's recorded demands at 75 % budget -> round_norm_ms@fleet_drift"),
    layer("fleet.ingest_batches_per_s", "1/s", Higher,
        "Fleet::ingest batches/s while feeding the probe fleet -> setup_s@fleet_drift, round_norm_ms@fleet_drift"),
    layer("fleet.plan_cache_hit_ratio", "ratio", Higher,
        "plan-cache hits / (hits + misses) summed over the probe fleet's shards"),
    layer("fleet.shard_skew", "ratio", Lower,
        "max / mean topologies per shard of the probe fleet (rendezvous hashing)"),
    layer("fleet.granted_containers", "count", Lower,
        "containers the unconstrained probe-fleet plan grants (output quality: must not drift)"),
    // exec
    layer("exec.dispatch_us", "us", Lower,
        "ExecPool::parallel_map over 64 no-op items on a 1-thread pool -> round_norm_ms@fleet_drift"),
    layer("exec.fanout_speedup", "ratio", Higher,
        "8 Prophet fits on a 1-thread pool / on a 2-thread pool (informational: gated runs are single-threaded)"),
    // obs
    layer("obs.span_record_ns", "ns", Lower,
        "open + drop one global span -> round_norm_ms@whatif_hit"),
    layer("obs.scrape_ms", "ms", Lower,
        "GET /metrics/service through ApiService::handle"),
    layer("obs.trace_recent_ms", "ms", Lower,
        "GET /trace/recent through ApiService::handle"),
    layer("obs.registry_series", "count", Lower,
        "series in the process-global registry at the end of the pass -> peak_rss_mb everywhere"),
    // graph
    layer("graph.packing_assess_us", "us", Lower,
        "Caladrius::packing_overview of a proposed packing -> round_norm_ms@whatif_hit"),
    // harness (the benchmark's own files)
    layer("harness.round_norm_ms", "ms", Lower,
        "this pass's gated round time (median of the normalised rounds), for comparison with the raw ones below"),
    layer("harness.box_slowdown", "ratio", Lower,
        "median reference-kernel time around this pass's rounds / its nominal 3 ms: how slow the box was"),
    layer("harness.round_p10_ms", "ms", Lower,
        "10th percentile of this pass's raw rounds: the round in the pass's calmest moments"),
    layer("harness.round_p50_ms", "ms", Lower,
        "median round of this pass: the user-visible delay (follows machine interference: ungated)"),
    layer("harness.rounds_per_s", "1/s", Higher,
        "measured rounds / their summed wall time: keeps rare expensive rounds visible"),
    layer("harness.round_p90_ms", "ms", Lower,
        "p90 of this pass's rounds"),
    layer("harness.round_p99_ms", "ms", Lower, "p99 of this pass's rounds"),
    layer("harness.round_max_ms", "ms", Lower, "slowest round of this pass"),
    layer("harness.trace_overhead_share", "ratio", Lower,
        "(median traced round - median untraced round) / median untraced round, rounds alternating"),
    layer("harness.unattributed_share", "ratio", Lower,
        "share of the round median the workload's recipe of probe medians does not explain"),
];

/// What `BENCHMARK.json` says beyond the names: how the driver runs one
/// pass, and for how long it measures.
pub const COMMAND: [&str; 2] = ["bash", "benchmarks/run.sh"];
pub const PATHS: [&str; 1] = ["benchmarks"];
pub const RUN_SECONDS: u32 = 25;

/// `BENCHMARK.json`, generated (`run.sh --catalogue json`), so the file
/// the driver reads cannot drift from what the program emits.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        let items: Vec<String> = items.iter().map(|i| format!("\"{i}\"")).collect();
        items.join(", ")
    };
    let metric = |m: &MetricSpec| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let lines = |items: Vec<String>| items.join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        lines(
            WORKLOADS
                .iter()
                .filter(|w| w.listed)
                .map(|w| format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name, w.why
                ))
                .collect()
        ),
        lines(END_TO_END.iter().map(metric).collect()),
        lines(PER_LAYER.iter().map(metric).collect()),
    )
}

/// The metric catalogue as the README's tables.
pub fn catalogue_markdown() -> String {
    let mut out = String::from("| workload | in `BENCHMARK.json` | why |\n|---|---|---|\n");
    for w in &WORKLOADS {
        let listed = if w.listed { "yes" } else { "no (by hand)" };
        out += &format!("| `{}` | {listed} | {} |\n", w.name, w.why);
    }
    out += "\n| end-to-end metric | unit | better | bound | meaning |\n|---|---|---|---|---|\n";
    for m in END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.moves
        );
    }
    out += "\n| per-layer metric | unit | better | what it is -> what it should move |\n|---|---|---|---|\n";
    for m in PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
    out
}

pub fn per_layer(name: &str) -> Option<&'static MetricSpec> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Milliseconds in one `unit` of time; `None` for units that are not
/// times.
pub fn ms_per(unit: &str) -> Option<f64> {
    match unit {
        "s" => Some(1e3),
        "ms" => Some(1.0),
        "us" => Some(1e-3),
        "ns" => Some(1e-6),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caladrius_api::json::{self, Value};

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        // Set-up time carries the largest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_layer_metric_names_its_layer() {
        const LAYERS: [&str; 11] = [
            "api",
            "core",
            "tsdb",
            "forecast",
            "planner",
            "heron-sim",
            "fleet",
            "exec",
            "obs",
            "graph",
            "harness",
        ];
        for m in PER_LAYER {
            assert!(
                LAYERS.contains(&crate::trace::layer_of(m.name)),
                "{} has no known layer",
                m.name
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// program emits. The former is generated from the latter.
    #[test]
    fn benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmarks/run.sh --catalogue json > BENCHMARK.json`"
        );
        let doc = json::parse(&on_disk).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("per_layer")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(PER_LAYER.len())
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
