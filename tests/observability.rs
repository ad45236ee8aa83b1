//! End-to-end test of the observability layer through the REST surface:
//! driving real traffic over HTTP must light up the Prometheus
//! exposition at `/metrics/service` (covering the HTTP, job, service,
//! tsdb and simulator layers) and leave attributable spans in
//! `/trace/recent`.

use caladrius::api::{json, ApiService, HttpClient, HttpServer, Value};
use caladrius::core::providers::{SimMetricsProvider, StaticTracker};
use caladrius::core::Caladrius;
use caladrius::fleet::{Fleet, FleetConfig, FleetService, StagedWorkload};
use caladrius::sim::engine::ExactTickReason;
use caladrius::sim::prelude::*;
use caladrius::tsdb::MetricBatch;
use caladrius::workload::traffic::DiurnalTraffic;
use caladrius::workload::wordcount::{
    wordcount_topology, wordcount_topology_with, WordCountParallelism,
};
use std::sync::Arc;
use std::time::Duration;

fn start_service() -> (HttpServer, HttpClient) {
    let parallelism = WordCountParallelism {
        spout: 8,
        splitter: 2,
        counter: 3,
    };
    let metrics = SimMetrics::new("wordcount");
    for (leg, rate) in [6.0e6, 14.0e6, 26.0e6].into_iter().enumerate() {
        let mut sim =
            Simulation::new(wordcount_topology(parallelism, rate), SimConfig::default()).unwrap();
        sim.skip_to_minute(leg as u64 * 60);
        sim.warmup_minutes(25);
        sim.run_minutes_into(10, &metrics);
    }
    let caladrius = Caladrius::new(
        Arc::new(SimMetricsProvider::new(metrics)),
        Arc::new(StaticTracker::new().with(wordcount_topology(parallelism, 26.0e6))),
    );
    let api = ApiService::new(Arc::new(caladrius), 2);
    let server = HttpServer::serve("127.0.0.1:0", 4, api.handler()).unwrap();
    let client = HttpClient::new(server.local_addr());
    (server, client)
}

/// Values of every sample line whose name+labels prefix contains every
/// given fragment, in exposition order.
fn scrape_rows<'a>(text: &'a str, fragments: &'a [&str]) -> impl Iterator<Item = f64> + 'a {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(move |l| fragments.iter().all(|f| l.contains(f)))
        .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
}

/// Extracts the value of the first sample line whose name+labels prefix
/// contains every given fragment.
fn scrape(text: &str, fragments: &[&str]) -> Option<f64> {
    scrape_rows(text, fragments).next()
}

/// Sums every matching sample line (`None` when nothing matches). Series
/// labelled per instance (`runner=`, `service=`, `db=`) carry one row
/// per `JobRunner`/`Caladrius`/`MetricsDb` in the process, and sibling
/// tests in this binary start their own, so the first row may be a
/// sibling's.
fn scrape_sum(text: &str, fragments: &[&str]) -> Option<f64> {
    scrape_rows(text, fragments).reduce(|a, b| a + b)
}

#[test]
fn metrics_service_covers_every_instrumented_layer() {
    let (_server, client) = start_service();

    // Generate observable work: sync evaluation, async job, health.
    assert_eq!(client.get("/health").unwrap().0, 200);
    let (status, body) = client
        .post(
            "/model/topology/heron/wordcount",
            r#"{"source_rate": 20000000}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client
        .post(
            "/model/topology/heron/wordcount?async=true",
            r#"{"source_rate": 10000000}"#,
        )
        .unwrap();
    assert_eq!(status, 202, "{body}");
    let poll = json::parse(&body)
        .unwrap()
        .get("poll")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let final_poll = loop {
        let (_, body) = client.get(&poll).unwrap();
        let v = json::parse(&body).unwrap();
        match v.get("state").unwrap().as_str().unwrap() {
            "pending" => {
                assert!(std::time::Instant::now() < deadline);
                std::thread::sleep(Duration::from_millis(10));
            }
            "done" => break v,
            other => panic!("job failed: {other} {body}"),
        }
    };
    // Job timing rides along in the poll response.
    assert!(final_poll.get("queued_ms").unwrap().as_f64().unwrap() > 0.0);
    assert!(final_poll.get("duration_ms").unwrap().as_f64().unwrap() >= 0.0);

    // A forecast what-if, twice: the first forecast is fitted over the
    // training window the first evaluation's fit read (a window hit),
    // the second is the stored forecast.
    for _ in 0..2 {
        let (status, body) = client
            .post(
                "/model/topology/heron/wordcount",
                r#"{"source_rate": {"forecast": {"model": "stats_summary"}}}"#,
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
    }

    let (status, text) = client.get("/metrics/service").unwrap();
    assert_eq!(status, 200);

    // HTTP tier: per-route counters and latency histograms.
    assert!(
        scrape(
            &text,
            &["caladrius_http_requests_total", "route=\"/health\""]
        )
        .unwrap()
            >= 1.0
    );
    assert!(
        scrape(
            &text,
            &[
                "caladrius_http_requests_total",
                "route=\"/model/topology/heron/{topology}\"",
                "status=\"200\"",
            ],
        )
        .unwrap()
            >= 1.0
    );
    assert!(
        scrape(
            &text,
            &[
                "caladrius_http_request_duration_seconds_count",
                "route=\"/health\""
            ],
        )
        .unwrap()
            >= 1.0
    );

    // Job tier: the async evaluation ran through the worker pool.
    assert!(scrape_sum(&text, &["caladrius_job_duration_seconds_count"]).unwrap() >= 1.0);

    // Service tier: model fits and cache traffic from the evaluations.
    assert!(scrape_sum(&text, &["caladrius_model_fits_total"]).unwrap() >= 1.0);
    // Single-watermark evaluations fit cold, so every fit is a full fit.
    assert!(scrape_sum(&text, &["caladrius_model_fits_full_total"]).unwrap() >= 1.0);
    assert!(scrape_sum(&text, &["caladrius_model_fits_incremental_total"]).is_some());
    assert!(scrape_sum(&text, &["caladrius_evaluate_duration_seconds_count"]).unwrap() >= 2.0);
    // Every training-window access is counted by the path that served it.
    let history_reads =
        |path: &str| scrape_sum(&text, &["caladrius_source_history_reads_total", path]);
    assert!(history_reads("path=\"full\"").unwrap() >= 1.0);
    assert!(history_reads("path=\"hit\"").unwrap() >= 1.0);
    assert!(history_reads("path=\"tail\"").is_some());

    // Data tier: the simulator legs were ingested through the tsdb. Its
    // read path keeps no stats: no tail-cache series, no `/health` block.
    assert!(scrape_sum(&text, &["caladrius_tsdb_ingest_samples_total"]).unwrap() > 0.0);
    assert!(scrape_sum(&text, &["caladrius_tsdb_ingest_batch_size_count"]).unwrap() > 0.0);
    assert!(!text.contains("caladrius_tsdb_tail_cache"));

    // The /health JSON mirrors the same counters.
    let (status, health) = client.get("/health").unwrap();
    assert_eq!(status, 200);
    let health = json::parse(&health).unwrap();
    let model_cache = health.get("model_cache").unwrap();
    assert!(model_cache.get("full_fits").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(
        model_cache
            .get("incremental_fits")
            .unwrap()
            .as_f64()
            .unwrap(),
        0.0
    );
    assert!(health.get("tsdb").is_none());

    // Simulator: per-minute step timing recorded while seeding metrics.
    assert!(scrape(&text, &["caladrius_sim_minute_duration_seconds_count"]).unwrap() > 0.0);
}

#[test]
fn event_scheduler_counters_surface_in_service_metrics() {
    let (_server, client) = start_service();

    // Drive an event-mode simulation in-process: a relaxed constant
    // load advances almost entirely in closed form, so both scheduler
    // counters must accumulate.
    let mut sim = Simulation::new(
        wordcount_topology(WordCountParallelism::default(), 8.0e6),
        SimConfig {
            event_mode: true,
            metric_noise: 0.0,
            ..SimConfig::default()
        },
    )
    .unwrap();
    sim.run_minutes(3);
    assert!(sim.ticks_closed_form() > 0);

    let (status, text) = client.get("/metrics/service").unwrap();
    assert_eq!(status, 200);
    assert!(scrape(&text, &["caladrius_sim_events_total"]).unwrap() > 0.0);
    assert!(scrape(&text, &["caladrius_sim_ticks_closed_form_total"]).unwrap() > 0.0);
    // Exact ticks carry one series per reason; the service's seeding
    // legs ran in exact mode.
    for reason in ExactTickReason::ALL {
        let label = format!("reason=\"{}\"", reason.label());
        assert!(
            scrape(&text, &["caladrius_sim_ticks_total", &label]).is_some(),
            "no {label} row"
        );
    }
    assert!(
        scrape(
            &text,
            &["caladrius_sim_ticks_total", "reason=\"exact-mode\""]
        )
        .unwrap()
            > 0.0
    );
}

#[test]
fn exact_ticks_are_counted_by_reason() {
    let run = |rate_profile: RateProfile, event_mode: bool, minutes: u64| {
        let topology = wordcount_topology_with(WordCountParallelism::default(), rate_profile, None);
        let mut sim = Simulation::new(
            topology,
            SimConfig {
                event_mode,
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.run_minutes(minutes);
        let by_reason: u64 = ExactTickReason::ALL
            .iter()
            .map(|&r| sim.exact_ticks(r))
            .sum();
        assert_eq!(by_reason, sim.ticks_executed(), "reasons sum to the total");
        sim
    };

    // A relaxed diurnal day: the event core never sees backpressure.
    let diurnal = DiurnalTraffic {
        base_rate: 8.0e6 / 60.0,
        amplitude: 0.3,
        period_secs: 1200,
        phase_secs: 0,
        knots_per_period: 12,
    };
    let relaxed = run(diurnal.to_profile(20 * 60), true, 20);
    assert_eq!(relaxed.exact_ticks(ExactTickReason::BackpressureEdge), 0);
    assert_eq!(relaxed.exact_ticks(ExactTickReason::ExactMode), 0);
    assert!(relaxed.ticks_closed_form() > relaxed.ticks_executed());

    // Overload: the onset and release of each episode run exactly.
    let overloaded = run(RateProfile::constant_per_min(22.0e6), true, 10);
    assert!(overloaded.exact_ticks(ExactTickReason::BackpressureEdge) > 0);

    // Event mode off: every tick is an exact-mode tick.
    let exact = run(RateProfile::constant_per_min(8.0e6), false, 2);
    assert_eq!(exact.exact_ticks(ExactTickReason::ExactMode), 120);
}

#[test]
fn trace_recent_spans_carry_request_ids() {
    let (_server, client) = start_service();
    assert_eq!(client.get("/health").unwrap().0, 200);
    let (status, body) = client
        .post(
            "/model/topology/heron/wordcount",
            r#"{"source_rate": 15000000}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");

    let (status, body) = client.get("/trace/recent?limit=100").unwrap();
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    let events = v.get("events").unwrap().as_array().unwrap();
    assert!(!events.is_empty());

    let span = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some(name))
            .unwrap_or_else(|| panic!("no {name} span in {body}"))
    };
    // The evaluation's core span shares the request id of its enclosing
    // HTTP span — the id was minted at the edge and propagated down.
    let evaluate = span("core.evaluate");
    let eval_request = evaluate.get("request_id").unwrap().as_str().unwrap();
    let http_ids: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").unwrap().as_str() == Some("http.request"))
        .map(|e| e.get("request_id").unwrap().as_str().unwrap())
        .collect();
    assert!(!http_ids.is_empty());
    assert!(
        http_ids.contains(&eval_request),
        "core.evaluate request id {eval_request} not among http ids {http_ids:?}"
    );
    assert_eq!(
        evaluate
            .get("fields")
            .unwrap()
            .get("topology")
            .unwrap()
            .as_str(),
        Some("wordcount")
    );
}

/// A small staged fleet (2 shards × 4 topologies) behind its HTTP
/// front door.
fn start_fleet() -> (HttpServer, HttpClient) {
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 2,
        ..FleetConfig::default()
    }));
    let staged = StagedWorkload::stage_wordcount();
    let mut batch = MetricBatch::new(0);
    for i in 0..4 {
        let name = format!("obs-tenant-{i}");
        let mut topology = wordcount_topology(
            WordCountParallelism {
                spout: 8,
                splitter: 2,
                counter: 3,
            },
            6.0e6,
        );
        topology.name = name.clone();
        let metrics = fleet.register(topology);
        let bound = staged.bind(&metrics);
        for idx in 0..staged.minutes() {
            bound.fill(&staged, idx, &mut batch);
            fleet.ingest(&name, &batch).expect("registered topology");
        }
    }
    let service = FleetService::new(fleet, 2);
    let server = HttpServer::serve("127.0.0.1:0", 4, service.handler()).unwrap();
    let client = HttpClient::new(server.local_addr());
    (server, client)
}

/// Polls a job envelope until the job finishes.
fn wait_for_job(client: &HttpClient, accepted_body: &str) {
    let poll = json::parse(accepted_body)
        .expect("job envelope")
        .get("poll")
        .and_then(Value::as_str)
        .expect("poll url")
        .to_string();
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let (_, body) = client.get(&poll).expect("poll round-trip");
        match json::parse(&body)
            .unwrap()
            .get("state")
            .and_then(Value::as_str)
        {
            Some("done") => return,
            Some("failed") => panic!("job failed: {body}"),
            _ => {
                assert!(std::time::Instant::now() < deadline, "job timed out");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// Every span `/trace/recent` holds for the caller-supplied request id.
fn spans_of_request(client: &HttpClient, supplied: &str) -> Vec<Value> {
    let expected_id = caladrius::obs::RequestId::parse(supplied)
        .unwrap()
        .to_string();
    let (status, body) = client
        .get(&format!("/trace/recent?request_id={supplied}&limit=2048"))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let events = v.get("events").unwrap().as_array().unwrap();
    assert!(!events.is_empty(), "no spans for request {supplied}");
    for event in events {
        assert_eq!(
            event.get("request_id").and_then(Value::as_str),
            Some(expected_id.as_str()),
            "foreign span in filtered trace: {event:?}"
        );
    }
    events.to_vec()
}

fn spans_named<'a>(events: &'a [Value], name: &str) -> Vec<&'a Value> {
    events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some(name))
        .collect()
}

fn span_id(e: &Value) -> u64 {
    e.get("span_id").and_then(Value::as_f64).unwrap() as u64
}

fn parent_id(e: &Value) -> Option<u64> {
    e.get("parent_span_id")
        .and_then(Value::as_f64)
        .map(|p| p as u64)
}

/// Asserts that `events` holds exactly one `work` span and that it hangs
/// under the `http.request` span that accepted `route` through exactly
/// one `api.job` span: the job runner carries the submitter's span over
/// to its worker.
fn assert_hangs_under_request_through_job(events: &[Value], work: &str, route: &str) {
    let accepted: Vec<&Value> = spans_named(events, "http.request")
        .into_iter()
        .filter(|e| {
            e.get("fields")
                .and_then(|f| f.get("route"))
                .and_then(Value::as_str)
                == Some(route)
        })
        .collect();
    assert_eq!(accepted.len(), 1, "{events:?}");
    let jobs = spans_named(events, "api.job");
    assert_eq!(jobs.len(), 1, "{events:?}");
    let work_spans = spans_named(events, work);
    assert_eq!(work_spans.len(), 1, "{events:?}");
    assert_eq!(
        parent_id(work_spans[0]),
        Some(span_id(jobs[0])),
        "{work} not parented to its api.job"
    );
    assert_eq!(
        parent_id(jobs[0]),
        Some(span_id(accepted[0])),
        "api.job not parented to the accepting http.request"
    );
}

/// `?async=true` evaluation: `http.request` → `api.job` →
/// `core.evaluate`, under the caller's request id.
#[test]
fn async_evaluate_hangs_under_its_request_through_the_job() {
    let (_server, client) = start_service();
    let supplied = "feedf00d";
    let (status, _, body) = client
        .post_full(
            "/model/topology/heron/wordcount?async=true",
            r#"{"source_rate": 10000000}"#,
            &[("x-request-id", supplied)],
        )
        .unwrap();
    assert_eq!(status, 202, "{body}");
    wait_for_job(&client, &body);
    assert_hangs_under_request_through_job(
        &spans_of_request(&client, supplied),
        "core.evaluate",
        "/model/topology/heron/{topology}",
    );
}

/// A cluster plan over real HTTP leaves one *connected* span tree in
/// the trace ring: `http.request` → `api.job` → `fleet.plan` → one
/// `fleet.shard.plan` per topology → `core.plan`, all attributed to
/// the caller-supplied request id even though the work hopped from the
/// HTTP worker to the job worker to the shared planning pool.
#[test]
fn fleet_plan_fans_out_one_connected_span_tree() {
    let (_server, client) = start_fleet();
    let supplied = "beefcafe";
    let (status, _, body) = client
        .post_full("/fleet/plan", "{}", &[("x-request-id", supplied)])
        .unwrap();
    assert_eq!(status, 202, "{body}");
    wait_for_job(&client, &body);
    let events = spans_of_request(&client, supplied);
    let spans_named = |name: &str| spans_named(&events, name);

    // Exactly one HTTP edge span, one job span and one cluster-plan
    // span, linked.
    assert_hangs_under_request_through_job(&events, "fleet.plan", "/fleet/plan");
    let plans = spans_named("fleet.plan");

    // One shard-plan span per topology, each parented to the cluster
    // plan; every core.plan span sits under some shard-plan span.
    let shard_plans = spans_named("fleet.shard.plan");
    assert_eq!(shard_plans.len(), 4, "{events:?}");
    let plan_span = span_id(plans[0]);
    let shard_ids: Vec<u64> = shard_plans
        .iter()
        .map(|e| {
            assert_eq!(parent_id(e), Some(plan_span), "{e:?}");
            span_id(e)
        })
        .collect();
    let core_plans = spans_named("core.plan");
    assert_eq!(core_plans.len(), 4, "{events:?}");
    for core in &core_plans {
        let parent = parent_id(core).expect("core.plan has a parent");
        assert!(
            shard_ids.contains(&parent),
            "core.plan parent {parent} not a fleet.shard.plan: {events:?}"
        );
    }
}

/// `/slo/status` and `/debug/flight` round-trip as JSON over the fleet
/// front door, and serving requests populates both: the plan route's
/// SLO objective appears with finite burn rates, and the flight
/// recorder holds at least one snapshot with flattened samples.
#[test]
fn slo_status_and_flight_round_trip_over_http() {
    let (_server, client) = start_fleet();
    let (status, _, body) = client.post_full("/fleet/plan", "{}", &[]).unwrap();
    assert_eq!(status, 202, "{body}");
    wait_for_job(&client, &body);

    let (status, body) = client.get("/slo/status").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert!(v.get("firing").and_then(Value::as_f64).unwrap() >= 0.0);
    assert!(v.get("warning").and_then(Value::as_f64).unwrap() >= 0.0);
    let objectives = v.get("objectives").and_then(Value::as_array).unwrap();
    let route_slo = objectives
        .iter()
        .find(|o| o.get("name").and_then(Value::as_str) == Some("route:/fleet/plan"))
        .unwrap_or_else(|| panic!("no /fleet/plan objective: {body}"));
    for field in ["fast_burn_rate", "slow_burn_rate", "target"] {
        let value = route_slo.get(field).and_then(Value::as_f64).unwrap();
        assert!(value.is_finite() && value >= 0.0, "{field}: {value}");
    }
    assert!(route_slo.get("good").and_then(Value::as_f64).unwrap() >= 1.0);
    assert!(
        objectives
            .iter()
            .any(|o| o.get("name").and_then(Value::as_str) == Some("fleet-plan-jobs")),
        "plan job objective missing: {body}"
    );

    let (status, body) = client.get("/debug/flight").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let snapshots = v.get("snapshots").and_then(Value::as_array).unwrap();
    assert!(!snapshots.is_empty(), "flight dump is empty: {body}");
    let samples = snapshots
        .last()
        .unwrap()
        .get("samples")
        .and_then(Value::as_array)
        .unwrap();
    assert!(
        samples.iter().any(|s| {
            s.get("name")
                .and_then(Value::as_str)
                .is_some_and(|n| n.starts_with("caladrius_http_request_duration_seconds"))
        }),
        "no flattened duration sample: {body}"
    );
    assert!(v.get("slo_transitions").and_then(Value::as_array).is_some());
    let mut keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
    keys.sort_unstable();
    assert_eq!(keys, ["slo_transitions", "snapshots"], "{body}");
}
