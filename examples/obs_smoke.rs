//! Observability smoke test: drive the service, then scrape its own
//! telemetry back out through `/metrics/service` (Prometheus text
//! format) and `/trace/recent` (structured spans with request ids).
//!
//! Exits non-zero if the exposition is missing any instrumented layer,
//! so `scripts/ci.sh` runs this as the observability gate.
//!
//! Run with: `cargo run --example obs_smoke`

use caladrius::api::{json, ApiService, HttpClient, HttpServer};
use caladrius::core::providers::{SimMetricsProvider, StaticTracker};
use caladrius::core::Caladrius;
use caladrius::sim::prelude::*;
use caladrius::workload::wordcount::{wordcount_topology, WordCountParallelism};
use std::sync::Arc;

fn main() {
    let parallelism = WordCountParallelism {
        spout: 8,
        splitter: 2,
        counter: 3,
    };
    let metrics = SimMetrics::new("wordcount");
    println!("recording metrics from the simulated cluster...");
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
    let api = ApiService::new(Arc::new(caladrius), caladrius::exec::configured_threads());
    let server = HttpServer::serve(
        "127.0.0.1:0",
        caladrius::exec::configured_threads(),
        api.handler(),
    )
    .unwrap();
    let addr = server.local_addr();
    println!("Caladrius listening on http://{addr}");
    let client = HttpClient::new(addr);

    // Generate some traffic worth observing.
    let (status, _) = client.get("/health").unwrap();
    assert_eq!(status, 200);
    let (status, body) = client
        .post(
            "/model/topology/heron/wordcount",
            r#"{"source_rate": 20000000}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");

    // Scrape the Prometheus exposition and check layer coverage.
    let (status, text) = client.get("/metrics/service").unwrap();
    assert_eq!(status, 200);
    let families = text.lines().filter(|l| l.starts_with("# TYPE")).count();
    println!("\nGET /metrics/service -> {status} ({families} metric families)");
    let mut missing = Vec::new();
    for required in [
        "caladrius_http_requests_total",
        "caladrius_http_request_duration_seconds",
        "caladrius_tsdb_ingest_samples_total",
        "caladrius_model_cache_misses_total",
        "caladrius_model_fit_duration_seconds",
        "caladrius_evaluate_duration_seconds",
        "caladrius_sim_minute_duration_seconds",
        "caladrius_jobs_queue_depth",
    ] {
        if text.contains(required) {
            println!("  ok   {required}");
        } else {
            println!("  MISS {required}");
            missing.push(required);
        }
    }
    assert!(missing.is_empty(), "exposition missing: {missing:?}");
    let sample = text
        .lines()
        .find(|l| l.starts_with("caladrius_http_requests_total"))
        .unwrap();
    println!("  e.g. {sample}");

    // Recent spans carry the request ids minted at the HTTP edge.
    let (status, body) = client.get("/trace/recent?limit=10").unwrap();
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    let events = v.get("events").unwrap().as_array().unwrap();
    println!(
        "\nGET /trace/recent?limit=10 -> {status} ({} spans)",
        events.len()
    );
    for e in events.iter().take(5) {
        println!(
            "  {} {}us request_id={}",
            e.get("name").unwrap().as_str().unwrap(),
            e.get("duration_us").unwrap().as_f64().unwrap(),
            e.get("request_id")
                .unwrap()
                .as_str()
                .unwrap_or("<background>"),
        );
    }
    assert!(events
        .iter()
        .any(|e| e.get("request_id").unwrap().as_str().is_some()));

    // SLO burn-rate verdicts: the routes served above registered their
    // objectives and nothing should be firing.
    let (status, body) = client.get("/slo/status").unwrap();
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    let objectives = v.get("objectives").unwrap().as_array().unwrap();
    println!(
        "\nGET /slo/status -> {status} ({} objectives, {} firing)",
        objectives.len(),
        v.get("firing").unwrap().as_f64().unwrap(),
    );
    for o in objectives.iter().take(5) {
        println!(
            "  {} state={} fast_burn={:.2}",
            o.get("name").unwrap().as_str().unwrap(),
            o.get("state").unwrap().as_str().unwrap(),
            o.get("fast_burn_rate").unwrap().as_f64().unwrap(),
        );
    }
    assert!(!objectives.is_empty(), "no SLO objectives registered");

    // Flight recorder: at least one snapshot of the registry exists.
    let (status, body) = client.get("/debug/flight").unwrap();
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    let snapshots = v.get("snapshots").unwrap().as_array().unwrap();
    println!(
        "GET /debug/flight -> {status} ({} snapshots)",
        snapshots.len()
    );
    assert!(!snapshots.is_empty(), "flight recorder is empty");

    println!("\nobservability smoke test passed");
}
