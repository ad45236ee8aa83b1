//! The Caladrius web service end-to-end (paper §III).
//!
//! Starts the REST API over a simulated deployment and exercises it the
//! way a Heron operator (or an auto-scaler like Dhalion) would: health
//! check, traffic forecast, a synchronous dry-run evaluation, and an
//! asynchronous job with polling.
//!
//! Run with: `cargo run --example model_service`

use caladrius::api::{json, ApiService, HttpClient, HttpServer};
use caladrius::core::providers::{SimMetricsProvider, StaticTracker};
use caladrius::core::Caladrius;
use caladrius::sim::prelude::*;
use caladrius::workload::wordcount::{wordcount_topology, WordCountParallelism};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Record metrics from a simulated deployment.
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

    // Launch the web service on an ephemeral port.
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

    // Health + inventory.
    let (status, body) = client.get("/health").unwrap();
    println!("\nGET /health -> {status} {body}");
    let (status, body) = client.get("/topologies").unwrap();
    println!("GET /topologies -> {status} {body}");

    // Traffic forecast.
    let (status, body) = client
        .get("/model/traffic/heron/wordcount?models=stats_summary")
        .unwrap();
    let v = json::parse(&body).unwrap();
    let mean = v.get("forecasts").unwrap().as_array().unwrap()[0]
        .get("mean")
        .unwrap()
        .as_f64()
        .unwrap();
    println!("\nGET /model/traffic/heron/wordcount -> {status}");
    println!(
        "  stats_summary forecast mean: {:.1} M tuples/min",
        mean / 1e6
    );

    // Synchronous dry-run: scale the splitter to 4 and test 30 M/min.
    let request = r#"{"parallelism": {"splitter": 4}, "source_rate": 30000000}"#;
    let (status, body) = client
        .post("/model/topology/heron/wordcount", request)
        .unwrap();
    let v = json::parse(&body).unwrap();
    println!("\nPOST /model/topology/heron/wordcount -> {status}");
    println!("  request: {request}");
    println!(
        "  risk = {}, sink output = {:.1} M words/min",
        v.get("backpressure_risk").unwrap().as_str().unwrap(),
        v.get("sink_output_rate").unwrap().as_f64().unwrap() / 1e6
    );

    // Asynchronous job: submit, poll, read the result.
    let (status, body) = client
        .post(
            "/model/topology/heron/wordcount?async=true",
            r#"{"source_rate": "current"}"#,
        )
        .unwrap();
    let v = json::parse(&body).unwrap();
    let poll_path = v.get("poll").unwrap().as_str().unwrap().to_string();
    println!("\nPOST /model/topology/heron/wordcount?async=true -> {status} (job at {poll_path})");
    loop {
        let (_, body) = client.get(&poll_path).unwrap();
        let v = json::parse(&body).unwrap();
        match v.get("state").unwrap().as_str().unwrap() {
            "pending" => std::thread::sleep(Duration::from_millis(20)),
            "done" => {
                let result = v.get("result").unwrap();
                println!(
                    "  job done: at the current rate, risk = {}",
                    result.get("backpressure_risk").unwrap().as_str().unwrap()
                );
                break;
            }
            other => {
                println!("  job ended in state {other}: {body}");
                break;
            }
        }
    }
    println!("\nshutting down.");
}
