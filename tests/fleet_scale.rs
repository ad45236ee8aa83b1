//! Fleet-tier integration tests over the real HTTP surface: 64
//! topologies across 4 shards, cluster planning under a container
//! budget, and fleet tenants answering the per-topology routes exactly as a standalone
//! service over the same data does.

use caladrius::api::Value;
use caladrius::api::{json, ApiService, HttpClient, HttpServer, Request, Response};
use caladrius::core::providers::{SimMetricsProvider, StaticTracker};
use caladrius::core::Caladrius;
use caladrius::fleet::{
    assign_shard, BoundWorkload, Fleet, FleetConfig, FleetService, StagedWorkload,
};
use caladrius::sim::metrics::SimMetrics;
use caladrius::sim::topology::Topology;
use caladrius::tsdb::MetricBatch;
use caladrius::workload::wordcount::{wordcount_topology, WordCountParallelism};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const TOPOLOGIES: usize = 64;

/// A staged-workload WordCount deployment named `name`.
fn tenant_topology(name: &str) -> Topology {
    let mut topology = wordcount_topology(
        WordCountParallelism {
            spout: 8,
            splitter: 2,
            counter: 3,
        },
        6.0e6,
    );
    topology.name = name.to_string();
    topology
}

/// Replays every staged minute into `metrics` through `ingest`.
fn feed(staged: &StagedWorkload, metrics: &SimMetrics, mut ingest: impl FnMut(&MetricBatch)) {
    let mut batch = MetricBatch::new(0);
    let bound = staged.bind(metrics);
    for idx in 0..staged.minutes() {
        bound.fill(staged, idx, &mut batch);
        ingest(&batch);
    }
}

/// A 4-shard fleet hosting 64 staged-workload topologies, with each
/// tenant's binding to the staged workload.
fn build_fleet(staged: &StagedWorkload) -> (Arc<Fleet>, Vec<(String, BoundWorkload)>) {
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: SHARDS,
        ..FleetConfig::default()
    }));
    let mut tenants = Vec::with_capacity(TOPOLOGIES);
    for i in 0..TOPOLOGIES {
        let name = format!("tenant-{i:02}");
        let metrics = fleet.register(tenant_topology(&name));
        feed(staged, &metrics, |batch| {
            fleet.ingest(&name, batch).expect("registered topology")
        });
        tenants.push((name, staged.bind(&metrics)));
    }
    (fleet, tenants)
}

/// Ships staged minute `idx`, replayed one cycle past the fed history, to
/// each of `tenants`: their watermarks advance and their cached models
/// and plans go stale.
fn ship_minute(
    fleet: &Fleet,
    staged: &StagedWorkload,
    tenants: &[(String, BoundWorkload)],
    idx: usize,
) {
    let cycle_ms = staged.minute_ts(staged.minutes() - 1) - staged.minute_ts(0) + 60_000;
    let mut batch = MetricBatch::new(0);
    for (name, bound) in tenants {
        bound.fill_at(staged, idx, cycle_ms, &mut batch);
        fleet.ingest(name, &batch).expect("registered topology");
    }
}

/// Polls a fleet plan job until it finishes, returning the result.
fn wait_for_plan(client: &HttpClient, accepted_body: &str) -> Value {
    let poll = json::parse(accepted_body)
        .expect("job envelope")
        .get("poll")
        .and_then(Value::as_str)
        .expect("poll url")
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = client.get(&poll).expect("poll round-trip");
        let state = json::parse(&body).expect("job body");
        match state.get("state").and_then(Value::as_str) {
            Some("done") => return state.get("result").expect("result").clone(),
            Some("failed") => panic!("fleet plan failed: {body}"),
            _ => {
                assert_eq!(status, 202, "{body}");
                assert!(Instant::now() < deadline, "fleet plan timed out");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Sums a numeric field across a plan result's topology outcomes.
fn sum_field(result: &Value, field: &str) -> f64 {
    result
        .get("topologies")
        .and_then(Value::as_array)
        .expect("topologies array")
        .iter()
        .map(|t| t.get(field).and_then(Value::as_f64).unwrap_or(0.0))
        .sum()
}

/// A fleet plan's `[unchanged, drifted, cold, errors]` counts.
fn partition(result: &Value) -> [Option<f64>; 4] {
    ["unchanged", "drifted", "cold", "errors"]
        .map(|field| result.get(field).and_then(Value::as_f64))
}

#[test]
fn fleet_tier_end_to_end() {
    let staged = StagedWorkload::stage_wordcount();
    let (fleet, tenants) = build_fleet(&staged);
    let n = TOPOLOGIES as f64;
    // Plan searches the shards have run, in total.
    let searches = || -> u64 {
        let shards = fleet.health().shards;
        shards.iter().map(|s| s.model_cache.plans).sum()
    };

    // Shard assignment is the pure rendezvous hash, and every shard
    // hosts a sensible share of the 64 topologies.
    let mut expected = [0usize; SHARDS];
    for i in 0..TOPOLOGIES {
        let name = format!("tenant-{i:02}");
        let shard = assign_shard(&name, SHARDS);
        assert_eq!(fleet.shard_of(&name), Some(shard), "{name}");
        expected[shard] += 1;
    }
    assert!(expected.iter().all(|c| *c > 0), "{expected:?}");

    let service = FleetService::new(Arc::clone(&fleet), 2);
    let server = HttpServer::serve("127.0.0.1:0", 4, service.handler()).unwrap();
    let client = HttpClient::new(server.local_addr());

    // Health reports the same per-shard layout over HTTP.
    let (status, body) = client.get("/health").unwrap();
    assert_eq!(status, 200, "{body}");
    let health = json::parse(&body).unwrap();
    assert_eq!(
        health.get("topologies").and_then(Value::as_f64),
        Some(TOPOLOGIES as f64)
    );
    let shards = health.get("shards").and_then(Value::as_array).unwrap();
    assert_eq!(shards.len(), SHARDS);
    for shard in shards {
        let index = shard.get("shard").and_then(Value::as_f64).unwrap() as usize;
        assert_eq!(
            shard.get("topologies").and_then(Value::as_f64),
            Some(expected[index] as f64),
            "shard {index}"
        );
        // Every shard ingested its topologies' batches (40 staged
        // minutes each) and nothing else.
        assert_eq!(
            shard.get("routed_batches").and_then(Value::as_f64),
            Some((expected[index] * 40) as f64),
            "shard {index}"
        );
    }

    let plan = |body: &str| {
        let (status, accepted) = client.post("/fleet/plan", body).unwrap();
        assert_eq!(status, 202, "{accepted}");
        wait_for_plan(&client, &accepted)
    };

    // Unconstrained cluster plan: every topology plans cleanly and the
    // grant covers its peak demand.
    let free = plan("{}");
    assert_eq!(free.get("errors").and_then(Value::as_f64), Some(0.0));
    let outcomes = free.get("topologies").and_then(Value::as_array).unwrap();
    assert_eq!(outcomes.len(), TOPOLOGIES);
    let peak_sum = sum_field(&free, "granted_containers");
    assert!(peak_sum >= TOPOLOGIES as f64, "grants: {peak_sum}");
    for outcome in outcomes {
        assert_eq!(outcome.get("risk").and_then(Value::as_f64), Some(0.0));
        assert!(outcome.get("plan").is_some(), "{outcome:?}");
    }
    // First contact with every topology: all plans were cold.
    assert_eq!(
        free.get("cold").and_then(Value::as_f64),
        Some(TOPOLOGIES as f64)
    );
    assert_eq!(free.get("unchanged").and_then(Value::as_f64), Some(0.0));

    // A second identical plan over unchanged data is served entirely
    // from the per-shard plan caches: every topology counts as
    // unchanged, no search runs and the outcomes are byte-identical.
    let before = searches();
    let cached = plan("{}");
    assert_eq!(searches(), before, "a cached replan runs no search");
    assert_eq!(
        cached.get("unchanged").and_then(Value::as_f64),
        Some(TOPOLOGIES as f64)
    );
    assert_eq!(cached.get("drifted").and_then(Value::as_f64), Some(0.0));
    assert_eq!(cached.get("cold").and_then(Value::as_f64), Some(0.0));
    assert_eq!(
        cached.get("topologies"),
        free.get("topologies"),
        "cached fleet plan must match the plan it memoises"
    );

    // The cache traffic is visible per shard in the door's /health.
    let (status, body) = client.get("/health").unwrap();
    assert_eq!(status, 200, "{body}");
    let health = json::parse(&body).unwrap();
    let mut plan_hits = 0.0;
    let mut plan_misses = 0.0;
    for shard in health.get("shards").and_then(Value::as_array).unwrap() {
        for field in [
            "plan_cache_hits",
            "plan_cache_misses",
            "plan_warm_starts",
            "plan_cache_evictions",
        ] {
            assert!(shard.get(field).is_some(), "missing {field}: {shard:?}");
        }
        plan_hits += shard
            .get("plan_cache_hits")
            .and_then(Value::as_f64)
            .unwrap();
        plan_misses += shard
            .get("plan_cache_misses")
            .and_then(Value::as_f64)
            .unwrap();
    }
    assert_eq!(plan_hits, TOPOLOGIES as f64, "second plan hits throughout");
    assert_eq!(
        plan_misses, TOPOLOGIES as f64,
        "first plan missed throughout"
    );

    // Replans under continuous ingest. A fresh minute to every tenant
    // drifts them all: each re-plan warm-starts from its stale entry.
    ship_minute(&fleet, &staged, &tenants, 0);
    let refit = plan("{}");
    assert_eq!(
        partition(&refit),
        [Some(0.0), Some(n), Some(0.0), Some(0.0)]
    );
    // No new data: the warm replan is pure plan-cache reads, runs no
    // search and grants what the plans it memoises granted.
    let before = searches();
    let warm = plan("{}");
    assert_eq!(partition(&warm), [Some(n), Some(0.0), Some(0.0), Some(0.0)]);
    assert_eq!(searches(), before, "a warm replan runs no search");
    assert_eq!(
        warm.get("total_granted").and_then(Value::as_f64),
        refit.get("total_granted").and_then(Value::as_f64),
        "cached plans must match the plans they memoise"
    );
    // 10 % drift: only the drifted tenants search again.
    let drifted = TOPOLOGIES / 10;
    ship_minute(&fleet, &staged, &tenants[..drifted], 1);
    let before = searches();
    let drift = plan("{}");
    let d = drifted as f64;
    assert_eq!(
        partition(&drift),
        [Some(n - d), Some(d), Some(0.0), Some(0.0)]
    );
    assert_eq!(
        searches(),
        before + drifted as u64,
        "one search per drifted tenant"
    );
    // The cached, warm and drift rounds hit the plan caches; the refit and
    // drift rounds warm-started from stale entries.
    let shards = fleet.health().shards;
    let plan_hits: u64 = shards.iter().map(|s| s.plan_cache.hits).sum();
    let warm_starts: u64 = shards.iter().map(|s| s.plan_cache.warm_starts).sum();
    assert_eq!(plan_hits, 3 * TOPOLOGIES as u64 - drifted as u64);
    assert_eq!(warm_starts, (TOPOLOGIES + drifted) as u64);

    // Budgeted cluster plan: grants sum within the cluster budget, and
    // every produced timeline fits its topology's grant.
    let budget = (peak_sum as u32)
        .saturating_sub(TOPOLOGIES as u32 / 2)
        .max(1);
    let tight = plan(&format!("{{\"budget\": {budget}}}"));
    assert_eq!(
        tight.get("budget").and_then(Value::as_f64),
        Some(f64::from(budget))
    );
    let granted = sum_field(&tight, "granted_containers");
    assert!(
        granted <= f64::from(budget),
        "granted {granted} of budget {budget}"
    );
    assert_eq!(
        tight.get("total_granted").and_then(Value::as_f64),
        Some(granted)
    );
    for outcome in tight.get("topologies").and_then(Value::as_array).unwrap() {
        if let Some(plan) = outcome.get("plan") {
            let peak = plan.get("peak_containers").and_then(Value::as_f64).unwrap();
            let grant = outcome
                .get("granted_containers")
                .and_then(Value::as_f64)
                .unwrap();
            assert!(peak <= grant, "{outcome:?}");
        }
    }
}

fn request(method: &str, target: &str, body: &str) -> Request {
    let (path, query) = caladrius::api::http::parse_target(target);
    Request {
        method: method.to_string(),
        path,
        query,
        headers: Default::default(),
        body: body.as_bytes().to_vec(),
    }
}

fn text(response: &Response) -> String {
    String::from_utf8(response.body.clone()).expect("UTF-8 body")
}

/// Submits a job through `handle` and returns its finished poll body's
/// `state` and `result` (or `error`) — the parts that do not carry
/// wall-clock timing.
fn job_outcome(handle: impl Fn(Request) -> Response, target: &str, body: &str) -> String {
    let accepted = handle(request("POST", target, body));
    assert_eq!(accepted.status, 202, "{}", text(&accepted));
    let poll = json::parse(&text(&accepted))
        .unwrap()
        .get("poll")
        .and_then(Value::as_str)
        .expect("poll link")
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let polled = json::parse(&text(&handle(request("GET", &poll, "")))).unwrap();
        match polled.get("state").and_then(Value::as_str) {
            Some("pending") => {
                assert!(Instant::now() < deadline, "job {poll} timed out");
                std::thread::sleep(Duration::from_millis(10));
            }
            Some(state) => {
                let outcome = polled.get("result").or_else(|| polled.get("error"));
                return format!("{state}: {}", outcome.expect("outcome").to_json());
            }
            None => panic!("no job state: {polled:?}"),
        }
    }
}

/// A fleet tenant answers the paper's per-topology routes through its
/// shard, byte for byte as a standalone service over the same data —
/// including the errors for a topology neither of them knows.
#[test]
fn fleet_tenants_answer_the_per_topology_routes_like_a_standalone_service() {
    let staged = StagedWorkload::stage_wordcount();
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 2,
        ..FleetConfig::default()
    }));
    for name in ["tenant-a", "tenant-b", "tenant-c"] {
        let metrics = fleet.register(tenant_topology(name));
        feed(&staged, &metrics, |batch| {
            fleet.ingest(name, batch).expect("registered topology")
        });
    }
    let fleet_door = FleetService::new(Arc::clone(&fleet), 2);

    let name = "tenant-b";
    let metrics = SimMetrics::new(name);
    feed(&staged, &metrics, |batch| metrics.ingest(batch));
    let standalone = ApiService::new(
        Arc::new(Caladrius::new(
            Arc::new(SimMetricsProvider::new(metrics)),
            Arc::new(StaticTracker::new().with(tenant_topology(name))),
        )),
        2,
    );

    let whatif = r#"{"parallelism": {"splitter": 4}, "source_rate": 20000000}"#;
    for topology in [name, "ghost"] {
        for (method, target, body) in [
            ("POST", format!("/model/topology/heron/{topology}"), whatif),
            ("GET", format!("/model/traffic/heron/{topology}"), ""),
            (
                "GET",
                format!("/model/packing/heron/{topology}?parallelism=splitter:6"),
                "",
            ),
            (
                "GET",
                format!("/metrics/heron/{topology}?q=execute-count%7Bcomponent%3Dsplitter%7D"),
                "",
            ),
        ] {
            let ours = fleet_door.handle(request(method, &target, body));
            let theirs = standalone.handle(request(method, &target, body));
            assert_eq!(
                (ours.status, text(&ours)),
                (theirs.status, text(&theirs)),
                "{method} {target}"
            );
            let expected = if topology == name { 200 } else { 404 };
            assert_eq!(ours.status, expected, "{method} {target}: {}", text(&ours));
        }
        let plan = r#"{"window_minutes": 15}"#;
        let target = format!("/topology/{topology}/plan");
        let ours = job_outcome(|r| fleet_door.handle(r), &target, plan);
        let theirs = job_outcome(|r| standalone.handle(r), &target, plan);
        assert_eq!(ours, theirs, "{target}");
        let expected = if topology == name {
            "done: "
        } else {
            "failed: "
        };
        assert!(ours.starts_with(expected), "{target}: {ours}");
    }

    // The fleet door lists every tenant.
    let listed = json::parse(&text(&fleet_door.handle(request("GET", "/topologies", "")))).unwrap();
    assert_eq!(
        listed.get("topologies").map(Value::to_json),
        Some(r#"["tenant-a","tenant-b","tenant-c"]"#.to_string())
    );
}
