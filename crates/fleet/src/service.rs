//! The fleet behind the API tier's one front door.
//!
//! [`Fleet`] implements [`Tenants`]: a topology resolves to the
//! `Caladrius` of the shard it is pinned to, so a fleet door answers
//! every per-topology route of the paper's REST API (what-if, traffic,
//! packing, metrics, plan) for every tenant. A topology nobody
//! registered resolves to the shard it would be pinned to, which
//! answers with exactly the errors a standalone service gives. The
//! fleet mounts one route of its own:
//!
//! * `POST /fleet/plan` — cluster planning as an async job (`202` +
//!   a `/jobs/{id}` poll link), submitted through the same path as
//!   `/topology/{topology}/plan`. The body may set `"budget"`
//!   (containers) to override the configured cluster budget, plus the
//!   same planner knobs as the single-topology plan route.
//!
//! A fleet door's `GET /health` is the per-shard view: topology counts,
//! model- and plan-cache counters and ingest totals.

use crate::fleet::{Fleet, FleetHealth, FleetPlan, TopologyPlanOutcome};
use crate::hash::assign_shard;
use caladrius_api::http::{Request, Response};
use caladrius_api::jobs::JobRunner;
use caladrius_api::json::Value;
use caladrius_api::{FrontDoor, Tenants};
use caladrius_core::capacity::CapacityPlanRequest;
use caladrius_core::Caladrius;

/// The front door over a fleet. This alias exists only because the
/// benchmark's `fleet_drift` workload names it; `FrontDoor<Fleet>` is
/// the type.
pub type FleetService = FrontDoor<Fleet>;

impl Tenants for Fleet {
    fn service(&self, topology: &str) -> &Caladrius {
        // Registration pins a topology to exactly this shard.
        self.shards()[assign_shard(topology, self.shards().len())].service()
    }

    fn topologies(&self) -> Vec<String> {
        self.topologies()
    }

    fn health(&self, _jobs: &JobRunner) -> Value {
        health_to_json(&self.health())
    }

    fn route(
        door: &FrontDoor<Self>,
        request: &Request,
        segments: &[&str],
    ) -> Option<(&'static str, Response)> {
        Some(match (request.method.as_str(), segments) {
            ("POST", ["fleet", "plan"]) => (
                "/fleet/plan",
                door.submit_job(
                    request,
                    None,
                    parse_fleet_plan_body,
                    |fleet, (plan_request, budget)| {
                        let plan = fleet.plan_fleet(&plan_request, budget);
                        // Fleet plan jobs burn their own error budget: any
                        // topology failing to plan counts as a bad event.
                        caladrius_obs::global_slos()
                            .objective("fleet-plan-jobs", caladrius_obs::SloConfig::default())
                            .record(plan.errors() == 0);
                        Ok(fleet_plan_to_json(&plan))
                    },
                ),
            ),
            (_, ["fleet", "plan"]) => (
                "method_not_allowed",
                Response::json_status(405, "{\"error\":\"method not allowed\"}"),
            ),
            _ => return None,
        })
    }
}

/// A fleet door's `/health` body: per-shard snapshot.
fn health_to_json(health: &FleetHealth) -> Value {
    let shards = health
        .shards
        .iter()
        .map(|s| {
            Value::object(
                [
                    ("shard", s.shard as u64),
                    ("topologies", s.topologies as u64),
                    ("cache_hits", s.model_cache.hits),
                    ("cache_misses", s.model_cache.misses),
                    ("model_fits", s.model_cache.fits),
                    ("model_fits_incremental", s.model_cache.incremental_fits),
                    ("model_fits_full", s.model_cache.full_fits),
                    ("plans", s.model_cache.plans),
                    ("plan_cache_hits", s.plan_cache.hits),
                    ("plan_cache_misses", s.plan_cache.misses),
                    ("plan_warm_starts", s.plan_cache.warm_starts),
                    ("plan_cache_evictions", s.plan_cache.evictions),
                    ("ingest_batches", s.ingest.batches),
                    ("ingest_samples", s.ingest.samples),
                    ("routed_batches", s.routed_batches),
                ]
                .map(|(name, count)| (name, Value::from(count as f64))),
            )
        })
        .collect();
    Value::object([
        ("status", Value::from("ok")),
        ("topologies", Value::from(health.topologies as f64)),
        ("shards", Value::Array(shards)),
    ])
}

/// Parses a `POST /fleet/plan` body: the single-topology planner knobs
/// (`traffic_model`, `conservative`, `horizon_minutes`, ...) via the
/// API tier's parser, plus the fleet-only `"budget"` (containers,
/// overriding the configured cluster budget).
fn parse_fleet_plan_body(body: &str) -> Result<(CapacityPlanRequest, Option<u32>), String> {
    let request = caladrius_api::parse_plan_body(body)?;
    let mut budget = None;
    if !body.trim().is_empty() {
        let value = caladrius_api::json::parse(body).map_err(|e| e.to_string())?;
        if let Some(raw) = value.get("budget") {
            let b = raw
                .as_f64()
                .filter(|b| b.fract() == 0.0 && *b >= 1.0)
                .ok_or_else(|| "budget must be a positive integer".to_string())?;
            budget = Some(b.min(f64::from(u32::MAX)) as u32);
        }
    }
    Ok((request, budget))
}

fn outcome_to_json(outcome: &TopologyPlanOutcome) -> Value {
    let mut fields = vec![
        ("topology", Value::from(outcome.topology.as_str())),
        ("shard", Value::from(outcome.shard as f64)),
        ("demand", Value::from(outcome.demand.clone())),
        (
            "granted_containers",
            Value::from(f64::from(outcome.granted_containers)),
        ),
        ("risk", Value::from(outcome.risk)),
    ];
    if let Some(timeline) = &outcome.timeline {
        fields.push((
            "plan",
            Value::object([
                ("windows", Value::from(timeline.windows.len() as f64)),
                (
                    "peak_containers",
                    Value::from(f64::from(timeline.peak_cost.containers)),
                ),
                (
                    "peak_instances",
                    Value::from(f64::from(timeline.peak_cost.total_instances)),
                ),
            ]),
        ));
    }
    if let Some(error) = &outcome.error {
        fields.push(("error", Value::from(error.as_str())));
    }
    Value::object(fields)
}

/// Renders a fleet plan for the job result payload.
fn fleet_plan_to_json(plan: &FleetPlan) -> Value {
    Value::object([
        ("budget", Value::from(f64::from(plan.budget))),
        ("total_granted", Value::from(f64::from(plan.total_granted))),
        ("errors", Value::from(plan.errors() as f64)),
        ("unchanged", Value::from(plan.unchanged as f64)),
        ("drifted", Value::from(plan.drifted as f64)),
        ("cold", Value::from(plan.cold as f64)),
        (
            "topologies",
            Value::Array(plan.outcomes.iter().map(outcome_to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: BTreeMap::new(),
            headers: BTreeMap::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn empty_service() -> Arc<FleetService> {
        FleetService::new(
            Arc::new(Fleet::new(crate::fleet::FleetConfig::default())),
            1,
        )
    }

    #[test]
    fn parse_accepts_budget_and_planner_knobs() {
        let (request, budget) =
            parse_fleet_plan_body(r#"{"budget": 24, "conservative": true}"#).expect("valid");
        assert_eq!(budget, Some(24));
        assert!(request.conservative);
        let (_, none) = parse_fleet_plan_body("{}").expect("valid");
        assert_eq!(none, None);
        assert!(parse_fleet_plan_body(r#"{"budget": 0}"#).is_err());
        assert!(parse_fleet_plan_body(r#"{"budget": 1.5}"#).is_err());
        assert!(parse_fleet_plan_body(r#"{"budget": "lots"}"#).is_err());
    }

    #[test]
    fn plan_parallelism_is_bounded() {
        let service = empty_service();
        let bound = caladrius_planner::MAX_PARALLELISM;
        let with = |p: u32| format!(r#"{{"max_parallelism": {p}}}"#);
        let refused = service.handle(request("POST", "/fleet/plan", &with(bound + 1)));
        assert_eq!(refused.status, 400);
        let accepted = service.handle(request("POST", "/fleet/plan", &with(bound)));
        assert_eq!(accepted.status, 202);
    }

    #[test]
    fn fleet_routes_dispatch() {
        let service = empty_service();
        let health = service.handle(request("GET", "/health", ""));
        assert_eq!(health.status, 200);
        let body = String::from_utf8(health.body).unwrap();
        let body = caladrius_api::json::parse(&body).unwrap();
        // The per-shard field names are a contract, like `/health`'s.
        let shards = body.get("shards").and_then(Value::as_array).unwrap();
        let mut keys: Vec<&str> = shards[0]
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            vec![
                "cache_hits",
                "cache_misses",
                "ingest_batches",
                "ingest_samples",
                "model_fits",
                "model_fits_full",
                "model_fits_incremental",
                "plan_cache_evictions",
                "plan_cache_hits",
                "plan_cache_misses",
                "plan_warm_starts",
                "plans",
                "routed_batches",
                "shard",
                "topologies"
            ]
        );

        assert_eq!(
            service.handle(request("GET", "/fleet/plan", "")).status,
            405
        );
        assert_eq!(service.handle(request("GET", "/nope", "")).status, 404);
        // Only `/fleet/plan` lives under `/fleet`: jobs and health are the
        // door's own routes.
        assert_eq!(
            service.handle(request("GET", "/fleet/nope", "")).status,
            404
        );
        assert_eq!(service.handle(request("GET", "/jobs/zero", "")).status, 400);
        assert_eq!(service.handle(request("GET", "/jobs/17", "")).status, 404);
        let metrics = service.handle(request("GET", "/metrics/service", ""));
        assert_eq!(metrics.status, 200);
        // The scrape re-evaluates SLOs first, so the health request's
        // objective already has burn-rate gauges.
        let body = String::from_utf8(metrics.body).unwrap();
        assert!(
            body.lines()
                .any(|l| l.starts_with("caladrius_slo_burn_rate{objective=\"route:/health\"")),
            "no burn-rate gauge in fleet scrape"
        );
    }

    #[test]
    fn plan_jobs_run_async_even_on_an_empty_fleet() {
        let service = empty_service();
        let accepted = service.handle(request("POST", "/fleet/plan", "{}"));
        assert_eq!(accepted.status, 202, "{:?}", accepted.body);
        let body = String::from_utf8(accepted.body).unwrap();
        let body = caladrius_api::json::parse(&body).unwrap();
        let id = body.get("job_id").and_then(Value::as_f64).expect("job id") as u64;
        let poll = format!("/jobs/{id}");
        assert_eq!(
            body.get("poll").and_then(Value::as_str),
            Some(poll.as_str())
        );
        service.jobs().wait(id).expect("job exists");
        // Poll through the door's own job route: the result and the same
        // timing fields as any other job.
        let polled = service.handle(request("GET", &poll, ""));
        assert_eq!(polled.status, 200);
        let polled = caladrius_api::json::parse(&String::from_utf8(polled.body).unwrap()).unwrap();
        assert_eq!(polled.get("state").and_then(Value::as_str), Some("done"));
        let result = polled.get("result").expect("job result");
        assert_eq!(result.get("errors").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            result
                .get("topologies")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(0)
        );
        for field in [
            "queued_ms",
            "started_ms",
            "finished_ms",
            "queue_wait_ms",
            "duration_ms",
        ] {
            let value = polled.get(field).and_then(Value::as_f64);
            assert!(value.is_some_and(|ms| ms >= 0.0), "{field}: {value:?}");
        }
    }
}
