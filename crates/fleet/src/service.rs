//! Fleet HTTP front door.
//!
//! Reuses the API tier's building blocks — HTTP server, JSON model,
//! async job store, and admission controller — and adds the
//! fleet-level endpoints:
//!
//! * `POST /fleet/plan` — cluster planning as an async job (`202` +
//!   poll URL). The body may set `"budget"` (containers) to override
//!   the configured cluster budget, plus the same planner knobs as the
//!   single-topology plan route. Low-priority requests are shed with
//!   `429` + `Retry-After` under overload.
//! * `GET /fleet/jobs/{id}` — poll a fleet plan job.
//! * `GET /fleet/health` — per-shard topology counts, model-cache
//!   counters and ingest totals.
//! * `GET /metrics/service` — Prometheus exposition (includes the
//!   per-shard `shard="<i>"` series and the fleet shed/ingest
//!   counters).
//! * `GET /trace/recent`, `GET /slo/status`, `GET /debug/flight` —
//!   the shared observability endpoints (same handlers as the API
//!   tier), so a fleet front door exposes the cross-shard span trees,
//!   burn-rate verdicts and flight-recorder dumps directly.

use crate::fleet::{Fleet, FleetPlan, TopologyPlanOutcome};
use caladrius_api::admission::PRIORITY_HEADER;
use caladrius_api::http::{Handler, Request, Response};
use caladrius_api::json::Value;
use caladrius_api::{AdmissionConfig, AdmissionController, AdmissionDecision, JobRunner, Priority};
use caladrius_core::capacity::CapacityPlanRequest;
use std::sync::Arc;

/// The fleet tier's HTTP service: routes fleet requests to a shared
/// [`Fleet`] behind admission control and the async job store.
pub struct FleetService {
    fleet: Arc<Fleet>,
    jobs: JobRunner,
    admission: AdmissionController,
}

/// Route label of the fleet plan endpoint (admission + metrics key).
const PLAN_ROUTE: &str = "/fleet/plan";

impl FleetService {
    /// Wraps a fleet with `job_workers` async workers and admission
    /// control disabled.
    pub fn new(fleet: Arc<Fleet>, job_workers: usize) -> Arc<Self> {
        Self::with_admission(fleet, job_workers, AdmissionConfig::default())
    }

    /// Wraps a fleet with an explicit admission-control configuration
    /// on the plan route.
    pub fn with_admission(
        fleet: Arc<Fleet>,
        job_workers: usize,
        admission: AdmissionConfig,
    ) -> Arc<Self> {
        Arc::new(FleetService {
            fleet,
            jobs: JobRunner::new(job_workers),
            admission: AdmissionController::new(admission),
        })
    }

    /// The wrapped fleet.
    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// The job runner (tests gate its workers to force queueing).
    pub fn jobs(&self) -> &JobRunner {
        &self.jobs
    }

    /// A connection handler for [`caladrius_api::HttpServer::serve`].
    pub fn handler(self: &Arc<Self>) -> Handler {
        let service = Arc::clone(self);
        Arc::new(move |request| service.handle(request))
    }

    /// Routes one request through the API tier's
    /// [`caladrius_api::handle_request`] (so admission's p99 signal works
    /// unchanged for fleet routes).
    pub fn handle(&self, request: Request) -> Response {
        let latency_slo = self.admission.config().slo_p99_seconds;
        caladrius_api::handle_request(request, latency_slo, |request| self.route(request))
    }

    fn route(&self, request: &Request) -> (&'static str, Response) {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("POST", ["fleet", "plan"]) => (PLAN_ROUTE, self.plan(request)),
            ("GET", ["fleet", "jobs", id]) => (
                "/fleet/jobs/{id}",
                caladrius_api::job_status_response(&self.jobs, id),
            ),
            ("GET", ["fleet", "health"]) => ("/fleet/health", self.health()),
            (_, ["fleet", ..]) => (
                "method_not_allowed",
                Response::json_status(405, "{\"error\":\"method not allowed\"}"),
            ),
            _ => caladrius_api::shared_route(request, &segments),
        }
    }

    /// `POST /fleet/plan` — cluster planning across every registered
    /// topology, async through the job store.
    fn plan(&self, request: &Request) -> Response {
        let priority =
            Priority::from_header(request.headers.get(PRIORITY_HEADER).map(String::as_str));
        if let AdmissionDecision::Shed {
            retry_after_seconds,
        } = self.admission.decide(
            PLAN_ROUTE,
            priority,
            caladrius_api::route_p99(PLAN_ROUTE),
            self.jobs.queue_depth(),
        ) {
            return caladrius_api::too_many_requests(
                "shed by admission control",
                retry_after_seconds,
            );
        }
        let body = match request.body_str() {
            Some(b) => b,
            None => return Response::json_status(400, "{\"error\":\"body is not UTF-8\"}"),
        };
        let (plan_request, budget) = match parse_fleet_plan_body(body) {
            Ok(parsed) => parsed,
            Err(msg) => {
                return Response::json_status(
                    400,
                    Value::object([("error", Value::from(msg))]).to_json(),
                )
            }
        };
        let fleet = Arc::clone(&self.fleet);
        let id = self.jobs.submit(move || {
            let plan = fleet.plan_fleet(&plan_request, budget);
            // Fleet plan jobs burn their own error budget: any topology
            // failing to plan counts as a bad event.
            caladrius_obs::global_slos()
                .objective("fleet-plan-jobs", caladrius_obs::SloConfig::default())
                .record(plan.errors() == 0);
            Ok(fleet_plan_to_json(&plan))
        });
        Response::json_status(
            202,
            Value::object([
                ("job_id", Value::from(id as f64)),
                ("poll", Value::from(format!("/fleet/jobs/{id}"))),
            ])
            .to_json(),
        )
    }

    /// `GET /fleet/health` — per-shard snapshot.
    fn health(&self) -> Response {
        let health = self.fleet.health();
        let shards = health
            .shards
            .iter()
            .map(|s| {
                Value::object([
                    ("shard", Value::from(s.shard as f64)),
                    ("topologies", Value::from(s.topologies as f64)),
                    ("cache_hits", Value::from(s.model_cache.hits as f64)),
                    ("cache_misses", Value::from(s.model_cache.misses as f64)),
                    ("model_fits", Value::from(s.model_cache.fits as f64)),
                    (
                        "model_fits_incremental",
                        Value::from(s.model_cache.incremental_fits as f64),
                    ),
                    (
                        "model_fits_full",
                        Value::from(s.model_cache.full_fits as f64),
                    ),
                    ("plans", Value::from(s.model_cache.plans as f64)),
                    ("plan_cache_hits", Value::from(s.plan_cache.hits as f64)),
                    ("plan_cache_misses", Value::from(s.plan_cache.misses as f64)),
                    (
                        "plan_warm_starts",
                        Value::from(s.plan_cache.warm_starts as f64),
                    ),
                    (
                        "plan_cache_evictions",
                        Value::from(s.plan_cache.evictions as f64),
                    ),
                    ("ingest_batches", Value::from(s.ingest.batches as f64)),
                    ("ingest_samples", Value::from(s.ingest.samples as f64)),
                    ("routed_batches", Value::from(s.routed_batches as f64)),
                ])
            })
            .collect();
        Response::json(
            Value::object([
                ("status", Value::from("ok")),
                ("topologies", Value::from(health.topologies as f64)),
                ("shards", Value::Array(shards)),
            ])
            .to_json(),
        )
    }
}

/// Parses a `POST /fleet/plan` body: the single-topology planner knobs
/// (`traffic_model`, `conservative`, `horizon_minutes`, ...) via the
/// API tier's parser, plus the fleet-only `"budget"` (containers,
/// overriding the configured cluster budget).
fn parse_fleet_plan_body(body: &str) -> Result<(CapacityPlanRequest, Option<u32>), String> {
    let request = caladrius_api::routes::parse_plan_body(body)?;
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
        (
            "demand",
            Value::Array(
                outcome
                    .demand
                    .iter()
                    .map(|d| Value::from(f64::from(*d)))
                    .collect(),
            ),
        ),
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
pub fn fleet_plan_to_json(plan: &FleetPlan) -> Value {
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

    fn request(method: &str, path: &str, body: &str, headers: &[(&str, &str)]) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: BTreeMap::new(),
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
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
    fn fleet_routes_dispatch() {
        let service = empty_service();
        let health = service.handle(request("GET", "/fleet/health", "", &[]));
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
            service
                .handle(request("GET", "/fleet/plan", "", &[]))
                .status,
            405
        );
        assert_eq!(service.handle(request("GET", "/nope", "", &[])).status, 404);
        assert_eq!(
            service
                .handle(request("GET", "/fleet/jobs/zero", "", &[]))
                .status,
            400
        );
        assert_eq!(
            service
                .handle(request("GET", "/fleet/jobs/17", "", &[]))
                .status,
            404
        );
        let metrics = service.handle(request("GET", "/metrics/service", "", &[]));
        assert_eq!(metrics.status, 200);
        // The scrape re-evaluates SLOs first, so the health request's
        // objective already has burn-rate gauges.
        let body = String::from_utf8(metrics.body).unwrap();
        assert!(
            body.lines().any(|l| l
                .starts_with("caladrius_slo_burn_rate{objective=\"route:/fleet/health\"")),
            "no burn-rate gauge in fleet scrape"
        );
    }

    #[test]
    fn plan_jobs_run_async_even_on_an_empty_fleet() {
        let service = empty_service();
        let accepted = service.handle(request("POST", "/fleet/plan", "{}", &[]));
        assert_eq!(accepted.status, 202, "{:?}", accepted.body);
        let body = String::from_utf8(accepted.body).unwrap();
        let id = caladrius_api::json::parse(&body)
            .unwrap()
            .get("job_id")
            .and_then(Value::as_f64)
            .expect("job id") as u64;
        service.jobs().wait(id).expect("job exists");
        // Poll through the front door: the shared job renderer reports
        // the result and the same timing fields as the API tier's
        // `/jobs/{id}`.
        let polled = service.handle(request("GET", &format!("/fleet/jobs/{id}"), "", &[]));
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

    #[test]
    fn low_priority_fleet_plans_shed_under_pressure() {
        let service = FleetService::with_admission(
            Arc::new(Fleet::new(crate::fleet::FleetConfig::default())),
            1,
            AdmissionConfig {
                enabled: true,
                slo_p99_seconds: -1.0, // any recorded latency sheds
                retry_after_seconds: 5,
                ..AdmissionConfig::default()
            },
        );
        // Prime the route histogram with a high-priority request.
        let primed = service.handle(request(
            "POST",
            "/fleet/plan",
            "{}",
            &[(PRIORITY_HEADER, "high")],
        ));
        assert_eq!(primed.status, 202);
        let shed = service.handle(request("POST", "/fleet/plan", "{}", &[]));
        assert_eq!(shed.status, 429);
        assert!(shed
            .headers
            .iter()
            .any(|(k, v)| k == "Retry-After" && v == "5"));
        // High priority still lands.
        let high = service.handle(request(
            "POST",
            "/fleet/plan",
            "{}",
            &[(PRIORITY_HEADER, "high")],
        ));
        assert_eq!(high.status, 202);
    }
}
