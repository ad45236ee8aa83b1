//! Caladrius's RESTful endpoints (paper §III-A) behind one front door,
//! [`FrontDoor`]. The door owns the only job runner and request
//! pipeline (request id, per-route counters, windowed latency, route
//! SLO, `http.request` span), and one route table. It is generic over
//! [`Tenants`], the seam by which a topology finds its modelling
//! service: one [`Caladrius`] ([`ApiService`]), or the shards of a fleet
//! (`caladrius_fleet::FleetService`). Every kind of tenants answers the
//! same routes:
//!
//! | Method | Path | Purpose |
//! |---|---|---|
//! | GET  | `/health` | liveness (the body comes from [`Tenants::health`]) |
//! | GET  | `/topologies` | known topologies |
//! | GET  | `/model/traffic/heron/{topology}?models=a,b` | traffic forecast |
//! | POST | `/model/topology/heron/{topology}` | performance evaluation (dry-run update) |
//! | POST | `/model/topology/heron/{topology}?async=true` | as above, `202` + job id |
//! | GET  | `/model/packing/heron/{topology}?containers=N&parallelism=c:p,...` | packing-plan assessment (graph calculation interface) |
//! | GET  | `/metrics/heron/{topology}?q=<selector>` | raw metric series (selector grammar: `name{tag=value,...}`) |
//! | POST | `/topology/{topology}/plan` | horizon capacity plan, `202` + job id |
//! | GET  | `/jobs/{id}` | poll an asynchronous job |
//! | GET  | `/metrics/service` | service-wide metrics, Prometheus text format |
//! | GET  | `/trace/recent?limit=N&request_id=...` | recent spans from the trace ring, JSON |
//! | GET  | `/slo/status` | burn-rate evaluation of every SLO objective |
//! | GET  | `/debug/flight` | flight-recorder dump (snapshots, SLO transitions) |
//!
//! A kind of tenants may mount routes of its own through
//! [`Tenants::route`] (the fleet's `/fleet/plan`), built from the door's
//! [`FrontDoor::job_status`] and [`FrontDoor::submit_job`].

use crate::http::{Handler, Request, Response};
use crate::jobs::{JobRunner, JobState};
use crate::json::{self, Value};
use caladrius_core::capacity::CapacityPlanRequest;
use caladrius_core::error::CoreError;
use caladrius_core::service::{EvaluationReport, SourceRateSpec};
use caladrius_core::traffic::TrafficForecast;
use caladrius_core::Caladrius;
use caladrius_obs::RequestScope;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// How a topology finds its modelling service: the one seam between
/// the front door and what stands behind it.
pub trait Tenants: Send + Sync + Sized + 'static {
    /// The service that answers for `topology`. It need not know the
    /// topology: an unknown one gets that service's own errors.
    fn service(&self, topology: &str) -> &Caladrius;

    /// Every known topology id (`GET /topologies`).
    fn topologies(&self) -> Vec<String>;

    /// The `GET /health` body; `jobs` is the door's job runner.
    fn health(&self, jobs: &JobRunner) -> Value;

    /// Routes of this kind of tenants, tried after the door's own table
    /// and before the shared observability routes. `None` declines.
    fn route(
        _door: &FrontDoor<Self>,
        _request: &Request,
        _segments: &[&str],
    ) -> Option<(&'static str, Response)> {
        None
    }
}

/// The HTTP front door: one route table and job runner over a set of
/// [`Tenants`].
pub struct FrontDoor<T> {
    tenants: Arc<T>,
    jobs: JobRunner,
}

/// The front door of a single Caladrius service.
pub type ApiService = FrontDoor<Caladrius>;

impl<T> std::fmt::Debug for FrontDoor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontDoor").finish_non_exhaustive()
    }
}

/// `{"error": message}` with `status`.
fn error_json(status: u16, message: &str) -> Response {
    Response::json_status(
        status,
        Value::object([("error", Value::from(message))]).to_json(),
    )
}

fn error_response(err: &CoreError) -> Response {
    let status = match err {
        CoreError::Unknown(_) | CoreError::UnknownModel(_) => 404,
        CoreError::InvalidRequest(_) | CoreError::Config(_) => 400,
        CoreError::NotEnoughObservations { .. } | CoreError::Unpredictable(_) => 422,
        CoreError::Substrate(_) => 500,
    };
    error_json(status, &err.to_string())
}

fn forecast_to_json(f: &TrafficForecast) -> Value {
    Value::object([
        ("model", Value::from(f.model.clone())),
        ("mean", Value::from(f.mean)),
        ("peak", Value::from(f.peak)),
        ("peak_upper", Value::from(f.peak_upper)),
        (
            "points",
            Value::Array(
                f.points
                    .iter()
                    .map(|p| {
                        Value::object([
                            ("ts", Value::from(p.ts as f64)),
                            ("yhat", Value::from(p.yhat)),
                            ("lower", Value::from(p.lower)),
                            ("upper", Value::from(p.upper)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A JSON object from a name → value map.
fn named<'a, V: Copy + Into<Value> + 'a>(
    map: impl IntoIterator<Item = (&'a String, &'a V)>,
) -> Value {
    Value::Object(
        map.into_iter()
            .map(|(k, v)| (k.clone(), (*v).into()))
            .collect(),
    )
}

fn report_to_json(report: &EvaluationReport) -> Value {
    let outputs = report
        .model_outputs
        .iter()
        .map(|o| {
            Value::object([
                ("model", Value::from(o.model.clone())),
                ("metrics", named(&o.metrics)),
                (
                    "notes",
                    Value::Array(o.notes.iter().map(|n| Value::from(n.clone())).collect()),
                ),
            ])
        })
        .collect();
    let components = report
        .prediction
        .per_component
        .iter()
        .map(|c| {
            Value::object([
                ("name", Value::from(c.name.clone())),
                ("parallelism", Value::from(c.parallelism)),
                ("source_rate", Value::from(c.source_rate)),
                ("input_rate", Value::from(c.input_rate)),
                ("output_rate", Value::from(c.output_rate)),
                ("saturated", Value::from(c.saturated)),
            ])
        })
        .collect();
    Value::object([
        ("topology", Value::from(report.topology.clone())),
        (
            "proposed_parallelisms",
            named(&report.proposed_parallelisms),
        ),
        ("source_rate", Value::from(report.source_rate)),
        (
            "sink_output_rate",
            Value::from(report.prediction.sink_output_rate),
        ),
        ("bottleneck", report.prediction.bottleneck.clone().into()),
        (
            "backpressure_risk",
            Value::from(format!("{:?}", report.risk).to_lowercase()),
        ),
        ("saturation_rate", report.saturation_rate.into()),
        ("cpu_by_component", named(&report.cpu_by_component)),
        ("components", Value::Array(components)),
        ("model_outputs", Value::Array(outputs)),
        (
            "traffic",
            report.traffic.as_ref().map(forecast_to_json).into(),
        ),
    ])
}

/// Parses the evaluation request body.
fn parse_evaluation_body(body: &str) -> Result<(HashMap<String, u32>, SourceRateSpec), String> {
    let value = if body.trim().is_empty() {
        Value::Object(Default::default())
    } else {
        json::parse(body).map_err(|e| e.to_string())?
    };
    // Bounded here, not only in `Caladrius::evaluate`, so an async
    // what-if above the bound is a 400 before any job exists.
    let bound = caladrius_planner::MAX_PARALLELISM;
    let mut parallelisms = HashMap::new();
    if let Some(map) = value.get("parallelism").and_then(Value::as_object) {
        for (k, v) in map {
            let p = v
                .as_f64()
                .filter(|p| (0.0..=f64::from(bound)).contains(p) && p.fract() == 0.0)
                .ok_or_else(|| {
                    format!("parallelism of {k:?} must be a whole number up to {bound}")
                })?;
            parallelisms.insert(k.clone(), p as u32);
        }
    }
    let source = match value.get("source_rate") {
        None => SourceRateSpec::Current,
        Some(Value::Number(rate)) => SourceRateSpec::Fixed(*rate),
        Some(Value::String(s)) if s == "current" => SourceRateSpec::Current,
        Some(v) => {
            if let Some(forecast) = v.get("forecast") {
                SourceRateSpec::Forecast {
                    model: forecast
                        .get("model")
                        .and_then(Value::as_str)
                        .map(String::from),
                    conservative: forecast
                        .get("conservative")
                        .and_then(Value::as_bool)
                        .unwrap_or(false),
                }
            } else {
                return Err(
                    "source_rate must be a number, \"current\" or {forecast: {...}}".into(),
                );
            }
        }
    };
    Ok((parallelisms, source))
}

/// Parses the capacity-plan request body into a
/// [`CapacityPlanRequest`]. Every field is optional; absent fields keep
/// the planner defaults. Public so the fleet's plan route shares one
/// body dialect with the single-topology route.
pub fn parse_plan_body(body: &str) -> Result<CapacityPlanRequest, String> {
    let value = if body.trim().is_empty() {
        Value::Object(Default::default())
    } else {
        json::parse(body).map_err(|e| e.to_string())?
    };
    let mut request = CapacityPlanRequest::default();
    if let Some(model) = value.get("traffic_model") {
        request.traffic_model = Some(
            model
                .as_str()
                .ok_or("traffic_model must be a string")?
                .to_string(),
        );
    }
    if let Some(v) = value.get("conservative") {
        request.conservative = v.as_bool().ok_or("conservative must be a boolean")?;
    }
    let number = |key: &str| -> Result<Option<f64>, String> {
        match value.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| format!("{key} must be a number")),
        }
    };
    let whole = |key: &str| -> Result<Option<u64>, String> {
        match number(key)? {
            None => Ok(None),
            Some(n) if n >= 1.0 && n.fract() == 0.0 => Ok(Some(n as u64)),
            Some(_) => Err(format!("{key} must be a positive whole number")),
        }
    };
    if let Some(headroom) = number("headroom")? {
        request.planner.headroom = headroom;
    }
    if let Some(cap) = number("cpu_utilization_cap")? {
        request.planner.cpu_utilization_cap = cap;
    }
    if let Some(minutes) = whole("window_minutes")? {
        request.planner.window_minutes = minutes;
    }
    if let Some(h) = whole("hysteresis_windows")? {
        request.planner.hysteresis_windows = h as usize;
    }
    if let Some(max_p) = whole("max_parallelism")? {
        request.planner.limits.max_parallelism = max_p.min(u64::from(u32::MAX)) as u32;
    }
    if let Some(budget) = whole("max_containers")? {
        request.planner.limits.max_containers = budget.min(u64::from(u32::MAX)) as u32;
    }
    request.planner.validate().map_err(|e| e.to_string())?;
    Ok(request)
}

fn action_to_json(action: &caladrius_planner::PlanAction) -> Value {
    use caladrius_planner::PlanAction;
    let (direction, component, from, to) = match action {
        PlanAction::ScaleUp {
            component,
            from,
            to,
        } => ("up", component, from, to),
        PlanAction::ScaleDown {
            component,
            from,
            to,
        } => ("down", component, from, to),
    };
    Value::object([
        ("direction", Value::from(direction)),
        ("component", Value::from(component.clone())),
        ("from", Value::from(*from)),
        ("to", Value::from(*to)),
    ])
}

fn cost_to_json(cost: &caladrius_planner::PlanCost) -> Value {
    Value::object([
        ("total_instances", Value::from(cost.total_instances)),
        ("total_cores", Value::from(cost.total_cores)),
        ("total_ram_mb", Value::from(cost.total_ram_mb as f64)),
        ("containers", Value::from(cost.containers)),
    ])
}

fn parallelisms_to_json(parallelisms: &[(String, u32)]) -> Value {
    named(parallelisms.iter().map(|(name, p)| (name, p)))
}

fn timeline_to_json(topology: &str, timeline: &caladrius_planner::PlanTimeline) -> Value {
    let windows = timeline
        .windows
        .iter()
        .map(|w| {
            Value::object([
                ("window", Value::from(w.window)),
                ("start_ts", Value::from(w.start_ts as f64)),
                ("end_ts", Value::from(w.end_ts as f64)),
                ("peak_rate", Value::from(w.peak_rate)),
                ("planned_rate", Value::from(w.planned_rate)),
                ("parallelisms", parallelisms_to_json(&w.parallelisms)),
                ("cost", cost_to_json(&w.cost)),
                ("saturation_rate", Value::from(w.saturation_rate)),
                (
                    "actions",
                    Value::Array(w.actions.iter().map(action_to_json).collect()),
                ),
            ])
        })
        .collect();
    Value::object([
        ("topology", Value::from(topology)),
        ("windows", Value::Array(windows)),
        (
            "peak_parallelisms",
            parallelisms_to_json(&timeline.peak_parallelisms),
        ),
        ("peak_cost", cost_to_json(&timeline.peak_cost)),
        ("oracle_evals", Value::from(timeline.oracle_evals as f64)),
    ])
}

/// A request slower than this many seconds counts against its route's
/// SLO objective.
const ROUTE_LATENCY_SLO_SECONDS: f64 = 2.0;

/// The `Retry-After` hint (seconds) on a `429` from the per-topology
/// job cap.
const KEY_CAP_RETRY_AFTER_SECONDS: u32 = 1;

/// Feeds the per-route SLO objective: a request is good when it neither
/// failed server-side nor took longer than
/// [`ROUTE_LATENCY_SLO_SECONDS`], so `/slo/status` covers every route.
fn record_route_slo(route: &str, status: u16, elapsed_secs: f64) {
    caladrius_obs::global_slos()
        .objective(
            &format!("route:{route}"),
            caladrius_obs::SloConfig::default(),
        )
        .record(status < 500 && elapsed_secs <= ROUTE_LATENCY_SLO_SECONDS);
}

/// `202 Accepted` for job `id`, polled at `/jobs/{id}`.
fn accepted(id: u64) -> Response {
    Response::json_status(
        202,
        Value::object([
            ("job_id", Value::from(id as f64)),
            ("poll", Value::from(format!("/jobs/{id}"))),
        ])
        .to_json(),
    )
}

/// A request's UTF-8 body through `parse`; `400` when either fails.
fn parse_body<P>(
    request: &Request,
    parse: impl FnOnce(&str) -> Result<P, String>,
) -> Result<P, Response> {
    let body = request
        .body_str()
        .ok_or_else(|| Response::json_status(400, "{\"error\":\"body is not UTF-8\"}"))?;
    parse(body).map_err(|msg| error_json(400, &msg))
}

/// The tail of the route table, for a request no other route matched:
/// the observability endpoints (`/metrics/service`, `/trace/recent`,
/// `/slo/status`, `/debug/flight`), `405` for another method on one of
/// those, `404` otherwise.
fn shared_route(request: &Request, segments: &[&str]) -> (&'static str, Response) {
    match (request.method.as_str(), segments) {
        ("GET", ["metrics", "service"]) => ("/metrics/service", service_metrics_response()),
        ("GET", ["trace", "recent"]) => ("/trace/recent", trace_recent_response(request)),
        ("GET", ["slo", "status"]) => ("/slo/status", slo_status_response()),
        ("GET", ["debug", "flight"]) => ("/debug/flight", flight_response()),
        (_, ["metrics", "service"])
        | (_, ["trace", ..])
        | (_, ["slo", ..])
        | (_, ["debug", "flight"]) => (
            "method_not_allowed",
            Response::json_status(405, "{\"error\":\"method not allowed\"}"),
        ),
        _ => (
            "unmatched",
            Response::json_status(404, "{\"error\":\"no such endpoint\"}"),
        ),
    }
}

/// `GET /metrics/service`: every registered metric in Prometheus text
/// exposition format. SLO burn-rate gauges are re-evaluated first so
/// the scrape never reports stale burn rates.
fn service_metrics_response() -> Response {
    caladrius_obs::evaluate_slos();
    Response {
        status: 200,
        content_type: caladrius_obs::PROMETHEUS_CONTENT_TYPE.into(),
        body: caladrius_obs::render_prometheus(caladrius_obs::global_registry()).into_bytes(),
        headers: Vec::new(),
    }
}

/// `GET /trace/recent?limit=N&request_id=...`: newest spans first,
/// `limit` clamped to the ring capacity, optionally filtered to one
/// request id.
fn trace_recent_response(request: &Request) -> Response {
    let tracer = caladrius_obs::tracer();
    let limit = match request.query.get("limit") {
        None => 100,
        Some(v) => match v.parse::<usize>() {
            // An oversized limit cannot return more than the ring holds;
            // clamp instead of letting callers size allocations.
            Ok(n) => n.min(tracer.capacity()),
            Err(_) => {
                return Response::json_status(
                    400,
                    "{\"error\":\"limit must be a non-negative integer\"}",
                )
            }
        },
    };
    let request_id = match request.query.get("request_id") {
        None => None,
        Some(raw) => match caladrius_obs::RequestId::parse(raw) {
            Some(id) => Some(id),
            None => {
                return Response::json_status(
                    400,
                    "{\"error\":\"request_id must be a hex or decimal id\"}",
                )
            }
        },
    };
    let events = tracer
        .recent_filtered(limit, request_id)
        .into_iter()
        .map(|e| {
            Value::object([
                ("seq", Value::from(e.seq as f64)),
                ("ts_unix_ms", Value::from(e.ts_unix_ms as f64)),
                ("name", Value::from(e.name.clone())),
                ("duration_us", Value::from(e.duration_us as f64)),
                ("request_id", e.request_id.map(|id| id.to_string()).into()),
                ("span_id", Value::from(e.span_id as f64)),
                (
                    "parent_span_id",
                    e.parent_span_id.map(|id| id as f64).into(),
                ),
                (
                    "fields",
                    Value::Object(
                        e.fields
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::from(v.clone())))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Response::json(Value::object([("events", Value::Array(events))]).to_json())
}

fn slo_status_to_json(status: &caladrius_obs::SloStatus) -> Value {
    Value::object([
        ("name", Value::from(status.name.clone())),
        ("target", Value::from(status.target)),
        ("state", Value::from(status.state.as_str())),
        ("fast_burn_rate", Value::from(status.fast_burn)),
        ("slow_burn_rate", Value::from(status.slow_burn)),
        (
            "fast_window_seconds",
            Value::from(status.fast_window_secs as f64),
        ),
        (
            "slow_window_seconds",
            Value::from(status.slow_window_secs as f64),
        ),
        ("good", Value::from(status.good as f64)),
        ("bad", Value::from(status.bad as f64)),
    ])
}

/// `GET /slo/status`: evaluates every registered objective (also
/// refreshing the burn-rate gauges and flight-recorder transitions) and
/// reports the multi-window verdicts.
fn slo_status_response() -> Response {
    let (statuses, firing, warning) = evaluated_slos();
    let body = Value::object([
        ("firing", Value::from(firing)),
        ("warning", Value::from(warning)),
        (
            "objectives",
            Value::Array(statuses.iter().map(slo_status_to_json).collect()),
        ),
    ]);
    Response::json(body.to_json())
}

/// Evaluates every SLO objective: the statuses, and how many of them
/// fire and warn.
fn evaluated_slos() -> (Vec<caladrius_obs::SloStatus>, f64, f64) {
    let statuses = caladrius_obs::evaluate_slos();
    let count = |state: caladrius_obs::SloState| {
        statuses.iter().filter(|s| s.state == state).count() as f64
    };
    let (firing, warning) = (
        count(caladrius_obs::SloState::Firing),
        count(caladrius_obs::SloState::Warning),
    );
    (statuses, firing, warning)
}

/// A JSON object of counters.
fn counters<const N: usize>(entries: [(&'static str, u64); N]) -> Value {
    Value::object(entries.map(|(name, count)| (name, Value::from(count as f64))))
}

fn labels_to_json(labels: &[(String, String)]) -> Value {
    Value::Object(
        labels
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(v.clone())))
            .collect(),
    )
}

/// `GET /debug/flight`: dumps the flight recorder's retained snapshots
/// and SLO transitions. Takes a snapshot first when due
/// (or when none exists yet) so the dump is never empty.
fn flight_response() -> Response {
    let flight = caladrius_obs::global_flight();
    let registry = caladrius_obs::global_registry();
    if !flight.maybe_snapshot(registry) && flight.snapshot_count() == 0 {
        flight.force_snapshot(registry);
    }
    let snapshots = flight
        .snapshots()
        .into_iter()
        .map(|s| {
            Value::object([
                ("ts_unix_ms", Value::from(s.ts_unix_ms as f64)),
                ("uptime_secs", Value::from(s.uptime_secs as f64)),
                (
                    "samples",
                    Value::Array(
                        s.samples
                            .iter()
                            .map(|sample| {
                                Value::object([
                                    ("name", Value::from(sample.name.clone())),
                                    ("labels", labels_to_json(&sample.labels)),
                                    ("value", Value::from(sample.value)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let transitions = flight
        .transitions()
        .into_iter()
        .map(|t| {
            Value::object([
                ("ts_unix_ms", Value::from(t.ts_unix_ms as f64)),
                ("objective", Value::from(t.objective.clone())),
                ("from", Value::from(t.from.as_str())),
                ("to", Value::from(t.to.as_str())),
                ("fast_burn_rate", Value::from(t.fast_burn)),
                ("slow_burn_rate", Value::from(t.slow_burn)),
            ])
        })
        .collect();
    let body = Value::object([
        ("snapshots", Value::Array(snapshots)),
        ("slo_transitions", Value::Array(transitions)),
    ]);
    Response::json(body.to_json())
}

impl<T: Tenants> FrontDoor<T> {
    /// A front door with `job_workers` asynchronous workers.
    pub fn new(tenants: Arc<T>, job_workers: usize) -> Arc<Self> {
        Self::with_parts(tenants, JobRunner::new(job_workers))
    }

    /// A front door over a caller-built job runner (per-key caps,
    /// capacity).
    pub fn with_parts(tenants: Arc<T>, jobs: JobRunner) -> Arc<Self> {
        let registry = caladrius_obs::global_registry();
        registry.describe(
            "caladrius_http_requests_total",
            "HTTP requests by route pattern, method and status",
        );
        registry.describe(
            "caladrius_http_request_duration_seconds",
            "HTTP request handling time by route pattern (cumulative rows plus recent-window quantile gauges)",
        );
        registry.describe(
            caladrius_obs::BURN_RATE_METRIC,
            "SLO error-budget burn rate by objective and evaluation window",
        );
        Arc::new(Self { tenants, jobs })
    }

    /// The tenants behind the door.
    pub fn tenants(&self) -> &Arc<T> {
        &self.tenants
    }

    /// The async job runner.
    pub fn jobs(&self) -> &JobRunner {
        &self.jobs
    }

    /// A handler suitable for [`crate::http::HttpServer::serve`].
    pub fn handler(self: &Arc<Self>) -> Handler {
        let service = Arc::clone(self);
        Arc::new(move |request| service.handle(request))
    }

    /// Routes one request (usable directly in tests, no sockets
    /// needed). Installs the request id (from `x-request-id`, minting
    /// one for hand-built requests) while the route runs, so every span
    /// recorded below attributes to this request, and records the
    /// per-route counter, recent-window latency histogram, route SLO and
    /// an `http.request` span, all labelled with the normalized route
    /// pattern.
    pub fn handle(&self, request: Request) -> Response {
        let request_id = request
            .request_id()
            .unwrap_or_else(caladrius_obs::next_request_id);
        let _request_scope = RequestScope::enter(request_id);
        let started = Instant::now();
        let mut span = caladrius_obs::global_span("http.request");
        let (route, response) = self.route(&request);
        span.field("route", route)
            .field("method", &request.method)
            .field("status", response.status);
        let registry = caladrius_obs::global_registry();
        let status = response.status.to_string();
        registry
            .counter(
                "caladrius_http_requests_total",
                &[
                    ("route", route),
                    ("method", &request.method),
                    ("status", &status),
                ],
            )
            .inc();
        registry
            .windowed_histogram(
                "caladrius_http_request_duration_seconds",
                &[("route", route)],
            )
            .record_duration(started.elapsed());
        record_route_slo(route, response.status, started.elapsed().as_secs_f64());
        caladrius_obs::global_flight().maybe_snapshot(registry);
        response
    }

    /// Dispatches to a route handler, returning the normalized route
    /// pattern (the metric label) alongside the response.
    fn route(&self, request: &Request) -> (&'static str, Response) {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["health"]) => (
                "/health",
                Response::json(self.tenants.health(&self.jobs).to_json()),
            ),
            ("GET", ["topologies"]) => {
                let names = self.tenants.topologies();
                let body = Value::object([(
                    "topologies",
                    Value::Array(names.into_iter().map(Value::from).collect()),
                )]);
                ("/topologies", Response::json(body.to_json()))
            }
            ("GET", ["model", "traffic", "heron", topology]) => (
                "/model/traffic/heron/{topology}",
                self.traffic(topology, request),
            ),
            ("POST", ["model", "topology", "heron", topology]) => (
                "/model/topology/heron/{topology}",
                self.evaluate(topology, request),
            ),
            ("GET", ["model", "packing", "heron", topology]) => (
                "/model/packing/heron/{topology}",
                self.packing(topology, request),
            ),
            ("GET", ["metrics", "heron", topology]) => {
                ("/metrics/heron/{topology}", self.metrics(topology, request))
            }
            ("POST", ["topology", topology, "plan"]) => {
                ("/topology/{topology}/plan", self.plan(topology, request))
            }
            ("GET", ["jobs", id]) => ("/jobs/{id}", self.job_status(id)),
            (_, ["model", ..])
            | (_, ["jobs", ..])
            | (_, ["topology", _, "plan"])
            | (_, ["health"])
            | (_, ["topologies"]) => (
                "method_not_allowed",
                Response::json_status(405, "{\"error\":\"method not allowed\"}"),
            ),
            _ => T::route(self, request, &segments)
                .unwrap_or_else(|| shared_route(request, &segments)),
        }
    }

    /// Polls job `id` (a path segment): its state, its result or error
    /// once finished, and its timing milestones.
    pub fn job_status(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::json_status(400, "{\"error\":\"job id must be an integer\"}");
        };
        let (status, mut fields) = match self.jobs.state(id) {
            None => return Response::json_status(404, "{\"error\":\"no such job\"}"),
            Some(JobState::Pending) => (202, vec![("state", Value::from("pending"))]),
            Some(JobState::Done(result)) => (
                200,
                vec![("state", Value::from("done")), ("result", result)],
            ),
            Some(JobState::Failed(message)) => (
                200,
                vec![
                    ("state", Value::from("failed")),
                    ("error", Value::from(message)),
                ],
            ),
        };
        if let Some(timing) = self.jobs.timing(id) {
            fields.push(("queued_ms", Value::from(timing.queued_unix_ms as f64)));
            fields.push(("started_ms", Value::from(timing.started_unix_ms)));
            fields.push(("finished_ms", Value::from(timing.finished_unix_ms)));
            fields.push(("queue_wait_ms", Value::from(timing.queue_wait_ms())));
            fields.push(("duration_ms", Value::from(timing.duration_ms())));
        }
        Response::json_status(status, Value::object(fields).to_json())
    }

    /// An asynchronous route. The UTF-8 body goes through `parse`, and
    /// `job` runs on a worker with the tenants and the parsed body. With
    /// a `key`, keyed submission caps that key's unfinished jobs; a
    /// refusal is `429` with `Retry-After`. A bad body is `400`; an
    /// accepted job is `202`, polled at `/jobs/{id}`.
    pub fn submit_job<P: Send + 'static>(
        &self,
        request: &Request,
        key: Option<&str>,
        parse: impl FnOnce(&str) -> Result<P, String>,
        job: impl FnOnce(&T, P) -> Result<Value, String> + Send + 'static,
    ) -> Response {
        let parsed = match parse_body(request, parse) {
            Ok(parsed) => parsed,
            Err(response) => return response,
        };
        let tenants = Arc::clone(&self.tenants);
        let task = move || job(&tenants, parsed);
        let id = match key {
            None => self.jobs.submit(task),
            Some(key) => match self.jobs.submit_keyed(key, task) {
                Ok(id) => id,
                Err(rejected) => {
                    return error_json(429, &rejected.to_string())
                        .with_header("Retry-After", KEY_CAP_RETRY_AFTER_SECONDS.to_string())
                }
            },
        };
        accepted(id)
    }

    fn traffic(&self, topology: &str, request: &Request) -> Response {
        let models: Option<Vec<String>> = request
            .query
            .get("models")
            .map(|csv| csv.split(',').map(|s| s.trim().to_string()).collect());
        match self
            .tenants
            .service(topology)
            .forecast_traffic(topology, models.as_deref())
        {
            Ok(forecasts) => Response::json(
                Value::object([
                    ("topology", Value::from(topology)),
                    (
                        "forecasts",
                        Value::Array(forecasts.iter().map(forecast_to_json).collect()),
                    ),
                ])
                .to_json(),
            ),
            Err(e) => error_response(&e),
        }
    }

    fn evaluate(&self, topology: &str, request: &Request) -> Response {
        let (parallelisms, source) = match parse_body(request, parse_evaluation_body) {
            Ok(parsed) => parsed,
            Err(response) => return response,
        };
        let is_async = request.query.get("async").map(String::as_str) == Some("true");
        if is_async {
            let tenants = Arc::clone(&self.tenants);
            let topology = topology.to_string();
            let id = self.jobs.submit(move || {
                tenants
                    .service(&topology)
                    .evaluate(&topology, &parallelisms, &source)
                    .map(|report| report_to_json(&report))
                    .map_err(|e| e.to_string())
            });
            return accepted(id);
        }
        match self
            .tenants
            .service(topology)
            .evaluate(topology, &parallelisms, &source)
        {
            Ok(report) => Response::json(report_to_json(&report).to_json()),
            Err(e) => error_response(&e),
        }
    }

    /// `GET /model/packing/heron/{t}?containers=4&parallelism=splitter:6,counter:4`
    /// — the paper's graph calculation interface for proposed packing
    /// plans (§III-C1).
    fn packing(&self, topology: &str, request: &Request) -> Response {
        let containers = match request.query.get("containers").map(|v| v.parse::<usize>()) {
            None => 4,
            Some(Ok(n)) => n,
            Some(Err(_)) => {
                return Response::json_status(400, "{\"error\":\"containers must be an integer\"}")
            }
        };
        let mut proposed = HashMap::new();
        if let Some(spec) = request.query.get("parallelism") {
            for pair in spec.split(',').filter(|p| !p.is_empty()) {
                let Some((component, p)) = pair.split_once(':') else {
                    return Response::json_status(
                        400,
                        "{\"error\":\"parallelism must be component:count pairs\"}",
                    );
                };
                let Ok(p) = p.trim().parse::<u32>() else {
                    return Response::json_status(
                        400,
                        "{\"error\":\"parallelism counts must be integers\"}",
                    );
                };
                proposed.insert(component.trim().to_string(), p);
            }
        }
        match self
            .tenants
            .service(topology)
            .packing_overview(topology, &proposed, containers)
        {
            Ok(overview) => Response::json(
                Value::object([
                    ("topology", Value::from(topology)),
                    ("containers", Value::from(overview.containers)),
                    ("total_instances", Value::from(overview.total_instances)),
                    (
                        "max_instances_per_container",
                        Value::from(overview.max_instances_per_container),
                    ),
                    ("balance_stddev", Value::from(overview.balance_stddev)),
                    (
                        "remote_pair_fraction",
                        Value::from(overview.remote_pair_fraction),
                    ),
                    (
                        "instance_paths",
                        Value::from(overview.instance_paths as f64),
                    ),
                ])
                .to_json(),
            ),
            Err(e) => error_response(&e),
        }
    }

    /// `GET /metrics/heron/{t}?q=<selector>[&from=ms][&to=ms]` — raw
    /// series access through the metrics interface, using the compact
    /// selector grammar (`name{tag=value,...}`).
    fn metrics(&self, topology: &str, request: &Request) -> Response {
        let Some(selector) = request.query.get("q") else {
            return Response::json_status(400, "{\"error\":\"missing q=<selector>\"}");
        };
        let (name, filters) = match caladrius_tsdb::query::parse_selector(selector) {
            Ok(parsed) => parsed,
            Err(msg) => return error_json(400, &msg),
        };
        let parse_ts = |key: &str, default: i64| -> Result<i64, Response> {
            match request.query.get(key) {
                None => Ok(default),
                Some(v) => v.parse().map_err(|_| {
                    error_json(400, &format!("{key} must be a millisecond timestamp"))
                }),
            }
        };
        let (from, to) = match (parse_ts("from", 0), parse_ts("to", i64::MAX)) {
            (Ok(from), Ok(to)) => (from, to),
            (Err(response), _) | (_, Err(response)) => return response,
        };
        match self
            .tenants
            .service(topology)
            .metrics_provider()
            .select_series(topology, &name, &filters, from, to)
        {
            Ok(rows) => {
                let series = rows
                    .into_iter()
                    .map(|(key, samples)| {
                        Value::object([
                            ("series", Value::from(key.to_string())),
                            (
                                "samples",
                                Value::Array(
                                    samples
                                        .into_iter()
                                        .map(|s| {
                                            Value::Array(vec![
                                                Value::from(s.ts as f64),
                                                Value::from(s.value),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                Response::json(
                    Value::object([
                        ("metric", Value::from(name)),
                        ("series", Value::Array(series)),
                    ])
                    .to_json(),
                )
            }
            Err(e) => error_response(&e),
        }
    }

    /// `POST /topology/{t}/plan` — horizon capacity planning. Plan
    /// searches forecast and probe the models across the whole horizon,
    /// so the work always runs asynchronously through the job store,
    /// keyed by topology so one tenant cannot hold every worker (see
    /// [`Self::submit_job`]).
    fn plan(&self, topology: &str, request: &Request) -> Response {
        let owned = topology.to_string();
        self.submit_job(
            request,
            Some(topology),
            parse_plan_body,
            move |tenants, plan_request| {
                let outcome = tenants.service(&owned).plan_capacity(&owned, &plan_request);
                // Plan jobs carry their own SLO objective: a failed plan
                // burns error budget even though the HTTP 202 already
                // succeeded.
                caladrius_obs::global_slos()
                    .objective("plan-jobs", caladrius_obs::SloConfig::default())
                    .record(outcome.is_ok());
                outcome
                    .map(|timeline| timeline_to_json(&owned, &timeline))
                    .map_err(|e| e.to_string())
            },
        )
    }
}

impl FrontDoor<Caladrius> {
    /// The wrapped core service.
    pub fn caladrius(&self) -> &Arc<Caladrius> {
        &self.tenants
    }
}

impl Tenants for Caladrius {
    #[inline]
    fn service(&self, _topology: &str) -> &Caladrius {
        self
    }

    fn topologies(&self) -> Vec<String> {
        self.topologies()
    }

    /// Liveness plus data-plane observability. A thin view over the obs
    /// layer: the model-cache and ingest counters are `caladrius-obs`
    /// handles read back through the service and provider tiers, so this
    /// JSON and `/metrics/service` are two projections of the same
    /// registry. Field names are a stable contract (see the
    /// `health_shape_is_stable` regression test).
    fn health(&self, jobs: &JobRunner) -> Value {
        let cache = self.model_cache_stats();
        let plan_cache = self.plan_cache_stats();
        let (statuses, firing, warning) = evaluated_slos();
        let mut fields = vec![
            ("status", Value::from("ok")),
            (
                "model_cache",
                counters([
                    ("hits", cache.hits),
                    ("misses", cache.misses),
                    ("fits", cache.fits),
                    ("incremental_fits", cache.incremental_fits),
                    ("full_fits", cache.full_fits),
                    ("plans", cache.plans),
                    ("plan_evals", cache.plan_evals),
                    ("oracle_hits", cache.oracle_hits),
                    ("oracle_misses", cache.oracle_misses),
                ]),
            ),
            (
                "plan_cache",
                counters([
                    ("hits", plan_cache.hits),
                    ("misses", plan_cache.misses),
                    ("warm_starts", plan_cache.warm_starts),
                    ("evictions", plan_cache.evictions),
                ]),
            ),
            ("jobs_tracked", Value::from(jobs.len() as f64)),
            (
                "slo",
                Value::object([
                    ("objectives", Value::from(statuses.len() as f64)),
                    ("firing", Value::from(firing)),
                    ("warning", Value::from(warning)),
                ]),
            ),
        ];
        if let Some(ingest) = self.metrics_provider().ingest_stats() {
            fields.push((
                "ingest",
                counters([("batches", ingest.batches), ("samples", ingest.samples)]),
            ));
        }
        Value::object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpClient, HttpServer};
    use caladrius_core::providers::metrics::SimMetricsProvider;
    use caladrius_core::providers::tracker::StaticTracker;
    use caladrius_workload::wordcount::{wordcount_topology, WordCountParallelism};
    use heron_sim::engine::{SimConfig, Simulation};
    use std::collections::BTreeMap;

    fn caladrius() -> Arc<Caladrius> {
        let parallelism = WordCountParallelism {
            spout: 8,
            splitter: 2,
            counter: 3,
        };
        let metrics = heron_sim::metrics::SimMetrics::new("wordcount");
        for (leg, rate) in [6.0e6, 12.0e6, 18.0e6, 26.0e6].into_iter().enumerate() {
            let topo = wordcount_topology(parallelism, rate);
            let mut sim = Simulation::new(
                topo,
                SimConfig {
                    metric_noise: 0.0,
                    ..SimConfig::default()
                },
            )
            .unwrap();
            sim.skip_to_minute(leg as u64 * 60);
            sim.warmup_minutes(25);
            sim.run_minutes_into(10, &metrics);
        }
        let tracker = StaticTracker::new().with(wordcount_topology(parallelism, 20.0e6));
        Arc::new(Caladrius::new(
            Arc::new(SimMetricsProvider::new(metrics)),
            Arc::new(tracker),
        ))
    }

    fn service() -> Arc<ApiService> {
        ApiService::new(caladrius(), 2)
    }

    fn get(service: &ApiService, target: &str) -> Response {
        let (path, query) = crate::http::parse_target(target);
        service.handle(Request {
            method: "GET".into(),
            path,
            query,
            headers: BTreeMap::new(),
            body: Vec::new(),
        })
    }

    fn post(service: &ApiService, target: &str, body: &str) -> Response {
        let (path, query) = crate::http::parse_target(target);
        service.handle(Request {
            method: "POST".into(),
            path,
            query,
            headers: BTreeMap::new(),
            body: body.as_bytes().to_vec(),
        })
    }

    fn body_json(response: &Response) -> Value {
        json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap()
    }

    #[test]
    fn health_and_topologies() {
        let s = service();
        let r = get(&s, "/health");
        assert_eq!(r.status, 200);
        let v = body_json(&r);
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        let cache = v.get("model_cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_f64(), Some(0.0));
        assert_eq!(cache.get("fits").unwrap().as_f64(), Some(0.0));
        // The sim-backed provider exposes ingest counters: one batch per
        // recorded minute, many samples each.
        let ingest = v.get("ingest").unwrap();
        assert!(ingest.get("batches").unwrap().as_f64().unwrap() > 0.0);
        assert!(
            ingest.get("samples").unwrap().as_f64().unwrap()
                > ingest.get("batches").unwrap().as_f64().unwrap()
        );
        let r = get(&s, "/topologies");
        let v = body_json(&r);
        assert_eq!(
            v.get("topologies").unwrap().as_array().unwrap()[0].as_str(),
            Some("wordcount")
        );
    }

    #[test]
    fn traffic_endpoint_returns_forecasts() {
        let s = service();
        let r = get(&s, "/model/traffic/heron/wordcount?models=stats_summary");
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        let v = body_json(&r);
        let forecasts = v.get("forecasts").unwrap().as_array().unwrap();
        assert_eq!(forecasts.len(), 1);
        assert_eq!(
            forecasts[0].get("model").unwrap().as_str(),
            Some("stats_summary")
        );
        assert!(forecasts[0].get("mean").unwrap().as_f64().unwrap() > 0.0);
        assert!(!forecasts[0]
            .get("points")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn traffic_endpoint_unknown_topology_404() {
        let s = service();
        let r = get(&s, "/model/traffic/heron/ghost");
        assert_eq!(r.status, 404);
    }

    #[test]
    fn evaluation_endpoint_dry_run() {
        let s = service();
        let r = post(
            &s,
            "/model/topology/heron/wordcount",
            r#"{"parallelism": {"splitter": 4}, "source_rate": 30000000}"#,
        );
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        let v = body_json(&r);
        assert_eq!(v.get("backpressure_risk").unwrap().as_str(), Some("low"));
        assert_eq!(v.get("bottleneck"), Some(&Value::Null));
        let sink = v.get("sink_output_rate").unwrap().as_f64().unwrap();
        assert!(
            (sink - 30.0e6 * 7.63).abs() / (30.0e6 * 7.63) < 0.1,
            "sink {sink}"
        );
        // And without the scale-up the same rate is high risk.
        let r = post(
            &s,
            "/model/topology/heron/wordcount",
            r#"{"source_rate": 30000000}"#,
        );
        let v = body_json(&r);
        assert_eq!(v.get("backpressure_risk").unwrap().as_str(), Some("high"));
        assert_eq!(v.get("bottleneck").unwrap().as_str(), Some("splitter"));
    }

    #[test]
    fn evaluation_endpoint_validates_body() {
        let s = service();
        let r = post(&s, "/model/topology/heron/wordcount", "{not json");
        assert_eq!(r.status, 400);
        let r = post(
            &s,
            "/model/topology/heron/wordcount",
            r#"{"parallelism": {"splitter": 2.5}}"#,
        );
        assert_eq!(r.status, 400);
        // Above u32::MAX: refused, not saturated to 4,294,967,295.
        let r = post(
            &s,
            "/model/topology/heron/wordcount",
            r#"{"parallelism": {"splitter": 5e9}}"#,
        );
        assert_eq!(r.status, 400);
        let r = post(
            &s,
            "/model/topology/heron/wordcount",
            r#"{"source_rate": "weird"}"#,
        );
        assert_eq!(r.status, 400);
    }

    /// A what-if walks every proposed instance: one component above
    /// [`caladrius_planner::MAX_PARALLELISM`] is refused before any work.
    #[test]
    fn evaluation_parallelism_is_bounded() {
        let s = service();
        let with =
            |p: u32| format!(r#"{{"parallelism": {{"splitter": {p}}}, "source_rate": 1e7}}"#);
        let bound = caladrius_planner::MAX_PARALLELISM;
        let r = post(&s, "/model/topology/heron/wordcount", &with(bound + 1));
        assert_eq!(r.status, 400);
        let r = post(&s, "/model/topology/heron/wordcount", &with(bound));
        assert_eq!(r.status, 200);
        // Async: refused before a job exists, not accepted and failed.
        let jobs = s.jobs().len();
        let r = post(
            &s,
            "/model/topology/heron/wordcount?async=true",
            &with(bound + 1),
        );
        assert_eq!(r.status, 400);
        assert_eq!(s.jobs().len(), jobs, "a refused what-if queued a job");
        let r = post(
            &s,
            "/model/topology/heron/wordcount?async=true",
            &with(bound),
        );
        assert_eq!(r.status, 202);
        assert_eq!(s.jobs().len(), jobs + 1);
    }

    #[test]
    fn async_evaluation_and_polling() {
        let s = service();
        let r = post(
            &s,
            "/model/topology/heron/wordcount?async=true",
            r#"{"source_rate": 10000000}"#,
        );
        assert_eq!(r.status, 202);
        let v = body_json(&r);
        let id = v.get("job_id").unwrap().as_f64().unwrap() as u64;
        // Poll until done.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let r = get(&s, &format!("/jobs/{id}"));
            let v = body_json(&r);
            match v.get("state").unwrap().as_str() {
                Some("pending") => {
                    assert!(std::time::Instant::now() < deadline, "job never finished");
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Some("done") => {
                    let result = v.get("result").unwrap();
                    assert_eq!(
                        result.get("backpressure_risk").unwrap().as_str(),
                        Some("low")
                    );
                    break;
                }
                other => panic!("unexpected job state {other:?}"),
            }
        }
    }

    #[test]
    fn repeated_evaluations_hit_model_cache() {
        let s = service();
        let body = r#"{"source_rate": 10000000}"#;
        assert_eq!(
            post(&s, "/model/topology/heron/wordcount", body).status,
            200
        );
        let v = body_json(&get(&s, "/health"));
        let fits_after_first = v
            .get("model_cache")
            .unwrap()
            .get("fits")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(fits_after_first > 0.0);

        assert_eq!(
            post(&s, "/model/topology/heron/wordcount", body).status,
            200
        );
        let v = body_json(&get(&s, "/health"));
        let cache = v.get("model_cache").unwrap();
        assert_eq!(cache.get("fits").unwrap().as_f64(), Some(fits_after_first));
        assert!(cache.get("hits").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn plan_endpoint_runs_async_and_reports_counters() {
        let s = service();
        let r = post(
            &s,
            "/topology/wordcount/plan",
            r#"{"window_minutes": 15, "hysteresis_windows": 1, "max_parallelism": 32}"#,
        );
        assert_eq!(r.status, 202, "{}", String::from_utf8_lossy(&r.body));
        let v = body_json(&r);
        let id = v.get("job_id").unwrap().as_f64().unwrap() as u64;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let result = loop {
            let r = get(&s, &format!("/jobs/{id}"));
            let v = body_json(&r);
            match v.get("state").unwrap().as_str() {
                Some("pending") => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "plan job never finished"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Some("done") => break v.get("result").unwrap().clone(),
                Some("failed") => panic!("plan failed: {:?}", v.get("error")),
                other => panic!("unexpected job state {other:?}"),
            }
        };
        assert_eq!(result.get("topology").unwrap().as_str(), Some("wordcount"));
        let windows = result.get("windows").unwrap().as_array().unwrap();
        // Default 60-minute horizon in 15-minute windows.
        assert_eq!(windows.len(), 4);
        for w in windows {
            let parallelisms = w.get("parallelisms").unwrap().as_object().unwrap();
            assert!(parallelisms.contains_key("splitter"));
            assert!(parallelisms.contains_key("counter"));
            assert!(
                !parallelisms.contains_key("spout"),
                "spouts are not planned"
            );
            assert!(
                w.get("cost")
                    .unwrap()
                    .get("containers")
                    .unwrap()
                    .as_f64()
                    .unwrap()
                    >= 1.0
            );
        }
        assert!(result.get("oracle_evals").unwrap().as_f64().unwrap() > 0.0);
        assert!(result
            .get("peak_parallelisms")
            .unwrap()
            .as_object()
            .unwrap()
            .contains_key("splitter"));

        // Planner counters surface in /health.
        let v = body_json(&get(&s, "/health"));
        let cache = v.get("model_cache").unwrap();
        assert_eq!(cache.get("plans").unwrap().as_f64(), Some(1.0));
        assert!(cache.get("plan_evals").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn plan_endpoint_validates_requests() {
        let s = service();
        assert_eq!(
            post(&s, "/topology/wordcount/plan", "{not json").status,
            400
        );
        assert_eq!(
            post(&s, "/topology/wordcount/plan", r#"{"headroom": 0.5}"#).status,
            400
        );
        assert_eq!(
            post(&s, "/topology/wordcount/plan", r#"{"window_minutes": 2.5}"#).status,
            400
        );
        let bound = caladrius_planner::MAX_PARALLELISM;
        let with = |p: u32| format!(r#"{{"max_parallelism": {p}}}"#);
        assert_eq!(
            post(&s, "/topology/wordcount/plan", &with(bound + 1)).status,
            400
        );
        assert_eq!(
            post(&s, "/topology/wordcount/plan", &with(bound)).status,
            202
        );
        assert_eq!(get(&s, "/topology/wordcount/plan").status, 405);
        // An unknown topology surfaces as a failed job, not a routing
        // error (planning is always asynchronous).
        let r = post(&s, "/topology/ghost/plan", "");
        assert_eq!(r.status, 202);
        let id = body_json(&r).get("job_id").unwrap().as_f64().unwrap() as u64;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let v = body_json(&get(&s, &format!("/jobs/{id}")));
            match v.get("state").unwrap().as_str() {
                Some("pending") => {
                    assert!(std::time::Instant::now() < deadline, "job never finished");
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Some("failed") => break,
                other => panic!("expected failure for ghost topology, got {other:?}"),
            }
        }
    }

    /// Per-topology fairness at the route: with the single worker gated
    /// and the per-key cap at 1, a second plan for the same topology is
    /// refused with `429` + `Retry-After`.
    #[test]
    fn plan_requests_hit_per_topology_cap() {
        let s = ApiService::with_parts(
            caladrius(),
            crate::jobs::JobRunner::new(1).with_per_key_cap(1),
        );
        let (gate_tx, gate_rx) = crossbeam::channel::unbounded::<()>();
        s.jobs().submit(move || {
            gate_rx.recv().ok();
            Ok(Value::Null)
        });
        let r = post(&s, "/topology/wordcount/plan", "");
        assert_eq!(r.status, 202, "{}", String::from_utf8_lossy(&r.body));
        let r = post(&s, "/topology/wordcount/plan", "");
        assert_eq!(r.status, 429, "{}", String::from_utf8_lossy(&r.body));
        let retry_after: Vec<&str> = r
            .headers
            .iter()
            .filter(|(n, _)| n == "Retry-After")
            .map(|(_, v)| v.as_str())
            .collect();
        assert_eq!(retry_after, ["1"], "{:?}", r.headers);
        // A different topology is not starved by wordcount's backlog
        // (the job itself will fail — ghost is unknown — but submission
        // must be admitted).
        let r = post(&s, "/topology/ghost/plan", "");
        assert_eq!(r.status, 202, "{}", String::from_utf8_lossy(&r.body));
        gate_tx.send(()).unwrap();
    }

    #[test]
    fn plan_body_accepts_container_budget() {
        let request = parse_plan_body(r#"{"max_containers": 7}"#).unwrap();
        assert_eq!(request.planner.limits.max_containers, 7);
        // Zero is rejected by planner validation.
        assert!(parse_plan_body(r#"{"max_containers": 0}"#).is_err());
        // Absent keeps the unlimited default.
        let request = parse_plan_body("{}").unwrap();
        assert_eq!(
            request.planner.limits.max_containers,
            caladrius_planner::UNLIMITED_CONTAINERS
        );
    }

    #[test]
    fn job_endpoint_errors() {
        let s = service();
        assert_eq!(get(&s, "/jobs/xyz").status, 400);
        assert_eq!(get(&s, "/jobs/424242").status, 404);
    }

    #[test]
    fn packing_endpoint() {
        let s = service();
        let r = get(
            &s,
            "/model/packing/heron/wordcount?containers=4&parallelism=splitter:6",
        );
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        let v = body_json(&r);
        assert_eq!(v.get("containers").unwrap().as_f64(), Some(4.0));
        // spout 8 + splitter 6 + counter 3 = 17 instances, 8*6*3 paths.
        assert_eq!(v.get("total_instances").unwrap().as_f64(), Some(17.0));
        assert_eq!(v.get("instance_paths").unwrap().as_f64(), Some(144.0));
        assert_eq!(
            get(&s, "/model/packing/heron/wordcount?containers=x").status,
            400
        );
        assert_eq!(
            get(&s, "/model/packing/heron/wordcount?parallelism=bad").status,
            400
        );
        assert_eq!(get(&s, "/model/packing/heron/ghost").status, 404);
    }

    #[test]
    fn packing_path_count_overflow_is_422() {
        // 40 layers at parallelism 4: 4^40 instance paths, past u64.
        use heron_sim::prelude::{Grouping, RateProfile, TopologyBuilder, WorkProfile};
        let mut deep =
            TopologyBuilder::new("deep").spout("c0", 4, RateProfile::constant_per_min(1.0e6), 64);
        for layer in 1..40 {
            deep = deep
                .bolt(format!("c{layer}"), 4, WorkProfile::new(1.0e6, 1.0, 64))
                .edge(
                    format!("c{}", layer - 1),
                    format!("c{layer}"),
                    Grouping::shuffle(),
                );
        }
        let caladrius = Caladrius::new(
            Arc::new(SimMetricsProvider::new(
                heron_sim::metrics::SimMetrics::new("deep"),
            )),
            Arc::new(StaticTracker::new().with(deep.build().unwrap())),
        );
        let s = ApiService::new(Arc::new(caladrius), 2);
        let r = get(&s, "/model/packing/heron/deep?containers=4");
        let body = String::from_utf8_lossy(&r.body);
        assert_eq!(r.status, 422, "{body}");
        assert!(
            body.contains("instance path count exceeds the u64 range"),
            "{body}"
        );
    }

    #[test]
    fn metrics_endpoint() {
        let s = service();
        let r = get(
            &s,
            "/metrics/heron/wordcount?q=execute-count%7Bcomponent%3Dsplitter%7D",
        );
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        let v = body_json(&r);
        assert_eq!(v.get("metric").unwrap().as_str(), Some("execute-count"));
        let series = v.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 2, "two splitter instances");
        let samples = series[0].get("samples").unwrap().as_array().unwrap();
        assert!(!samples.is_empty());
        assert_eq!(samples[0].as_array().unwrap().len(), 2);
        // Errors.
        assert_eq!(get(&s, "/metrics/heron/wordcount").status, 400);
        assert_eq!(get(&s, "/metrics/heron/wordcount?q=m%7Bbad").status, 400);
        assert_eq!(
            get(&s, "/metrics/heron/wordcount?q=execute-count&from=zzz").status,
            400
        );
        assert_eq!(get(&s, "/metrics/heron/ghost?q=execute-count").status, 404);
    }

    #[test]
    fn unknown_routes_and_methods() {
        let s = service();
        assert_eq!(get(&s, "/nope").status, 404);
        assert_eq!(post(&s, "/health", "").status, 405);
        assert_eq!(post(&s, "/model/traffic/heron/wordcount", "").status, 405);
        assert_eq!(post(&s, "/metrics/service", "").status, 405);
        assert_eq!(post(&s, "/trace/recent", "").status, 405);
    }

    /// The `/health` JSON field names are a stable contract; this test
    /// pins the exact shape so the obs migration (and future refactors)
    /// cannot silently rename or drop fields.
    #[test]
    fn health_shape_is_stable() {
        let s = service();
        let v = body_json(&get(&s, "/health"));
        let top = v.as_object().unwrap();
        let mut keys: Vec<&str> = top.keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            vec![
                "ingest",
                "jobs_tracked",
                "model_cache",
                "plan_cache",
                "slo",
                "status"
            ]
        );
        let slo = v.get("slo").unwrap().as_object().unwrap();
        let mut slo_keys: Vec<&str> = slo.keys().map(String::as_str).collect();
        slo_keys.sort_unstable();
        assert_eq!(slo_keys, vec!["firing", "objectives", "warning"]);
        let cache = v.get("model_cache").unwrap().as_object().unwrap();
        let mut cache_keys: Vec<&str> = cache.keys().map(String::as_str).collect();
        cache_keys.sort_unstable();
        assert_eq!(
            cache_keys,
            vec![
                "fits",
                "full_fits",
                "hits",
                "incremental_fits",
                "misses",
                "oracle_hits",
                "oracle_misses",
                "plan_evals",
                "plans"
            ]
        );
        let plan_cache = v.get("plan_cache").unwrap().as_object().unwrap();
        let mut plan_cache_keys: Vec<&str> = plan_cache.keys().map(String::as_str).collect();
        plan_cache_keys.sort_unstable();
        assert_eq!(
            plan_cache_keys,
            vec!["evictions", "hits", "misses", "warm_starts"]
        );
        let ingest = v.get("ingest").unwrap().as_object().unwrap();
        let mut ingest_keys: Vec<&str> = ingest.keys().map(String::as_str).collect();
        ingest_keys.sort_unstable();
        assert_eq!(ingest_keys, vec!["batches", "samples"]);
        // The store's read path keeps no stats to mirror here.
        assert!(v.get("tsdb").is_none());
    }

    #[test]
    fn service_metrics_exposition_covers_instrumented_layers() {
        let s = service();
        // Drive a few routes so per-route metrics exist.
        assert_eq!(get(&s, "/health").status, 200);
        assert_eq!(
            post(
                &s,
                "/model/topology/heron/wordcount",
                r#"{"source_rate": 10000000}"#
            )
            .status,
            200
        );
        let r = get(&s, "/metrics/service");
        assert_eq!(r.status, 200);
        assert!(r.content_type.starts_with("text/plain"));
        let body = String::from_utf8(r.body).unwrap();
        for metric in [
            "caladrius_http_requests_total",
            "caladrius_http_request_duration_seconds",
            "caladrius_tsdb_ingest_samples_total",
            "caladrius_model_cache_misses_total",
            "caladrius_model_fit_duration_seconds",
            "caladrius_sim_minute_duration_seconds",
            "caladrius_jobs_queue_depth",
            // The model fit above ran on the shared "fit" exec pool, so
            // its per-pool series must surface here too.
            "caladrius_exec_tasks_total{pool=\"fit\"}",
            "caladrius_exec_task_duration_seconds",
        ] {
            assert!(body.contains(metric), "missing {metric} in:\n{body}");
        }
        assert!(body.contains("route=\"/model/topology/heron/{topology}\""));
        assert!(body.contains("method=\"POST\""));
        assert!(body.contains("status=\"200\""));
    }

    #[test]
    fn trace_recent_reports_request_ids() {
        let s = service();
        assert_eq!(get(&s, "/health").status, 200);
        let r = get(&s, "/trace/recent?limit=50");
        assert_eq!(r.status, 200);
        let v = body_json(&r);
        let events = v.get("events").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        let http_span = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("http.request"))
            .expect("http.request span recorded");
        assert!(
            http_span.get("request_id").unwrap().as_str().is_some(),
            "request id attached"
        );
        assert_eq!(
            http_span
                .get("fields")
                .unwrap()
                .get("route")
                .unwrap()
                .as_str(),
            Some("/health")
        );
        // Bad limit is rejected; limit=1 truncates.
        assert_eq!(get(&s, "/trace/recent?limit=zz").status, 400);
        let v = body_json(&get(&s, "/trace/recent?limit=1"));
        assert_eq!(v.get("events").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn job_poll_includes_timing() {
        let s = service();
        let r = post(
            &s,
            "/model/topology/heron/wordcount?async=true",
            r#"{"source_rate": 10000000}"#,
        );
        assert_eq!(r.status, 202);
        let id = body_json(&r).get("job_id").unwrap().as_f64().unwrap() as u64;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let v = body_json(&get(&s, &format!("/jobs/{id}")));
            match v.get("state").unwrap().as_str() {
                Some("pending") => {
                    assert!(v.get("queued_ms").unwrap().as_f64().unwrap() > 0.0);
                    assert!(std::time::Instant::now() < deadline, "job never finished");
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Some("done") => {
                    assert!(v.get("queued_ms").unwrap().as_f64().unwrap() > 0.0);
                    assert!(v.get("started_ms").unwrap().as_f64().is_some());
                    assert!(v.get("finished_ms").unwrap().as_f64().is_some());
                    assert!(v.get("queue_wait_ms").unwrap().as_f64().unwrap() >= 0.0);
                    assert!(v.get("duration_ms").unwrap().as_f64().unwrap() >= 0.0);
                    break;
                }
                other => panic!("unexpected job state {other:?}"),
            }
        }
    }

    #[test]
    fn full_http_round_trip() {
        let s = service();
        let server = HttpServer::serve("127.0.0.1:0", 2, s.handler()).unwrap();
        let client = HttpClient::new(server.local_addr());
        let (status, body) = client.get("/health").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("ok"));
        let (status, body) = client
            .post(
                "/model/topology/heron/wordcount",
                r#"{"parallelism": {"splitter": 3}, "source_rate": 20000000}"#,
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        assert!(v.get("sink_output_rate").unwrap().as_f64().unwrap() > 0.0);
    }
}
