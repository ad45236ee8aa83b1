//! `minute_round`: one service minute per round, through the in-process
//! front door.
//!
//! Why: the Stale path end to end — tsdb append and `(since, to]` tail
//! read, incremental model fit, traffic refit, warm-started search —
//! i.e. "how long after a new minute is the plan fresh". `api::http`
//! and heron-sim are idle.

use super::{accepted_job_id, body_json, poll_job, request, Ops, Shape, Workload};
use crate::fixture::{day_window, reference_day, Hosted, Size, DAY_MINUTES};
use crate::planning::{search_inputs, TRAFFIC_MODEL};
use crate::trace::Tracer;
use caladrius_api::jobs::JobState;
use caladrius_api::{ApiService, Response};
use caladrius_core::capacity::CapacityPlanRequest;
use caladrius_fleet::StagedWorkload;
use caladrius_planner::plan_horizon;
use caladrius_tsdb::MetricBatch;
use std::sync::Arc;

pub const TOPOLOGIES: usize = 4;
const HISTORY_DAYS: usize = 7;
const WHATIF_BODY: &str = "{\"source_rate\":{\"forecast\":{\"model\":\"prophet\"}}}";

pub struct MinuteRound {
    staged: StagedWorkload,
    hosted: Hosted,
    api: Arc<ApiService>,
    batch: MetricBatch,
    rounds: usize,
}

impl MinuteRound {
    /// Submits a plan for `topology` and waits for the job.
    fn plan(api: &ApiService, tracer: &mut Tracer, topology: &str) -> Option<JobState> {
        let target = format!("/topology/{topology}/plan");
        let accepted = tracer.leaf("api.plan_submit", || {
            api.handle(request("POST", &target, "{}"))
        });
        let id = accepted_job_id(&accepted)?;
        tracer.leaf("api.job_wait", || poll_job(api.jobs(), id))
    }
}

impl Workload for MinuteRound {
    const NAME: &'static str = "minute_round";
    const RECIPE: &'static [(&'static str, f64)] = &[
        ("tsdb.ingest_batch_us", TOPOLOGIES as f64),
        ("core.fitted_models_stale_us", TOPOLOGIES as f64),
        ("core.forecast_traffic_ms", TOPOLOGIES as f64),
        ("api.handle_evaluate_us", TOPOLOGIES as f64),
        ("api.plan_submit_us", TOPOLOGIES as f64),
        ("core.plan_warm_ms", TOPOLOGIES as f64),
    ];
    /// Per topology: the what-if response and the plan job's end state.
    type Output = Vec<(Response, Option<JobState>)>;

    fn setup(seed: u64) -> Self {
        let staged = reference_day(Size::Medium, seed);
        let hosted = Hosted::new(
            &staged,
            Size::Medium,
            TOPOLOGIES,
            HISTORY_DAYS * DAY_MINUTES,
            day_window(),
        );
        let api = ApiService::new(Arc::clone(&hosted.caladrius), 1);
        // Cold fits and cold plans: every measured round is then Stale.
        let mut tracer = Tracer::new(false);
        for replica in &hosted.replicas {
            let state = Self::plan(&api, &mut tracer, &replica.name);
            assert!(
                matches!(state, Some(JobState::Done(_))),
                "cold plan for {}: {state:?}",
                replica.name
            );
        }
        MinuteRound {
            staged,
            hosted,
            api,
            batch: MetricBatch::new(0),
            rounds: 0,
        }
    }

    fn round(&mut self, tracer: &mut Tracer) -> Self::Output {
        self.rounds += 1;
        (0..TOPOLOGIES)
            .map(|i| {
                tracer.leaf("tsdb.ingest", || {
                    self.hosted.ingest_next(i, &self.staged, &mut self.batch)
                });
                let name = &self.hosted.replicas[i].name;
                let target = format!("/model/topology/heron/{name}");
                let whatif = tracer.leaf("api.handle_evaluate", || {
                    self.api.handle(request("POST", &target, WHATIF_BODY))
                });
                (whatif, Self::plan(&self.api, tracer, name))
            })
            .collect()
    }

    fn check(&mut self, output: Self::Output) -> Ops {
        output
            .into_iter()
            .map(|(whatif, job)| {
                let forecast_used = whatif.status == 200
                    && body_json(&whatif).is_some_and(|body| {
                        body.get("traffic")
                            .and_then(|t| t.get("model"))
                            .and_then(caladrius_api::Value::as_str)
                            == Some(TRAFFIC_MODEL)
                    });
                let mut ops = Ops::one(forecast_used);
                ops += Ops::one(matches!(job, Some(JobState::Done(_))));
                ops
            })
            .sum()
    }

    /// Warm == cold, per topology, on the final data:
    /// * the last warm-started plan is still what the service serves
    ///   (a plan-cache Hit, no new search);
    /// * a cold search over the same fitted models and forecast lands
    ///   on the identical windows;
    /// * a from-scratch service over the same stores forecasts the
    ///   identical window rates (Prophet refits over the sliding window
    ///   either way; the fitted performance models legitimately differ,
    ///   because the warm service's window is anchored where its cold
    ///   fit happened).
    fn verify(&mut self) -> Ops {
        assert!(
            self.rounds < DAY_MINUTES,
            "the model cache re-anchors after a window's worth of minutes; \
             the checks below assume it has not"
        );
        let request = CapacityPlanRequest::default();
        let service = &self.hosted.caladrius;
        let scratch = self.hosted.shadow();
        let mut ops = Ops::default();
        for replica in &self.hosted.replicas {
            let name = &replica.name;
            let before = (service.plan_cache_stats(), service.model_cache_stats());
            let warm = service.plan_capacity(name, &request).expect("cached plan");
            let after = (service.plan_cache_stats(), service.model_cache_stats());
            ops += Ops::one(after.0.hits == before.0.hits + 1 && after.1.plans == before.1.plans);

            let inputs = search_inputs(service, self.hosted.tracker.as_ref(), name, &request);
            let cold = plan_horizon(
                &inputs.oracle,
                &inputs.initial,
                &inputs.windows,
                &request.planner,
            )
            .expect("cold search");
            ops += Ops::one(cold.windows == warm.windows);

            let fresh = scratch.plan_capacity(name, &request).expect("cold plan");
            let rates = |t: &caladrius_planner::PlanTimeline| -> Vec<(i64, i64, u64)> {
                t.windows
                    .iter()
                    .map(|w| (w.start_ts, w.end_ts, w.peak_rate.to_bits()))
                    .collect()
            };
            ops += Ops::one(rates(&fresh) == rates(&warm));
        }
        ops
    }

    fn shape(&self) -> Shape<'_> {
        Shape {
            size: Size::Medium,
            topologies: TOPOLOGIES,
            config: self.hosted.config().clone(),
            history_minutes: HISTORY_DAYS * DAY_MINUTES,
            staged: &self.staged,
        }
    }
}
