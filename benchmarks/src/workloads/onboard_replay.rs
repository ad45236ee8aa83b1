//! `onboard_replay`: onboarding a new topology through the public crate
//! APIs, no HTTP.
//!
//! Why: every cache Cold and the tsdb used the other way round — the
//! simulator's record path and a full-window decode instead of batch
//! append and tail read — with heron-sim doing most of the work. This is
//! the workload a simulator-kernel or cache-protocol refactor must not
//! regress.

use super::{Ops, Shape, Workload};
use crate::fixture::{day_window, deployed, simulate_day, Rng, Size, DAY_MINUTES};
use crate::trace::Tracer;
use caladrius_core::capacity::CapacityPlanRequest;
use caladrius_core::providers::{SimMetricsProvider, StaticTracker};
use caladrius_core::Caladrius;
use caladrius_fleet::StagedWorkload;
use caladrius_planner::{replay_timeline, ReplayConfig, WindowReplay};
use caladrius_tsdb::Aggregation;
use heron_sim::metrics::{metric, SimMetrics};
use std::sync::Arc;

const VARIANTS: usize = 8;
const TOPOLOGY: &str = "onboarded";
/// Event-mode sink totals must match the exact kernel this closely.
const SINK_TOLERANCE: f64 = 1e-3;

/// One onboarding input: the simulator's noise seed and the day's load
/// as a multiple of the medium base rate (1.00, 0.98, … 0.86).
struct Variant {
    sim_seed: u64,
    rate_scale: f64,
    /// Total tuples the sink component executed over the day, from the
    /// exact-tick kernel.
    exact_sink_total: f64,
}

pub struct OnboardReplay {
    variants: Vec<Variant>,
    cursor: usize,
    /// The first variant's exact-kernel day, kept for the probes.
    staged: StagedWorkload,
}

fn sink_total(metrics: &SimMetrics) -> f64 {
    let series = metrics.component_sum(metric::EXECUTE_COUNT, Some("counter"), 0, i64::MAX);
    Aggregation::Sum.apply(series.iter().map(|s| s.value))
}

pub struct Onboarded {
    variant: usize,
    /// The event-mode harvest, totalled by the check.
    metrics: SimMetrics,
    replay: Vec<WindowReplay>,
}

impl Workload for OnboardReplay {
    const NAME: &'static str = "onboard_replay";
    const RECIPE: &'static [(&'static str, f64)] = &[
        ("heron-sim.event_day_ms", 1.0),
        ("core.fitted_models_cold_ms", 1.0),
        ("core.plan_cold_ms", 1.0),
        ("planner.replay_window_ms", 4.0),
    ];
    type Output = Onboarded;

    fn setup(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut staged = None;
        let variants = (0..VARIANTS)
            .map(|v| {
                let sim_seed = rng.next_u64();
                let rate_scale = 1.0 - 0.02 * v as f64;
                let (exact, _) = simulate_day(Size::Medium, TOPOLOGY, rate_scale, sim_seed, false);
                if v == 0 {
                    staged = Some(StagedWorkload::from_staged(&exact));
                }
                Variant {
                    sim_seed,
                    rate_scale,
                    exact_sink_total: sink_total(&exact),
                }
            })
            .collect();
        OnboardReplay {
            variants,
            cursor: 0,
            staged: staged.expect("at least one variant"),
        }
    }

    fn round(&mut self, tracer: &mut Tracer) -> Onboarded {
        let index = self.cursor % self.variants.len();
        self.cursor += 1;
        let variant = &self.variants[index];
        let (metrics, _) = tracer.leaf("heron-sim.event_day", || {
            simulate_day(
                Size::Medium,
                TOPOLOGY,
                variant.rate_scale,
                variant.sim_seed,
                true,
            )
        });
        let topology = deployed(Size::Medium, TOPOLOGY);
        let service = tracer.leaf("core.service_new", || {
            Caladrius::with_config(
                Arc::new(SimMetricsProvider::new(metrics.clone())),
                Arc::new(StaticTracker::new().with(topology.clone())),
                day_window(),
            )
        });
        tracer.leaf("core.fitted_models_cold", || {
            service.fitted_models(TOPOLOGY).expect("cold fit")
        });
        let timeline = tracer.leaf("core.plan_cold", || {
            service
                .plan_capacity(TOPOLOGY, &CapacityPlanRequest::default())
                .expect("cold plan")
        });
        let replay = tracer.leaf("planner.replay", || {
            replay_timeline(&topology, &timeline, &ReplayConfig::default()).expect("replay")
        });
        Onboarded {
            variant: index,
            metrics,
            replay,
        }
    }

    fn check(&mut self, onboarded: Onboarded) -> Ops {
        let exact = self.variants[onboarded.variant].exact_sink_total;
        let harvested = sink_total(&onboarded.metrics);
        let mut ops = Ops::one((harvested - exact).abs() <= SINK_TOLERANCE * exact);
        ops +=
            Ops::one(!onboarded.replay.is_empty() && onboarded.replay.iter().all(|w| w.low_risk));
        ops
    }

    fn shape(&self) -> Shape<'_> {
        Shape {
            size: Size::Medium,
            topologies: 1,
            config: day_window(),
            history_minutes: DAY_MINUTES,
            staged: &self.staged,
        }
    }
}
