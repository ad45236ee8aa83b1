//! `fleet_drift`: cluster replans over 128 small tenants on 4 shards,
//! through `FleetService::handle`.
//!
//! Why: the fleet tier's own work — tenant partition, shard fan-out
//! through `exec`, the greedy allocator, a working set of 128 model and
//! plan cache entries — plus the same tsdb/core/forecast code as
//! `minute_round` used as many small fits instead of few large ones, so
//! a gain for one that costs the other shows.

use super::{accepted_job_id, poll_job, request, Ops, Shape, Workload};
use crate::fixture::{deployed, reference_day, stagger, Replica, Rng, Size, DAY_MINUTES};
use crate::trace::Tracer;
use caladrius_api::jobs::JobState;
use caladrius_api::Value;
use caladrius_core::config::CaladriusConfig;
use caladrius_fleet::{Fleet, FleetConfig, FleetService, StagedWorkload};
use caladrius_tsdb::MetricBatch;
use std::sync::Arc;

pub const TENANTS: usize = 128;
pub const SHARDS: usize = 4;
/// Tenants that see a second fresh minute before the budgeted replan.
pub const DRIFT_TENANTS: usize = TENANTS / 10 + 1;

/// A fleet of `tenants` small topologies with one day of
/// phase-staggered history each, behind its HTTP service.
pub struct TenantFleet {
    pub fleet: Arc<Fleet>,
    pub service: Arc<FleetService>,
    pub replicas: Vec<Replica>,
    batch: MetricBatch,
}

impl TenantFleet {
    pub fn new(
        staged: &StagedWorkload,
        size: Size,
        tenants: usize,
        config: CaladriusConfig,
    ) -> Self {
        let fleet = Arc::new(Fleet::new(FleetConfig {
            shards: SHARDS,
            caladrius: config,
            ..FleetConfig::default()
        }));
        let replicas = (0..tenants)
            .map(|i| {
                let name = format!("tenant-{i:03}");
                let metrics = fleet.register(deployed(size, &name));
                Replica::new(name, metrics, staged, stagger(i, tenants))
            })
            .collect();
        let mut tenant_fleet = TenantFleet {
            service: FleetService::new(Arc::clone(&fleet), 1),
            fleet,
            replicas,
            batch: MetricBatch::new(0),
        };
        for _ in 0..DAY_MINUTES {
            tenant_fleet.ingest_minute(staged, 0..tenants);
        }
        tenant_fleet
    }

    /// Ships the next staged minute to each of `tenants` (indices taken
    /// modulo the fleet size, so a rotating range may wrap).
    pub fn ingest_minute(&mut self, staged: &StagedWorkload, tenants: std::ops::Range<usize>) {
        let count = self.replicas.len();
        for i in tenants {
            let replica = &mut self.replicas[i % count];
            replica.fill_next(staged, &mut self.batch);
            self.fleet
                .ingest(&replica.name, &self.batch)
                .expect("registered tenant");
        }
    }

    /// `POST /fleet/plan` and wait: the job's result document, or `None`
    /// when the request was refused or the job failed.
    pub fn replan(&self, body: &str) -> Option<Value> {
        let accepted = self.service.handle(request("POST", "/fleet/plan", body));
        match poll_job(self.service.jobs(), accepted_job_id(&accepted)?)? {
            JobState::Done(result) => Some(result),
            _ => None,
        }
    }
}

/// `(unchanged, drifted, cold)` of a fleet plan document.
pub fn partition(plan: &Value) -> Option<(usize, usize, usize)> {
    let field = |name: &str| Some(plan.get(name)?.as_f64()? as usize);
    Some((field("unchanged")?, field("drifted")?, field("cold")?))
}

pub fn field(plan: &Value, name: &str) -> Option<f64> {
    plan.get(name)?.as_f64()
}

pub struct FleetDrift {
    staged: StagedWorkload,
    tenants: TenantFleet,
    /// First tenant of the next round's rotating 10 %.
    rotation: usize,
    config: CaladriusConfig,
    full_fits_at_setup: u64,
}

fn full_fits(fleet: &Fleet) -> u64 {
    let shards = fleet.health().shards;
    shards.iter().map(|s| s.model_cache.full_fits).sum()
}

/// The three replans of one round, with the budget the second ran under.
pub struct Replans {
    all_drift: Option<Value>,
    budget: u32,
    drift10: Option<Value>,
    unchanged: Option<Value>,
}

impl Workload for FleetDrift {
    const NAME: &'static str = "fleet_drift";
    const RECIPE: &'static [(&'static str, f64)] = &[
        ("tsdb.ingest_batch_us", (TENANTS + DRIFT_TENANTS) as f64),
        (
            "core.fitted_models_stale_us",
            (TENANTS + DRIFT_TENANTS) as f64,
        ),
        ("core.forecast_traffic_ms", (TENANTS + DRIFT_TENANTS) as f64),
        ("core.plan_warm_ms", (TENANTS + DRIFT_TENANTS) as f64),
        ("core.plan_hit_us", (2 * TENANTS - DRIFT_TENANTS) as f64),
        ("api.job_queue_wait_us", 3.0),
        ("fleet.allocate_greedy_us", 1.0),
    ];
    type Output = Replans;

    fn setup(seed: u64) -> Self {
        let staged = reference_day(Size::Small, seed);
        let config = CaladriusConfig::default();
        let tenants = TenantFleet::new(&staged, Size::Small, TENANTS, config.clone());
        let cold = tenants.replan("{}").expect("cold fleet plan");
        assert_eq!(partition(&cold), Some((0, 0, TENANTS)));
        assert_eq!(field(&cold, "errors"), Some(0.0), "every tenant plans");
        FleetDrift {
            full_fits_at_setup: full_fits(&tenants.fleet),
            staged,
            tenants,
            rotation: Rng::new(seed).range(0, TENANTS as u32 - 1) as usize,
            config,
        }
    }

    fn round(&mut self, tracer: &mut Tracer) -> Replans {
        tracer.leaf("fleet.ingest_all", || {
            self.tenants.ingest_minute(&self.staged, 0..TENANTS)
        });
        let all_drift = tracer.leaf("fleet.plan_alldrift", || self.tenants.replan("{}"));
        let unconstrained = all_drift
            .as_ref()
            .and_then(|plan| field(plan, "total_granted"))
            .unwrap_or(0.0);
        let budget = ((unconstrained * 0.75) as u32).max(1);

        let drifting = self.rotation..self.rotation + DRIFT_TENANTS;
        self.rotation = drifting.end % TENANTS;
        tracer.leaf("fleet.ingest_drift10", || {
            self.tenants.ingest_minute(&self.staged, drifting)
        });
        let body = format!("{{\"budget\":{budget}}}");
        let drift10 = tracer.leaf("fleet.plan_drift10", || self.tenants.replan(&body));
        let unchanged = tracer.leaf("fleet.plan_unchanged", || self.tenants.replan("{}"));
        Replans {
            all_drift,
            budget,
            drift10,
            unchanged,
        }
    }

    /// The exact unchanged/drifted/cold partition of every replan; no
    /// errors on the unconstrained ones; grants within the budget on the
    /// budgeted one (where a tenant granted less than any plan needs is
    /// an expected per-tenant error, not a failed operation).
    fn check(&mut self, replans: Replans) -> Ops {
        let all_drift = replans.all_drift.is_some_and(|plan| {
            partition(&plan) == Some((0, TENANTS, 0)) && field(&plan, "errors") == Some(0.0)
        });
        let within_budget = |plan: &Value| {
            field(plan, "total_granted").is_some_and(|g| g <= f64::from(replans.budget))
        };
        let drift10 = replans.drift10.is_some_and(|plan| {
            partition(&plan) == Some((TENANTS - DRIFT_TENANTS, DRIFT_TENANTS, 0))
                && within_budget(&plan)
        });
        let unchanged = replans.unchanged.is_some_and(|plan| {
            partition(&plan) == Some((TENANTS, 0, 0)) && field(&plan, "errors") == Some(0.0)
        });
        [all_drift, drift10, unchanged]
            .into_iter()
            .map(Ops::one)
            .sum()
    }

    fn verify(&mut self) -> Ops {
        // Every tenant was refitted incrementally, never from scratch,
        // after its cold fit.
        let health = self.tenants.fleet.health();
        let full = full_fits(&self.tenants.fleet);
        let incremental: u64 = health
            .shards
            .iter()
            .map(|s| s.model_cache.incremental_fits)
            .sum();
        Ops::one(health.topologies == TENANTS && full == self.full_fits_at_setup && incremental > 0)
    }

    fn shape(&self) -> Shape<'_> {
        Shape {
            size: Size::Small,
            topologies: SHARDS,
            config: self.config.clone(),
            history_minutes: DAY_MINUTES,
            staged: &self.staged,
        }
    }
}
