//! Plan-cache acceptance: unchanged data serves bit-identical cached
//! timelines with zero new searches; new ingest past the watermark, a
//! tracker plan bump, a truncation, or changed `ResourceLimits` each
//! invalidate; and the warm-started search matches the cold one on the
//! fitted models.
//!
//! Runs under `CALADRIUS_THREADS=1` in CI — every assertion here is
//! deterministic.

use caladrius::core::capacity::{CapacityPlanRequest, ModelOracle};
use caladrius::core::providers::{ClusterTracker, SimMetricsProvider};
use caladrius::core::Caladrius;
use caladrius::planner::{plan_horizon, plan_horizon_warm, WindowSpec};
use caladrius::sim::cluster::Cluster;
use caladrius::sim::metrics::SimMetrics;
use caladrius::sim::prelude::*;
use caladrius::workload::wordcount::{wordcount_topology, WordCountParallelism};
use parking_lot::RwLock;
use std::sync::Arc;

const PARALLELISM: WordCountParallelism = WordCountParallelism {
    spout: 8,
    splitter: 4,
    counter: 3,
};

/// Sweeps the topology through several rate legs so the fitted models
/// see both slopes and knees (same recipe as the capacity_plan suite).
fn sweep(rates: &[f64]) -> SimMetrics {
    let metrics = SimMetrics::new("wordcount");
    for (leg, rate) in rates.iter().enumerate() {
        let mut sim = Simulation::new(
            wordcount_topology(PARALLELISM, *rate),
            SimConfig {
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.skip_to_minute(leg as u64 * 100);
        sim.warmup_minutes(30);
        sim.run_minutes_into(10, &metrics);
    }
    metrics
}

/// A fitted service over mutable seams: the shared metrics store (for
/// watermark-advancing ingest) and the cluster (for plan-version bumps).
fn service() -> (Caladrius, SimMetrics, Arc<RwLock<Cluster>>) {
    let metrics = sweep(&[4.0e6, 8.0e6, 12.0e6, 16.0e6, 20.0e6, 26.0e6]);
    let cluster = Arc::new(RwLock::new(Cluster::new()));
    cluster
        .write()
        .submit(
            wordcount_topology(PARALLELISM, 20.0e6),
            PackingAlgorithm::RoundRobin { num_containers: 2 },
        )
        .unwrap();
    let caladrius = Caladrius::new(
        Arc::new(SimMetricsProvider::new(metrics.clone())),
        Arc::new(ClusterTracker::new(Arc::clone(&cluster))),
    );
    (caladrius, metrics, cluster)
}

/// Runs fresh sim minutes into the shared store past its watermark.
fn ingest_fresh_minutes(metrics: &SimMetrics, at_minute: u64, minutes: u64) {
    let mut sim = Simulation::new(
        wordcount_topology(PARALLELISM, 18.0e6),
        SimConfig {
            metric_noise: 0.0,
            ..SimConfig::default()
        },
    )
    .unwrap();
    sim.skip_to_minute(at_minute);
    sim.run_minutes_into(minutes, metrics);
}

#[test]
fn unchanged_data_serves_bit_identical_plans_without_searching() {
    let (caladrius, _metrics, _cluster) = service();
    let request = CapacityPlanRequest::default();

    let first = caladrius.plan_capacity("wordcount", &request).unwrap();
    let stats = caladrius.model_cache_stats();
    assert_eq!(stats.plans, 1);
    let evals_after_first = stats.plan_evals;
    assert!(evals_after_first > 0);

    // Unchanged data: the cached timeline comes back verbatim — not a
    // re-derived equal plan, the stored one — with zero new searches,
    // zero new oracle evaluations, and zero new model fits.
    let fits_before = stats.fits;
    for _ in 0..3 {
        let again = caladrius.plan_capacity("wordcount", &request).unwrap();
        assert_eq!(again, first, "cache hit must be bit-identical");
    }
    let stats = caladrius.model_cache_stats();
    assert_eq!(stats.plans, 1, "cache hits must not run the search");
    assert_eq!(stats.plan_evals, evals_after_first);
    assert_eq!(stats.fits, fits_before);
    let plan_cache = caladrius.plan_cache_stats();
    assert_eq!((plan_cache.hits, plan_cache.misses), (3, 1));
    assert_eq!(plan_cache.warm_starts, 0, "first plan is cold");
}

#[test]
fn new_ingest_past_the_watermark_invalidates_and_warm_starts() {
    let (caladrius, metrics, _cluster) = service();
    let request = CapacityPlanRequest::default();

    caladrius.plan_capacity("wordcount", &request).unwrap();
    let watermark = caladrius
        .metrics_provider()
        .latest_minute("wordcount")
        .unwrap();

    ingest_fresh_minutes(&metrics, watermark as u64 / 60_000 + 1, 3);
    assert!(
        caladrius
            .metrics_provider()
            .latest_minute("wordcount")
            .unwrap()
            > watermark,
        "fresh minutes must advance the watermark"
    );

    let replanned = caladrius.plan_capacity("wordcount", &request).unwrap();
    assert!(!replanned.windows.is_empty());
    let stats = caladrius.model_cache_stats();
    assert_eq!(stats.plans, 2, "moved watermark must force a new search");
    let plan_cache = caladrius.plan_cache_stats();
    assert_eq!(plan_cache.misses, 2);
    assert_eq!(
        plan_cache.warm_starts, 1,
        "the re-plan must warm-start from the stale timeline"
    );

    // The fresh plan is cached in turn.
    let again = caladrius.plan_capacity("wordcount", &request).unwrap();
    assert_eq!(again, replanned);
    assert_eq!(caladrius.plan_cache_stats().hits, 1);
}

#[test]
fn tracker_plan_bump_invalidates() {
    let (caladrius, _metrics, cluster) = service();
    let request = CapacityPlanRequest::default();

    caladrius.plan_capacity("wordcount", &request).unwrap();
    // A parallelism update bumps the tracker version: models and cached
    // plans against the old physical plan are both stale.
    cluster
        .write()
        .update_parallelism("wordcount", &[("splitter", 5)])
        .unwrap();

    caladrius.plan_capacity("wordcount", &request).unwrap();
    let stats = caladrius.model_cache_stats();
    assert_eq!(stats.plans, 2, "plan bump must force a new search");
    let plan_cache = caladrius.plan_cache_stats();
    assert_eq!((plan_cache.hits, plan_cache.misses), (0, 2));
    assert_eq!(plan_cache.warm_starts, 1);
}

#[test]
fn a_truncation_at_an_unchanged_watermark_invalidates_and_warm_starts() {
    let (caladrius, metrics, cluster) = service();
    let request = CapacityPlanRequest::default();

    caladrius.plan_capacity("wordcount", &request).unwrap();
    // The newest leg stays, so the watermark does not move — but the
    // plan was searched on models and a forecast over legs that are gone.
    let watermark = metrics.db().watermark().unwrap();
    assert!(
        metrics
            .db()
            .truncate_before(watermark - 39 * 60_000)
            .unwrap()
            > 0
    );
    assert_eq!(metrics.db().watermark(), Some(watermark));

    let replanned = caladrius.plan_capacity("wordcount", &request).unwrap();
    let stats = caladrius.model_cache_stats();
    assert_eq!(stats.plans, 2, "a truncation must force a new search");
    let plan_cache = caladrius.plan_cache_stats();
    assert_eq!(
        (plan_cache.hits, plan_cache.misses, plan_cache.warm_starts),
        (0, 2, 1)
    );

    // What a service that never saw the truncated legs plans.
    let fresh = Caladrius::new(
        Arc::new(SimMetricsProvider::new(metrics.clone())),
        Arc::new(ClusterTracker::new(cluster)),
    );
    let from_scratch = fresh.plan_capacity("wordcount", &request).unwrap();
    assert_eq!(replanned.windows, from_scratch.windows);
}

#[test]
fn changed_resource_limits_are_a_distinct_cache_entry() {
    let (caladrius, _metrics, _cluster) = service();
    let request = CapacityPlanRequest::default();

    let unconstrained = caladrius.plan_capacity("wordcount", &request).unwrap();

    // Different limits → different request key → full search, even on
    // identical data; the entries then coexist.
    let mut constrained = request.clone();
    constrained.planner.limits.max_containers = unconstrained.peak_cost.containers.max(2);
    let bounded = caladrius.plan_capacity("wordcount", &constrained).unwrap();
    assert!(bounded.peak_cost.containers <= constrained.planner.limits.max_containers);
    let stats = caladrius.model_cache_stats();
    assert_eq!(
        stats.plans, 2,
        "changed ResourceLimits must not serve the unconstrained plan"
    );
    let plan_cache = caladrius.plan_cache_stats();
    assert_eq!(plan_cache.misses, 2);
    assert_eq!(
        plan_cache.warm_starts, 0,
        "a new request key has no warm seed"
    );

    // Both entries hit from here on.
    assert_eq!(
        caladrius.plan_capacity("wordcount", &request).unwrap(),
        unconstrained
    );
    assert_eq!(
        caladrius.plan_capacity("wordcount", &constrained).unwrap(),
        bounded
    );
    assert_eq!(caladrius.plan_cache_stats().hits, 2);
}

#[test]
fn warm_search_matches_cold_on_the_fitted_models() {
    let (caladrius, _metrics, _cluster) = service();
    let model = Arc::new(caladrius.fit_topology_model("wordcount").unwrap());
    let cpu_models = Arc::new(caladrius.fit_cpu_models("wordcount").unwrap());
    let window = |i: usize, rate: f64| WindowSpec {
        start_ts: i as i64 * 900_000,
        end_ts: (i as i64 + 1) * 900_000,
        peak_rate: rate,
    };
    let config = caladrius::planner::PlannerConfig::default();
    let rates = [8.0e6, 14.0e6, 22.0e6, 11.0e6];
    let oracle = ModelOracle::new(
        Arc::clone(&model),
        Arc::clone(&cpu_models),
        vec!["splitter".into(), "counter".into()],
    );
    let before: Vec<WindowSpec> = rates
        .iter()
        .enumerate()
        .map(|(i, r)| window(i, *r))
        .collect();
    let prev = plan_horizon(&oracle, &[], &before, &config).unwrap();

    // Perturb every window and compare the cold search with the search
    // warm-started from the pre-perturbation timeline. The model oracle
    // is separable (per-component monotone constraints at fixed input
    // rates), so the plans must agree exactly.
    for drift in [0.85, 0.95, 1.0, 1.08, 1.25] {
        let after: Vec<WindowSpec> = rates
            .iter()
            .enumerate()
            .map(|(i, r)| window(i, *r * drift))
            .collect();
        let cold = plan_horizon(&oracle, &[], &after, &config).unwrap();
        let warm = plan_horizon_warm(&oracle, &[], &after, &config, Some(&prev)).unwrap();
        assert_eq!(warm.windows, cold.windows, "drift {drift}");
        assert_eq!(warm.peak_parallelisms, cold.peak_parallelisms);
        if drift == 1.0 {
            assert!(
                warm.oracle_evals < cold.oracle_evals,
                "unchanged rates: warm spent {} evals vs cold {}",
                warm.oracle_evals,
                cold.oracle_evals
            );
        }
    }
}
