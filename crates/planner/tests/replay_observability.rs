//! Replay records nothing, yet it is observed like a recorded run: one
//! `sim.run` span with the same fields, and the same additions to the
//! process-wide sim counters (events, closed-form ticks, observed
//! minutes, exact ticks by reason) as recording the same window into a
//! store would make.
//!
//! The counters are process-wide, so this binary holds this one test:
//! no other simulation may run while it reads them.

use caladrius_planner::{
    replay_timeline, PlanCost, PlanTimeline, ReplayConfig, ResourceLimits, WindowPlan,
};
use caladrius_workload::wordcount::{wordcount_topology, WordCountParallelism};
use heron_sim::engine::{ExactTickReason, SimConfig, Simulation};
use heron_sim::metrics::SimMetrics;

/// The process-wide sim counters, in a fixed order: events, closed-form
/// ticks, minutes in the minute-duration histogram, then exact ticks per
/// reason.
fn sim_counters() -> Vec<u64> {
    let registry = caladrius_obs::global_registry();
    let mut values = vec![
        registry.counter("caladrius_sim_events_total", &[]).get(),
        registry
            .counter("caladrius_sim_ticks_closed_form_total", &[])
            .get(),
        registry
            .histogram("caladrius_sim_minute_duration_seconds", &[])
            .count(),
    ];
    for reason in ExactTickReason::ALL {
        values.push(
            registry
                .counter("caladrius_sim_ticks_total", &[("reason", reason.label())])
                .get(),
        );
    }
    values
}

/// The newest `sim.run` span's fields.
fn last_sim_run_fields() -> Vec<(String, String)> {
    caladrius_obs::tracer()
        .recent(64)
        .into_iter()
        .find(|span| span.name == "sim.run")
        .expect("a sim.run span")
        .fields
}

/// What `f` added to each sim counter.
fn counted(f: impl FnOnce()) -> Vec<u64> {
    let before = sim_counters();
    f();
    sim_counters()
        .iter()
        .zip(&before)
        .map(|(after, before)| after - before)
        .collect()
}

#[test]
fn a_totals_replay_is_observed_like_a_recorded_run() {
    let base = wordcount_topology(
        WordCountParallelism {
            spout: 8,
            splitter: 2,
            counter: 3,
        },
        10.0e6,
    );
    // One splitter at 60 M/min backpressures: the window runs exact
    // ticks as well as closed-form spans.
    let parallelisms = vec![
        ("spout".to_string(), 8),
        ("splitter".to_string(), 1),
        ("counter".to_string(), 3),
    ];
    let plan = WindowPlan {
        window: 0,
        start_ts: 0,
        end_ts: 900_000,
        peak_rate: 60.0e6,
        planned_rate: 60.0e6,
        cost: PlanCost::of(&parallelisms, &ResourceLimits::default()),
        parallelisms,
        saturation_rate: f64::INFINITY,
        actions: Vec::new(),
    };
    let config = ReplayConfig::default();

    // The window recorded into a store, as replay did before it read
    // totals.
    let recorded = counted(|| {
        let mut sim = Simulation::new(
            base.clone(),
            SimConfig {
                metric_noise: config.metric_noise,
                event_mode: true,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.set_seed(config.seed ^ plan.window as u64);
        sim.reset_with(&[("splitter", 1)], plan.peak_rate).unwrap();
        let metrics = SimMetrics::new(sim.topology().name.clone());
        sim.run_minutes_into(config.warmup_minutes + config.measure_minutes, &metrics);
    });
    let recorded_fields = last_sim_run_fields();

    let timeline = PlanTimeline {
        peak_parallelisms: plan.parallelisms.clone(),
        peak_cost: plan.cost,
        windows: vec![plan],
        oracle_evals: 0,
    };
    let mut replay = Vec::new();
    let totals = counted(|| replay = replay_timeline(&base, &timeline, &config).unwrap());
    let totals_fields = last_sim_run_fields();

    assert!(!replay[0].low_risk, "the window must backpressure");
    assert_eq!(totals, recorded, "sim counters moved differently");
    assert!(totals[0] > 0, "no events counted");
    assert!(totals[1] > 0, "no closed-form ticks counted");
    assert_eq!(
        totals[2],
        config.warmup_minutes + config.measure_minutes,
        "every minute timed once"
    );
    assert!(
        totals[3..].iter().any(|&ticks| ticks > 0),
        "no exact ticks counted"
    );
    assert_eq!(totals_fields, recorded_fields, "sim.run span fields differ");
    let names: Vec<&str> = totals_fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        names,
        [
            "topology",
            "minutes",
            "sim_events",
            "ticks_closed_form",
            "exact_ticks"
        ]
    );
}
