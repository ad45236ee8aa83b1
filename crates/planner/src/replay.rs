//! Plan validation by simulation replay: every window's proposed
//! configuration is deployed in the `heron-sim` discrete-time
//! simulator at the window's peak forecast rate, and the observed
//! throughput and backpressure are reported next to the model's
//! prediction.
//!
//! Replay simulations always run event-driven
//! (`SimConfig { event_mode: true, .. }`): relaxed stretches of a window
//! and the throttled drain of each backpressure episode advance in
//! closed form, while onsets, releases and other crossings run as exact
//! ticks, so per-minute backpressure time matches an exact-tick run and
//! sink rates agree within the equivalence suite's 0.1 % tolerance.
//! Per-window coverage is reported in [`WindowReplay::sim_events`] /
//! [`WindowReplay::closed_form_ticks`].

use crate::plan::{PlanError, PlanTimeline, WindowPlan};
use caladrius_exec::ExecPool;
use caladrius_tsdb::Aggregation;
use heron_sim::engine::{SimConfig, Simulation};
use heron_sim::metrics::{metric, SimMetrics};
use heron_sim::topology::Topology;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Replay knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Simulated minutes discarded before measuring each window.
    pub warmup_minutes: u64,
    /// Simulated minutes measured per window.
    pub measure_minutes: u64,
    /// Simulator seed.
    pub seed: u64,
    /// Multiplicative metric noise (0 for deterministic replays).
    pub metric_noise: f64,
    /// Mean per-minute backpressure (ms) above which a window is
    /// flagged as risky.
    pub backpressure_tolerance_ms: f64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            warmup_minutes: 20,
            measure_minutes: 10,
            seed: 0xCA1AD,
            metric_noise: 0.0,
            backpressure_tolerance_ms: 1.0,
        }
    }
}

/// Simulated outcome of one window's plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReplay {
    /// Index into the timeline's windows.
    pub window: usize,
    /// Source rate the replay offered, tuples/min (the window's peak
    /// forecast).
    pub offered_rate: f64,
    /// Mean sink throughput observed over the measure window,
    /// tuples/min.
    pub sink_rate: f64,
    /// Mean per-minute backpressure time summed over components, ms.
    pub backpressure_ms: f64,
    /// Whether the window stayed under the backpressure tolerance.
    pub low_risk: bool,
    /// Agenda events this window's replay processed.
    #[serde(default)]
    pub sim_events: u64,
    /// Ticks this window's replay advanced in closed form between
    /// agenda events instead of executing exactly (0 when the window
    /// never settled into the relaxed regime).
    #[serde(default)]
    pub closed_form_ticks: u64,
}

/// Replays every window of `timeline` on `base` (parallelism and spout
/// rate swapped per window) and reports the simulated outcomes.
///
/// Windows simulate independently on the process-wide `"replay"` exec
/// pool; use [`replay_timeline_with`] to supply an explicit pool. Each
/// window's simulator is seeded `config.seed ^ window`, so reports are
/// bit-identical for any pool width. Simulations are pooled and rewound
/// via [`Simulation::reset_with`] between windows, so packing/routing
/// tables are rebuilt only when a window changes parallelism — the
/// `reset_with` contract makes a reused simulation bit-identical to a
/// fresh one, keeping the pool-width determinism guarantee intact.
pub fn replay_timeline(
    base: &Topology,
    timeline: &PlanTimeline,
    config: &ReplayConfig,
) -> Result<Vec<WindowReplay>, PlanError> {
    replay_timeline_with(
        base,
        timeline,
        config,
        caladrius_exec::shared_pool("replay"),
    )
}

/// [`replay_timeline`] on an explicit exec pool.
pub fn replay_timeline_with(
    base: &Topology,
    timeline: &PlanTimeline,
    config: &ReplayConfig,
    pool: &ExecPool,
) -> Result<Vec<WindowReplay>, PlanError> {
    if config.measure_minutes == 0 {
        return Err(PlanError::InvalidConfig(
            "measure_minutes must be positive".into(),
        ));
    }
    // Idle simulations, reused across windows (at most one per worker is
    // ever live, so the pool stays small). Each carries its own metrics
    // store, truncated between windows, so series registration and the
    // simulation's cached sink handles survive across windows too.
    let idle: Mutex<Vec<(Simulation, SimMetrics)>> = Mutex::new(Vec::new());
    pool.parallel_try_map(&timeline.windows, |_, plan| {
        replay_window(base, plan, config, &idle)
    })
}

/// Deploys and simulates one window's plan on a pooled simulation.
fn replay_window(
    base: &Topology,
    plan: &WindowPlan,
    config: &ReplayConfig,
    idle: &Mutex<Vec<(Simulation, SimMetrics)>>,
) -> Result<WindowReplay, PlanError> {
    let updates: Vec<(&str, u32)> = plan
        .parallelisms
        .iter()
        .map(|(n, p)| (n.as_str(), *p))
        .collect();
    let pooled = idle.lock().expect("replay sim pool poisoned").pop();
    let (mut sim, metrics) = match pooled {
        Some(pair) => pair,
        None => {
            let sim = Simulation::new(
                base.clone(),
                SimConfig {
                    metric_noise: config.metric_noise,
                    event_mode: true,
                    ..SimConfig::default()
                },
            )
            .map_err(|e| PlanError::Oracle(format!("replay simulation failed: {e}")))?;
            let metrics = SimMetrics::new(sim.topology().name.clone());
            (sim, metrics)
        }
    };
    // Wipe the previous window's samples; registered series (and the
    // simulation's cached sink handles) survive the truncation, so the
    // steady-state window pays no catalog work at all.
    metrics
        .db()
        .truncate_before(i64::MAX)
        .map_err(|e| PlanError::Oracle(format!("replay store reset failed: {e}")))?;
    sim.set_seed(config.seed ^ plan.window as u64);
    sim.reset_with(&updates, plan.peak_rate)
        .map_err(|e| PlanError::Oracle(format!("replay deploy failed: {e}")))?;
    let events_before = sim.sim_events();
    let closed_form_before = sim.ticks_closed_form();
    sim.run_minutes_into(config.warmup_minutes + config.measure_minutes, &metrics);
    let sim_events = sim.sim_events() - events_before;
    let closed_form_ticks = sim.ticks_closed_form() - closed_form_before;
    let observe_from = (config.warmup_minutes * 60_000) as i64;
    let mean = |name: &str, component: &str| -> f64 {
        let series = metrics.component_sum(name, Some(component), observe_from, i64::MAX);
        Aggregation::Mean.apply(series.iter().map(|s| s.value))
    };
    let mut sink_rate = 0.0;
    let mut backpressure_ms = 0.0;
    let topology = sim.topology();
    for (idx, component) in topology.components.iter().enumerate() {
        let name = component.name.as_str();
        backpressure_ms += mean(metric::BACKPRESSURE_TIME, name);
        if topology.out_edges(idx).next().is_none() {
            sink_rate += mean(metric::EXECUTE_COUNT, name);
        }
    }
    idle.lock()
        .expect("replay sim pool poisoned")
        .push((sim, metrics));
    Ok(WindowReplay {
        window: plan.window,
        offered_rate: plan.peak_rate,
        sink_rate,
        backpressure_ms,
        low_risk: backpressure_ms <= config.backpressure_tolerance_ms,
        sim_events,
        closed_form_ticks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanCost, PlannerConfig, WindowPlan};
    use caladrius_workload::wordcount::{wordcount_topology, WordCountParallelism};

    fn window_plan(window: usize, rate: f64, ps: &[(&str, u32)]) -> WindowPlan {
        let parallelisms: Vec<(String, u32)> =
            ps.iter().map(|(n, p)| (n.to_string(), *p)).collect();
        let cost = PlanCost::of(&parallelisms, &PlannerConfig::default().limits);
        WindowPlan {
            window,
            start_ts: window as i64 * 900_000,
            end_ts: (window as i64 + 1) * 900_000,
            peak_rate: rate,
            planned_rate: rate,
            parallelisms,
            cost,
            saturation_rate: f64::INFINITY,
            actions: Vec::new(),
        }
    }

    fn timeline(windows: Vec<WindowPlan>) -> PlanTimeline {
        let peak = windows[0].parallelisms.clone();
        let peak_cost = windows[0].cost;
        PlanTimeline {
            windows,
            peak_parallelisms: peak,
            peak_cost,
            oracle_evals: 0,
        }
    }

    #[test]
    fn healthy_plan_replays_low_risk_and_starved_plan_does_not() {
        let base = wordcount_topology(
            WordCountParallelism {
                spout: 8,
                splitter: 2,
                counter: 3,
            },
            10.0e6,
        );
        let cfg = ReplayConfig {
            warmup_minutes: 15,
            measure_minutes: 5,
            ..ReplayConfig::default()
        };
        // Generous capacity at 20 M/min vs a single splitter at
        // 60 M/min (a splitter instance saturates near 11 M words/min).
        let healthy = timeline(vec![window_plan(
            0,
            20.0e6,
            &[("spout", 8), ("splitter", 4), ("counter", 4)],
        )]);
        let starved = timeline(vec![window_plan(
            0,
            60.0e6,
            &[("spout", 8), ("splitter", 1), ("counter", 3)],
        )]);
        let ok = replay_timeline(&base, &healthy, &cfg).unwrap();
        assert_eq!(ok.len(), 1);
        assert!(ok[0].low_risk, "healthy plan backpressured: {:?}", ok[0]);
        assert!(ok[0].sink_rate > 0.0);
        let bad = replay_timeline(&base, &starved, &cfg).unwrap();
        assert!(
            !bad[0].low_risk,
            "undersized plan must backpressure: {:?}",
            bad[0]
        );
    }
}
