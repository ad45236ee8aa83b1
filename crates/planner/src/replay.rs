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
    // ever live, so the pool stays small).
    let idle: Mutex<Vec<Simulation>> = Mutex::new(Vec::new());
    pool.parallel_try_map(&timeline.windows, |_, plan| {
        replay_window(base, plan, config, &idle)
    })
}

/// Deploys and simulates one window's plan on a pooled simulation.
///
/// Nothing is recorded: the simulation warms up, then hands back each
/// measured minute's per-component backpressure and executed totals,
/// added in the order a store read would add them, and the two rates
/// are the means of those totals.
fn replay_window(
    base: &Topology,
    plan: &WindowPlan,
    config: &ReplayConfig,
    idle: &Mutex<Vec<Simulation>>,
) -> Result<WindowReplay, PlanError> {
    let updates: Vec<(&str, u32)> = plan
        .parallelisms
        .iter()
        .map(|(n, p)| (n.as_str(), *p))
        .collect();
    let pooled = idle.lock().expect("replay sim pool poisoned").pop();
    let mut sim = match pooled {
        Some(sim) => sim,
        None => Simulation::new(
            base.clone(),
            SimConfig {
                metric_noise: config.metric_noise,
                event_mode: true,
                ..SimConfig::default()
            },
        )
        .map_err(|e| PlanError::Oracle(format!("replay simulation failed: {e}")))?,
    };
    sim.set_seed(config.seed ^ plan.window as u64);
    sim.reset_with(&updates, plan.peak_rate)
        .map_err(|e| PlanError::Oracle(format!("replay deploy failed: {e}")))?;
    let events_before = sim.sim_events();
    let closed_form_before = sim.ticks_closed_form();
    let totals = sim.run_component_totals(config.warmup_minutes, config.measure_minutes);
    let sim_events = sim.sim_events() - events_before;
    let closed_form_ticks = sim.ticks_closed_form() - closed_form_before;
    let mean = |minutes: &[f64]| Aggregation::Mean.apply(minutes.iter().copied());
    let mut sink_rate = 0.0;
    let mut backpressure_ms = 0.0;
    let topology = sim.topology();
    for idx in 0..topology.components.len() {
        backpressure_ms += mean(&totals.backpressure_ms[idx]);
        if topology.out_edges(idx).next().is_none() {
            sink_rate += mean(&totals.executed[idx]);
        }
    }
    idle.lock().expect("replay sim pool poisoned").push(sim);
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
    use heron_sim::metrics::{metric, SimMetrics};

    /// The store-recording replay the totals path replaced, kept as its
    /// reference: each window records warm-up and measured minutes into a
    /// per-worker store (truncated between windows) and reads the two
    /// rates back as means of `component_sum`.
    fn replay_via_store(
        base: &Topology,
        timeline: &PlanTimeline,
        config: &ReplayConfig,
    ) -> Vec<WindowReplay> {
        let mut idle: Vec<(Simulation, SimMetrics)> = Vec::new();
        timeline
            .windows
            .iter()
            .map(|plan| {
                let updates: Vec<(&str, u32)> = plan
                    .parallelisms
                    .iter()
                    .map(|(n, p)| (n.as_str(), *p))
                    .collect();
                let (mut sim, metrics) = idle.pop().unwrap_or_else(|| {
                    let sim = Simulation::new(
                        base.clone(),
                        SimConfig {
                            metric_noise: config.metric_noise,
                            event_mode: true,
                            ..SimConfig::default()
                        },
                    )
                    .unwrap();
                    let metrics = SimMetrics::new(sim.topology().name.clone());
                    (sim, metrics)
                });
                metrics.db().truncate_before(i64::MAX).unwrap();
                sim.set_seed(config.seed ^ plan.window as u64);
                sim.reset_with(&updates, plan.peak_rate).unwrap();
                let events_before = sim.sim_events();
                let closed_form_before = sim.ticks_closed_form();
                sim.run_minutes_into(config.warmup_minutes + config.measure_minutes, &metrics);
                let sim_events = sim.sim_events() - events_before;
                let closed_form_ticks = sim.ticks_closed_form() - closed_form_before;
                let observe_from = (config.warmup_minutes * 60_000) as i64;
                let mean = |name: &str, component: &str| -> f64 {
                    let series =
                        metrics.component_sum(name, Some(component), observe_from, i64::MAX);
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
                idle.push((sim, metrics));
                WindowReplay {
                    window: plan.window,
                    offered_rate: plan.peak_rate,
                    sink_rate,
                    backpressure_ms,
                    low_risk: backpressure_ms <= config.backpressure_tolerance_ms,
                    sim_events,
                    closed_form_ticks,
                }
            })
            .collect()
    }

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
        assert!(
            ok[0].closed_form_ticks > 0,
            "the steady healthy window must advance in closed form: {:?}",
            ok[0]
        );
        let bad = replay_timeline(&base, &starved, &cfg).unwrap();
        assert!(
            !bad[0].low_risk,
            "undersized plan must backpressure: {:?}",
            bad[0]
        );
    }

    /// The totals path adds each component's instances in the store's
    /// key order, so its rates equal the store-recording reference's to
    /// the bit. Medium WordCount with 10+ instances per bolt over more
    /// than ten containers (so `"10"` sorts before `"2"` in both tags),
    /// the simulator's default observation noise (so instances differ and
    /// the order shows), and one window driven into backpressure. A
    /// one-minute measure window is compared too: over ten minutes the
    /// mean's own rounding absorbs most one-ulp differences in a
    /// minute's total, over one it absorbs none.
    #[test]
    fn totals_replay_matches_the_store_recording_reference_bit_for_bit() {
        let base = wordcount_topology(
            WordCountParallelism {
                spout: 32,
                splitter: 8,
                counter: 12,
            },
            64.0e6,
        );
        let shape =
            |splitter, counter| [("spout", 32), ("splitter", splitter), ("counter", counter)];
        let plans = timeline(vec![
            window_plan(0, 64.0e6, &shape(10, 12)),
            window_plan(1, 80.0e6, &shape(12, 14)),
            window_plan(2, 150.0e6, &shape(10, 10)),
            window_plan(3, 48.0e6, &shape(11, 12)),
            window_plan(4, 72.0e6, &shape(13, 11)),
            window_plan(5, 56.0e6, &shape(10, 13)),
        ]);
        for measure_minutes in [ReplayConfig::default().measure_minutes, 1] {
            let config = ReplayConfig {
                metric_noise: SimConfig::default().metric_noise,
                measure_minutes,
                ..ReplayConfig::default()
            };
            assert!(config.metric_noise > 0.0);
            let totals = replay_timeline(&base, &plans, &config).unwrap();
            let stored = replay_via_store(&base, &plans, &config);
            assert!(
                totals.iter().any(|w| w.backpressure_ms > 1_000.0),
                "no window backpressured: {totals:?}"
            );
            assert_eq!(totals.len(), stored.len());
            for (t, s) in totals.iter().zip(&stored) {
                assert_eq!(t.window, s.window);
                assert_eq!(t.offered_rate.to_bits(), s.offered_rate.to_bits());
                assert_eq!(
                    t.sink_rate.to_bits(),
                    s.sink_rate.to_bits(),
                    "{t:?} vs {s:?}"
                );
                assert_eq!(
                    t.backpressure_ms.to_bits(),
                    s.backpressure_ms.to_bits(),
                    "{t:?} vs {s:?}"
                );
                assert_eq!(t.low_risk, s.low_risk);
                assert_eq!(t.sim_events, s.sim_events);
                assert_eq!(t.closed_form_ticks, s.closed_form_ticks);
            }
        }
    }
}
