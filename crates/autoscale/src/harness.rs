//! The convergence harness: drives a [`ScalingPolicy`] through
//! deploy → stabilise → observe → decide rounds against the simulator
//! and scores the run — the "plan → deploy → stabilize → analyze loop"
//! of the paper's introduction, made measurable.

use crate::{Decision, RoundObservation, ScalingPolicy};
use caladrius_core::CoreError;
use caladrius_tsdb::Aggregation;
use heron_sim::engine::{SimConfig, Simulation};
use heron_sim::metrics::metric;
use heron_sim::topology::Topology;
use serde::{Deserialize, Serialize};

/// Harness configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessConfig {
    /// Stabilisation time after each deployment, simulated minutes (the
    /// paper: "wait for it to stabilize and for normal operation to
    /// resume").
    pub stabilize_minutes: u64,
    /// Observation window per round, simulated minutes.
    pub observe_minutes: u64,
    /// Maximum rounds before declaring divergence.
    pub max_rounds: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            stabilize_minutes: 30,
            observe_minutes: 10,
            max_rounds: 20,
        }
    }
}

/// Outcome of a convergence run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceResult {
    /// Policy name.
    pub policy: String,
    /// Number of deployments performed (the initial one included).
    pub deployments: usize,
    /// Total simulated minutes spent stabilising + observing.
    pub simulated_minutes: u64,
    /// Whether the final configuration met the objective.
    pub converged: bool,
    /// Final per-component parallelisms.
    pub final_parallelisms: Vec<(String, u32)>,
    /// Final-round sink output, tuples/min.
    pub final_sink_output: f64,
}

fn observe_round(
    topology: &Topology,
    offered_rate_per_min: f64,
    config: &HarnessConfig,
    seed: u64,
) -> RoundObservation {
    // Each round is a fresh deployment at the (true) offered rate. The
    // whole round is recorded; throughput metrics are averaged over the
    // post-stabilisation window, while the spout-visible rate is averaged
    // over (almost) the whole round — under backpressure the spout's
    // per-minute emission alternates between zero and catch-up bursts, so
    // only a long-run mean is meaningful.
    let topo = retarget(topology, offered_rate_per_min);
    let mut sim = Simulation::new(
        topo,
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    )
    .expect("harness topologies are valid");
    let metrics = sim.run_minutes(config.stabilize_minutes + config.observe_minutes);
    let observe_from = (config.stabilize_minutes * 60_000) as i64;
    let long_run_from = 5 * 60_000i64;

    let mean_from = |name: &str, component: &str, from: i64| -> f64 {
        let series = metrics.component_sum(name, Some(component), from, i64::MAX);
        Aggregation::Mean.apply(series.iter().map(|s| s.value))
    };
    let mean = |name: &str, component: &str| mean_from(name, component, observe_from);
    let mut processed = Vec::new();
    let mut emitted = Vec::new();
    let mut backpressure = Vec::new();
    let mut visible_offered = 0.0;
    let mut sink_output = 0.0;
    for (idx, component) in topology.components.iter().enumerate() {
        let name = component.name.as_str();
        if component.kind.is_spout() {
            visible_offered += mean_from(metric::EMIT_COUNT, name, long_run_from);
        }
        processed.push((name.to_string(), mean(metric::EXECUTE_COUNT, name)));
        emitted.push((name.to_string(), mean(metric::EMIT_COUNT, name)));
        backpressure.push((name.to_string(), mean(metric::BACKPRESSURE_TIME, name)));
        if topology.out_edges(idx).next().is_none() {
            sink_output += mean(metric::EXECUTE_COUNT, name);
        }
    }
    RoundObservation {
        visible_offered,
        processed,
        emitted,
        backpressure_ms: backpressure,
        sink_output,
    }
}

/// Replaces every spout's rate profile with a constant at
/// `rate_per_min / #spout-components` each (totalling `rate_per_min`).
fn retarget(topology: &Topology, rate_per_min: f64) -> Topology {
    use heron_sim::profiles::RateProfile;
    use heron_sim::topology::ComponentKind;
    let mut topo = topology.clone();
    let spouts = topo.spout_indices();
    let spout_share = rate_per_min / spouts.len() as f64;
    for idx in spouts {
        if let ComponentKind::Spout { profile, .. } = &mut topo.components[idx].kind {
            *profile = RateProfile::constant_per_min(spout_share);
        }
    }
    topo
}

/// The SLO used for final verification: no backpressure in the last round
/// and the topology keeps up with the offered load.
fn meets_slo(observation: &RoundObservation, offered_rate_per_min: f64) -> bool {
    !observation.backpressured() && observation.visible_offered >= offered_rate_per_min * 0.97
}

/// Runs one policy to convergence and scores it.
pub fn run_to_convergence(
    policy: &mut dyn ScalingPolicy,
    initial: Topology,
    offered_rate_per_min: f64,
    config: HarnessConfig,
) -> Result<ConvergenceResult, CoreError> {
    let mut deployed = initial;
    let mut deployments = 1usize;
    let mut simulated_minutes = 0u64;
    let mut converged = false;
    let mut last_observation = None;

    for round in 0..config.max_rounds {
        let observation = observe_round(
            &deployed,
            offered_rate_per_min,
            &config,
            0xD0 + round as u64,
        );
        simulated_minutes += config.stabilize_minutes + config.observe_minutes;
        let decision = policy.decide(&deployed, &observation)?;
        let slo_ok = meets_slo(&observation, offered_rate_per_min);
        last_observation = Some(observation);
        match decision {
            Decision::Converged => {
                converged = slo_ok;
                break;
            }
            Decision::Redeploy(next) => {
                deployed = next;
                deployments += 1;
            }
        }
    }

    Ok(ConvergenceResult {
        policy: policy.name().to_string(),
        deployments,
        simulated_minutes,
        converged,
        final_parallelisms: deployed
            .components
            .iter()
            .map(|c| (c.name.clone(), c.parallelism))
            .collect(),
        final_sink_output: last_observation.map(|o| o.sink_output).unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modelled::{ModelledConfig, ModelledScaler};
    use crate::reactive::ReactiveScaler;
    use caladrius_workload::wordcount::{wordcount_topology, WordCountParallelism};

    /// Undersized WordCount: splitter p=1 against a 60 M/min target that
    /// needs p=6 (plus headroom).
    fn undersized() -> Topology {
        wordcount_topology(
            WordCountParallelism {
                spout: 8,
                splitter: 1,
                counter: 4,
            },
            60.0e6,
        )
    }

    fn fast_harness() -> HarnessConfig {
        HarnessConfig {
            stabilize_minutes: 20,
            observe_minutes: 5,
            max_rounds: 15,
        }
    }

    #[test]
    fn reactive_converges_in_several_rounds() {
        let mut policy = ReactiveScaler::default();
        let result = run_to_convergence(&mut policy, undersized(), 60.0e6, fast_harness()).unwrap();
        assert!(
            result.converged,
            "reactive scaling must converge: {result:?}"
        );
        assert!(
            result.deployments >= 3,
            "a 1→7-ish gap with bounded growth needs several rounds, got {}",
            result.deployments
        );
        let splitter = result
            .final_parallelisms
            .iter()
            .find(|(n, _)| n == "splitter")
            .map(|(_, p)| *p)
            .unwrap();
        assert!(splitter >= 6, "final splitter parallelism {splitter}");
    }

    #[test]
    fn modelled_converges_in_one_redeploy() {
        let mut policy = ModelledScaler::new(ModelledConfig {
            target_rate: 60.0e6,
            headroom: 1.1,
            max_parallelism: 64,
        });
        let result = run_to_convergence(&mut policy, undersized(), 60.0e6, fast_harness()).unwrap();
        assert!(
            result.converged,
            "modelled scaling must converge: {result:?}"
        );
        assert!(
            result.deployments <= 3,
            "model-driven scaling should need one planned redeploy (+verify), got {}",
            result.deployments
        );
    }

    #[test]
    fn healthy_deployment_converges_without_redeploys() {
        let topo = wordcount_topology(
            WordCountParallelism {
                spout: 8,
                splitter: 4,
                counter: 4,
            },
            10.0e6,
        );
        let mut policy = ReactiveScaler::default();
        let result = run_to_convergence(&mut policy, topo, 10.0e6, fast_harness()).unwrap();
        assert!(result.converged);
        assert_eq!(result.deployments, 1);
    }
}
