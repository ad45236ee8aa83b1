//! Executing a capacity plan: the planner → autoscale adapter.
//!
//! Where [`crate::modelled::ModelledScaler`] *learns* the models online
//! and then jumps, [`PlanFollower`] consumes a configuration computed
//! offline by `caladrius-planner` (a [`caladrius_planner::WindowPlan`]
//! or the horizon-covering peak of a
//! [`caladrius_planner::PlanTimeline`]) and drives the deployed
//! topology to that target: one redeploy applying every diff at once,
//! then convergence once the target is live and healthy. If the plan
//! turns out optimistic — the target is deployed but backpressure
//! persists — the follower falls back to nudging the diagnosed
//! bottleneck one instance per round, so a stale forecast degrades
//! into reactive behaviour instead of livelock.

use crate::{Decision, RoundObservation, ScalingPolicy};
use caladrius_core::CoreError;
use caladrius_planner::PlanTimeline;
use heron_sim::topology::Topology;

/// A [`ScalingPolicy`] that steers the deployment to a planner-computed
/// target parallelism assignment.
#[derive(Debug, Clone)]
pub struct PlanFollower {
    target: Vec<(String, u32)>,
    /// Hard cap applied to corrective nudges past the plan.
    max_parallelism: u32,
}

impl PlanFollower {
    /// Follows an explicit target assignment (components not listed are
    /// left at their deployed parallelism).
    pub fn new(target: Vec<(String, u32)>) -> Self {
        Self {
            target,
            max_parallelism: u32::MAX,
        }
    }

    /// Follows the horizon-covering peak assignment of a timeline — the
    /// static configuration that keeps every window feasible.
    pub fn for_timeline_peak(timeline: &PlanTimeline) -> Self {
        Self::new(timeline.peak_parallelisms.clone())
    }

    /// Caps corrective nudges (applied when the deployed target still
    /// backpressures) at `max` instances per component.
    pub fn with_max_parallelism(mut self, max: u32) -> Self {
        self.max_parallelism = max;
        self
    }

    /// The target assignment being driven to.
    pub fn target(&self) -> &[(String, u32)] {
        &self.target
    }

    fn pending_updates<'a>(&'a self, deployed: &Topology) -> Vec<(&'a str, u32)> {
        self.target
            .iter()
            .filter(|(name, p)| {
                deployed
                    .component(name)
                    .map(|c| c.parallelism != *p)
                    .unwrap_or(false)
            })
            .map(|(name, p)| (name.as_str(), *p))
            .collect()
    }
}

impl ScalingPolicy for PlanFollower {
    fn name(&self) -> &'static str {
        "caladrius-planned"
    }

    fn decide(
        &mut self,
        deployed: &Topology,
        observation: &RoundObservation,
    ) -> Result<Decision, CoreError> {
        let updates = self.pending_updates(deployed);
        if !updates.is_empty() {
            let next = deployed
                .with_parallelisms(&updates)
                .map_err(|e| CoreError::Substrate(e.to_string()))?;
            return Ok(Decision::Redeploy(next));
        }
        if !observation.backpressured() {
            return Ok(Decision::Converged);
        }
        // Target deployed but still backpressured: the plan undershot
        // (stale forecast, model drift). Correct reactively, one
        // instance at a time on the diagnosed bottleneck, and remember
        // the correction so it is not undone next round.
        let Some(bottleneck) = observation.bottleneck(deployed).map(String::from) else {
            return Ok(Decision::Converged);
        };
        let p = deployed
            .component(&bottleneck)
            .map_err(|e| CoreError::Substrate(e.to_string()))?
            .parallelism;
        if p >= self.max_parallelism {
            return Ok(Decision::Converged);
        }
        let next = deployed
            .with_parallelism(&bottleneck, p + 1)
            .map_err(|e| CoreError::Substrate(e.to_string()))?;
        match self.target.iter_mut().find(|(n, _)| *n == bottleneck) {
            Some((_, tp)) => *tp = p + 1,
            None => self.target.push((bottleneck, p + 1)),
        }
        Ok(Decision::Redeploy(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caladrius_planner::{PlanCost, PlannerConfig};
    use heron_sim::grouping::Grouping;
    use heron_sim::profiles::RateProfile;
    use heron_sim::topology::{TopologyBuilder, WorkProfile};

    fn chain(a_p: u32, b_p: u32) -> Topology {
        TopologyBuilder::new("t")
            .spout("spout", 2, RateProfile::constant(100.0), 60)
            .bolt("a", a_p, WorkProfile::new(100.0, 1.0, 8))
            .bolt("b", b_p, WorkProfile::new(100.0, 1.0, 8))
            .edge("spout", "a", Grouping::shuffle())
            .edge("a", "b", Grouping::shuffle())
            .build()
            .unwrap()
    }

    fn healthy() -> RoundObservation {
        RoundObservation {
            visible_offered: 200.0,
            processed: vec![("a".into(), 200.0), ("b".into(), 200.0)],
            emitted: vec![("a".into(), 200.0), ("b".into(), 200.0)],
            backpressure_ms: vec![("a".into(), 0.0), ("b".into(), 0.0)],
            sink_output: 200.0,
        }
    }

    fn backpressured_at(component: &str) -> RoundObservation {
        RoundObservation {
            visible_offered: 200.0,
            processed: vec![("a".into(), 100.0), ("b".into(), 100.0)],
            emitted: vec![("a".into(), 100.0), ("b".into(), 100.0)],
            backpressure_ms: vec![
                ("a".into(), if component == "a" { 50_000.0 } else { 0.0 }),
                ("b".into(), if component == "b" { 50_000.0 } else { 0.0 }),
            ],
            sink_output: 100.0,
        }
    }

    #[test]
    fn redeploys_all_diffs_at_once_then_converges() {
        let mut policy = PlanFollower::new(vec![("a".into(), 5), ("b".into(), 3)]);
        // Even a healthy observation does not excuse skipping the plan:
        // the plan covers the *forecast* peak, not the current load.
        match policy.decide(&chain(1, 1), &healthy()).unwrap() {
            Decision::Redeploy(topo) => {
                assert_eq!(topo.component("a").unwrap().parallelism, 5);
                assert_eq!(topo.component("b").unwrap().parallelism, 3);
            }
            other => panic!("expected redeploy, got {other:?}"),
        }
        assert_eq!(
            policy.decide(&chain(5, 3), &healthy()).unwrap(),
            Decision::Converged
        );
    }

    #[test]
    fn optimistic_plan_degrades_to_reactive_nudges() {
        let mut policy = PlanFollower::new(vec![("a".into(), 2)]).with_max_parallelism(3);
        // Target is live but `a` still backpressures: nudge a → 3 and
        // fold the correction into the target.
        match policy.decide(&chain(2, 1), &backpressured_at("a")).unwrap() {
            Decision::Redeploy(topo) => {
                assert_eq!(topo.component("a").unwrap().parallelism, 3);
            }
            other => panic!("expected corrective redeploy, got {other:?}"),
        }
        assert_eq!(policy.target(), &[("a".to_string(), 3)]);
        // At the cap the follower stops escalating.
        assert_eq!(
            policy.decide(&chain(3, 1), &backpressured_at("a")).unwrap(),
            Decision::Converged
        );
    }

    #[test]
    fn follows_timeline_peak_assignment() {
        let parallelisms = vec![("a".to_string(), 4), ("b".to_string(), 2)];
        let cost = PlanCost::of(&parallelisms, &PlannerConfig::default().limits);
        let timeline = PlanTimeline {
            windows: Vec::new(),
            peak_parallelisms: parallelisms.clone(),
            peak_cost: cost,
            oracle_evals: 0,
        };
        let mut policy = PlanFollower::for_timeline_peak(&timeline);
        match policy.decide(&chain(1, 2), &healthy()).unwrap() {
            Decision::Redeploy(topo) => {
                assert_eq!(topo.component("a").unwrap().parallelism, 4);
                assert_eq!(topo.component("b").unwrap().parallelism, 2);
            }
            other => panic!("expected redeploy, got {other:?}"),
        }
    }

    #[test]
    fn components_missing_from_deployment_are_ignored() {
        let mut policy = PlanFollower::new(vec![("ghost".into(), 9)]);
        assert_eq!(
            policy.decide(&chain(1, 1), &healthy()).unwrap(),
            Decision::Converged
        );
    }
}
