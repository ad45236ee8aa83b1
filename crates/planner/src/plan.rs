//! Plan vocabulary: resource limits, the cost model, per-window plans
//! and the stitched horizon timeline.

use serde::{Deserialize, Serialize};

/// Errors from planning.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The planner was configured inconsistently (bad headroom, zero
    /// windows, impossible limits, ...).
    InvalidConfig(String),
    /// The capacity oracle failed to assess a configuration.
    Oracle(String),
    /// No configuration within the limits keeps the window feasible.
    Infeasible {
        /// Index of the offending forecast window.
        window: usize,
        /// Rate (after headroom) that could not be sustained.
        rate: f64,
        /// Component pinned at its maximum when the search gave up, if
        /// a single one could be blamed.
        component: Option<String>,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::InvalidConfig(msg) => write!(f, "invalid planner config: {msg}"),
            PlanError::Oracle(msg) => write!(f, "capacity oracle error: {msg}"),
            PlanError::Infeasible {
                window,
                rate,
                component,
            } => {
                write!(f, "window {window} infeasible at {rate:.3e} tuples/min")?;
                if let Some(c) = component {
                    write!(f, " ({c} pinned at its maximum parallelism)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Per-instance resource requests and cluster packing limits used by
/// the cost model and the CPU-headroom constraint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceLimits {
    /// Cores requested per instance (the CPU-headroom budget each
    /// instance's predicted load must fit under).
    pub cores_per_instance: f64,
    /// RAM requested per instance, MB.
    pub ram_mb_per_instance: u64,
    /// Cores per container (packing denominator for the cost model).
    pub container_cpu: f64,
    /// RAM per container, MB.
    pub container_ram_mb: u64,
    /// Upper bound on any single component's parallelism.
    pub max_parallelism: u32,
    /// Container budget the plan must fit under: every window's
    /// [`PlanCost::containers`] must be ≤ this. [`UNLIMITED_CONTAINERS`]
    /// (the default) disables the constraint; the fleet tier lowers it
    /// to each topology's granted share of the cluster budget.
    pub max_containers: u32,
}

/// Sentinel for [`ResourceLimits::max_containers`]: no container budget.
pub const UNLIMITED_CONTAINERS: u32 = u32::MAX;

/// The largest parallelism of one component that a plan may consider or
/// a what-if may propose. A prediction walks every instance and a plan
/// search probes [`ResourceLimits::max_parallelism`] first, so work and
/// memory grow with the parallelism asked for: at `u32::MAX` one request
/// would hold a worker for hours and then allocate gigabytes.
pub const MAX_PARALLELISM: u32 = 65_536;

impl Default for ResourceLimits {
    fn default() -> Self {
        // Instance defaults mirror `heron_sim::topology::Resources`;
        // containers default to 4-core / 8 GB boxes.
        Self {
            cores_per_instance: 1.0,
            ram_mb_per_instance: 2048,
            container_cpu: 4.0,
            container_ram_mb: 8192,
            max_parallelism: 64,
            max_containers: UNLIMITED_CONTAINERS,
        }
    }
}

impl ResourceLimits {
    /// Validates the limits.
    pub fn validate(&self) -> Result<(), PlanError> {
        if !(self.cores_per_instance > 0.0 && self.cores_per_instance.is_finite()) {
            return Err(PlanError::InvalidConfig(
                "cores_per_instance must be positive".into(),
            ));
        }
        if self.ram_mb_per_instance == 0 || self.container_ram_mb == 0 {
            return Err(PlanError::InvalidConfig(
                "RAM requests must be positive".into(),
            ));
        }
        if !(self.container_cpu >= self.cores_per_instance && self.container_cpu.is_finite()) {
            return Err(PlanError::InvalidConfig(
                "container_cpu must fit at least one instance".into(),
            ));
        }
        if self.container_ram_mb < self.ram_mb_per_instance {
            return Err(PlanError::InvalidConfig(
                "container_ram_mb must fit at least one instance".into(),
            ));
        }
        if self.max_parallelism == 0 {
            return Err(PlanError::InvalidConfig(
                "max_parallelism must be at least 1".into(),
            ));
        }
        if self.max_parallelism > MAX_PARALLELISM {
            return Err(PlanError::InvalidConfig(format!(
                "max_parallelism must be at most {MAX_PARALLELISM}"
            )));
        }
        if self.max_containers == 0 {
            return Err(PlanError::InvalidConfig(
                "max_containers must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Planner tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Rate multiplier applied to each window's peak forecast before
    /// feasibility is assessed (1.1 = plan for 10 % above the peak).
    pub headroom: f64,
    /// Fraction of `cores_per_instance` a component's predicted
    /// per-instance CPU load may use (0.85 = keep 15 % CPU headroom).
    pub cpu_utilization_cap: f64,
    /// Forecast-window length, minutes.
    pub window_minutes: u64,
    /// Hysteresis lookahead: each window adopts the componentwise
    /// maximum of the next `hysteresis_windows` raw plans (including
    /// its own), so short dips do not trigger scale-down churn. `1`
    /// disables smoothing.
    pub hysteresis_windows: usize,
    /// Resource requests and packing limits.
    pub limits: ResourceLimits,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            headroom: 1.1,
            cpu_utilization_cap: 0.85,
            window_minutes: 15,
            hysteresis_windows: 2,
            limits: ResourceLimits::default(),
        }
    }
}

impl PlannerConfig {
    /// Validates the config.
    pub fn validate(&self) -> Result<(), PlanError> {
        if !(self.headroom >= 1.0 && self.headroom.is_finite()) {
            return Err(PlanError::InvalidConfig("headroom must be >= 1.0".into()));
        }
        if !(self.cpu_utilization_cap > 0.0 && self.cpu_utilization_cap <= 1.0) {
            return Err(PlanError::InvalidConfig(
                "cpu_utilization_cap must be in (0, 1]".into(),
            ));
        }
        if self.window_minutes == 0 {
            return Err(PlanError::InvalidConfig(
                "window_minutes must be positive".into(),
            ));
        }
        if self.hysteresis_windows == 0 {
            return Err(PlanError::InvalidConfig(
                "hysteresis_windows must be at least 1".into(),
            ));
        }
        self.limits.validate()
    }
}

/// One forecast window the planner must cover.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowSpec {
    /// Window start, epoch milliseconds.
    pub start_ts: i64,
    /// Window end (exclusive), epoch milliseconds.
    pub end_ts: i64,
    /// Peak forecast source rate over the window, tuples/min.
    pub peak_rate: f64,
}

/// Cost of a parallelism assignment under [`ResourceLimits`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanCost {
    /// Total instances across all components.
    pub total_instances: u32,
    /// Total requested cores.
    pub total_cores: f64,
    /// Total requested RAM, MB.
    pub total_ram_mb: u64,
    /// Containers needed: `max(ceil(cores/container_cpu),
    /// ceil(ram/container_ram))`.
    pub containers: u32,
}

impl PlanCost {
    /// Costs a parallelism assignment.
    pub fn of(parallelisms: &[(String, u32)], limits: &ResourceLimits) -> PlanCost {
        let total_instances: u32 = parallelisms.iter().map(|(_, p)| *p).sum();
        let total_cores = f64::from(total_instances) * limits.cores_per_instance;
        let total_ram_mb = u64::from(total_instances).saturating_mul(limits.ram_mb_per_instance);
        let by_cpu = (total_cores / limits.container_cpu).ceil() as u32;
        let by_ram = total_ram_mb.div_ceil(limits.container_ram_mb) as u32;
        PlanCost {
            total_instances,
            total_cores,
            total_ram_mb,
            containers: by_cpu.max(by_ram),
        }
    }
}

/// Scale action between consecutive windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanAction {
    /// Raise a component's parallelism.
    ScaleUp {
        /// Component name.
        component: String,
        /// Parallelism before the action.
        from: u32,
        /// Parallelism after the action.
        to: u32,
    },
    /// Lower a component's parallelism.
    ScaleDown {
        /// Component name.
        component: String,
        /// Parallelism before the action.
        from: u32,
        /// Parallelism after the action.
        to: u32,
    },
}

/// Diff of two parallelism assignments as scale actions. Assignments
/// must list the same components in the same order.
pub fn diff_actions(before: &[(String, u32)], after: &[(String, u32)]) -> Vec<PlanAction> {
    let mut actions = Vec::new();
    for (name, to) in after {
        let from = before
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
            .unwrap_or(0);
        if *to > from {
            actions.push(PlanAction::ScaleUp {
                component: name.clone(),
                from,
                to: *to,
            });
        } else if *to < from {
            actions.push(PlanAction::ScaleDown {
                component: name.clone(),
                from,
                to: *to,
            });
        }
    }
    actions
}

/// The plan for one forecast window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowPlan {
    /// Index into the horizon's windows.
    pub window: usize,
    /// Window start, epoch milliseconds.
    pub start_ts: i64,
    /// Window end (exclusive), epoch milliseconds.
    pub end_ts: i64,
    /// Peak forecast rate the plan covers, tuples/min (before
    /// headroom).
    pub peak_rate: f64,
    /// Rate the plan was proven feasible at (peak × headroom).
    pub planned_rate: f64,
    /// Joint parallelism assignment, one entry per component.
    pub parallelisms: Vec<(String, u32)>,
    /// Resource cost of the assignment.
    pub cost: PlanCost,
    /// Saturation source rate of the assignment (tuples/min) as
    /// reported by the oracle, if finite.
    pub saturation_rate: f64,
    /// Actions relative to the previous window (or to the initial
    /// deployment for window 0).
    pub actions: Vec<PlanAction>,
}

/// The stitched horizon plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanTimeline {
    /// Per-window plans after hysteresis smoothing, in horizon order.
    pub windows: Vec<WindowPlan>,
    /// Componentwise maximum assignment across the horizon — the
    /// static configuration that covers every window.
    pub peak_parallelisms: Vec<(String, u32)>,
    /// Cost of [`PlanTimeline::peak_parallelisms`].
    pub peak_cost: PlanCost,
    /// Oracle evaluations the search spent across the horizon.
    pub oracle_evals: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asg(ps: &[(&str, u32)]) -> Vec<(String, u32)> {
        ps.iter().map(|(n, p)| (n.to_string(), *p)).collect()
    }

    #[test]
    fn cost_model_counts_containers_by_binding_resource() {
        let limits = ResourceLimits {
            cores_per_instance: 1.0,
            ram_mb_per_instance: 2048,
            container_cpu: 4.0,
            container_ram_mb: 8192,
            max_parallelism: 64,
            max_containers: UNLIMITED_CONTAINERS,
        };
        let cost = PlanCost::of(&asg(&[("a", 3), ("b", 5)]), &limits);
        assert_eq!(cost.total_instances, 8);
        assert!((cost.total_cores - 8.0).abs() < 1e-12);
        assert_eq!(cost.total_ram_mb, 16384);
        assert_eq!(cost.containers, 2);

        // RAM-bound: same instances, half the per-container RAM.
        let tight_ram = ResourceLimits {
            container_ram_mb: 4096,
            ..limits
        };
        assert_eq!(
            PlanCost::of(&asg(&[("a", 3), ("b", 5)]), &tight_ram).containers,
            4
        );
    }

    #[test]
    fn diff_actions_reports_both_directions() {
        let actions = diff_actions(&asg(&[("a", 2), ("b", 4)]), &asg(&[("a", 3), ("b", 1)]));
        assert_eq!(
            actions,
            vec![
                PlanAction::ScaleUp {
                    component: "a".into(),
                    from: 2,
                    to: 3
                },
                PlanAction::ScaleDown {
                    component: "b".into(),
                    from: 4,
                    to: 1
                },
            ]
        );
        assert!(diff_actions(&asg(&[("a", 2)]), &asg(&[("a", 2)])).is_empty());
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(PlannerConfig::default().validate().is_ok());
        assert!(PlannerConfig {
            headroom: 0.9,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(PlannerConfig {
            cpu_utilization_cap: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(PlannerConfig {
            hysteresis_windows: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ResourceLimits {
            container_cpu: 0.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ResourceLimits {
            max_containers: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ResourceLimits {
            max_parallelism: MAX_PARALLELISM + 1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ResourceLimits {
            max_parallelism: MAX_PARALLELISM,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }
}
