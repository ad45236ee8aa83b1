//! Horizon capacity planning for stream processing topologies.
//!
//! Caladrius's models (paper §V–§VI) answer one what-if at a time: a
//! single component's parallelism at a single source rate. Capacity
//! planning needs the *joint* configuration of every component over a
//! *forecast horizon*. This crate closes that gap:
//!
//! - [`search`] finds, per forecast window, the minimum-cost joint
//!   parallelism assignment that keeps backpressure risk Low with
//!   configurable CPU headroom, by bottleneck-first greedy ascent plus
//!   per-component binary search over the monotone feasibility boundary.
//! - [`plan`] holds the plan vocabulary: resource limits, the cost
//!   model (instances → cores/RAM → containers), per-window plans,
//!   scale-up/down actions, and the stitched [`plan::PlanTimeline`]
//!   with hysteresis to suppress plan churn.
//! - [`replay`] validates a timeline by replaying every window's plan
//!   in the `heron-sim` discrete-time simulator and reporting
//!   predicted-vs-simulated throughput and backpressure.
//!
//! The planner is deliberately model-agnostic: it drives any
//! [`search::CapacityOracle`], so the same search serves the fitted
//! Caladrius models (in `caladrius-core`) and the cheap analytic
//! oracles used in tests and benchmarks.

pub mod plan;
pub mod replay;
pub mod search;

pub use plan::{
    PlanAction, PlanCost, PlanError, PlanTimeline, PlannerConfig, ResourceLimits, WindowPlan,
    WindowSpec, MAX_PARALLELISM, UNLIMITED_CONTAINERS,
};
pub use replay::{replay_timeline, replay_timeline_with, ReplayConfig, WindowReplay};
pub use search::{
    min_satisfying, plan_horizon, plan_horizon_warm, plan_horizon_warm_with, plan_horizon_with,
    plan_window, plan_window_warm, Assessment, CapacityOracle,
};
