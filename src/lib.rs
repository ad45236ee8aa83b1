//! # caladrius
//!
//! Facade crate re-exporting the whole Caladrius workspace: a from-scratch
//! Rust reproduction of *"Caladrius: A Performance Modelling Service for
//! Distributed Stream Processing Systems"* (ICDE 2019).
//!
//! See the individual crates for details:
//!
//! * [`core`] — the paper's contribution: traffic and performance models.
//! * [`sim`] — the Heron-style DSPS simulator substrate.
//! * [`tsdb`] — the metrics time-series database substrate.
//! * [`graph`] — the typed topology DAG and its path calculations.
//! * [`forecast`] — the Prophet-analog forecasting substrate.
//! * [`workload`] — corpus/traffic generators and the WordCount topology.
//! * [`planner`] — the horizon capacity planner: joint parallelism
//!   search over the fitted models plus sim-replay validation.
//! * [`api`] — the REST service tier.
//! * [`fleet`] — the multi-tenant fleet tier: sharded services and
//!   the cluster-level container-budget planner.
//! * [`autoscale`] — scaling policies: the Dhalion-style reactive
//!   baseline vs Caladrius-driven one-shot scaling.
//! * [`obs`] — the observability layer: metrics registry, span tracing,
//!   Prometheus exposition and forecast-accuracy self-monitoring.
//! * [`exec`] — the structured-parallelism executor: scoped worker
//!   pools with order-preserving, deterministic map primitives.

#![warn(missing_docs)]

pub use caladrius_api as api;
pub use caladrius_autoscale as autoscale;
pub use caladrius_core as core;
pub use caladrius_exec as exec;
pub use caladrius_fleet as fleet;
pub use caladrius_forecast as forecast;
pub use caladrius_graph as graph;
pub use caladrius_obs as obs;
pub use caladrius_planner as planner;
pub use caladrius_tsdb as tsdb;
pub use caladrius_workload as workload;
pub use heron_sim as sim;
