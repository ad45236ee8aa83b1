//! # heron-sim
//!
//! A discrete-time simulator of a Heron-style distributed stream
//! processing system — the substrate that stands in for the Twitter
//! production environment (Heron on Aurora) used in the Caladrius paper's
//! evaluation.
//!
//! The simulator reproduces the mechanisms the paper's models rely on,
//! rather than the models themselves, so the piecewise-linear throughput
//! behaviour of paper Fig. 3 *emerges* from simulation:
//!
//! * **Topologies** ([`topology`]) — spouts and bolts with per-component
//!   parallelism, per-edge stream groupings and per-instance resource
//!   requests, validated as a DAG.
//! * **Stream groupings** ([`grouping`]) — shuffle, fields (with
//!   configurable key skew), all, global and custom routing shares.
//! * **Packing** ([`packing`]) — Heron's round-robin packing plus a
//!   first-fit-decreasing alternative, producing container-level packing
//!   plans.
//! * **Backpressure** ([`backpressure`]) — byte-accounted input queues
//!   with 100 MB / 50 MB high/low watermarks; any instance over the high
//!   watermark throttles every spout until it drains below the low
//!   watermark, yielding the paper's "backpressure is either present or
//!   not" dynamics.
//! * **The engine** ([`engine`]) — a per-second fluid simulation that
//!   moves tuple mass through instances, applies processing capacity and
//!   selectivity, accounts CPU, and exports the per-minute metrics Heron
//!   reports (execute-count, emit-count, backpressure-time, cpu-load).
//! * **Rate profiles** ([`profiles`]) — the paper's rate-controlled
//!   benchmark spout plus seasonal/step/noisy profiles for forecasting
//!   experiments.
//! * **Cluster state** ([`cluster`]) — a multi-topology registry with
//!   Heron-Tracker-style metadata (logical plan, packing plan,
//!   last-updated versions).
//!
//! ```
//! use heron_sim::prelude::*;
//!
//! let spec = TopologyBuilder::new("wordcount")
//!     .spout("spout", 2, RateProfile::constant_per_min(1.0e6), 60)
//!     .bolt("splitter", 1, WorkProfile::new(11.0e6 / 60.0, 7.63, 8))
//!     .bolt("counter", 3, WorkProfile::new(70.0e6 / 60.0, 1.0, 16))
//!     .edge("spout", "splitter", Grouping::shuffle())
//!     .edge("splitter", "counter", Grouping::fields_uniform())
//!     .build()
//!     .unwrap();
//! let mut sim = Simulation::new(spec, SimConfig::default()).unwrap();
//! let metrics = sim.run_minutes(10);
//! assert!(metrics.db().sample_count() > 0);
//! ```

#![warn(missing_docs)]

pub mod backpressure;
pub mod cluster;
pub mod engine;
pub mod error;
mod fluid;
pub mod grouping;
pub mod metrics;
pub mod packing;
pub mod profiles;
pub mod reference;
pub mod topology;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::engine::{SimConfig, Simulation};
    pub use crate::grouping::Grouping;
    pub use crate::metrics::{metric, SimMetrics};
    pub use crate::packing::{PackingAlgorithm, PackingPlan};
    pub use crate::profiles::RateProfile;
    pub use crate::topology::{ComponentKind, Resources, Topology, TopologyBuilder, WorkProfile};
}

pub use error::{Result, SimError};
