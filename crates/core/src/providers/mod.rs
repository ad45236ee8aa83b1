//! The model-logistics tier (paper §III-C): the seams through which the
//! models obtain metrics and topology metadata.
//!
//! * [`metrics`] — the metrics-provider interface plus the concrete
//!   implementation backed by the simulator's tsdb (standing in for
//!   HeronMetricsCache / Cuckoo), and the observation-window assembly
//!   that turns raw per-minute series into model training data.
//! * [`tracker`] — the topology-metadata interface (Heron Tracker
//!   analog): logical specs, parallelisms and last-updated versions.
//!   Callers build a `caladrius_graph::TopologyDag` from a spec when
//!   they need its structure; a build costs about a microsecond on a
//!   four-component spec (the `micro` bench's `graph/dag_build`), so
//!   nothing caches it.

pub mod metrics;
pub mod tracker;

pub use metrics::{MetricsProvider, SimMetricsProvider};
pub use tracker::{ClusterTracker, StaticTracker, TopologyTracker};
