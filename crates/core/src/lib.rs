//! # caladrius-core
//!
//! The paper's contribution: Caladrius's performance models and the
//! service logic around them.
//!
//! Caladrius answers two questions about a running stream-processing
//! topology *without deploying anything*:
//!
//! 1. **Traffic** — what will the topology's source throughput be in the
//!    near future? ([`traffic`], backed by the `caladrius-forecast`
//!    substrate: Prophet-style, statistics-summary and AR models behind
//!    one registry.)
//! 2. **Performance** — how will the topology perform under a given
//!    traffic level and a (possibly hypothetical) parallelism
//!    configuration? ([`model`]: the paper's Eq. 1–14 — piecewise-linear
//!    instance models, grouping-aware component scaling, critical-path
//!    chaining, backpressure-risk classification — plus the §V-E CPU-load
//!    use case.)
//!
//! Everything is wired together by [`service::Caladrius`], which pulls
//! metrics through the [`providers`] seams (metrics database, topology
//! tracker) exactly the way the paper's model-logistics tier does
//! (Fig. 2), and builds the topology DAG from the tracker's spec when it
//! needs the structure.

#![warn(missing_docs)]

pub mod accuracy;
pub mod capacity;
pub mod config;
pub mod error;
mod freshness;
pub mod model;
pub mod providers;
pub mod service;
pub mod traffic;

pub use error::{CoreError, Result};
pub use freshness::Freshness;
pub use service::{Caladrius, ModelCacheStats, PlanCacheStats, SourceHistoryReads};
