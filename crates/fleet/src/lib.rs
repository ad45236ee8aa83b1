//! # caladrius-fleet
//!
//! The fleet tier: one Caladrius deployment serving *many* topologies
//! for many tenants, as sketched in the paper's service architecture
//! (§III: "Caladrius is designed as a service that can model multiple
//! topologies concurrently").
//!
//! Three layers stack on the single-tenant service:
//!
//! * **Sharding** ([`fleet`], [`hash`], [`provider`]) — topologies are
//!   pinned to one of N shards by rendezvous hashing on the topology
//!   id; each shard is a full [`caladrius_core::Caladrius`] with its
//!   own per-topology tsdb stores and a `shard="<i>"` label on its obs
//!   series. Growing the fleet only migrates topologies to the new
//!   shard, keeping surviving shards' model caches warm.
//! * **One front door** ([`service`]) — [`Fleet`] implements the API
//!   tier's [`caladrius_api::Tenants`] seam, so the API tier's one
//!   [`caladrius_api::FrontDoor`] serves a fleet: every per-topology
//!   route of the paper answers for every tenant through its shard, the
//!   door's `/health` reports per shard, and the fleet mounts
//!   `/fleet/plan`, polled at the door's `/jobs/{id}`.
//! * **Cluster planning** ([`allocator`], [`Fleet::plan_fleet`]) — a
//!   knapsack-style split of a cluster-wide container budget across
//!   topologies by marginal backpressure-risk reduction (greedy, exact
//!   for the concave served-demand utility; property-tested against a
//!   DP oracle), with constrained re-plans where the grant binds.
//!
//! [`feed`] stages one simulator run and replays it into any number of
//! fleet topologies, so 1k-topology benches exercise the fleet's
//! ingest fan-out and planners instead of the simulator.

#![warn(missing_docs)]

pub mod allocator;
pub mod feed;
pub mod fleet;
pub mod hash;
pub mod provider;
pub mod service;

pub use allocator::{allocate_exact_dp, allocate_greedy, Allocation, BudgetGrant, TopologyDemand};
pub use feed::{BoundWorkload, StagedWorkload};
pub use fleet::{Fleet, FleetConfig, FleetHealth, FleetPlan, ShardHealth, TopologyPlanOutcome};
pub use hash::assign_shard;
pub use provider::{FleetTracker, ShardMetricsProvider};
pub use service::FleetService;
