//! Multi-topology cluster state with Heron-Tracker-style metadata.
//!
//! The Heron Tracker "continuously gathers information about Heron
//! topologies running on a cluster, including information about their
//! running status, logical representations and resource allocations, and
//! exposes a RESTful API" (paper §III-C1). [`Cluster`] is the simulator's
//! equivalent: a registry of deployed topologies, their packing plans and
//! a monotonically increasing `last_updated` version that Caladrius's
//! model and plan caches key invalidation on.

use crate::error::{Result, SimError};
use crate::packing::{PackingAlgorithm, PackingPlan};
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Tracker-visible record of one running topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologyRecord {
    /// The logical topology (components, parallelism, edges).
    pub topology: Topology,
    /// The physical packing plan.
    pub plan: PackingPlan,
    /// Monotonic version, bumped on every update (scaling etc.).
    pub last_updated: u64,
    /// Whether the topology is running.
    pub running: bool,
}

/// A registry of deployed topologies.
#[derive(Debug, Default)]
pub struct Cluster {
    topologies: HashMap<String, TopologyRecord>,
    clock: u64,
}

impl Cluster {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deploys (or redeploys) a topology with the given packing.
    pub fn submit(&mut self, topology: Topology, packing: PackingAlgorithm) -> Result<()> {
        let plan = packing.pack(&topology)?;
        self.clock += 1;
        self.topologies.insert(
            topology.name.clone(),
            TopologyRecord {
                topology,
                plan,
                last_updated: self.clock,
                running: true,
            },
        );
        Ok(())
    }

    /// Applies a parallelism update (Heron's `update` command) and bumps
    /// the version; the packing is recomputed with round-robin over the
    /// previous container count.
    pub fn update_parallelism(&mut self, topology: &str, updates: &[(&str, u32)]) -> Result<()> {
        let record = self
            .topologies
            .get(topology)
            .ok_or_else(|| SimError::UnknownTopology(topology.to_string()))?;
        let new_topology = record.topology.with_parallelisms(updates)?;
        let containers = record.plan.num_containers();
        let plan = PackingAlgorithm::RoundRobin {
            num_containers: containers,
        }
        .pack(&new_topology)?;
        self.clock += 1;
        let record = self.topologies.get_mut(topology).expect("checked above");
        record.topology = new_topology;
        record.plan = plan;
        record.last_updated = self.clock;
        Ok(())
    }

    /// Marks a topology as killed (record retained for post-mortems).
    pub fn kill(&mut self, topology: &str) -> Result<()> {
        let record = self
            .topologies
            .get_mut(topology)
            .ok_or_else(|| SimError::UnknownTopology(topology.to_string()))?;
        record.running = false;
        self.clock += 1;
        record.last_updated = self.clock;
        Ok(())
    }

    /// Looks a topology up.
    pub fn get(&self, topology: &str) -> Result<&TopologyRecord> {
        self.topologies
            .get(topology)
            .ok_or_else(|| SimError::UnknownTopology(topology.to_string()))
    }

    /// Names of all registered topologies, sorted.
    pub fn topology_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.topologies.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered topologies.
    pub fn len(&self) -> usize {
        self.topologies.len()
    }

    /// True when no topologies are registered.
    pub fn is_empty(&self) -> bool {
        self.topologies.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::Grouping;
    use crate::profiles::RateProfile;
    use crate::topology::{TopologyBuilder, WorkProfile};

    fn topo(name: &str) -> Topology {
        TopologyBuilder::new(name)
            .spout("s", 2, RateProfile::constant(10.0), 60)
            .bolt("b", 2, WorkProfile::new(100.0, 1.0, 8))
            .edge("s", "b", Grouping::shuffle())
            .build()
            .unwrap()
    }

    #[test]
    fn submit_and_get() {
        let mut c = Cluster::new();
        c.submit(
            topo("a"),
            PackingAlgorithm::RoundRobin { num_containers: 2 },
        )
        .unwrap();
        let rec = c.get("a").unwrap();
        assert!(rec.running);
        assert_eq!(rec.plan.num_containers(), 2);
        assert_eq!(rec.last_updated, 1);
        assert!(matches!(
            c.get("missing"),
            Err(SimError::UnknownTopology(_))
        ));
    }

    #[test]
    fn update_bumps_version_and_repacks() {
        let mut c = Cluster::new();
        c.submit(
            topo("a"),
            PackingAlgorithm::RoundRobin { num_containers: 2 },
        )
        .unwrap();
        c.update_parallelism("a", &[("b", 4)]).unwrap();
        let rec = c.get("a").unwrap();
        assert_eq!(rec.topology.component("b").unwrap().parallelism, 4);
        assert_eq!(rec.last_updated, 2);
        assert_eq!(rec.plan.total_instances(), 6);
        assert_eq!(rec.plan.num_containers(), 2);
    }

    #[test]
    fn update_unknown_component_fails_without_corruption() {
        let mut c = Cluster::new();
        c.submit(
            topo("a"),
            PackingAlgorithm::RoundRobin { num_containers: 1 },
        )
        .unwrap();
        assert!(c.update_parallelism("a", &[("ghost", 2)]).is_err());
        // Record untouched.
        assert_eq!(c.get("a").unwrap().last_updated, 1);
    }

    #[test]
    fn kill_marks_stopped() {
        let mut c = Cluster::new();
        c.submit(
            topo("a"),
            PackingAlgorithm::RoundRobin { num_containers: 1 },
        )
        .unwrap();
        c.kill("a").unwrap();
        assert!(!c.get("a").unwrap().running);
        assert!(c.kill("missing").is_err());
    }

    #[test]
    fn names_sorted_and_counts() {
        let mut c = Cluster::new();
        assert!(c.is_empty());
        c.submit(
            topo("zeta"),
            PackingAlgorithm::RoundRobin { num_containers: 1 },
        )
        .unwrap();
        c.submit(
            topo("alpha"),
            PackingAlgorithm::RoundRobin { num_containers: 1 },
        )
        .unwrap();
        assert_eq!(c.topology_names(), vec!["alpha", "zeta"]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn versions_are_globally_monotonic() {
        let mut c = Cluster::new();
        c.submit(
            topo("a"),
            PackingAlgorithm::RoundRobin { num_containers: 1 },
        )
        .unwrap();
        c.submit(
            topo("b"),
            PackingAlgorithm::RoundRobin { num_containers: 1 },
        )
        .unwrap();
        c.update_parallelism("a", &[("b", 3)]).unwrap();
        assert!(c.get("a").unwrap().last_updated > c.get("b").unwrap().last_updated);
    }
}
