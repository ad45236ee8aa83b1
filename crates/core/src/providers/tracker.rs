//! Topology-metadata provider (Heron Tracker analog, paper §III-C1).

use crate::error::{CoreError, Result};
use caladrius_graph::topology_graph::LogicalSpec;
use heron_sim::cluster::Cluster;
use heron_sim::topology::Topology;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Read access to topology metadata: logical structure, parallelisms and
/// update versions.
pub trait TopologyTracker: Send + Sync {
    /// The logical spec (components with parallelism, grouped edges).
    fn logical_spec(&self, topology: &str) -> Result<LogicalSpec>;

    /// Monotonic version bumped on every topology update; part of the
    /// model and plan caches' data stamp.
    fn last_updated(&self, topology: &str) -> Result<u64>;

    /// Names of known topologies, sorted.
    fn topologies(&self) -> Vec<String>;
}

/// Converts a simulator topology into the graph-layer spec.
pub fn to_logical_spec(topology: &Topology) -> LogicalSpec {
    let mut spec = LogicalSpec::new(topology.name.clone());
    for c in &topology.components {
        spec = spec.component(c.name.clone(), c.parallelism);
    }
    for e in &topology.edges {
        spec = spec.edge(
            topology.components[e.from].name.clone(),
            topology.components[e.to].name.clone(),
            e.grouping.kind_name(),
        );
    }
    spec
}

/// Tracker backed by a live simulator [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterTracker {
    cluster: Arc<RwLock<Cluster>>,
}

impl ClusterTracker {
    /// Wraps a shared cluster.
    pub fn new(cluster: Arc<RwLock<Cluster>>) -> Self {
        Self { cluster }
    }

    /// Shared handle to the underlying cluster (for scaling operations in
    /// tests and examples).
    pub fn cluster(&self) -> Arc<RwLock<Cluster>> {
        Arc::clone(&self.cluster)
    }
}

impl TopologyTracker for ClusterTracker {
    fn logical_spec(&self, topology: &str) -> Result<LogicalSpec> {
        let cluster = self.cluster.read();
        let record = cluster.get(topology)?;
        Ok(to_logical_spec(&record.topology))
    }

    fn last_updated(&self, topology: &str) -> Result<u64> {
        Ok(self.cluster.read().get(topology)?.last_updated)
    }

    fn topologies(&self) -> Vec<String> {
        self.cluster.read().topology_names()
    }
}

/// Tracker over a set of topologies held in memory (no cluster needed):
/// one-shot analyses, tests, and a fleet shard's hosted topologies.
/// Registrations may land while a service reads it, and re-registration
/// bumps the version (invalidating the model and plan caches downstream).
#[derive(Debug, Default)]
pub struct StaticTracker {
    topologies: RwLock<HashMap<String, (Topology, u64)>>,
}

impl StaticTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a topology at version 1 (or bumps the version when the
    /// name is already present).
    pub fn insert(&self, topology: Topology) {
        let mut topologies = self.topologies.write();
        let version = topologies
            .get(&topology.name)
            .map(|(_, v)| v + 1)
            .unwrap_or(1);
        topologies.insert(topology.name.clone(), (topology, version));
    }

    /// Builder-style insertion.
    pub fn with(self, topology: Topology) -> Self {
        self.insert(topology);
        self
    }
}

impl TopologyTracker for StaticTracker {
    fn logical_spec(&self, topology: &str) -> Result<LogicalSpec> {
        self.topologies
            .read()
            .get(topology)
            .map(|(t, _)| to_logical_spec(t))
            .ok_or_else(|| CoreError::Unknown(format!("topology {topology:?}")))
    }

    fn last_updated(&self, topology: &str) -> Result<u64> {
        self.topologies
            .read()
            .get(topology)
            .map(|(_, v)| *v)
            .ok_or_else(|| CoreError::Unknown(format!("topology {topology:?}")))
    }

    fn topologies(&self) -> Vec<String> {
        let mut names: Vec<String> = self.topologies.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_sim::grouping::Grouping;
    use heron_sim::packing::PackingAlgorithm;
    use heron_sim::profiles::RateProfile;
    use heron_sim::topology::{TopologyBuilder, WorkProfile};

    fn topo() -> Topology {
        TopologyBuilder::new("wc")
            .spout("spout", 2, RateProfile::constant(10.0), 60)
            .bolt("splitter", 3, WorkProfile::new(100.0, 7.63, 8))
            .edge("spout", "splitter", Grouping::fields_uniform())
            .build()
            .unwrap()
    }

    #[test]
    fn logical_spec_conversion() {
        let spec = to_logical_spec(&topo());
        assert_eq!(spec.name, "wc");
        assert_eq!(
            spec.components,
            vec![("spout".to_string(), 2), ("splitter".to_string(), 3)]
        );
        assert_eq!(
            spec.edges,
            vec![(
                "spout".to_string(),
                "splitter".to_string(),
                "fields".to_string()
            )]
        );
    }

    #[test]
    fn static_tracker_lookup_and_versioning() {
        let tracker = StaticTracker::new().with(topo());
        assert_eq!(tracker.topologies(), vec!["wc"]);
        assert_eq!(tracker.last_updated("wc").unwrap(), 1);
        tracker.insert(topo().with_parallelism("splitter", 5).unwrap());
        assert_eq!(tracker.last_updated("wc").unwrap(), 2);
        let spec = tracker.logical_spec("wc").unwrap();
        assert_eq!(spec.components[1].1, 5);
        assert!(tracker.logical_spec("nope").is_err());
        assert!(tracker.last_updated("nope").is_err());
    }

    #[test]
    fn cluster_tracker_reflects_updates() {
        let mut cluster = Cluster::new();
        cluster
            .submit(topo(), PackingAlgorithm::RoundRobin { num_containers: 2 })
            .unwrap();
        let shared = Arc::new(RwLock::new(cluster));
        let tracker = ClusterTracker::new(Arc::clone(&shared));
        let v1 = tracker.last_updated("wc").unwrap();
        shared
            .write()
            .update_parallelism("wc", &[("splitter", 6)])
            .unwrap();
        let v2 = tracker.last_updated("wc").unwrap();
        assert!(v2 > v1);
        let spec = tracker.logical_spec("wc").unwrap();
        assert_eq!(spec.components[1], ("splitter".to_string(), 6));
        assert_eq!(tracker.topologies(), vec!["wc"]);
        assert!(tracker.logical_spec("nope").is_err());
    }
}
