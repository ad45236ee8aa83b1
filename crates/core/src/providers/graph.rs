//! Cached topology-graph construction (paper §III-C1).
//!
//! "A topology's logical and physical representation is cached in the
//! graph metadata component ... If a change is made to a topology, the
//! information in the graph component is invalidated and updated."
//! [`GraphService`] keys its cache on the tracker's `last_updated`
//! version.

use crate::error::Result;
use crate::providers::tracker::TopologyTracker;
use caladrius_graph::algo;
use caladrius_graph::topology_graph::{
    build_logical, instance_path_count, LogicalSpec, MetadataCache,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// A cached, shareable logical-graph view of one topology.
#[derive(Debug, Clone)]
pub struct CachedLogical {
    /// The spec the graph was built from.
    pub spec: LogicalSpec,
    /// Spout→sink component-name paths (critical-path candidates).
    pub critical_paths: Vec<Vec<String>>,
    /// Number of distinct instance-level paths (paper Fig. 1c).
    pub instance_paths: u64,
}

/// Graph construction + cache over a tracker.
pub struct GraphService {
    cache: Mutex<MetadataCache<Arc<CachedLogical>>>,
}

impl std::fmt::Debug for GraphService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphService").finish_non_exhaustive()
    }
}

impl Default for GraphService {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphService {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            cache: Mutex::new(MetadataCache::new()),
        }
    }

    /// `(hits, misses)` of the underlying cache.
    pub fn stats(&self) -> (u64, u64) {
        self.cache.lock().stats()
    }

    /// Returns the cached logical view for `topology`, rebuilding when
    /// the tracker reports a newer version.
    pub fn logical(
        &self,
        tracker: &dyn TopologyTracker,
        topology: &str,
    ) -> Result<Arc<CachedLogical>> {
        let version = tracker.last_updated(topology)?;
        if let Some(cached) = self.cache.lock().get(topology, version) {
            return Ok(cached);
        }

        // Build outside the lock (spec fetch can be slow in a real
        // deployment), then publish.
        let spec = tracker.logical_spec(topology)?;
        let logical = build_logical(&spec)?;
        let paths = algo::source_sink_paths(&logical.graph)
            .into_iter()
            .map(|path| {
                path.into_iter()
                    .map(|v| {
                        logical
                            .graph
                            .vertex_prop(v, "name")
                            .and_then(|p| p.as_str().map(String::from))
                            .expect("built vertices carry names")
                    })
                    .collect()
            })
            .collect();
        let built = Arc::new(CachedLogical {
            instance_paths: instance_path_count(&spec)?,
            critical_paths: paths,
            spec,
        });
        self.cache.lock().put(topology, version, Arc::clone(&built));
        Ok(built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::tracker::StaticTracker;
    use heron_sim::grouping::Grouping;
    use heron_sim::profiles::RateProfile;
    use heron_sim::topology::{Topology, TopologyBuilder, WorkProfile};

    fn topo() -> Topology {
        TopologyBuilder::new("wc")
            .spout("spout", 2, RateProfile::constant(10.0), 60)
            .bolt("splitter", 2, WorkProfile::new(100.0, 7.63, 8))
            .bolt("counter", 4, WorkProfile::new(100.0, 1.0, 8))
            .edge("spout", "splitter", Grouping::shuffle())
            .edge("splitter", "counter", Grouping::fields_uniform())
            .build()
            .unwrap()
    }

    #[test]
    fn builds_critical_paths_and_instance_count() {
        let tracker = StaticTracker::new().with(topo());
        let service = GraphService::new();
        let logical = service.logical(&tracker, "wc").unwrap();
        assert_eq!(
            logical.critical_paths,
            vec![vec!["spout", "splitter", "counter"]]
        );
        assert_eq!(logical.instance_paths, 16, "paper Fig. 1c: 16 paths");
    }

    #[test]
    fn caches_until_version_changes() {
        let tracker = StaticTracker::new().with(topo());
        let service = GraphService::new();
        let a = service.logical(&tracker, "wc").unwrap();
        let b = service.logical(&tracker, "wc").unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "same version must be served from cache"
        );

        // Scale the counter: new version, rebuilt graph.
        tracker.insert(topo().with_parallelism("counter", 8).unwrap());
        let c = service.logical(&tracker, "wc").unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.instance_paths, 32);
    }

    #[test]
    fn unknown_topology_errors() {
        let tracker = StaticTracker::new();
        let service = GraphService::new();
        assert!(service.logical(&tracker, "ghost").is_err());
    }
}
