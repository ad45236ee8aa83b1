//! Shard-local provider seams: a multi-topology metrics provider and a
//! mutable topology tracker.
//!
//! A fleet shard hosts many topologies behind one `Caladrius` instance.
//! Two properties matter:
//!
//! * **Watermark isolation** — the service's model cache is keyed by
//!   each topology's data watermark, so every topology gets its *own*
//!   [`SimMetrics`] store (own `MetricsDb`, own watermark). One tenant's
//!   ingest must not invalidate a shard-mate's cached models.
//! * **Online registration** — topologies arrive while the service is
//!   running, so both seams are interior-mutable behind `RwLock`s.

use caladrius_core::error::{CoreError, Result};
use caladrius_core::providers::metrics::MetricsProvider;
use caladrius_tsdb::{IngestStats, Sample, SeriesKey, TagFilter};
use heron_sim::metrics::{SeriesSet, SimMetrics};
use parking_lot::RwLock;
use std::collections::HashMap;

/// A shard's hosted topologies: core's tracker, which takes
/// registrations while the service runs.
pub use caladrius_core::providers::StaticTracker as FleetTracker;

/// Per-shard metrics provider: one [`SimMetrics`] store per hosted
/// topology, registered online and looked up by topology id.
#[derive(Debug, Default)]
pub struct ShardMetricsProvider {
    topologies: RwLock<HashMap<String, SimMetrics>>,
}

impl ShardMetricsProvider {
    /// An empty provider.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a topology's metrics store.
    pub fn register(&self, metrics: SimMetrics) {
        self.topologies
            .write()
            .insert(metrics.topology().to_string(), metrics);
    }

    /// The metrics store of a hosted topology.
    pub fn metrics(&self, topology: &str) -> Option<SimMetrics> {
        self.topologies.read().get(topology).cloned()
    }

    /// Number of hosted topologies.
    pub fn len(&self) -> usize {
        self.topologies.read().len()
    }

    /// True when no topology is hosted.
    pub fn is_empty(&self) -> bool {
        self.topologies.read().is_empty()
    }

    fn lookup(&self, topology: &str) -> Result<SimMetrics> {
        self.metrics(topology)
            .ok_or_else(|| CoreError::Unknown(format!("topology {topology:?}")))
    }
}

impl MetricsProvider for ShardMetricsProvider {
    fn series_set(
        &self,
        topology: &str,
        component: &str,
        metric_name: &str,
        from: i64,
        to: i64,
    ) -> Result<SeriesSet> {
        Ok(self
            .lookup(topology)?
            .series_set(metric_name, component, from, to))
    }

    fn latest_minute(&self, topology: &str) -> Option<i64> {
        self.metrics(topology)?.db().watermark()
    }

    fn truncation_generation(&self, topology: &str) -> Option<u64> {
        // The hosted store's own counter: one tenant's retention pass is
        // no reason for a shard-mate to refit.
        Some(self.metrics(topology)?.db().truncation_generation())
    }

    fn ingest_stats(&self) -> Option<IngestStats> {
        // Shard-wide view: sum over every hosted topology's store.
        let topologies = self.topologies.read();
        let mut total = IngestStats::default();
        for metrics in topologies.values() {
            let stats = metrics.db().ingest_stats();
            total.batches += stats.batches;
            total.samples += stats.samples;
        }
        Some(total)
    }

    fn select_series(
        &self,
        topology: &str,
        metric_name: &str,
        filters: &[TagFilter],
        from: i64,
        to: i64,
    ) -> Result<Vec<(SeriesKey, Vec<Sample>)>> {
        let metrics = self.lookup(topology)?;
        let mut scoped = vec![TagFilter::eq(heron_sim::metrics::tag::TOPOLOGY, topology)];
        scoped.extend_from_slice(filters);
        Ok(metrics.db().select(metric_name, &scoped, from, to)?)
    }
}
