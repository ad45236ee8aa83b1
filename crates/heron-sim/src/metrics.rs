//! Metric names and the simulator's metrics sink.
//!
//! The simulator exports per-minute, per-instance metrics the way a Heron
//! metrics manager ships them to Cuckoo / the MetricsCache, stored in a
//! [`caladrius_tsdb::MetricsDb`]. Caladrius's metrics provider reads them
//! back through the tag-filtered query interface. Only the series the
//! models read are recorded: execute-count, emit-count, backpressure time
//! and CPU load per instance, plus each spout's offered load.

use caladrius_tsdb::{
    Aggregation, MetricBatch, MetricsDb, Sample, SeriesHandle, SeriesKey, TagFilter,
};
use std::sync::Arc;

/// Canonical metric names.
pub mod metric {
    /// Tuples processed per minute (the paper's `processed-count`).
    pub const EXECUTE_COUNT: &str = "execute-count";
    /// Tuples emitted per minute.
    pub const EMIT_COUNT: &str = "emit-count";
    /// Offered external-source load per minute (what the source *would*
    /// deliver; equals emit-count when no backpressure throttles spouts).
    pub const SOURCE_OFFERED: &str = "source-offered";
    /// Milliseconds spent suppressing spouts this minute, in `[0, 60000]`.
    pub const BACKPRESSURE_TIME: &str = "backpressure-time";
    /// CPU load in cores (Heron's JVM process CPU metric).
    pub const CPU_LOAD: &str = "cpu-load";
}

/// Tag names used on every simulator series.
pub mod tag {
    /// Topology name tag.
    pub const TOPOLOGY: &str = "topology";
    /// Component name tag.
    pub const COMPONENT: &str = "component";
    /// Instance index tag.
    pub const INSTANCE: &str = "instance";
    /// Container id tag.
    pub const CONTAINER: &str = "container";
}

/// Pre-resolved series handles for one simulated instance.
///
/// Resolved once per run via [`SimMetrics::register_instance`] so the
/// per-minute flush appends under only the per-series locks — no tag
/// hashing or catalog contention on the steady-state write path.
#[derive(Debug, Clone)]
pub struct InstanceHandles {
    /// `execute-count` series.
    pub execute: SeriesHandle,
    /// `emit-count` series.
    pub emit: SeriesHandle,
    /// `cpu-load` series.
    pub cpu: SeriesHandle,
    /// `backpressure-time` series.
    pub backpressure: SeriesHandle,
    /// `source-offered` series; `None` for bolts.
    pub offered: Option<SeriesHandle>,
}

/// One component's series of one metric over a window, read once: both
/// views come from the same `select`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesSet {
    /// Per-minute sum over every matching series, added in the store's
    /// key order — what [`SimMetrics::component_sum`] returns.
    pub combined: Vec<Sample>,
    /// Per-minute sum per instance, instances in instance-string order —
    /// what [`SimMetrics::per_instance`] returns. Each series is
    /// ascending in `ts` with at most one sample per minute bucket.
    pub per_instance: Vec<(u32, Vec<Sample>)>,
}

/// `aggregate_by(.., tag::INSTANCE, ..)` groups keyed by instance index.
fn by_instance_index(groups: Vec<(String, Vec<Sample>)>) -> Vec<(u32, Vec<Sample>)> {
    groups
        .into_iter()
        .filter_map(|(g, s)| g.parse::<u32>().ok().map(|i| (i, s)))
        .collect()
}

/// The key of one instance's series of metric `name`.
fn instance_key(
    topology: &str,
    name: &str,
    component: &str,
    instance: u32,
    container: u32,
) -> SeriesKey {
    SeriesKey::new(name)
        .with_tag(tag::TOPOLOGY, topology)
        .with_tag(tag::COMPONENT, component)
        .with_tag(tag::INSTANCE, instance.to_string())
        .with_tag(tag::CONTAINER, container.to_string())
}

/// Metrics sink + typed read helpers for one topology's simulation run.
#[derive(Debug, Clone)]
pub struct SimMetrics {
    db: Arc<MetricsDb>,
    topology: String,
}

impl SimMetrics {
    /// Creates a sink writing into a fresh database.
    pub fn new(topology: impl Into<String>) -> Self {
        Self::with_db(topology, Arc::new(MetricsDb::new()))
    }

    /// Creates a sink writing into an existing (possibly shared) database.
    pub fn with_db(topology: impl Into<String>, db: Arc<MetricsDb>) -> Self {
        Self {
            db,
            topology: topology.into(),
        }
    }

    /// The underlying database (shared handle).
    pub fn db(&self) -> Arc<MetricsDb> {
        Arc::clone(&self.db)
    }

    /// The topology these metrics belong to.
    pub fn topology(&self) -> &str {
        &self.topology
    }

    fn instance_key(
        &self,
        name: &str,
        component: &str,
        instance: u32,
        container: u32,
    ) -> SeriesKey {
        instance_key(&self.topology, name, component, instance, container)
    }

    /// Sorts one component's instances, given as `(instance, container,
    /// payload)`, into the order the store keeps their series of one
    /// metric in: the order in which [`SimMetrics::component_sum`] adds
    /// them up.
    pub(crate) fn sort_in_key_order<T>(component: &str, instances: &mut [(u32, u32, T)]) {
        // Every key compared shares its metric name and topology, so
        // placeholders for both give the stored keys' order.
        instances.sort_by_cached_key(|&(instance, container, _)| {
            instance_key("", "", component, instance, container)
        });
    }

    /// Records a per-instance sample.
    pub fn record_instance(
        &self,
        name: &str,
        component: &str,
        instance: u32,
        container: u32,
        minute_ts: i64,
        value: f64,
    ) {
        let key = self.instance_key(name, component, instance, container);
        self.db.append(&self.db.register(&key), minute_ts, value);
    }

    /// Resolves all per-instance series handles for one instance up front.
    ///
    /// `is_spout` controls whether a `source-offered` series is registered.
    pub fn register_instance(
        &self,
        component: &str,
        instance: u32,
        container: u32,
        is_spout: bool,
    ) -> InstanceHandles {
        let register = |name: &str| {
            self.db
                .register(&self.instance_key(name, component, instance, container))
        };
        InstanceHandles {
            execute: register(metric::EXECUTE_COUNT),
            emit: register(metric::EMIT_COUNT),
            cpu: register(metric::CPU_LOAD),
            backpressure: register(metric::BACKPRESSURE_TIME),
            offered: is_spout.then(|| register(metric::SOURCE_OFFERED)),
        }
    }

    /// Ingests one assembled minute batch.
    pub fn ingest(&self, batch: &MetricBatch) {
        self.db.ingest_batch(batch);
    }

    fn base_filters(&self, component: Option<&str>) -> Vec<TagFilter> {
        let mut f = vec![TagFilter::eq(tag::TOPOLOGY, self.topology.clone())];
        if let Some(c) = component {
            f.push(TagFilter::eq(tag::COMPONENT, c));
        }
        f
    }

    /// Per-minute sum of a metric across all instances of a component
    /// (`component = None` sums the whole topology).
    pub fn component_sum(
        &self,
        name: &str,
        component: Option<&str>,
        from: i64,
        to: i64,
    ) -> Vec<Sample> {
        self.db
            .aggregate(
                name,
                &self.base_filters(component),
                from,
                to,
                60_000,
                Aggregation::Sum,
                Aggregation::Sum,
            )
            .unwrap_or_default()
    }

    // Shim: a delta read is a range read. Kept only because
    // `benchmarks/src/probes.rs` (the `tsdb.read_since` probe) compiles
    // against it; it goes when that probe reads `component_sum`.
    #[doc(hidden)]
    pub fn component_sum_since(
        &self,
        name: &str,
        component: Option<&str>,
        since: i64,
        to: i64,
    ) -> Vec<Sample> {
        self.component_sum(name, component, since.saturating_add(1), to)
    }

    /// Per-minute mean of a metric across instances of a component.
    pub fn component_mean(&self, name: &str, component: &str, from: i64, to: i64) -> Vec<Sample> {
        self.db
            .aggregate(
                name,
                &self.base_filters(Some(component)),
                from,
                to,
                60_000,
                Aggregation::Mean,
                Aggregation::Mean,
            )
            .unwrap_or_default()
    }

    /// One instance's raw series for a metric.
    pub fn instance_series(
        &self,
        name: &str,
        component: &str,
        instance: u32,
        from: i64,
        to: i64,
    ) -> Vec<Sample> {
        let mut filters = self.base_filters(Some(component));
        filters.push(TagFilter::eq(tag::INSTANCE, instance.to_string()));
        self.db
            .select(name, &filters, from, to)
            .unwrap_or_default()
            .into_iter()
            .flat_map(|(_, s)| s)
            .collect()
    }

    /// Per-instance series of a metric for a component, keyed by instance
    /// index, minute-bucketed.
    pub fn per_instance(
        &self,
        name: &str,
        component: &str,
        from: i64,
        to: i64,
    ) -> Vec<(u32, Vec<Sample>)> {
        by_instance_index(
            self.db
                .aggregate_by(
                    name,
                    &self.base_filters(Some(component)),
                    tag::INSTANCE,
                    from,
                    to,
                    60_000,
                    Aggregation::Sum,
                    Aggregation::Sum,
                )
                .unwrap_or_default(),
        )
    }

    /// [`SimMetrics::component_sum`] and [`SimMetrics::per_instance`] of
    /// one component's metric from a single `select`, bit for bit.
    ///
    /// `combined` is not derivable from `per_instance`: series keys order
    /// their tags alphabetically (`container` before `instance`), so the
    /// store sums a component in *(container, instance)* order, and an
    /// instance may own several series (one per container it ran in).
    pub fn series_set(&self, name: &str, component: &str, from: i64, to: i64) -> SeriesSet {
        let (combined, groups) = self
            .db
            .aggregate_with_groups(
                name,
                &self.base_filters(Some(component)),
                tag::INSTANCE,
                from,
                to,
                60_000,
                Aggregation::Sum,
                Aggregation::Sum,
            )
            .unwrap_or_default();
        SeriesSet {
            combined,
            per_instance: by_instance_index(groups),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> SimMetrics {
        let m = SimMetrics::new("wc");
        for inst in 0..3u32 {
            for minute in 0..5i64 {
                m.record_instance(
                    metric::EXECUTE_COUNT,
                    "splitter",
                    inst,
                    inst % 2,
                    minute * 60_000,
                    100.0 * f64::from(inst + 1),
                );
            }
        }
        m
    }

    #[test]
    fn component_sum_aggregates_instances() {
        let m = filled();
        let sums = m.component_sum(metric::EXECUTE_COUNT, Some("splitter"), 0, i64::MAX);
        assert_eq!(sums.len(), 5);
        // 100 + 200 + 300 per minute.
        assert!(sums.iter().all(|s| (s.value - 600.0).abs() < 1e-9));
    }

    #[test]
    fn component_mean_averages() {
        let m = filled();
        let means = m.component_mean(metric::EXECUTE_COUNT, "splitter", 0, i64::MAX);
        assert!(means.iter().all(|s| (s.value - 200.0).abs() < 1e-9));
    }

    #[test]
    fn instance_series_isolates_one_instance() {
        let m = filled();
        let s = m.instance_series(metric::EXECUTE_COUNT, "splitter", 2, 0, i64::MAX);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|x| x.value == 300.0));
    }

    #[test]
    fn per_instance_grouping() {
        let m = filled();
        let groups = m.per_instance(metric::EXECUTE_COUNT, "splitter", 0, i64::MAX);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, 0);
        assert_eq!(groups[0].1[0].value, 100.0);
        assert_eq!(groups[2].1[0].value, 300.0);
    }

    #[test]
    fn topology_wide_sum() {
        let m = filled();
        m.record_instance(metric::EXECUTE_COUNT, "counter", 0, 0, 0, 50.0);
        let sums = m.component_sum(metric::EXECUTE_COUNT, None, 0, 0);
        assert_eq!(sums[0].value, 650.0);
    }

    #[test]
    fn shared_db_isolation_by_topology_tag() {
        let db = Arc::new(MetricsDb::new());
        let a = SimMetrics::with_db("a", Arc::clone(&db));
        let b = SimMetrics::with_db("b", Arc::clone(&db));
        a.record_instance(metric::EMIT_COUNT, "c", 0, 0, 0, 1.0);
        b.record_instance(metric::EMIT_COUNT, "c", 0, 0, 0, 2.0);
        assert_eq!(
            a.component_sum(metric::EMIT_COUNT, Some("c"), 0, 0)[0].value,
            1.0
        );
        assert_eq!(
            b.component_sum(metric::EMIT_COUNT, Some("c"), 0, 0)[0].value,
            2.0
        );
    }

    #[test]
    fn since_reads_match_range_suffix() {
        let m = filled();
        let since = 2 * 60_000;
        let full = m.component_sum(metric::EXECUTE_COUNT, Some("splitter"), 0, i64::MAX);
        let tail = m.component_sum_since(metric::EXECUTE_COUNT, Some("splitter"), since, i64::MAX);
        let suffix: Vec<_> = full.iter().filter(|s| s.ts > since).collect();
        assert_eq!(tail.len(), suffix.len());
        for (a, b) in tail.iter().zip(&suffix) {
            assert_eq!((a.ts, a.value), (b.ts, b.value));
        }
    }

    #[test]
    fn missing_metric_yields_empty() {
        let m = SimMetrics::new("wc");
        assert!(m.component_sum("nope", None, 0, 100).is_empty());
        assert!(m.instance_series("nope", "c", 0, 0, 100).is_empty());
    }
}
