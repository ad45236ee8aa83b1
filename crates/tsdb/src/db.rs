//! The concurrent metrics database facade.

use crate::catalog::{Catalog, SeriesId};
use crate::error::{Error, Result};
use crate::query::{bucket_in_place, merge_bucketed, Aggregation, TagFilter};
use crate::series::{Sample, Series, SeriesKey};
use caladrius_obs::{Counter, Histogram};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel meaning "no sample has ever been ingested".
const WATERMARK_NONE: i64 = i64::MIN;

/// An interned series: the id plus a direct handle to the series storage.
///
/// Resolved once per (metric, tag set) via [`MetricsDb::register`]; after
/// that, appends through the handle touch only the per-series lock — no
/// tag hashing, no catalog lock. This is the steady-state ingest path:
/// the series universe of a running topology stabilises after the first
/// minute, so registration cost is paid once per run, not per sample.
#[derive(Debug, Clone)]
pub struct SeriesHandle {
    id: SeriesId,
    series: Arc<RwLock<Series>>,
}

impl SeriesHandle {
    /// The catalog id this handle is interned under.
    pub fn id(&self) -> SeriesId {
        self.id
    }
}

/// A columnar batch of samples sharing one timestamp: `(handle, value)`
/// rows, as assembled by a metrics producer once per reporting interval
/// (the simulator emits one batch per simulated minute).
///
/// Ingesting a batch via [`MetricsDb::ingest_batch`] appends every row
/// under its per-series lock and advances the ingest watermark once.
#[derive(Debug, Clone, Default)]
pub struct MetricBatch {
    ts: i64,
    rows: Vec<(SeriesHandle, f64)>,
}

impl MetricBatch {
    /// Creates an empty batch stamped at `ts`.
    pub fn new(ts: i64) -> Self {
        Self {
            ts,
            rows: Vec::new(),
        }
    }

    /// Creates an empty batch with room for `capacity` rows.
    pub fn with_capacity(ts: i64, capacity: usize) -> Self {
        Self {
            ts,
            rows: Vec::with_capacity(capacity),
        }
    }

    /// Clears the rows and re-stamps the batch, keeping the allocation —
    /// producers reuse one batch across intervals.
    pub fn reset(&mut self, ts: i64) {
        self.ts = ts;
        self.rows.clear();
    }

    /// Appends one `(series, value)` row.
    pub fn push(&mut self, handle: &SeriesHandle, value: f64) {
        self.rows.push((handle.clone(), value));
    }

    /// The batch timestamp.
    pub fn ts(&self) -> i64 {
        self.ts
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Ingestion counters, as exposed on the API health endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Bulk ingests accepted: [`MetricsDb::ingest_batch`] batches plus
    /// [`MetricsDb::append_series`] column appends.
    pub batches: u64,
    /// Samples ingested (batched rows + per-sample writes).
    pub samples: u64,
}

/// Return type of the [`MetricsDb::tail_cache_stats`] shim; always zero.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TailCacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// Aggregated series per value of a grouping tag, in tag-value order.
pub type Grouped = Vec<(String, Vec<Sample>)>;

/// A concurrent, tag-indexed, in-memory metrics store.
///
/// Writers resolve (or register) the series id under a short catalog lock,
/// then append under the per-series lock; readers snapshot the matching ids
/// and read each series independently. This mirrors the ingestion path of
/// production metric stores: catalog contention is rare because the series
/// universe stabilises quickly. Steady-state producers should go further
/// and hold [`SeriesHandle`]s (see [`MetricsDb::register`]), which removes
/// the catalog from the write path entirely.
#[derive(Debug)]
pub struct MetricsDb {
    catalog: RwLock<Catalog>,
    series: RwLock<HashMap<SeriesId, Arc<RwLock<Series>>>>,
    /// Largest timestamp ever ingested (`WATERMARK_NONE` when empty).
    /// Advanced with `fetch_max` on every append; recomputed from the
    /// surviving data by `truncate_before`, under every series' lock.
    watermark: AtomicI64,
    /// Ingest counters live in the process-wide obs registry, labelled
    /// `db="<scope>"` so [`MetricsDb::ingest_stats`] stays exact per
    /// database while one `/metrics/service` scrape sees every db in the
    /// process. Dropping the db removes them.
    scope: String,
    batches_ingested: Counter,
    samples_ingested: Counter,
    batch_size: Histogram,
    /// Bumped by every [`MetricsDb::truncate_before`] call that dropped
    /// data. Incremental consumers snapshot this to detect that history
    /// they already absorbed was rewritten (and a full re-read is due).
    truncations: AtomicU64,
}

impl Default for MetricsDb {
    fn default() -> Self {
        let registry = caladrius_obs::global_registry();
        let scope = caladrius_obs::next_scope_id().to_string();
        let labels: [(&str, &str); 1] = [("db", &scope)];
        registry.describe(
            "caladrius_tsdb_ingest_batches_total",
            "Batches accepted by MetricsDb::ingest_batch",
        );
        registry.describe(
            "caladrius_tsdb_ingest_samples_total",
            "Samples ingested (batched rows plus per-sample writes)",
        );
        registry.describe(
            "caladrius_tsdb_ingest_batch_size",
            "Rows per ingested batch",
        );
        Self {
            catalog: RwLock::new(Catalog::default()),
            series: RwLock::new(HashMap::new()),
            watermark: AtomicI64::new(WATERMARK_NONE),
            batches_ingested: registry.counter("caladrius_tsdb_ingest_batches_total", &labels),
            samples_ingested: registry.counter("caladrius_tsdb_ingest_samples_total", &labels),
            batch_size: registry.histogram("caladrius_tsdb_ingest_batch_size", &labels),
            truncations: AtomicU64::new(0),
            scope,
        }
    }
}

impl Drop for MetricsDb {
    fn drop(&mut self) {
        caladrius_obs::global_registry().forget_labelled("db", &self.scope);
    }
}

impl MetricsDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered series.
    pub fn series_count(&self) -> usize {
        self.catalog.read().len()
    }

    /// Total number of stored samples across all series.
    pub fn sample_count(&self) -> usize {
        self.series.read().values().map(|s| s.read().len()).sum()
    }

    /// Approximate storage footprint in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.series
            .read()
            .values()
            .map(|s| s.read().storage_bytes())
            .sum()
    }

    /// Interns `key`, returning a handle for catalog-free appends.
    ///
    /// The catalog lock is taken once here; subsequent
    /// [`MetricsDb::append`] / [`MetricsDb::ingest_batch`] calls through
    /// the handle only touch the per-series lock.
    pub fn register(&self, key: &SeriesKey) -> SeriesHandle {
        let id = self.catalog.write().ensure(key);
        let mut map = self.series.write();
        let series = Arc::clone(
            map.entry(id)
                .or_insert_with(|| Arc::new(RwLock::new(Series::new()))),
        );
        SeriesHandle { id, series }
    }

    /// Appends one sample through an interned handle — the lock-minimal
    /// steady-state write path.
    pub fn append(&self, handle: &SeriesHandle, ts: i64, value: f64) {
        handle.series.write().push(Sample::new(ts, value));
        self.watermark.fetch_max(ts, Ordering::AcqRel);
        self.samples_ingested.inc();
    }

    /// Ingests a columnar batch: every row appends under only its
    /// per-series lock, and the watermark and counters advance once per
    /// batch instead of once per sample.
    pub fn ingest_batch(&self, batch: &MetricBatch) {
        if batch.is_empty() {
            return;
        }
        let ts = batch.ts;
        for (handle, value) in &batch.rows {
            handle.series.write().push(Sample::new(ts, *value));
        }
        self.watermark.fetch_max(ts, Ordering::AcqRel);
        self.batches_ingested.inc();
        self.samples_ingested.add(batch.rows.len() as u64);
        self.batch_size.record(batch.rows.len() as f64);
    }

    /// Appends a whole column of samples to one series under a single
    /// acquisition of its per-series lock.
    ///
    /// This is the cheapest bulk-ingest path: producers that buffer one
    /// run's worth of samples per series (e.g. the simulator's run-long
    /// sink) commit each column with one lock round instead of one
    /// [`MetricBatch`] per interval. Samples are appended in slice order
    /// by [`Series::extend_from_slice`]: ascending input seals its whole
    /// chunks straight from the slice, anything else is pushed sample by
    /// sample, and the stored chunks are the same either way. The
    /// watermark and ingest counters advance once per call.
    pub fn append_series(&self, handle: &SeriesHandle, samples: &[Sample]) {
        let Some(max_ts) = samples.iter().map(|s| s.ts).max() else {
            return;
        };
        handle.series.write().extend_from_slice(samples);
        self.watermark.fetch_max(max_ts, Ordering::AcqRel);
        self.batches_ingested.inc();
        self.samples_ingested.add(samples.len() as u64);
        self.batch_size.record(samples.len() as f64);
    }

    /// Largest timestamp ever ingested, `None` while empty. O(1): read
    /// off the per-db watermark, never a series scan.
    pub fn watermark(&self) -> Option<i64> {
        match self.watermark.load(Ordering::Acquire) {
            WATERMARK_NONE => None,
            ts => Some(ts),
        }
    }

    /// Ingestion counters since the database was created.
    pub fn ingest_stats(&self) -> IngestStats {
        IngestStats {
            batches: self.batches_ingested.get(),
            samples: self.samples_ingested.get(),
        }
    }

    /// Reads one series' samples in `[from, to]`, or an error if the exact
    /// key is unknown.
    pub fn read(&self, key: &SeriesKey, from: i64, to: i64) -> Result<Vec<Sample>> {
        let id = self
            .catalog
            .read()
            .get(key)
            .ok_or_else(|| Error::SeriesNotFound(key.to_string()))?;
        let handle = Arc::clone(
            self.series
                .read()
                .get(&id)
                .expect("catalog and store in sync"),
        );
        let guard = handle.read();
        guard.samples(from, to)
    }

    /// Selects every series matching `name` + `filters` and returns
    /// `(key, samples-in-range)` pairs, sorted by key for determinism.
    pub fn select(
        &self,
        name: &str,
        filters: &[TagFilter],
        from: i64,
        to: i64,
    ) -> Result<Vec<(SeriesKey, Vec<Sample>)>> {
        let ids = self.catalog.read().select(name, filters);
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let key = self
                .catalog
                .read()
                .key(id)
                .expect("id from this catalog")
                .clone();
            let handle = Arc::clone(
                self.series
                    .read()
                    .get(&id)
                    .expect("catalog and store in sync"),
            );
            let samples = handle.read().samples(from, to)?;
            out.push((key, samples));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    // Shim: the decoded-tail cache is gone. Kept, reading zeros, only
    // because `benchmarks/src/probes.rs` (`stale_loop`) compiles against
    // it; it goes when that probe does.
    #[doc(hidden)]
    pub fn tail_cache_stats(&self) -> TailCacheStats {
        TailCacheStats::default()
    }

    /// Number of retention truncations that actually dropped samples.
    /// Incremental consumers compare snapshots of this to detect that
    /// already-absorbed history was rewritten and a full re-read is due.
    pub fn truncation_generation(&self) -> u64 {
        self.truncations.load(Ordering::Acquire)
    }

    /// Bucketed aggregation of one metric across all matching series: each
    /// series is down-sampled with `within`, then buckets are merged across
    /// series with `across`.
    ///
    /// Example: the component input rate of the paper is
    /// `aggregate("execute-count", [component=splitter], 60_000, Sum, Sum)`.
    #[allow(clippy::too_many_arguments)] // a flat query surface is the point
    pub fn aggregate(
        &self,
        name: &str,
        filters: &[TagFilter],
        from: i64,
        to: i64,
        bucket_ms: i64,
        within: Aggregation,
        across: Aggregation,
    ) -> Result<Vec<Sample>> {
        let aligned = self.select_bucketed(name, filters, from, to, bucket_ms, within)?;
        Ok(merge_all(&aligned, across))
    }

    /// Per-series bucketed aggregation grouped by the value of `group_tag`.
    ///
    /// Series missing the tag are grouped under the empty string.
    #[allow(clippy::too_many_arguments)] // a flat query surface is the point
    pub fn aggregate_by(
        &self,
        name: &str,
        filters: &[TagFilter],
        group_tag: &str,
        from: i64,
        to: i64,
        bucket_ms: i64,
        within: Aggregation,
        across: Aggregation,
    ) -> Result<Grouped> {
        let aligned = self.select_bucketed(name, filters, from, to, bucket_ms, within)?;
        Ok(merge_groups(aligned, group_tag, across))
    }

    /// What [`MetricsDb::aggregate`] and [`MetricsDb::aggregate_by`]
    /// return for the same arguments, as `(combined, groups)` from one
    /// `select` — each matching series is decoded and bucketed once, not
    /// twice.
    ///
    /// The combined view cannot be had from the groups: it merges the
    /// series in key order, which interleaves the groups whenever
    /// `group_tag` is not the first tag the keys differ in, and float
    /// sums depend on the order.
    #[allow(clippy::too_many_arguments)] // a flat query surface is the point
    pub fn aggregate_with_groups(
        &self,
        name: &str,
        filters: &[TagFilter],
        group_tag: &str,
        from: i64,
        to: i64,
        bucket_ms: i64,
        within: Aggregation,
        across: Aggregation,
    ) -> Result<(Vec<Sample>, Grouped)> {
        let aligned = self.select_bucketed(name, filters, from, to, bucket_ms, within)?;
        let combined = merge_all(&aligned, across);
        Ok((combined, merge_groups(aligned, group_tag, across)))
    }

    /// [`MetricsDb::select`] with every series down-sampled to
    /// `bucket_ms` buckets, each in the vector it was decoded into — the
    /// half of an aggregation that is the same whichever way the series
    /// are then merged. Every series comes back strictly ascending.
    fn select_bucketed(
        &self,
        name: &str,
        filters: &[TagFilter],
        from: i64,
        to: i64,
        bucket_ms: i64,
        within: Aggregation,
    ) -> Result<Vec<(SeriesKey, Vec<Sample>)>> {
        let mut selected = self.select(name, filters, from, to)?;
        for (_, samples) in &mut selected {
            bucket_in_place(samples, bucket_ms, within);
        }
        Ok(selected)
    }

    /// Latest timestamp observed for a metric across matching series.
    ///
    /// The per-db [`MetricsDb::watermark`] short-circuits the empty case
    /// and callers that don't need per-metric precision should read the
    /// watermark directly — it is O(1) where this scans the matching
    /// series.
    pub fn latest_ts(&self, name: &str, filters: &[TagFilter]) -> Option<i64> {
        self.watermark()?;
        let ids = self.catalog.read().select(name, filters);
        let map = self.series.read();
        ids.iter()
            .filter_map(|id| map.get(id).and_then(|s| s.read().latest_ts()))
            .max()
    }

    /// All metric names seen so far.
    pub fn metric_names(&self) -> Vec<String> {
        self.catalog
            .read()
            .names()
            .into_iter()
            .map(String::from)
            .collect()
    }

    /// Applies a retention cutoff to every series (see
    /// [`crate::retention::RetentionPolicy`]). Returns total dropped samples.
    ///
    /// The ingest watermark is recomputed from the surviving data. Every
    /// series' write guard is held until the recomputed watermark is
    /// stored, so an append racing the truncation either lands before its
    /// series is scanned (and counts toward the watermark) or waits, and
    /// its `fetch_max` runs after the store: the watermark never ends
    /// below a stored sample. The guards are taken in the series map's
    /// iteration order under its read lock, one order for every
    /// truncation, so two truncations cannot deadlock; an append holds
    /// only its own series' lock.
    pub fn truncate_before(&self, cutoff: i64) -> Result<usize> {
        let map = self.series.read();
        let mut guards = Vec::with_capacity(map.len());
        let mut dropped = 0;
        let mut surviving_max = WATERMARK_NONE;
        for series in map.values() {
            let mut guard = series.write();
            dropped += guard.truncate_before(cutoff)?;
            if let Some(ts) = guard.latest_ts() {
                surviving_max = surviving_max.max(ts);
            }
            guards.push(guard);
        }
        self.watermark.store(surviving_max, Ordering::Release);
        drop(guards);
        if dropped > 0 {
            self.truncations.fetch_add(1, Ordering::AcqRel);
        }
        Ok(dropped)
    }
}

/// Merges bucket-aligned series, in the (key) order they are given.
fn merge_all(aligned: &[(SeriesKey, Vec<Sample>)], across: Aggregation) -> Vec<Sample> {
    merge_bucketed(aligned.iter().map(|(_, s)| s.as_slice()), across)
}

/// Groups bucket-aligned series (in key order) by the value of
/// `group_tag` — series missing the tag under the empty string — and
/// merges each group; groups come back in tag-value order.
///
/// A group of one series is that series with `across` applied to each
/// bucket's one value, in its own vector: what merging it would return.
fn merge_groups(
    aligned: Vec<(SeriesKey, Vec<Sample>)>,
    group_tag: &str,
    across: Aggregation,
) -> Grouped {
    let mut groups: BTreeMap<String, Vec<Vec<Sample>>> = BTreeMap::new();
    for (mut key, samples) in aligned {
        groups
            .entry(key.tags.remove(group_tag).unwrap_or_default())
            .or_default()
            .push(samples);
    }
    groups
        .into_iter()
        .map(|(group, mut series)| {
            let merged = if series.len() == 1 {
                let mut only = series.pop().expect("one series");
                for s in &mut only {
                    s.value = across.apply([s.value]);
                }
                only
            } else {
                merge_bucketed(series.iter().map(Vec::as_slice), across)
            };
            (group, merged)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use std::thread;

    /// Appends one sample to `key`'s series, registering it if new.
    fn write(db: &MetricsDb, key: &SeriesKey, ts: i64, value: f64) {
        db.append(&db.register(key), ts, value);
    }

    fn key(component: &str, instance: u32) -> SeriesKey {
        SeriesKey::new("emit-count")
            .with_tag("topology", "wc")
            .with_tag("component", component)
            .with_tag("instance", instance.to_string())
    }

    #[test]
    fn write_then_read_exact_key() {
        let db = MetricsDb::new();
        write(&db, &key("splitter", 0), 0, 5.0);
        write(&db, &key("splitter", 0), 60_000, 7.0);
        let samples = db.read(&key("splitter", 0), 0, i64::MAX).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].value, 7.0);
    }

    #[test]
    fn append_series_commits_a_column_and_advances_watermark() {
        let db = MetricsDb::new();
        let handle = db.register(&key("splitter", 0));
        let column = [
            Sample::new(60_000, 5.0),
            Sample::new(120_000, 7.0),
            Sample::new(180_000, 6.0),
        ];
        db.append_series(&handle, &column);
        db.append_series(&handle, &[]);
        let samples = db.read(&key("splitter", 0), 0, i64::MAX).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[1].value, 7.0);
        assert_eq!(db.watermark(), Some(180_000));
        assert_eq!(db.ingest_stats().samples, 3);
    }

    #[test]
    fn aggregate_reads_the_whole_i64_range() {
        // The bottom bucket is partial: its left edge clamps to i64::MIN
        // instead of overflowing below it.
        let db = MetricsDb::new();
        for (instance, ts, value) in [(0, i64::MIN, 1.0), (0, 0, 2.0), (1, i64::MIN, 4.0)] {
            write(&db, &key("splitter", instance), ts, value);
        }
        write(&db, &key("splitter", 1), i64::MAX, 8.0);
        let filters = [TagFilter::eq("component", "splitter")];
        let summed = db
            .aggregate(
                "emit-count",
                &filters,
                i64::MIN,
                i64::MAX,
                60_000,
                Aggregation::Sum,
                Aggregation::Sum,
            )
            .unwrap();
        let top = i64::MAX - i64::MAX.rem_euclid(60_000);
        assert_eq!(
            summed,
            vec![
                Sample::new(i64::MIN, 5.0),
                Sample::new(0, 2.0),
                Sample::new(top, 8.0)
            ]
        );
    }

    #[test]
    fn read_unknown_key_errors() {
        let db = MetricsDb::new();
        assert!(matches!(
            db.read(&key("splitter", 0), 0, 1),
            Err(Error::SeriesNotFound(_))
        ));
    }

    #[test]
    fn select_filters_by_tag() {
        let db = MetricsDb::new();
        for i in 0..3 {
            write(&db, &key("splitter", i), 0, f64::from(i));
            write(&db, &key("counter", i), 0, f64::from(i) * 10.0);
        }
        let rows = db
            .select(
                "emit-count",
                &[TagFilter::eq("component", "counter")],
                0,
                10,
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows
            .iter()
            .all(|(k, _)| k.tag("component") == Some("counter")));
    }

    #[test]
    fn aggregate_sums_across_instances() {
        let db = MetricsDb::new();
        for i in 0..4u32 {
            db.append_series(
                &db.register(&key("splitter", i)),
                &(0..3)
                    .map(|m| Sample::new(m * 60_000, 100.0))
                    .collect::<Vec<_>>(),
            );
        }
        let agg = db
            .aggregate(
                "emit-count",
                &[TagFilter::eq("component", "splitter")],
                0,
                i64::MAX,
                60_000,
                Aggregation::Sum,
                Aggregation::Sum,
            )
            .unwrap();
        assert_eq!(agg.len(), 3);
        assert!(agg.iter().all(|s| (s.value - 400.0).abs() < 1e-12));
    }

    #[test]
    fn aggregate_by_groups_per_instance() {
        let db = MetricsDb::new();
        for i in 0..2u32 {
            write(&db, &key("splitter", i), 0, f64::from(i + 1));
        }
        let groups = db
            .aggregate_by(
                "emit-count",
                &[],
                "instance",
                0,
                i64::MAX,
                60_000,
                Aggregation::Sum,
                Aggregation::Sum,
            )
            .unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "0");
        assert_eq!(groups[0].1[0].value, 1.0);
        assert_eq!(groups[1].0, "1");
        assert_eq!(groups[1].1[0].value, 2.0);
    }

    #[test]
    fn aggregate_with_groups_is_both_aggregations_of_one_select() {
        // Key order is (container, instance): it interleaves the
        // instance groups, instance 1 owns two series, and the values
        // are chosen so that a sum in any other order rounds differently.
        let db = MetricsDb::new();
        let placed = [(0, 2, 1.0e16), (1, 0, 1.0), (1, 1, -1.0e16), (2, 1, 3.0)];
        for (container, instance, value) in placed {
            let key = key("counter", instance).with_tag("container", container.to_string());
            db.append_series(
                &db.register(&key),
                &(0..3)
                    .map(|m| Sample::new(m * 60_000, value + m as f64))
                    .collect::<Vec<_>>(),
            );
        }
        write(&db, &key("splitter", 0), 0, 7.0);
        let filters = [TagFilter::eq("component", "counter")];
        let (sum, within) = (Aggregation::Sum, Aggregation::Sum);
        for (from, to) in [(0, i64::MAX), (60_000, 60_000), (i64::MIN, -1)] {
            let (combined, groups) = db
                .aggregate_with_groups(
                    "emit-count",
                    &filters,
                    "instance",
                    from,
                    to,
                    60_000,
                    within,
                    sum,
                )
                .unwrap();
            let bits = |s: &[Sample]| -> Vec<(i64, u64)> {
                s.iter().map(|x| (x.ts, x.value.to_bits())).collect()
            };
            let aggregate = db
                .aggregate("emit-count", &filters, from, to, 60_000, within, sum)
                .unwrap();
            assert_eq!(bits(&combined), bits(&aggregate));
            let by = db
                .aggregate_by(
                    "emit-count",
                    &filters,
                    "instance",
                    from,
                    to,
                    60_000,
                    within,
                    sum,
                )
                .unwrap();
            assert_eq!(groups.len(), by.len());
            for ((g, s), (by_g, by_s)) in groups.iter().zip(&by) {
                assert_eq!(g, by_g);
                assert_eq!(bits(s), bits(by_s));
            }
            // Summing the groups in the order they come back is not the
            // combined view (minute 0: 3.0 in key order).
            if from == 0 {
                let regrouped: f64 = groups.iter().map(|(_, s)| s[0].value).sum();
                assert_eq!(combined[0].value, 3.0);
                assert_ne!(regrouped.to_bits(), combined[0].value.to_bits());
            }
        }
    }

    #[test]
    fn latest_ts_across_series() {
        let db = MetricsDb::new();
        write(&db, &key("splitter", 0), 120_000, 1.0);
        write(&db, &key("splitter", 1), 300_000, 1.0);
        assert_eq!(db.latest_ts("emit-count", &[]), Some(300_000));
        assert_eq!(db.latest_ts("missing", &[]), None);
    }

    #[test]
    fn truncation_applies_to_all_series() {
        let db = MetricsDb::new();
        for i in 0..2u32 {
            db.append_series(
                &db.register(&key("splitter", i)),
                &(0..10)
                    .map(|m| Sample::new(m * 60_000, 1.0))
                    .collect::<Vec<_>>(),
            );
        }
        let dropped = db.truncate_before(5 * 60_000).unwrap();
        assert_eq!(dropped, 10);
        assert_eq!(db.sample_count(), 10);
    }

    #[test]
    fn concurrent_writers_do_not_lose_samples() {
        let db = StdArc::new(MetricsDb::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let db = StdArc::clone(&db);
            handles.push(thread::spawn(move || {
                for m in 0..250i64 {
                    write(&db, &key("splitter", t), m * 60_000, m as f64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.sample_count(), 8 * 250);
        assert_eq!(db.series_count(), 8);
    }

    #[test]
    fn concurrent_read_write_same_series() {
        let db = StdArc::new(MetricsDb::new());
        let k = key("splitter", 0);
        write(&db, &k, 0, 0.0);
        let writer = {
            let db = StdArc::clone(&db);
            let k = k.clone();
            thread::spawn(move || {
                for m in 1..2000i64 {
                    write(&db, &k, m * 1_000, m as f64);
                }
            })
        };
        for _ in 0..100 {
            let samples = db.read(&k, 0, i64::MAX).unwrap();
            assert!(samples.windows(2).all(|w| w[0].ts <= w[1].ts));
        }
        writer.join().unwrap();
        assert_eq!(db.read(&k, 0, i64::MAX).unwrap().len(), 2000);
    }

    #[test]
    fn metric_names_listing() {
        let db = MetricsDb::new();
        write(&db, &SeriesKey::new("a"), 0, 1.0);
        write(&db, &SeriesKey::new("b"), 0, 1.0);
        assert_eq!(db.metric_names(), vec!["a", "b"]);
    }

    #[test]
    fn register_interns_one_id_per_key() {
        let db = MetricsDb::new();
        let h1 = db.register(&key("splitter", 0));
        let h2 = db.register(&key("splitter", 0));
        let h3 = db.register(&key("splitter", 1));
        assert_eq!(h1.id(), h2.id());
        assert_ne!(h1.id(), h3.id());
        assert_eq!(db.series_count(), 2);
    }

    #[test]
    fn append_through_handle_reads_back_via_key() {
        let db = MetricsDb::new();
        let h = db.register(&key("splitter", 0));
        db.append(&h, 0, 1.0);
        db.append(&h, 60_000, 2.0);
        let samples = db.read(&key("splitter", 0), 0, i64::MAX).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].value, 2.0);
    }

    #[test]
    fn ingest_batch_lands_all_rows_at_batch_ts() {
        let db = MetricsDb::new();
        let handles: Vec<SeriesHandle> = (0..5).map(|i| db.register(&key("splitter", i))).collect();
        let mut batch = MetricBatch::with_capacity(60_000, handles.len());
        for (i, h) in handles.iter().enumerate() {
            batch.push(h, i as f64);
        }
        assert_eq!(batch.len(), 5);
        db.ingest_batch(&batch);
        for (i, _) in handles.iter().enumerate() {
            let samples = db.read(&key("splitter", i as u32), 0, i64::MAX).unwrap();
            assert_eq!(samples.len(), 1);
            assert_eq!(samples[0].ts, 60_000);
            assert_eq!(samples[0].value, i as f64);
        }
        let stats = db.ingest_stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.samples, 5);
    }

    #[test]
    fn batch_reset_reuses_allocation() {
        let db = MetricsDb::new();
        let h = db.register(&key("splitter", 0));
        let mut batch = MetricBatch::new(0);
        batch.push(&h, 1.0);
        db.ingest_batch(&batch);
        batch.reset(60_000);
        assert!(batch.is_empty());
        assert_eq!(batch.ts(), 60_000);
        batch.push(&h, 2.0);
        db.ingest_batch(&batch);
        assert_eq!(db.read(&key("splitter", 0), 0, i64::MAX).unwrap().len(), 2);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let db = MetricsDb::new();
        db.ingest_batch(&MetricBatch::new(123));
        assert_eq!(db.watermark(), None);
        assert_eq!(db.ingest_stats(), IngestStats::default());
    }

    #[test]
    fn watermark_tracks_every_ingest_path() {
        let db = MetricsDb::new();
        assert_eq!(db.watermark(), None);
        write(&db, &key("splitter", 0), 60_000, 1.0);
        assert_eq!(db.watermark(), Some(60_000));
        let h = db.register(&key("splitter", 1));
        db.append(&h, 180_000, 1.0);
        assert_eq!(db.watermark(), Some(180_000));
        // Out-of-order appends never move the watermark backwards.
        db.append(&h, 120_000, 1.0);
        assert_eq!(db.watermark(), Some(180_000));
        let mut batch = MetricBatch::new(240_000);
        batch.push(&h, 1.0);
        db.ingest_batch(&batch);
        assert_eq!(db.watermark(), Some(240_000));
        db.append_series(
            &db.register(&key("splitter", 2)),
            &(5..7)
                .map(|m| Sample::new(m * 60_000, 1.0))
                .collect::<Vec<_>>(),
        );
        assert_eq!(db.watermark(), Some(360_000));
        // Every path counts its samples; the batch paths (one
        // `MetricBatch`, one column) count one batch each.
        let stats = db.ingest_stats();
        assert_eq!((stats.batches, stats.samples), (2, 6));
    }

    #[test]
    fn truncation_recomputes_watermark() {
        let db = MetricsDb::new();
        let h = db.register(&key("splitter", 0));
        for m in 0..10i64 {
            db.append(&h, m * 60_000, 1.0);
        }
        assert_eq!(db.watermark(), Some(9 * 60_000));
        // Cutoff below the newest data: watermark unchanged and still
        // pointing at surviving samples.
        db.truncate_before(5 * 60_000).unwrap();
        assert_eq!(db.watermark(), Some(9 * 60_000));
        let newest = db.read(&key("splitter", 0), 0, i64::MAX).unwrap();
        assert!(newest.iter().any(|s| Some(s.ts) == db.watermark()));
        // Cutoff above everything: the watermark must not keep pointing
        // at truncated data.
        db.truncate_before(i64::MAX).unwrap();
        assert_eq!(db.watermark(), None);
        assert_eq!(db.latest_ts("emit-count", &[]), None);
    }

    #[test]
    fn truncation_watermark_agrees_across_series() {
        let db = MetricsDb::new();
        let fresh = db.register(&key("splitter", 0));
        let stale = db.register(&key("counter", 0));
        db.append(&stale, 0, 1.0);
        db.append(&stale, 60_000, 1.0);
        db.append(&fresh, 300_000, 1.0);
        assert_eq!(db.watermark(), Some(300_000));
        // Drops the stale series entirely; the fresh one holds the max.
        db.truncate_before(120_000).unwrap();
        assert_eq!(db.watermark(), Some(300_000));
        // Now drop the fresh sample too: the recomputed watermark must
        // fall back to None, not linger at 300_000.
        db.truncate_before(600_000).unwrap();
        assert_eq!(db.watermark(), None);
        // New ingest restarts the watermark from the new data.
        db.append(&fresh, 660_000, 1.0);
        assert_eq!(db.watermark(), Some(660_000));
    }

    #[test]
    fn ingest_batch_roundtrips_gorilla_identically_to_write() {
        // The same (ts, value) stream through the batched path and the
        // per-sample path must produce byte-identical storage: both feed
        // Series::push, which seals chunks through the same Gorilla
        // encoder. Values are chosen to exercise the XOR window logic
        // (repeats, sign flips, tiny deltas) across chunk seals.
        let per_sample = MetricsDb::new();
        let batched = MetricsDb::new();
        let k = key("splitter", 0);
        let handle = batched.register(&k);
        let values: Vec<f64> = (0..600)
            .map(|i| match i % 4 {
                0 => 1000.0,
                1 => 1000.0,
                2 => -1000.0 - f64::from(i),
                _ => 1e-9 * f64::from(i),
            })
            .collect();
        for (i, v) in values.iter().enumerate() {
            let ts = i as i64 * 60_000;
            write(&per_sample, &k, ts, *v);
            let mut batch = MetricBatch::new(ts);
            batch.push(&handle, *v);
            batched.ingest_batch(&batch);
        }
        let a = per_sample.read(&k, 0, i64::MAX).unwrap();
        let b = batched.read(&k, 0, i64::MAX).unwrap();
        assert_eq!(a.len(), values.len());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ts, y.ts);
            assert_eq!(x.value.to_bits(), y.value.to_bits());
        }
        assert_eq!(per_sample.storage_bytes(), batched.storage_bytes());
        assert_eq!(per_sample.watermark(), batched.watermark());
    }

    #[test]
    fn concurrent_handle_appends_do_not_lose_samples() {
        let db = StdArc::new(MetricsDb::new());
        let handles: Vec<SeriesHandle> = (0..8).map(|t| db.register(&key("splitter", t))).collect();
        let mut threads = Vec::new();
        for (t, h) in handles.into_iter().enumerate() {
            let db = StdArc::clone(&db);
            threads.push(thread::spawn(move || {
                for m in 0..250i64 {
                    let mut batch = MetricBatch::new(m * 60_000);
                    batch.push(&h, (t as f64) + m as f64);
                    db.ingest_batch(&batch);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(db.sample_count(), 8 * 250);
        assert_eq!(db.watermark(), Some(249 * 60_000));
        assert_eq!(db.ingest_stats().samples, 8 * 250);
    }

    #[test]
    fn range_reads_are_exact_at_every_delta_boundary() {
        // A delta read `(since, to]` is the range read `[since + 1, to]`.
        // 400 per-minute samples with the default chunk size: one sealed
        // chunk (minutes 0..=239) plus a head, and one late sample whose
        // timestamp lies inside the sealed chunk but which lives in the
        // head.
        const MIN: i64 = 60_000;
        let db = MetricsDb::new();
        let handle = db.register(&key("splitter", 0));
        for i in 0..400i64 {
            db.append(&handle, i * MIN, i as f64);
        }
        db.append(&handle, 100 * MIN + 30_000, -1.0);
        let all = db.read(&key("splitter", 0), i64::MIN, i64::MAX).unwrap();
        assert_eq!(all.len(), 401);
        let chunk_end = 239 * MIN;
        let sinces = [
            -1,
            0,
            100 * MIN,          // inside the sealed chunk, before the late sample
            100 * MIN + 30_000, // on the late sample
            chunk_end - MIN,
            chunk_end,
            399 * MIN, // the last sample
            500 * MIN, // beyond the data
        ];
        for since in sinces {
            for to in [300 * MIN, i64::MAX] {
                let rows = db.select("emit-count", &[], since + 1, to).unwrap();
                assert_eq!(rows.len(), 1);
                let expected: Vec<Sample> = all
                    .iter()
                    .copied()
                    .filter(|s| s.ts > since && s.ts <= to)
                    .collect();
                assert_eq!(rows[0].1, expected, "since {since}, to {to}");
            }
        }
    }

    #[test]
    fn truncation_generation_advances_only_when_data_drops() {
        let db = MetricsDb::new();
        let handle = db.register(&key("splitter", 0));
        for i in 0..100i64 {
            db.append(&handle, i * 60_000, i as f64);
        }
        assert_eq!(db.truncation_generation(), 0);
        db.truncate_before(0).unwrap(); // nothing older than 0
        assert_eq!(db.truncation_generation(), 0);
        db.truncate_before(50 * 60_000).unwrap();
        assert_eq!(db.truncation_generation(), 1);
    }
}
