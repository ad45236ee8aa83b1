//! The sharded metrics registry: counters, gauges and log-bucketed
//! latency histograms behind cheap cloneable handles.
//!
//! Handles are resolved once (a shard lookup under a read lock, or an
//! insert under a write lock the first time) and then recorded through
//! with plain atomic operations — the hot path never touches a lock.
//! Callers on genuinely hot paths should hold the handle; occasional
//! callers (one lookup per HTTP request, say) can re-resolve each time.

use crate::windowed::WindowedHistogram;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of registry shards (must be a power of two).
const SHARDS: usize = 16;

/// Number of histogram buckets (see [`bucket_index`]).
pub const HISTOGRAM_BUCKETS: usize = 256;

/// Sub-buckets per power of two: 4 ⇒ bucket bounds grow by ×2^(1/4),
/// so any recorded value is attributed within ~19 % of its true value.
const SUB_BUCKETS_PER_OCTAVE: u64 = 4;

/// Smallest finite bucket exponent: bucket 1 starts at 2^MIN_EXP
/// (~4.7e-10 — well under a nanosecond when recording seconds).
const MIN_EXP: i64 = -31;

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter detached from any registry (for tests and defaults).
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding an arbitrary `f64` (stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge detached from any registry (for tests and defaults).
    pub fn detached() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) with a compare-and-swap loop.
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Internals of a [`Histogram`].
#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    /// Sum of recorded values, stored as `f64` bits.
    sum: AtomicU64,
    /// Maximum recorded value, stored as `f64` bits (monotone under
    /// `fetch_max` because non-negative IEEE 754 bit patterns order the
    /// same way as the values they encode).
    max: AtomicU64,
}

/// A lock-free, log-bucketed histogram of non-negative values.
///
/// Values are attributed to geometric buckets with 4 sub-buckets per
/// power of two (≤ ~19 % relative bucket width), covering ~4.7e-10
/// through ~7.4e9 with explicit underflow/overflow buckets. Recording is
/// a handful of relaxed atomic operations; quantiles are estimated at
/// read time by walking the cumulative counts and interpolating within
/// the landing bucket.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

/// Bucket index of a value. `0` is the underflow bucket (zero,
/// negatives, NaN and subnormals); the last bucket catches overflow.
pub(crate) fn bucket_index(v: f64) -> usize {
    if !(v.is_finite() && v > 0.0) {
        return if v == f64::INFINITY {
            HISTOGRAM_BUCKETS - 1
        } else {
            0
        };
    }
    let bits = v.to_bits();
    let biased_exp = (bits >> 52) & 0x7ff;
    if biased_exp == 0 {
        return 0; // subnormal: below every finite bucket bound
    }
    let exp = biased_exp as i64 - 1023;
    let sub = ((bits >> 50) & 0b11) as i64;
    let raw = (exp - MIN_EXP) * SUB_BUCKETS_PER_OCTAVE as i64 + sub + 1;
    raw.clamp(0, (HISTOGRAM_BUCKETS - 1) as i64) as usize
}

/// Inclusive lower value bound of a bucket (0 for the underflow bucket).
pub(crate) fn bucket_lower_bound(index: usize) -> f64 {
    if index == 0 {
        return 0.0;
    }
    let slot = (index - 1) as i64;
    let exp = slot.div_euclid(SUB_BUCKETS_PER_OCTAVE as i64) + MIN_EXP;
    let sub = slot.rem_euclid(SUB_BUCKETS_PER_OCTAVE as i64);
    2f64.powi(exp as i32) * (1.0 + sub as f64 / SUB_BUCKETS_PER_OCTAVE as f64)
}

/// Exclusive upper value bound of a bucket (`+Inf` for the last).
pub(crate) fn bucket_upper_bound(index: usize) -> f64 {
    if index >= HISTOGRAM_BUCKETS - 1 {
        f64::INFINITY
    } else {
        bucket_lower_bound(index + 1)
    }
}

/// One non-empty bucket of a [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketCount {
    /// Inclusive lower value bound.
    pub lower: f64,
    /// Exclusive upper value bound (`+Inf` for the overflow bucket).
    pub upper: f64,
    /// Values recorded into this bucket (not cumulative).
    pub count: u64,
}

/// A point-in-time copy of a histogram's state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Largest recorded value (0 when empty).
    pub max: f64,
    /// Every non-empty bucket, ascending.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by interpolating
    /// within the bucket containing the target rank. Returns 0 when
    /// empty. The estimate always lies within the value bounds of the
    /// bucket holding the true rank-`q` sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for b in &self.buckets {
            if cumulative + b.count >= rank {
                if b.upper.is_infinite() {
                    return self.max.max(b.lower);
                }
                let fraction = (rank - cumulative) as f64 / b.count as f64;
                // The true rank-q sample can never exceed the largest
                // recorded value, so clamp the interpolation: a bucket
                // whose samples all equal `max` (e.g. a single-sample
                // histogram) reports `max` exactly instead of the
                // bucket's upper bound.
                let estimate = b.lower + (b.upper - b.lower) * fraction;
                return estimate.min(self.max.max(b.lower));
            }
            cumulative += b.count;
        }
        self.max
    }
}

impl Histogram {
    /// A histogram detached from any registry (for tests and defaults).
    pub fn detached() -> Self {
        Histogram(Arc::new(HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0f64.to_bits()),
            max: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Records one value. Negative, NaN and subnormal values land in the
    /// underflow bucket and contribute 0 to the sum. Lock-free: five
    /// relaxed atomic operations.
    pub fn record(&self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        let core = &*self.0;
        core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        if v > 0.0 {
            // f64 bit patterns of non-negative values are order-isomorphic
            // to the values, so integer fetch_max implements float max.
            core.max.fetch_max(v.to_bits(), Ordering::Relaxed);
            let mut cur = core.sum.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + v).to_bits();
                match core.sum.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Records a [`std::time::Duration`] in seconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Copies out the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.0;
        let mut buckets = Vec::new();
        for (i, b) in core.buckets.iter().enumerate() {
            let own = b.load(Ordering::Relaxed);
            if own > 0 {
                buckets.push(BucketCount {
                    lower: bucket_lower_bound(i),
                    upper: bucket_upper_bound(i),
                    count: own,
                });
            }
        }
        HistogramSnapshot {
            count: core.count.load(Ordering::Relaxed),
            sum: f64::from_bits(core.sum.load(Ordering::Relaxed)),
            max: f64::from_bits(core.max.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

/// The kind of a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Arbitrary instantaneous value.
    Gauge,
    /// Log-bucketed distribution.
    Histogram,
    /// Log-bucketed distribution with a sliding recent-window view.
    WindowedHistogram,
}

/// One registered metric handle.
#[derive(Debug, Clone)]
pub enum MetricHandle {
    /// A [`Counter`].
    Counter(Counter),
    /// A [`Gauge`].
    Gauge(Gauge),
    /// A [`Histogram`].
    Histogram(Histogram),
    /// A [`WindowedHistogram`].
    Windowed(WindowedHistogram),
}

impl MetricHandle {
    fn kind(&self) -> MetricKind {
        match self {
            MetricHandle::Counter(_) => MetricKind::Counter,
            MetricHandle::Gauge(_) => MetricKind::Gauge,
            MetricHandle::Histogram(_) => MetricKind::Histogram,
            MetricHandle::Windowed(_) => MetricKind::WindowedHistogram,
        }
    }
}

/// Identity of a metric: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

/// One `(labels, handle)` row of a snapshot, grouped under its family.
#[derive(Debug, Clone)]
pub struct MetricRow {
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The live handle (reads are point-in-time).
    pub handle: MetricHandle,
}

/// All rows of one metric name.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    /// Metric name.
    pub name: String,
    /// Optional help text (from [`MetricsRegistry::describe`]).
    pub help: Option<String>,
    /// The family's kind.
    pub kind: MetricKind,
    /// Rows sorted by labels.
    pub rows: Vec<MetricRow>,
}

/// A sharded, get-or-create registry of named metrics.
///
/// Registration of the same `(name, labels)` pair always yields a handle
/// to the same underlying metric, so independent components may hold
/// independent handles to one logical series.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<RwLock<HashMap<MetricKey, MetricHandle>>>,
    help: RwLock<HashMap<String, String>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

fn shard_of(name: &str) -> usize {
    let mut hasher = DefaultHasher::new();
    name.hash(&mut hasher);
    (hasher.finish() as usize) & (SHARDS - 1)
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut owned: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    owned.sort();
    owned
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            help: RwLock::new(HashMap::new()),
        }
    }

    fn get_or_insert(&self, name: &str, labels: &[(&str, &str)], kind: MetricKind) -> MetricHandle {
        let key = MetricKey {
            name: name.to_string(),
            labels: sorted_labels(labels),
        };
        let shard = &self.shards[shard_of(name)];
        if let Some(existing) = shard
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            assert_eq!(
                existing.kind(),
                kind,
                "metric {name:?} already registered with a different kind"
            );
            return existing.clone();
        }
        let mut guard = shard
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = guard.entry(key).or_insert_with(|| match kind {
            MetricKind::Counter => MetricHandle::Counter(Counter::detached()),
            MetricKind::Gauge => MetricHandle::Gauge(Gauge::detached()),
            MetricKind::Histogram => MetricHandle::Histogram(Histogram::detached()),
            MetricKind::WindowedHistogram => MetricHandle::Windowed(WindowedHistogram::detached()),
        });
        assert_eq!(
            entry.kind(),
            kind,
            "metric {name:?} already registered with a different kind"
        );
        entry.clone()
    }

    /// Returns (registering on first use) the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, MetricKind::Counter) {
            MetricHandle::Counter(c) => c,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Returns (registering on first use) the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, MetricKind::Gauge) {
            MetricHandle::Gauge(g) => g,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Returns (registering on first use) the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_insert(name, labels, MetricKind::Histogram) {
            MetricHandle::Histogram(h) => h,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Returns (registering on first use) the windowed histogram
    /// `name{labels}` with the default 12 × 10 s ring. The Prometheus
    /// exposition renders its cumulative state under `name` plus
    /// recent-window quantile gauges under `name_windowed`.
    pub fn windowed_histogram(&self, name: &str, labels: &[(&str, &str)]) -> WindowedHistogram {
        match self.get_or_insert(name, labels, MetricKind::WindowedHistogram) {
            MetricHandle::Windowed(w) => w,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Attaches help text to a metric name (`# HELP` in the exposition).
    pub fn describe(&self, name: &str, help: &str) {
        self.help
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(name.to_string(), help.to_string());
    }

    /// Removes every series carrying the label `key="value"`, of any
    /// name and kind. An owner that labels its series with its own scope
    /// id calls this when it is dropped, so a process that keeps making
    /// short-lived stores and services does not keep their series
    /// forever. Handles already held keep working; they are just no
    /// longer exported.
    pub fn forget_labelled(&self, key: &str, value: &str) {
        for shard in &self.shards {
            shard
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .retain(|metric, _| !metric.labels.iter().any(|(k, v)| k == key && v == value));
        }
    }

    /// Snapshot of every registered family, sorted by name with rows
    /// sorted by labels.
    pub fn families(&self) -> Vec<MetricFamily> {
        let help = self
            .help
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let mut grouped: BTreeMap<String, Vec<MetricRow>> = BTreeMap::new();
        for shard in &self.shards {
            for (key, handle) in shard
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter()
            {
                grouped
                    .entry(key.name.clone())
                    .or_default()
                    .push(MetricRow {
                        labels: key.labels.clone(),
                        handle: handle.clone(),
                    });
            }
        }
        grouped
            .into_iter()
            .map(|(name, mut rows)| {
                rows.sort_by(|a, b| a.labels.cmp(&b.labels));
                let kind = rows[0].handle.kind();
                MetricFamily {
                    help: help.get(&name).cloned(),
                    name,
                    kind,
                    rows,
                }
            })
            .collect()
    }

    /// Number of registered metrics (all kinds, all label sets).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = MetricsRegistry::new();
        let c = r.counter("requests_total", &[("route", "/health")]);
        c.inc();
        c.add(4);
        // A second resolution sees the same underlying counter.
        assert_eq!(
            r.counter("requests_total", &[("route", "/health")]).get(),
            5
        );
        // Label order does not matter.
        let g1 = r.gauge("depth", &[("a", "1"), ("b", "2")]);
        let g2 = r.gauge("depth", &[("b", "2"), ("a", "1")]);
        g1.set(3.5);
        assert_eq!(g2.get(), 3.5);
        g2.add(-1.5);
        assert_eq!(g1.get(), 2.0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x", &[]);
        r.gauge("x", &[]);
    }

    #[test]
    fn bucket_bounds_are_monotone_and_cover_values() {
        let mut prev = 0.0;
        for i in 0..HISTOGRAM_BUCKETS {
            let lower = bucket_lower_bound(i);
            let upper = bucket_upper_bound(i);
            assert!(lower >= prev, "bucket {i} lower {lower} < prev {prev}");
            assert!(upper > lower || (i == 0 && lower == 0.0));
            prev = lower;
        }
        for v in [1e-9, 3.2e-4, 0.5, 1.0, 7.0, 1234.5, 9.9e8] {
            let i = bucket_index(v);
            assert!(
                bucket_lower_bound(i) <= v && v < bucket_upper_bound(i),
                "{v} misassigned to bucket {i} [{}, {})",
                bucket_lower_bound(i),
                bucket_upper_bound(i)
            );
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::INFINITY), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(1e300), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_summary_statistics() {
        let h = Histogram::detached();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        h.record(-1.0); // underflow: counted, sums 0
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 10.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean(), 2.0);
        // The median of [0,1,2,3,4] is 2.0: the estimate must fall
        // inside 2.0's bucket.
        let q = s.quantile(0.5);
        let i = bucket_index(2.0);
        assert!(bucket_lower_bound(i) <= q && q <= bucket_upper_bound(i));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = Histogram::detached().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.quantile(0.99), 0.0);
        assert_eq!(s.quantile(1.0), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        // Regression: interpolation used to report the landing bucket's
        // upper bound for a single-sample histogram; the estimate is
        // now clamped to the recorded max, which is exact here.
        let h = Histogram::detached();
        h.record(0.25);
        let s = h.snapshot();
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 0.25, "q={q}");
        }
        // A zero-valued sample (underflow bucket) is also exact.
        let h = Histogram::detached();
        h.record(0.0);
        assert_eq!(h.snapshot().quantile(0.99), 0.0);
    }

    #[test]
    fn quantile_estimate_never_exceeds_max() {
        let h = Histogram::detached();
        for v in [0.001, 0.4, 0.41, 0.42, 1.9] {
            h.record(v);
        }
        let s = h.snapshot();
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            assert!(
                s.quantile(q) <= s.max,
                "q={q}: {} > {}",
                s.quantile(q),
                s.max
            );
        }
        assert_eq!(s.quantile(1.0), 1.9);
    }

    #[test]
    fn forget_labelled_removes_only_that_scope() {
        let r = MetricsRegistry::new();
        let kept = r.counter("a_total", &[("db", "1")]);
        let held = r.counter("a_total", &[("db", "2")]);
        r.histogram("lat", &[("db", "2"), ("x", "y")]);
        r.gauge("g", &[("service", "2")]);
        r.forget_labelled("db", "2");
        assert_eq!(r.len(), 2);
        let rows: Vec<_> = r
            .families()
            .into_iter()
            .flat_map(|f| {
                f.rows
                    .into_iter()
                    .map(move |row| (f.name.clone(), row.labels))
            })
            .collect();
        assert_eq!(
            rows,
            vec![
                ("a_total".to_string(), vec![("db".into(), "1".into())]),
                ("g".to_string(), vec![("service".into(), "2".into())]),
            ]
        );
        // Forgotten handles still count; live ones are untouched.
        held.inc();
        kept.add(2);
        assert_eq!(held.get(), 1);
        assert_eq!(r.counter("a_total", &[("db", "1")]).get(), 2);
    }

    #[test]
    fn families_group_rows() {
        let r = MetricsRegistry::new();
        r.counter("a_total", &[("x", "1")]).inc();
        r.counter("a_total", &[("x", "2")]).add(2);
        r.histogram("lat", &[]).record(0.5);
        r.describe("a_total", "a thing");
        let families = r.families();
        assert_eq!(families.len(), 2);
        assert_eq!(families[0].name, "a_total");
        assert_eq!(families[0].help.as_deref(), Some("a thing"));
        assert_eq!(families[0].rows.len(), 2);
        assert_eq!(families[0].rows[0].labels, vec![("x".into(), "1".into())]);
        assert_eq!(families[1].kind, MetricKind::Histogram);
    }
}
