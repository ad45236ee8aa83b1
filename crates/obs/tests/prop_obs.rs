//! Property and concurrency tests for the observability layer:
//! histogram quantiles against a sorted-vector reference, lock-free
//! recording under thread contention, trace-ring wraparound and
//! Prometheus text-format invariants.

use caladrius_obs::{
    Histogram, MetricsRegistry, SloConfig, SloRegistry, TraceRing, WindowedHistogram,
};
use proptest::prelude::*;
use std::time::Duration;

/// One octave is split into 4 sub-buckets, so a bucket's bounds are a
/// factor of 2^(1/4) apart: any quantile estimate interpolated inside
/// the right bucket is within ~19% of the exact order statistic.
const BUCKET_WIDTH: f64 = 1.189_207_115_002_721; // 2^(1/4)

fn arb_positive_values() -> impl Strategy<Value = Vec<f64>> {
    // Stay inside the histogram's bucketed range (~4.7e-10 .. ~8.6e9)
    // so no sample overflows into the +Inf bucket.
    prop::collection::vec(1e-6f64..1e9, 1..400)
}

proptest! {
    /// Quantile estimates land in the same log bucket as the exact
    /// order statistic from a sorted copy of the data.
    #[test]
    fn quantiles_track_sorted_reference(values in arb_positive_values(), q in 0.0f64..1.0) {
        let h = Histogram::detached();
        for v in &values {
            h.record(*v);
        }
        let snapshot = h.snapshot();
        prop_assert_eq!(snapshot.count, values.len() as u64);

        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let reference = sorted[rank - 1];
        let estimate = snapshot.quantile(q);
        let slack = BUCKET_WIDTH * 1.0001;
        prop_assert!(
            estimate <= reference * slack && estimate >= reference / slack,
            "q={} estimate={} reference={}", q, estimate, reference,
        );
    }

    /// Count, sum and max from a snapshot agree with exact aggregation.
    #[test]
    fn snapshot_aggregates_are_exact(values in arb_positive_values()) {
        let h = Histogram::detached();
        for v in &values {
            h.record(*v);
        }
        let snapshot = h.snapshot();
        prop_assert_eq!(snapshot.count, values.len() as u64);
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        prop_assert_eq!(snapshot.max, max);
        let total: f64 = values.iter().sum();
        prop_assert!((snapshot.sum - total).abs() <= 1e-6 * total.max(1.0));
        prop_assert!((snapshot.mean() - total / values.len() as f64).abs() <= 1.0);
    }

    /// Bucket counts in the rendered Prometheus text are cumulative and
    /// end at the total count; every sample line parses.
    #[test]
    fn prometheus_histogram_lines_are_cumulative(values in arb_positive_values()) {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("latency_seconds", &[("route", "/x")]);
        for v in &values {
            h.record(*v);
        }
        let text = caladrius_obs::render_prometheus(&registry);
        let mut last = 0u64;
        let mut bucket_lines = 0usize;
        for line in text.lines().filter(|l| l.starts_with("latency_seconds_bucket")) {
            bucket_lines += 1;
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            prop_assert!(count >= last, "non-monotone bucket counts:\n{}", text);
            last = count;
        }
        prop_assert!(bucket_lines >= 1);
        prop_assert_eq!(last, values.len() as u64, "+Inf bucket = total count");
    }

    /// A windowed histogram's recent-window quantiles track a sorted
    /// reference of the values recorded inside the window, within one
    /// bucket's width. Sub-buckets split an octave linearly, so the
    /// widest ratio between a bucket's bounds is the bottom quarter's
    /// 1.25 (not the 2^(1/4) geometric mean).
    #[test]
    fn windowed_quantiles_track_sorted_reference(
        values in arb_positive_values(),
        q in 0.0f64..1.0,
    ) {
        let w = WindowedHistogram::with_window(4, 10);
        for v in &values {
            w.record_at(*v, 100);
        }
        let snapshot = w.windowed_snapshot_at(100);
        prop_assert_eq!(snapshot.count, values.len() as u64);

        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let reference = sorted[rank - 1];
        let estimate = snapshot.quantile(q);
        let slack = 1.25 * 1.0001;
        prop_assert!(
            estimate <= reference * slack && estimate >= reference / slack,
            "q={} estimate={} reference={}", q, estimate, reference,
        );
    }

    /// The windowed exposition keeps the cumulative-histogram contract
    /// under the original (sanitised) name — monotone bucket counts
    /// ending at the total — and adds exactly one parseable quantile
    /// gauge row per exported quantile, with label escaping intact in
    /// both families.
    #[test]
    fn prometheus_windowed_rows_are_cumulative_and_gauged(values in arb_positive_values()) {
        let registry = MetricsRegistry::new();
        let w = registry.windowed_histogram("win.lat-seconds", &[("route", "a\"b")]);
        for v in &values {
            w.record(*v);
        }
        let text = caladrius_obs::render_prometheus(&registry);
        prop_assert!(text.contains("# TYPE win_lat_seconds histogram\n"), "{}", text);
        prop_assert!(text.contains("# TYPE win_lat_seconds_windowed gauge\n"), "{}", text);

        let mut last = 0u64;
        let mut bucket_lines = 0usize;
        for line in text.lines().filter(|l| l.starts_with("win_lat_seconds_bucket")) {
            bucket_lines += 1;
            prop_assert!(line.contains("route=\"a\\\"b\""), "{}", line);
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            prop_assert!(count >= last, "non-monotone bucket counts:\n{}", text);
            last = count;
        }
        prop_assert!(bucket_lines >= 1);
        prop_assert_eq!(last, values.len() as u64, "+Inf bucket = total count");

        let mut gauge_rows = 0usize;
        for line in text.lines().filter(|l| l.starts_with("win_lat_seconds_windowed{")) {
            gauge_rows += 1;
            prop_assert!(line.contains("route=\"a\\\"b\""), "{}", line);
            prop_assert!(line.contains("quantile=\""), "{}", line);
            let value = line.rsplit(' ').next().unwrap();
            prop_assert!(value.parse::<f64>().is_ok(), "unparseable value in {:?}", line);
        }
        prop_assert_eq!(gauge_rows, 3, "one gauge row per exported quantile:\n{}", text);
    }
}

/// `evaluate` exports one `caladrius_slo_burn_rate` gauge row per
/// (objective, window); values are finite, non-negative and parse out
/// of the text exposition with the objective name escaped as a label.
#[test]
fn slo_burn_rate_gauges_render_per_objective_and_window() {
    let registry = MetricsRegistry::new();
    let slos = SloRegistry::new();
    let objective = slos.objective("route:/topology/{topology}/plan", SloConfig::default());
    for _ in 0..9 {
        objective.record_at(true, 100);
    }
    objective.record_at(false, 100);
    slos.evaluate_at(Some(&registry), None, 100);

    let text = caladrius_obs::render_prometheus(&registry);
    assert!(
        text.contains("# TYPE caladrius_slo_burn_rate gauge\n"),
        "{text}"
    );
    for window in ["fast", "slow"] {
        let row = text
            .lines()
            .find(|l| {
                l.starts_with("caladrius_slo_burn_rate{")
                    && l.contains(&format!("window=\"{window}\""))
            })
            .unwrap_or_else(|| panic!("missing {window} burn-rate row:\n{text}"));
        assert!(
            row.contains("objective=\"route:/topology/{topology}/plan\""),
            "{row}"
        );
        let value: f64 = row.rsplit(' ').next().unwrap().parse().unwrap();
        // 1 bad out of 10 against a 0.99 target burns at 10× budget.
        assert!(value.is_finite() && value > 0.0, "{row}");
    }
}

/// Eight threads hammer one histogram and one counter; totals are exact
/// because recording is lock-free atomics, not a racy read-modify-write.
#[test]
fn concurrent_recording_is_lossless() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 10_000;
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let histogram = registry.histogram("contended_seconds", &[]);
    let counter = registry.counter("contended_total", &[]);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let histogram = histogram.clone();
            let counter = counter.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    histogram.record((t * PER_THREAD + i + 1) as f64 * 1e-6);
                    counter.inc();
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let snapshot = histogram.snapshot();
    assert_eq!(snapshot.count, (THREADS * PER_THREAD) as u64);
    assert_eq!(counter.get(), (THREADS * PER_THREAD) as u64);
    assert_eq!(snapshot.max, (THREADS * PER_THREAD) as f64 * 1e-6);
    let total_buckets: u64 = snapshot.buckets.iter().map(|b| b.count).sum();
    assert_eq!(
        total_buckets, snapshot.count,
        "every sample lands in a bucket"
    );
}

/// Spans recorded from many threads wrap the ring without losing the
/// newest entries or corrupting the sequence order.
#[test]
fn trace_ring_wraps_under_concurrency() {
    let ring = std::sync::Arc::new(TraceRing::new(64));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let ring = std::sync::Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..100 {
                    ring.record(
                        &format!("thread{t}.span{i}"),
                        Duration::from_micros(i),
                        None,
                        vec![("i".into(), i.to_string())],
                    );
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(ring.len(), 64, "ring stays at capacity");
    assert_eq!(ring.total_recorded(), 800);
    let recent = ring.recent(1000);
    assert_eq!(recent.len(), 64);
    assert!(
        recent.windows(2).all(|w| w[0].seq > w[1].seq),
        "newest first, strictly ordered"
    );
}

/// Label escaping survives hostile values and the `# TYPE` metadata
/// lines stay machine-parseable.
#[test]
fn prometheus_format_escapes_and_type_lines_parse() {
    let registry = MetricsRegistry::new();
    registry.describe("weird_total", "help with \\ backslash\nand newline");
    registry
        .counter("weird_total", &[("path", "a\\b\"c\nd"), ("ok", "plain")])
        .inc();
    registry.gauge("depth", &[]).set(-1.5);
    registry.histogram("lat.seconds-v2", &[]).record(0.25);
    let text = caladrius_obs::render_prometheus(&registry);

    assert!(
        text.contains("path=\"a\\\\b\\\"c\\nd\""),
        "escaped label:\n{text}"
    );
    assert!(text.contains("# HELP weird_total help with \\\\ backslash\\nand newline\n"));

    let mut type_lines = 0;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            type_lines += 1;
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap();
            let kind = parts.next().unwrap();
            assert!(parts.next().is_none(), "extra tokens in {line:?}");
            assert!(
                name.chars()
                    .enumerate()
                    .all(|(i, c)| c.is_ascii_alphabetic()
                        || c == '_'
                        || c == ':'
                        || (i > 0 && c.is_ascii_digit())),
                "unsanitized name in {line:?}"
            );
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown kind in {line:?}"
            );
        } else if !line.starts_with('#') && !line.is_empty() {
            // Sample lines: everything after the last space is a value.
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "unparseable value in {line:?}"
            );
        }
    }
    assert_eq!(type_lines, 3, "one TYPE line per family:\n{text}");
    assert!(text.contains("# TYPE lat_seconds_v2 histogram\n"));
}
