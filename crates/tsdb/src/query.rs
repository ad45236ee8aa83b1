//! Query-side primitives: tag filters, aggregation functions, bucketed
//! down-sampling, group-by and rate conversion.

use crate::series::Sample;

/// Predicate over one tag of a series key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagFilter {
    /// Tag must be present and equal to the value.
    Eq(String, String),
    /// Tag must be absent or different from the value.
    NotEq(String, String),
    /// Tag must be present and equal to one of the values.
    In(String, Vec<String>),
    /// Tag must be present with any value.
    Exists(String),
}

impl TagFilter {
    /// `tag == value`
    pub fn eq(tag: impl Into<String>, value: impl Into<String>) -> Self {
        TagFilter::Eq(tag.into(), value.into())
    }

    /// `tag != value`
    pub fn not_eq(tag: impl Into<String>, value: impl Into<String>) -> Self {
        TagFilter::NotEq(tag.into(), value.into())
    }

    /// `tag IN (values...)`
    pub fn is_in<I, S>(tag: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TagFilter::In(tag.into(), values.into_iter().map(Into::into).collect())
    }

    /// `tag` present.
    pub fn exists(tag: impl Into<String>) -> Self {
        TagFilter::Exists(tag.into())
    }
}

/// Aggregation function applied to a set of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregation {
    /// Sum of all values.
    Sum,
    /// Arithmetic mean. Empty input yields NaN.
    Mean,
    /// Minimum. Empty input yields NaN.
    Min,
    /// Maximum. Empty input yields NaN.
    Max,
    /// Number of values.
    Count,
    /// Linear-interpolated quantile in `[0, 1]`. Empty input yields NaN.
    Quantile(f64),
    /// Value of the first sample (by iteration order). Empty input yields NaN.
    First,
    /// Value of the last sample (by iteration order). Empty input yields NaN.
    Last,
}

impl Aggregation {
    /// Convenience: the median.
    pub const MEDIAN: Aggregation = Aggregation::Quantile(0.5);

    /// Applies the aggregation to an iterator of values.
    pub fn apply(self, values: impl IntoIterator<Item = f64>) -> f64 {
        match self {
            Aggregation::Sum => values.into_iter().sum(),
            Aggregation::Count => values.into_iter().count() as f64,
            Aggregation::Mean => {
                let mut n = 0usize;
                let mut sum = 0.0;
                for v in values {
                    n += 1;
                    sum += v;
                }
                if n == 0 {
                    f64::NAN
                } else {
                    sum / n as f64
                }
            }
            Aggregation::Min => {
                values.into_iter().fold(
                    f64::NAN,
                    |acc, v| if v < acc || acc.is_nan() { v } else { acc },
                )
            }
            Aggregation::Max => {
                values.into_iter().fold(
                    f64::NAN,
                    |acc, v| if v > acc || acc.is_nan() { v } else { acc },
                )
            }
            Aggregation::Quantile(q) => {
                let mut v: Vec<f64> = values.into_iter().filter(|x| !x.is_nan()).collect();
                if v.is_empty() {
                    return f64::NAN;
                }
                v.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
                quantile_sorted(&v, q)
            }
            Aggregation::First => values.into_iter().next().unwrap_or(f64::NAN),
            Aggregation::Last => values.into_iter().last().unwrap_or(f64::NAN),
        }
    }
}

/// Linear-interpolated quantile of an already sorted, non-empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Aligns samples to fixed-width buckets and aggregates each bucket.
///
/// Bucket `b` covers `[b * width, (b + 1) * width)` and is emitted at its
/// left edge; the partial bucket at the bottom of the `i64` range is
/// emitted at `i64::MIN`. Empty buckets are omitted (Caladrius's
/// Prophet-style models handle missing data natively). Each bucket's
/// values reach `agg` in the order they are given.
///
/// Ascending input (what a store read returns) is walked bucket by
/// bucket in one pass; anything else falls back to a stable sort by
/// bucket, which yields the same result for ascending input.
pub fn bucketed(samples: &[Sample], width_ms: i64, agg: Aggregation) -> Vec<Sample> {
    assert!(width_ms > 0, "bucket width must be positive");
    let mut out = Vec::with_capacity(samples.len());
    let mut start = 0;
    let mut bucket = None;
    while let Some(first) = samples.get(start) {
        let (edge, last) = match bucket {
            // The bucket right after the previous one: no division.
            Some((_, prev_last))
                if first.ts > prev_last && first.ts <= prev_last.saturating_add(width_ms) =>
            {
                (prev_last + 1, prev_last.saturating_add(width_ms))
            }
            _ => bucket_of(first.ts, width_ms),
        };
        if bucket.is_some_and(|(prev_edge, _)| edge <= prev_edge) {
            return aggregate_runs(
                samples
                    .iter()
                    .map(|s| (bucket_of(s.ts, width_ms).0, s.value)),
                agg,
            );
        }
        let mut end = start + 1;
        while samples
            .get(end)
            .is_some_and(|s| s.ts >= edge && s.ts <= last)
        {
            end += 1;
        }
        out.push(Sample {
            ts: edge,
            value: agg.apply(samples[start..end].iter().map(|s| s.value)),
        });
        bucket = Some((edge, last));
        start = end;
    }
    out
}

/// The bucket of width `width_ms` holding `ts`, as its first and last
/// timestamp, clamped to the `i64` range.
fn bucket_of(ts: i64, width_ms: i64) -> (i64, i64) {
    let offset = ts.rem_euclid(width_ms);
    (
        ts.saturating_sub(offset),
        ts.saturating_add(width_ms - 1 - offset),
    )
}

/// One sample per distinct bucket of `keyed`, ascending, each the
/// aggregate of that bucket's values in the order they arrived (the sort
/// is stable) — float sums depend on it. The fallback for input that is
/// not ascending, and the reference the one-pass paths are tested
/// against.
fn aggregate_runs(keyed: impl Iterator<Item = (i64, f64)>, agg: Aggregation) -> Vec<Sample> {
    let mut keyed: Vec<(i64, f64)> = keyed.collect();
    keyed.sort_by_key(|(bucket, _)| *bucket);
    keyed
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| Sample {
            ts: run[0].0,
            value: agg.apply(run.iter().map(|(_, value)| *value)),
        })
        .collect()
}

/// Element-wise combination of many series after bucket alignment: each
/// input is bucketed, then buckets present in *any* input are aggregated
/// across inputs with `across`.
///
/// This implements the paper's component-level roll-up: summing per-instance
/// emit counts into a component emit count, for example.
pub fn combine(
    series: &[Vec<Sample>],
    width_ms: i64,
    within: Aggregation,
    across: Aggregation,
) -> Vec<Sample> {
    let aligned: Vec<Vec<Sample>> = series
        .iter()
        .map(|s| bucketed(s, width_ms, within))
        .collect();
    merge_bucketed(aligned.iter().map(Vec::as_slice), across)
}

/// The second half of [`combine`]: aggregates, per bucket, across series
/// that [`bucketed`] already aligned to one width. Values reach `across`
/// in the order the series are given.
///
/// Ascending series are merged in one pass: each output bucket takes the
/// series' samples at the smallest pending timestamp, series by series.
/// If any series is not ascending, everything falls back to a stable
/// sort, which yields the same result for ascending input.
pub fn merge_bucketed<'a>(
    aligned: impl IntoIterator<Item = &'a [Sample]>,
    across: Aggregation,
) -> Vec<Sample> {
    let mut runs: Vec<&[Sample]> = aligned.into_iter().collect();
    if !runs.iter().all(|run| run.is_sorted_by_key(|s| s.ts)) {
        let buckets = runs
            .iter()
            .flat_map(|run| run.iter().map(|s| (s.ts, s.value)));
        return aggregate_runs(buckets, across);
    }
    let mut out = Vec::with_capacity(runs.iter().map(|run| run.len()).max().unwrap_or(0));
    let mut values = Vec::with_capacity(runs.len());
    while let Some(ts) = runs
        .iter()
        .filter_map(|run| run.first())
        .map(|s| s.ts)
        .min()
    {
        values.clear();
        for run in &mut runs {
            while let Some((first, rest)) = run.split_first() {
                if first.ts != ts {
                    break;
                }
                values.push(first.value);
                *run = rest;
            }
        }
        out.push(Sample {
            ts,
            value: across.apply(values.iter().copied()),
        });
    }
    out
}

/// Converts cumulative or per-interval counts into a per-second rate using
/// adjacent sample spacing: `rate[i] = value[i] / ((ts[i] - ts[i-1]) / 1000)`.
///
/// The first sample has no predecessor and is skipped.
pub fn per_second_rate(samples: &[Sample]) -> Vec<Sample> {
    samples
        .windows(2)
        .filter(|w| w[1].ts > w[0].ts)
        .map(|w| Sample {
            ts: w[1].ts,
            value: w[1].value / ((w[1].ts - w[0].ts) as f64 / 1000.0),
        })
        .collect()
}

/// Parses a compact series selector into `(metric name, tag filters)`.
///
/// Grammar (PromQL-flavoured, no regexes):
///
/// ```text
/// selector  = name [ "{" matcher ("," matcher)* "}" ]
/// matcher   = tag "=" value        // equality
///           | tag "!=" value       // inequality
///           | tag "=" v1 "|" v2    // membership (any of)
///           | tag                  // presence
/// ```
///
/// Example: `execute-count{component=splitter,instance=0|1,container!=3}`.
pub fn parse_selector(input: &str) -> Result<(String, Vec<TagFilter>), String> {
    let input = input.trim();
    if input.is_empty() {
        return Err("empty selector".into());
    }
    let (name, rest) = match input.find('{') {
        None => (input, None),
        Some(open) => {
            let Some(stripped) = input[open..].strip_prefix('{') else {
                unreachable!("found above")
            };
            let Some(close) = stripped.find('}') else {
                return Err("unclosed '{' in selector".into());
            };
            if !stripped[close + 1..].trim().is_empty() {
                return Err("unexpected characters after '}'".into());
            }
            (&input[..open], Some(&stripped[..close]))
        }
    };
    let name = name.trim();
    if name.is_empty() {
        return Err("selector needs a metric name".into());
    }
    let mut filters = Vec::new();
    if let Some(body) = rest.filter(|b| !b.trim().is_empty()) {
        for raw in body.split(',') {
            let matcher = raw.trim();
            if matcher.is_empty() {
                return Err("empty matcher in selector".into());
            }
            if let Some((tag, value)) = matcher.split_once("!=") {
                let (tag, value) = (tag.trim(), value.trim());
                if tag.is_empty() || value.is_empty() {
                    return Err(format!("malformed matcher {matcher:?}"));
                }
                filters.push(TagFilter::not_eq(tag, value));
            } else if let Some((tag, value)) = matcher.split_once('=') {
                let (tag, value) = (tag.trim(), value.trim());
                if tag.is_empty() || value.is_empty() {
                    return Err(format!("malformed matcher {matcher:?}"));
                }
                if value.contains('|') {
                    filters.push(TagFilter::is_in(
                        tag,
                        value.split('|').map(str::trim).filter(|v| !v.is_empty()),
                    ));
                } else {
                    filters.push(TagFilter::eq(tag, value));
                }
            } else {
                filters.push(TagFilter::exists(matcher));
            }
        }
    }
    Ok((name.to_string(), filters))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ts: i64, value: f64) -> Sample {
        Sample { ts, value }
    }

    #[test]
    fn aggregations_basic() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(Aggregation::Sum.apply(v), 10.0);
        assert_eq!(Aggregation::Mean.apply(v), 2.5);
        assert_eq!(Aggregation::Min.apply(v), 1.0);
        assert_eq!(Aggregation::Max.apply(v), 4.0);
        assert_eq!(Aggregation::Count.apply(v), 4.0);
        assert_eq!(Aggregation::First.apply(v), 1.0);
        assert_eq!(Aggregation::Last.apply(v), 4.0);
        assert_eq!(Aggregation::MEDIAN.apply(v), 2.5);
    }

    #[test]
    fn aggregations_empty_input() {
        let v: [f64; 0] = [];
        assert_eq!(Aggregation::Sum.apply(v), 0.0);
        assert_eq!(Aggregation::Count.apply(v), 0.0);
        assert!(Aggregation::Mean.apply(v).is_nan());
        assert!(Aggregation::Min.apply(v).is_nan());
        assert!(Aggregation::Max.apply(v).is_nan());
        assert!(Aggregation::Quantile(0.5).apply(v).is_nan());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(Aggregation::Quantile(0.0).apply(v), 10.0);
        assert_eq!(Aggregation::Quantile(1.0).apply(v), 40.0);
        assert!((Aggregation::Quantile(0.25).apply(v) - 17.5).abs() < 1e-12);
        // Out-of-range q clamps.
        assert_eq!(Aggregation::Quantile(2.0).apply(v), 40.0);
    }

    #[test]
    fn min_max_with_negative_values() {
        let v = [-5.0, -1.0, -9.0];
        assert_eq!(Aggregation::Min.apply(v), -9.0);
        assert_eq!(Aggregation::Max.apply(v), -1.0);
    }

    #[test]
    fn bucketing_aligns_and_aggregates() {
        let samples = vec![s(0, 1.0), s(30_000, 2.0), s(60_000, 3.0), s(90_000, 4.0)];
        let out = bucketed(&samples, 60_000, Aggregation::Sum);
        assert_eq!(out, vec![s(0, 3.0), s(60_000, 7.0)]);
    }

    #[test]
    fn bucketing_skips_empty_buckets() {
        let samples = vec![s(0, 1.0), s(300_000, 2.0)];
        let out = bucketed(&samples, 60_000, Aggregation::Mean);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ts, 0);
        assert_eq!(out[1].ts, 300_000);
    }

    #[test]
    fn bucketing_handles_negative_timestamps() {
        let samples = vec![s(-30_000, 1.0), s(-90_000, 2.0)];
        let out = bucketed(&samples, 60_000, Aggregation::Sum);
        assert_eq!(out[0].ts, -120_000);
        assert_eq!(out[1].ts, -60_000);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn bucketing_rejects_zero_width() {
        bucketed(&[], 0, Aggregation::Sum);
    }

    #[test]
    fn combine_sums_across_instances() {
        let a = vec![s(0, 10.0), s(60_000, 20.0)];
        let b = vec![s(0, 1.0), s(60_000, 2.0), s(120_000, 3.0)];
        let out = combine(&[a, b], 60_000, Aggregation::Sum, Aggregation::Sum);
        assert_eq!(out, vec![s(0, 11.0), s(60_000, 22.0), s(120_000, 3.0)]);
    }

    #[test]
    fn rate_uses_adjacent_spacing() {
        let samples = vec![s(0, 0.0), s(60_000, 600.0), s(180_000, 1200.0)];
        let out = per_second_rate(&samples);
        assert_eq!(out.len(), 2);
        assert!((out[0].value - 10.0).abs() < 1e-12);
        assert!((out[1].value - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rate_skips_non_increasing_timestamps() {
        let samples = vec![s(0, 1.0), s(0, 2.0), s(60_000, 3.0)];
        assert_eq!(per_second_rate(&samples).len(), 1);
    }

    #[test]
    fn selector_name_only() {
        let (name, filters) = parse_selector("emit-count").unwrap();
        assert_eq!(name, "emit-count");
        assert!(filters.is_empty());
        let (name, _) = parse_selector("  emit-count{} ").unwrap();
        assert_eq!(name, "emit-count");
    }

    #[test]
    fn selector_full_grammar() {
        let (name, filters) = parse_selector(
            "execute-count{component=splitter, instance=0|1 ,container!=3,topology}",
        )
        .unwrap();
        assert_eq!(name, "execute-count");
        assert_eq!(
            filters,
            vec![
                TagFilter::eq("component", "splitter"),
                TagFilter::is_in("instance", ["0", "1"]),
                TagFilter::not_eq("container", "3"),
                TagFilter::exists("topology"),
            ]
        );
    }

    #[test]
    fn selector_rejects_malformed() {
        for bad in [
            "",
            "  ",
            "{component=x}",
            "m{unclosed",
            "m{a=}",
            "m{=b}",
            "m{a=1} extra",
            "m{a=1,,b=2}",
        ] {
            assert!(parse_selector(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn selector_filters_work_against_catalog() {
        use crate::{MetricsDb, SeriesKey};
        let db = MetricsDb::new();
        for i in 0..3 {
            db.write(
                &SeriesKey::new("m").with_tag("instance", i.to_string()),
                0,
                f64::from(i),
            );
        }
        let (name, filters) = parse_selector("m{instance=0|2}").unwrap();
        let rows = db.select(&name, &filters, 0, 10).unwrap();
        assert_eq!(rows.len(), 2);
    }
}
