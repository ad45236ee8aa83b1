//! Property tests for the read path's one-pass aggregation: `bucketed`,
//! `merge_bucketed` and `combine` must return, bit for bit, what a stable
//! sort by bucket returns — for every `Aggregation`, on ascending runs
//! (the one-pass path) and on unsorted ones (the sort fallback), with
//! empty runs, timestamps at both ends of `i64` and hostile values.

use caladrius_tsdb::query::{bucketed, combine, merge_bucketed, Aggregation};
use caladrius_tsdb::Sample;
use proptest::prelude::*;

/// Left edge of the bucket holding `ts`; the partial bucket below the
/// lowest full one clamps to `i64::MIN`.
fn left_edge(ts: i64, width: i64) -> i64 {
    ts.div_euclid(width).checked_mul(width).unwrap_or(i64::MIN)
}

/// Stable sort by key, one aggregate per distinct key.
fn sorted_runs(mut keyed: Vec<(i64, f64)>, agg: Aggregation) -> Vec<Sample> {
    keyed.sort_by_key(|(key, _)| *key);
    keyed
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| Sample::new(run[0].0, agg.apply(run.iter().map(|(_, v)| *v))))
        .collect()
}

fn oracle_bucketed(samples: &[Sample], width: i64, agg: Aggregation) -> Vec<Sample> {
    let keyed = samples
        .iter()
        .map(|s| (left_edge(s.ts, width), s.value))
        .collect();
    sorted_runs(keyed, agg)
}

fn oracle_merge(runs: &[Vec<Sample>], agg: Aggregation) -> Vec<Sample> {
    let keyed = runs.iter().flatten().map(|s| (s.ts, s.value)).collect();
    sorted_runs(keyed, agg)
}

fn bits(samples: &[Sample]) -> Vec<(i64, u64)> {
    samples.iter().map(|s| (s.ts, s.value.to_bits())).collect()
}

fn arb_aggregation() -> impl Strategy<Value = Aggregation> {
    prop_oneof![
        Just(Aggregation::Sum),
        Just(Aggregation::Mean),
        Just(Aggregation::Min),
        Just(Aggregation::Max),
        Just(Aggregation::Count),
        (0.0..1.0).prop_map(Aggregation::Quantile),
        Just(Aggregation::MEDIAN),
        Just(Aggregation::First),
        Just(Aggregation::Last),
    ]
}

/// Signed zeros, NaN, infinities, and values whose sums cancel at 1e16
/// (where adding 1 is lost), next to ordinary ones.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e3..1e3,
        -1e3..1e3,
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(1e16),
        Just(-1e16),
        Just(1.0),
    ]
}

fn arb_width() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(60_000),
        Just(60_000),
        1i64..5,
        1i64..200_000,
        Just(1i64 << 62),
        Just(i64::MAX),
    ]
}

/// Where a run starts: next to either end of `i64`, around zero, or
/// anywhere.
fn arb_start() -> impl Strategy<Value = i64> {
    prop_oneof![
        (0i64..300_000).prop_map(|k| i64::MIN + k),
        -600_000i64..600_000,
        (0i64..2_000_000).prop_map(|k| i64::MAX - k),
        any::<i64>(),
    ]
}

/// How far the next sample lies: often the same timestamp, often the
/// same minute bucket, sometimes a gap.
fn arb_step() -> impl Strategy<Value = i64> {
    prop_oneof![Just(0), 0i64..60_000, 0i64..400_000, Just(i64::MAX / 4)]
}

/// A run as a store read returns it (ascending, duplicate timestamps and
/// buckets included) or shuffled out of order, or empty.
fn arb_run() -> impl Strategy<Value = Vec<Sample>> {
    (
        arb_start(),
        prop::collection::vec((arb_step(), arb_value()), 0..40),
        0u8..5,
        any::<usize>(),
    )
        .prop_map(|(start, steps, disorder, k)| {
            let mut ts = start;
            let mut run: Vec<Sample> = steps
                .into_iter()
                .map(|(step, value)| {
                    ts = ts.saturating_add(step);
                    Sample::new(ts, value)
                })
                .collect();
            let n = run.len();
            match disorder {
                // 0 and 1: ascending, as stored.
                2 => run.reverse(),
                3 if n > 0 => run.rotate_left(k % n),
                4 if n > 1 => run.swap(k % (n - 1), k % (n - 1) + 1),
                _ => {}
            }
            run
        })
}

fn arb_runs() -> impl Strategy<Value = Vec<Vec<Sample>>> {
    prop::collection::vec(arb_run(), 0..6)
}

proptest! {
    #[test]
    fn bucketed_matches_the_stable_sort(
        run in arb_run(),
        width in arb_width(),
        agg in arb_aggregation(),
    ) {
        prop_assert_eq!(
            bits(&bucketed(&run, width, agg)),
            bits(&oracle_bucketed(&run, width, agg))
        );
    }

    #[test]
    fn merge_bucketed_matches_the_stable_sort(
        runs in arb_runs(),
        agg in arb_aggregation(),
    ) {
        let merged = merge_bucketed(runs.iter().map(Vec::as_slice), agg);
        prop_assert_eq!(bits(&merged), bits(&oracle_merge(&runs, agg)));
    }

    #[test]
    fn merge_bucketed_matches_the_stable_sort_on_aligned_runs(
        runs in arb_runs(),
        width in arb_width(),
        within in arb_aggregation(),
        across in arb_aggregation(),
    ) {
        // What a window read merges: every run already bucketed.
        let aligned: Vec<Vec<Sample>> = runs
            .iter()
            .map(|run| oracle_bucketed(run, width, within))
            .collect();
        let merged = merge_bucketed(aligned.iter().map(Vec::as_slice), across);
        prop_assert_eq!(bits(&merged), bits(&oracle_merge(&aligned, across)));
    }

    #[test]
    fn combine_matches_the_stable_sort(
        runs in arb_runs(),
        width in arb_width(),
        within in arb_aggregation(),
        across in arb_aggregation(),
    ) {
        let aligned: Vec<Vec<Sample>> = runs
            .iter()
            .map(|run| oracle_bucketed(run, width, within))
            .collect();
        prop_assert_eq!(
            bits(&combine(&runs, width, within, across)),
            bits(&oracle_merge(&aligned, across))
        );
    }
}

#[test]
fn a_sum_sees_each_bucket_in_series_order() {
    // 1e16 + 1 - 1e16 is 0 in this order and 1 in others: the merge must
    // hand the values over exactly as the series list them.
    let a = [Sample::new(0, 1e16), Sample::new(60_000, 2.0)];
    let b = [Sample::new(0, 1.0), Sample::new(60_000, -0.0)];
    let c = [Sample::new(0, -1e16)];
    let merged = merge_bucketed([&a[..], &b[..], &c[..]], Aggregation::Sum);
    let runs = [a.to_vec(), b.to_vec(), c.to_vec()];
    assert_eq!(bits(&merged), bits(&oracle_merge(&runs, Aggregation::Sum)));
    assert_eq!(merged[0].value, 0.0);
}

#[test]
fn buckets_at_the_ends_of_i64_are_clamped_not_wrapped() {
    let run = [
        Sample::new(i64::MIN, 1.0),
        Sample::new(i64::MIN + 1, 2.0),
        Sample::new(-1, 4.0),
        Sample::new(i64::MAX - 1, 8.0),
        Sample::new(i64::MAX, 16.0),
    ];
    for width in [1, 7, 60_000, 1 << 62, i64::MAX] {
        let out = bucketed(&run, width, Aggregation::Sum);
        assert_eq!(
            bits(&out),
            bits(&oracle_bucketed(&run, width, Aggregation::Sum))
        );
        assert!(out.windows(2).all(|w| w[0].ts < w[1].ts), "width {width}");
        assert_eq!(out[0].ts, left_edge(i64::MIN, width));
    }
}
