//! Property tests for the read path's one-pass aggregation: `bucketed`,
//! `bucket_in_place`, `merge_bucketed`, `combine` and the store's grouped
//! reads must return, bit for bit, what a stable sort by bucket returns —
//! for every `Aggregation`, on ascending runs (the one-pass paths) and on
//! unsorted ones (the sort fallback), with empty runs, timestamps at both
//! ends of `i64` and hostile values.

use caladrius_tsdb::query::{bucket_in_place, bucketed, combine, merge_bucketed, Aggregation};
use caladrius_tsdb::{MetricsDb, Sample, SeriesKey};
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
    fn bucket_in_place_matches_the_stable_sort(
        run in arb_run(),
        width in arb_width(),
        agg in arb_aggregation(),
    ) {
        let mut in_place = run.clone();
        bucket_in_place(&mut in_place, width, agg);
        prop_assert_eq!(bits(&in_place), bits(&oracle_bucketed(&run, width, agg)));
    }

    /// Series sharing one strictly ascending timestamp column (what
    /// bucketed per-minute series over one window are), and the same
    /// with one timestamp moved, dropped or doubled in one of them.
    #[test]
    fn shared_columns_merge_like_the_stable_sort(
        column in prop::collection::vec((arb_step(), arb_value()), 0..40),
        start in arb_start(),
        others in prop::collection::vec(prop::collection::vec(arb_value(), 40), 0..5),
        change in 0u8..4,
        k in any::<usize>(),
        agg in arb_aggregation(),
    ) {
        let mut ts = start;
        let mut first: Vec<Sample> = column
            .iter()
            .map(|&(step, value)| {
                ts = ts.saturating_add(step.max(1));
                Sample::new(ts, value)
            })
            .collect();
        first.dedup_by_key(|s| s.ts);
        let mut runs = vec![first.clone()];
        for values in &others {
            runs.push(first.iter().zip(values).map(|(s, v)| Sample::new(s.ts, *v)).collect());
        }
        let n = first.len();
        let target = k % runs.len();
        match change {
            // 0: every run on the one column.
            1 if n > 0 => runs[target][k % n].ts = runs[target][k % n].ts.wrapping_add(1),
            2 if n > 0 => {
                runs[target].remove(k % n);
            }
            3 if n > 0 => {
                let s = runs[target][k % n];
                runs[target].insert(k % n, s);
            }
            _ => {}
        }
        let merged = merge_bucketed(runs.iter().map(Vec::as_slice), agg);
        prop_assert_eq!(bits(&merged), bits(&oracle_merge(&runs, agg)));
    }

    /// A store read grouped by instance: groups of one series (moved into
    /// place) and of several (merged) give what merging their bucketed
    /// series gives, and the combined view what merging all of them does.
    #[test]
    fn grouped_reads_match_the_stable_sort(
        placed in prop::collection::vec((0u8..3, arb_run()), 1..6),
        width in arb_width(),
        within in arb_aggregation(),
        across in arb_aggregation(),
    ) {
        let db = MetricsDb::new();
        let mut series: Vec<(SeriesKey, Vec<Sample>)> = Vec::new();
        for (container, (instance, run)) in placed.iter().enumerate() {
            let key = SeriesKey::new("m")
                .with_tag("container", container.to_string())
                .with_tag("instance", instance.to_string());
            let handle = db.register(&key);
            for s in run {
                db.append(&handle, s.ts, s.value);
            }
            let mut stored = run.clone();
            stored.sort_by_key(|s| s.ts);
            series.push((key, oracle_bucketed(&stored, width, within)));
        }
        let (combined, groups) = db
            .aggregate_with_groups("m", &[], "instance", i64::MIN, i64::MAX, width, within, across)
            .unwrap();
        let all: Vec<Vec<Sample>> = series.iter().map(|(_, s)| s.clone()).collect();
        prop_assert_eq!(bits(&combined), bits(&oracle_merge(&all, across)));
        let mut want: Vec<(String, Vec<Vec<Sample>>)> = Vec::new();
        for (key, aligned) in &series {
            let group = key.tag("instance").unwrap().to_string();
            match want.iter_mut().find(|(g, _)| *g == group) {
                Some((_, members)) => members.push(aligned.clone()),
                None => want.push((group, vec![aligned.clone()])),
            }
        }
        want.sort_by(|a, b| a.0.cmp(&b.0));
        prop_assert_eq!(groups.len(), want.len());
        for ((group, got), (want_group, members)) in groups.iter().zip(&want) {
            prop_assert_eq!(group, want_group);
            prop_assert_eq!(bits(got), bits(&oracle_merge(members, across)));
        }
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
fn a_one_series_group_is_what_merging_it_returns() {
    // Count turns every value into 1, and a Mean over -0.0 is +0.0: the
    // one series of a group is not its own merge, it is moved into place
    // with `across` applied bucket by bucket.
    let db = MetricsDb::new();
    let run = [
        Sample::new(0, -0.0),
        Sample::new(60_000, f64::NAN),
        Sample::new(120_000, 5.0),
    ];
    let key = SeriesKey::new("m").with_tag("instance", "0");
    let handle = db.register(&key);
    for s in run {
        db.append(&handle, s.ts, s.value);
    }
    for across in [
        Aggregation::Count,
        Aggregation::Mean,
        Aggregation::Sum,
        Aggregation::MEDIAN,
    ] {
        let groups = db
            .aggregate_by(
                "m",
                &[],
                "instance",
                0,
                i64::MAX,
                60_000,
                Aggregation::Sum,
                across,
            )
            .unwrap();
        let aligned = bucketed(&run, 60_000, Aggregation::Sum);
        let merged = merge_bucketed([aligned.as_slice()], across);
        assert_eq!(groups.len(), 1);
        assert_eq!(bits(&groups[0].1), bits(&merged), "{across:?}");
    }
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
