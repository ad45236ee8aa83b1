//! Property tests for the incremental == batch refit equivalence bar.
//!
//! For every random series and every random append schedule (history cut
//! into a prefix fit plus 1–6 update chunks), a forecaster that absorbed
//! the appends through [`Forecaster::update`] must predict exactly what a
//! fresh fit over the full series predicts:
//!
//! bitwise (`f64::to_bits`) equality for AR and the stats summary: both
//! paths route every point through the same compensated accumulators in
//! the same order.
//!
//! The regressions at the bottom pin the refusal edges: stale or
//! overlapping appends (the forecaster-level analogue of tsdb truncation
//! and retention-driven chunk eviction) must leave the fitted state
//! untouched and demand a full refit.

use caladrius_forecast::ar::ArModel;
use caladrius_forecast::stats::StatsSummaryModel;
use caladrius_forecast::{DataPoint, ForecastPoint, Forecaster, UpdateOutcome};
use proptest::prelude::*;

const MINUTE: i64 = 60_000;

fn points(values: &[f64]) -> Vec<DataPoint> {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| DataPoint::new(i as i64 * MINUTE, *v))
        .collect()
}

/// Cuts `data[prefix..]` at the fractional `cuts` and replays the chunks
/// through `update`, asserting every in-order chunk absorbs
/// incrementally (empty chunks included — they must be no-ops).
fn replay(model: &mut dyn Forecaster, data: &[DataPoint], prefix: usize, cuts: &[f64]) {
    let tail = &data[prefix..];
    let mut bounds: Vec<usize> = cuts
        .iter()
        .map(|f| (f * tail.len() as f64) as usize)
        .collect();
    bounds.push(tail.len());
    bounds.sort_unstable();
    let mut start = 0;
    for end in bounds {
        let outcome = model.update(&tail[start..end]).expect("in-order append");
        assert_eq!(outcome, UpdateOutcome::Incremental);
        start = end;
    }
}

/// Future timestamps probing several horizons past the series end.
fn horizon(len: usize) -> Vec<i64> {
    let last = (len as i64 - 1) * MINUTE;
    vec![last + MINUTE, last + 7 * MINUTE, last + 60 * MINUTE]
}

fn assert_bitwise(incremental: &[ForecastPoint], batch: &[ForecastPoint]) {
    assert_eq!(incremental.len(), batch.len());
    for (a, b) in incremental.iter().zip(batch) {
        assert_eq!(a.ts, b.ts);
        assert_eq!(a.yhat.to_bits(), b.yhat.to_bits(), "yhat diverged");
        assert_eq!(a.lower.to_bits(), b.lower.to_bits(), "lower diverged");
        assert_eq!(a.upper.to_bits(), b.upper.to_bits(), "upper diverged");
    }
}

proptest! {
    #[test]
    fn stats_summary_incremental_matches_batch_bitwise(
        values in prop::collection::vec(1.0f64..2.0e7, 20..120),
        cuts in prop::collection::vec(0.0f64..1.0, 0..5),
        prefix_frac in 0.1f64..0.9,
        quantile in 0.0f64..1.0,
    ) {
        let data = points(&values);
        let prefix = ((values.len() as f64 * prefix_frac) as usize).max(1);
        // The low half of the draw selects the mean statistic, the high
        // half a quantile in [0.5, 1.0) — both summary families ride the
        // same schedule.
        let fresh = || if quantile < 0.5 {
            StatsSummaryModel::mean()
        } else {
            StatsSummaryModel::new(
                caladrius_forecast::stats::SummaryStatistic::Quantile(quantile),
                0.9,
            )
        };

        let mut incremental = fresh();
        incremental.fit(&data[..prefix]).unwrap();
        replay(&mut incremental, &data, prefix, &cuts);

        let mut batch = fresh();
        batch.fit(&data).unwrap();

        let ts = horizon(values.len());
        assert_bitwise(&incremental.predict(&ts).unwrap(), &batch.predict(&ts).unwrap());
    }

    #[test]
    fn ar_incremental_matches_batch_bitwise(
        values in prop::collection::vec(10.0f64..1.0e6, 30..100),
        cuts in prop::collection::vec(0.0f64..1.0, 0..5),
        prefix_frac in 0.35f64..0.9,
    ) {
        let data = points(&values);
        // AR(3) needs 3*3+1 = 10 points; the prefix floor keeps the
        // initial fit viable for the shortest series.
        let prefix = ((values.len() as f64 * prefix_frac) as usize).max(10);

        let mut incremental = ArModel::new(3, 0.9);
        incremental.fit(&data[..prefix]).unwrap();
        replay(&mut incremental, &data, prefix, &cuts);

        let mut batch = ArModel::new(3, 0.9);
        batch.fit(&data).unwrap();

        let ts = horizon(values.len());
        assert_bitwise(&incremental.predict(&ts).unwrap(), &batch.predict(&ts).unwrap());
    }
}

/// Appends that are not strictly newer than the fitted history — the
/// forecaster-level face of tsdb truncation or retention-driven chunk
/// eviction rewriting absorbed minutes — must refuse the delta path and
/// leave the fitted state untouched.
#[test]
fn stale_appends_force_full_refit() {
    let values: Vec<f64> = (0..40).map(|i| 1000.0 + f64::from(i % 7)).collect();
    let data = points(&values);
    let models: Vec<Box<dyn Forecaster>> = vec![
        Box::new(StatsSummaryModel::mean()),
        Box::new(ArModel::new(3, 0.9)),
    ];
    for mut model in models {
        model.fit(&data).unwrap();
        let before = model.predict(&horizon(values.len())).unwrap();

        // Overlapping: first point replays an already-absorbed minute.
        let overlap = [data[data.len() - 1], DataPoint::new(40 * MINUTE, 990.0)];
        assert_eq!(
            model.update(&overlap).unwrap(),
            UpdateOutcome::FullRefitNeeded,
            "{} must refuse overlapping appends",
            model.name()
        );
        // Out-of-order within the fitted range (a truncated-and-refilled
        // store replays history from before the fit watermark).
        let rewound = [DataPoint::new(5 * MINUTE, 1.0)];
        assert_eq!(
            model.update(&rewound).unwrap(),
            UpdateOutcome::FullRefitNeeded,
            "{} must refuse rewound appends",
            model.name()
        );
        let after = model.predict(&horizon(values.len())).unwrap();
        assert_bitwise(&after, &before);
    }
}

#[test]
fn update_before_fit_needs_full_refit() {
    let data = points(&[1.0, 2.0, 3.0]);
    let mut model = StatsSummaryModel::mean();
    assert_eq!(model.update(&data).unwrap(), UpdateOutcome::FullRefitNeeded);
    let mut ar = ArModel::new(3, 0.9);
    assert_eq!(ar.update(&data).unwrap(), UpdateOutcome::FullRefitNeeded);
}
