//! Incremental == batch equivalence properties.
//!
//! For every model with a streaming sufficient-statistics update path,
//! fitting a prefix and then absorbing the remaining points through
//! `update` — across a *random append schedule* (random number and sizes
//! of appended batches) — must predict exactly what a single batch fit
//! over the full history predicts, bit for bit (AR and the stats
//! summary).

use caladrius_forecast::ar::ArModel;
use caladrius_forecast::stats::{StatsSummaryModel, SummaryStatistic};
use caladrius_forecast::{DataPoint, Forecaster, UpdateOutcome};
use proptest::prelude::*;

const MINUTE: i64 = 60_000;

/// A traffic-shaped series: seasonal carrier + linear ramp + deterministic
/// pseudo-noise, switched by `profile`.
fn series(n: usize, profile: u8, amp: f64, slope: f64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            let phase = std::f64::consts::TAU * (i % 48) as f64 / 48.0;
            let noise = (((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f64 / 1e6) - 8.0;
            let y = match profile % 3 {
                0 => 1000.0 + amp * phase.sin() + noise, // seasonal
                1 => 1000.0 + slope * i as f64 + noise,  // ramp
                _ => 1000.0 + amp * phase.sin() + slope * i as f64 + noise, // both
            };
            DataPoint::new(i as i64 * MINUTE, y)
        })
        .collect()
}

/// Splits `hist` after `initial` points into appended batches whose sizes
/// follow `schedule` (cycled until the history is exhausted).
fn drive<M: Forecaster>(model: &mut M, hist: &[DataPoint], initial: usize, schedule: &[usize]) {
    model.fit(&hist[..initial]).unwrap();
    let mut at = initial;
    let mut i = 0usize;
    while at < hist.len() {
        let take = schedule[i % schedule.len()].max(1).min(hist.len() - at);
        let outcome = model.update(&hist[at..at + take]).unwrap();
        assert_eq!(outcome, UpdateOutcome::Incremental, "append at {at}");
        at += take;
        i += 1;
    }
}

fn assert_predictions_identical<A: Forecaster, B: Forecaster>(a: &A, b: &B, last_ts: i64) {
    let horizon: Vec<i64> = (1..=10).map(|h| last_ts + h * MINUTE).collect();
    let pa = a.predict(&horizon).unwrap();
    let pb = b.predict(&horizon).unwrap();
    for (x, y) in pa.iter().zip(&pb) {
        assert_eq!(x.yhat.to_bits(), y.yhat.to_bits(), "yhat at {}", x.ts);
        assert_eq!(x.lower.to_bits(), y.lower.to_bits(), "lower at {}", x.ts);
        assert_eq!(x.upper.to_bits(), y.upper.to_bits(), "upper at {}", x.ts);
    }
}

proptest! {
    #[test]
    fn ar_incremental_matches_batch(
        profile in 0u8..3,
        amp in 1.0f64..200.0,
        slope in -2.0f64..2.0,
        n in 100usize..400,
        initial_frac in 0.2f64..0.9,
        schedule in prop::collection::vec(1usize..40, 1..6),
    ) {
        let hist = series(n, profile, amp, slope);
        let initial = ((n as f64 * initial_frac) as usize).max(16);
        let mut incremental = ArModel::new(5, 0.9);
        drive(&mut incremental, &hist, initial, &schedule);
        let mut batch = ArModel::new(5, 0.9);
        batch.fit(&hist).unwrap();
        assert_predictions_identical(&incremental, &batch, hist.last().unwrap().ts);
    }

    #[test]
    fn stats_incremental_matches_batch(
        profile in 0u8..3,
        amp in 1.0f64..200.0,
        slope in -2.0f64..2.0,
        n in 10usize..300,
        initial in 1usize..9,
        schedule in prop::collection::vec(1usize..25, 1..6),
        which in 0u8..3,
    ) {
        let hist = series(n, profile, amp, slope);
        let statistic = match which {
            0 => SummaryStatistic::Mean,
            1 => SummaryStatistic::Median,
            _ => SummaryStatistic::Quantile(0.9),
        };
        let initial = initial.min(n);
        let mut incremental = StatsSummaryModel::new(statistic, 0.8);
        drive(&mut incremental, &hist, initial, &schedule);
        let mut batch = StatsSummaryModel::new(statistic, 0.8);
        batch.fit(&hist).unwrap();
        assert_predictions_identical(&incremental, &batch, hist.last().unwrap().ts);
    }
}
