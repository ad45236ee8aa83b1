//! Sliding == batch over the window.
//!
//! A forecaster kept by a long-lived service is refitted over its
//! training window every time the window slides. For every random series,
//! window length and slide schedule, that one refitted model must predict
//! exactly what a model fitted once, fresh, on the same window predicts:
//! `to_bits` equality on every point and bound. Nothing a fit saw before
//! may leak into the next.

use caladrius_forecast::ar::ArModel;
use caladrius_forecast::prophet::Prophet;
use caladrius_forecast::stats::{StatsSummaryModel, SummaryStatistic};
use caladrius_forecast::{DataPoint, ForecastPoint, Forecaster};
use proptest::prelude::*;

const MINUTE: i64 = 60_000;

/// A traffic-shaped series: seasonal carrier + linear ramp + deterministic
/// pseudo-noise, switched by `profile`, with every `hole`-th minute
/// missing (NaN).
fn series(n: usize, profile: u8, amp: f64, slope: f64, hole: usize) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            let phase = std::f64::consts::TAU * (i % 48) as f64 / 48.0;
            let noise = (((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f64 / 1e6) - 8.0;
            let y = match profile % 3 {
                0 => 1000.0 + amp * phase.sin() + noise,
                1 => 1000.0 + slope * i as f64 + noise,
                _ => 1000.0 + amp * phase.sin() + slope * i as f64 + noise,
            };
            let y = if i % hole == hole - 1 { f64::NAN } else { y };
            DataPoint::new(i as i64 * MINUTE, y)
        })
        .collect()
}

fn bits(points: &[ForecastPoint]) -> Vec<(i64, u64, u64, u64)> {
    points
        .iter()
        .map(|p| (p.ts, p.yhat.to_bits(), p.lower.to_bits(), p.upper.to_bits()))
        .collect()
}

/// Slides a `window`-point window over `hist` by the steps of
/// `schedule` (cycled), refitting one model built by `make` at every
/// stop and comparing it with a fresh one.
fn slide<M: Forecaster>(
    make: impl Fn() -> M,
    hist: &[DataPoint],
    window: usize,
    schedule: &[usize],
) {
    let mut sliding = make();
    let mut start = 0;
    let mut stops = 0;
    while start + window <= hist.len() {
        let points = &hist[start..start + window];
        let horizon: Vec<i64> = (1..=10)
            .map(|h| points[window - 1].ts + h * MINUTE)
            .collect();
        let mut fresh = make();
        match (sliding.fit(points), fresh.fit(points)) {
            (Ok(()), Ok(())) => assert_eq!(
                bits(&sliding.predict(&horizon).unwrap()),
                bits(&fresh.predict(&horizon).unwrap()),
                "{} over [{start}, {})",
                sliding.name(),
                start + window
            ),
            (sliding, fresh) => assert_eq!(sliding, fresh),
        }
        start += schedule[stops % schedule.len()];
        stops += 1;
    }
    assert!(stops > 0);
}

proptest! {
    #[test]
    fn ar_refitted_as_its_window_slides_equals_a_fresh_fit(
        profile in 0u8..3,
        amp in 1.0f64..200.0,
        slope in -2.0f64..2.0,
        n in 40usize..400,
        window_frac in 0.0f64..1.0,
        hole in 2usize..50,
        schedule in prop::collection::vec(1usize..40, 1..6),
    ) {
        let window = 16 + ((n - 16) as f64 * window_frac) as usize;
        let hist = series(n, profile, amp, slope, hole);
        slide(|| ArModel::new(5, 0.9), &hist, window, &schedule);
    }

    #[test]
    fn stats_summary_refitted_as_its_window_slides_equals_a_fresh_fit(
        profile in 0u8..3,
        amp in 1.0f64..200.0,
        slope in -2.0f64..2.0,
        n in 10usize..300,
        window_frac in 0.0f64..1.0,
        hole in 2usize..50,
        schedule in prop::collection::vec(1usize..25, 1..6),
        which in 0u8..3,
    ) {
        let statistic = match which {
            0 => SummaryStatistic::Mean,
            1 => SummaryStatistic::Median,
            _ => SummaryStatistic::Quantile(0.9),
        };
        let window = 1 + ((n - 1) as f64 * window_frac) as usize;
        let hist = series(n, profile, amp, slope, hole);
        slide(|| StatsSummaryModel::new(statistic, 0.8), &hist, window, &schedule);
    }
}

/// Prophet is the slow one: three series, not a property.
#[test]
fn prophet_refitted_as_its_window_slides_equals_a_fresh_fit() {
    for (profile, hole) in [(0, 7), (1, 50), (2, 13)] {
        let hist = series(240, profile, 120.0, 0.7, hole);
        slide(Prophet::with_defaults, &hist, 120, &[37, 1, 59]);
    }
}
