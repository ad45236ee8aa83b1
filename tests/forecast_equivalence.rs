//! End-to-end equivalence of forecasts served off the maintained source
//! history (the shape of the `minute_round` benchmark's verify step):
//! a long-lived service ingests a minute, answers a forecast what-if per
//! traffic model and re-plans, every minute — and every forecast must be
//! what a service created that instant, reading the store from scratch,
//! answers.
//!
//! * Prophet refits over the sliding window on both sides: `to_bits`
//!   equality, for the what-if's forecast points and the plan's window
//!   rates alike.
//! * AR and stats-summary forecasters are kept warm and absorb only the
//!   tail, so their window is anchored where they were first fitted; the
//!   from-scratch reference spans that anchored window: `to_bits`
//!   equality too.
//!
//! The read counter shows the history was read from the store in full
//! once, and after that only ever one new minute at a time.
//!
//! Deterministic; CI runs it under `CALADRIUS_THREADS=1`.

use caladrius::core::capacity::CapacityPlanRequest;
use caladrius::core::config::CaladriusConfig;
use caladrius::core::providers::{SimMetricsProvider, StaticTracker};
use caladrius::core::service::SourceRateSpec;
use caladrius::core::{Caladrius, SourceHistoryReads};
use caladrius::forecast::ForecastPoint;
use caladrius::sim::metrics::{metric, SimMetrics};
use caladrius::sim::prelude::*;
use caladrius::workload::wordcount::{wordcount_topology, WordCountParallelism};
use std::collections::HashMap;
use std::sync::Arc;

const TOPOLOGY: &str = "wordcount";
const PARALLELISM: WordCountParallelism = WordCountParallelism {
    spout: 8,
    splitter: 4,
    counter: 3,
};
/// Shorter than the history, so the window slides from the first live
/// minute on; long enough that the anchored forecasters never re-anchor.
const WINDOW_MINUTES: u32 = 45;
const LIVE_MINUTES: u32 = 20;
const MODELS: [&str; 3] = ["prophet", "ar", "stats_summary"];

fn quiet() -> SimConfig {
    SimConfig {
        metric_noise: 0.0,
        ..SimConfig::default()
    }
}

/// A contiguous hour sweeping the topology through six rate legs, so the
/// performance models see slopes and knees.
fn swept_hour() -> SimMetrics {
    let metrics = SimMetrics::new(TOPOLOGY);
    for (leg, rate) in [4.0e6, 8.0e6, 12.0e6, 16.0e6, 20.0e6, 26.0e6]
        .into_iter()
        .enumerate()
    {
        let mut sim = Simulation::new(wordcount_topology(PARALLELISM, rate), quiet()).unwrap();
        sim.skip_to_minute(leg as u64 * 10);
        sim.warmup_minutes(30);
        sim.run_minutes_into(10, &metrics);
    }
    metrics
}

fn service(metrics: &SimMetrics, window_minutes: u32) -> Caladrius {
    Caladrius::with_config(
        Arc::new(SimMetricsProvider::new(metrics.clone())),
        Arc::new(StaticTracker::new().with(wordcount_topology(PARALLELISM, 20.0e6))),
        CaladriusConfig {
            source_window_minutes: window_minutes,
            ..CaladriusConfig::default()
        },
    )
}

fn forecast(caladrius: &Caladrius, model: &str) -> Vec<ForecastPoint> {
    let source = SourceRateSpec::Forecast {
        model: Some(model.to_string()),
        conservative: false,
    };
    let report = caladrius
        .evaluate(TOPOLOGY, &HashMap::new(), &source)
        .unwrap_or_else(|e| panic!("{model} what-if: {e}"));
    report.traffic.expect("forecast requested").points
}

fn window_rates(caladrius: &Caladrius) -> Vec<(i64, i64, u64)> {
    caladrius
        .plan_capacity(TOPOLOGY, &CapacityPlanRequest::default())
        .expect("plan")
        .windows
        .iter()
        .map(|w| (w.start_ts, w.end_ts, w.peak_rate.to_bits()))
        .collect()
}

fn assert_bitwise(served: &[ForecastPoint], fresh: &[ForecastPoint], what: &str) {
    let bits = |points: &[ForecastPoint]| -> Vec<(i64, u64, u64, u64)> {
        points
            .iter()
            .map(|p| (p.ts, p.yhat.to_bits(), p.lower.to_bits(), p.upper.to_bits()))
            .collect()
    };
    assert_eq!(bits(served), bits(fresh), "{what}");
}

#[test]
fn forecasts_off_the_maintained_history_equal_a_from_scratch_service() {
    let metrics = swept_hour();
    let warm = service(&metrics, WINDOW_MINUTES);
    let mut live = Simulation::new(wordcount_topology(PARALLELISM, 18.0e6), quiet()).unwrap();
    live.skip_to_minute(90);

    for minute in 0..=LIVE_MINUTES {
        if minute > 0 {
            live.run_minutes_into(1, &metrics);
        }
        let served: Vec<Vec<ForecastPoint>> = MODELS.iter().map(|m| forecast(&warm, m)).collect();
        let served_rates = window_rates(&warm);

        let sliding = service(&metrics, WINDOW_MINUTES);
        let anchored = service(&metrics, WINDOW_MINUTES + minute);
        for (model, served) in MODELS.iter().zip(&served) {
            let what = format!("{model}, live minute {minute}");
            let reference = if *model == "prophet" {
                &sliding
            } else {
                &anchored
            };
            assert_bitwise(served, &forecast(reference, model), &what);
        }
        assert_eq!(
            served_rates,
            window_rates(&sliding),
            "plan, live minute {minute}"
        );
    }

    // Per minute: a what-if per model and a plan ask for the history; the
    // first of them reads the new minute, the others are served from
    // memory.
    let minutes = u64::from(LIVE_MINUTES);
    assert_eq!(
        warm.source_history_reads(),
        SourceHistoryReads {
            hit: MODELS.len() as u64 * (minutes + 1),
            tail: minutes,
            full: 1,
        }
    );
    let history = warm.source_history(TOPOLOGY).unwrap();
    assert_eq!(history.len(), WINDOW_MINUTES as usize);
}

/// A truncation that leaves the watermark where it was still changes
/// what every fit reads: forecasters, like the history they were fitted
/// on, go cold, so what-ifs and plans answer what a service created
/// after the cut answers — and carry on from there.
#[test]
fn a_truncation_at_an_unchanged_watermark_refits_every_forecaster() {
    let metrics = swept_hour();
    let warm = service(&metrics, WINDOW_MINUTES);
    for model in MODELS {
        forecast(&warm, model);
    }
    window_rates(&warm);

    // 40 of the hour's minutes stay: less than the window, so a sliding
    // and an anchored reference read the same minutes from here on.
    let watermark = metrics.db().watermark().unwrap();
    assert!(
        metrics
            .db()
            .truncate_before(watermark - 39 * 60_000)
            .unwrap()
            > 0
    );
    assert_eq!(metrics.db().watermark(), Some(watermark));
    let mut live = Simulation::new(wordcount_topology(PARALLELISM, 18.0e6), quiet()).unwrap();
    live.skip_to_minute(90);

    for minute in 0..=2 {
        if minute > 0 {
            live.run_minutes_into(1, &metrics);
        }
        let served: Vec<Vec<ForecastPoint>> = MODELS.iter().map(|m| forecast(&warm, m)).collect();
        let served_rates = window_rates(&warm);

        let fresh = service(&metrics, WINDOW_MINUTES);
        for (model, served) in MODELS.iter().zip(&served) {
            let what = format!("{model}, {minute} minutes after the cut");
            assert_bitwise(served, &forecast(&fresh, model), &what);
        }
        assert_eq!(
            served_rates,
            window_rates(&fresh),
            "plan, {minute} minutes after the cut"
        );
    }
    assert_eq!(warm.source_history(TOPOLOGY).unwrap().len(), 42);
}

/// The maintained history shares the model cache's contract on late
/// data: a sample written at or below the watermark after the window was
/// read does not move the version stamp, so it stays invisible — through
/// hits and tail reads alike — until the entry goes cold.
#[test]
fn a_late_sample_stays_invisible_until_the_entry_goes_cold() {
    let metrics = swept_hour();
    let warm = service(&metrics, WINDOW_MINUTES);
    let newest = |caladrius: &Caladrius, back: usize| {
        let history = caladrius.source_history(TOPOLOGY).unwrap();
        history[history.len() - 1 - back].y
    };
    let before = newest(&warm, 0);

    // A ninth spout instance reports the newest minute late.
    let watermark = metrics.db().watermark().unwrap();
    metrics.record_instance(metric::SOURCE_OFFERED, "spout", 8, 0, watermark, 1.0e6);
    assert_eq!(metrics.db().watermark(), Some(watermark));
    assert_eq!(
        newest(&service(&metrics, WINDOW_MINUTES), 0),
        before + 1.0e6
    );
    assert_eq!(newest(&warm, 0), before, "a hit cannot see it");

    // The next minute arrives: the tail read starts after the late one.
    let mut live = Simulation::new(wordcount_topology(PARALLELISM, 18.0e6), quiet()).unwrap();
    live.skip_to_minute(90);
    live.run_minutes_into(1, &metrics);
    assert_eq!(newest(&warm, 1), before, "nor can a tail read");
    assert_eq!(
        newest(&service(&metrics, WINDOW_MINUTES), 1),
        before + 1.0e6
    );

    // Any cold event re-reads the window, late sample included.
    warm.invalidate_model_cache(Some(TOPOLOGY));
    assert_eq!(newest(&warm, 1), before + 1.0e6);
    assert_eq!(
        warm.source_history_reads(),
        SourceHistoryReads {
            hit: 1,
            tail: 1,
            full: 2,
        }
    );
}
