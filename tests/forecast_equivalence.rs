//! End-to-end equivalence of forecasts served off the maintained source
//! history (the shape of the `minute_round` benchmark's verify step):
//! a long-lived service ingests a minute, answers a forecast what-if per
//! traffic model and re-plans, every minute — and every forecast must be
//! what a service created that instant, reading the store from scratch,
//! answers.
//!
//! Every forecaster is refitted over the sliding window on both sides,
//! so `to_bits` equality holds for every model's forecast points and the
//! plan's window rates alike.
//!
//! The window counter shows the training window was read from the store
//! in full once, and after that only ever one new minute at a time. Over three
//! windows of live minutes the fitted models hold to the same bar: every
//! parameter, CPU lines included, equals a fresh service's at every
//! minute, and no full fit runs after the first.
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
use caladrius::workload::wordcount::{
    wordcount_topology, wordcount_topology_with, WordCountParallelism,
};
use std::collections::HashMap;
use std::sync::Arc;

const TOPOLOGY: &str = "wordcount";
const PARALLELISM: WordCountParallelism = WordCountParallelism {
    spout: 8,
    splitter: 4,
    counter: 3,
};
/// Shorter than the history, so the window slides from the first live
/// minute on.
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

        let fresh = service(&metrics, WINDOW_MINUTES);
        for (model, served) in MODELS.iter().zip(&served) {
            let what = format!("{model}, live minute {minute}");
            assert_bitwise(served, &forecast(&fresh, model), &what);
        }
        assert_eq!(
            served_rates,
            window_rates(&fresh),
            "plan, live minute {minute}"
        );
    }

    // Per minute, every what-if and the plan read their models and their
    // forecast off the window: two accesses each, eight a minute. The
    // plan's models and forecast were derived under the same stamp
    // already, but reading them is still an access. The first access of
    // a minute slides the window by the new minute (reads it whole at
    // minute 0); the other seven are hits. A claim that falls due is
    // realised from the window too, one more access per live minute in
    // which one does. Every minute's plan claims four 15-minute windows
    // from the minute after its newest on, the first of which is due
    // once 16 more minutes have landed: in live minutes 16 to 20 one
    // claim a minute (the what-ifs' 60-minute claims never fall due).
    // Realising it is taken at the top of the first what-if, so it makes
    // the slide and that what-if's fit is a hit.
    let minutes = u64::from(LIVE_MINUTES);
    let claim_minutes = minutes - 15;
    let accesses = 2 * (MODELS.len() as u64 + 1);
    assert_eq!(
        warm.source_history_reads(),
        SourceHistoryReads {
            hit: (accesses - 1) * (minutes + 1) + claim_minutes,
            tail: minutes,
            full: 1,
        }
    );
    let history = warm.source_history(TOPOLOGY).unwrap();
    assert_eq!(history.len(), WINDOW_MINUTES as usize);
}

/// Every fitted parameter a caller can tell two fits apart by: per bolt
/// α, the saturation point, the shares and the CPU line, and the
/// topology's throughput prediction at rates either side of the knees.
fn fitted_bits(caladrius: &Caladrius) -> Vec<(String, Vec<u64>)> {
    let (model, cpu) = caladrius.fitted_models(TOPOLOGY).expect("fit");
    let mut bits = Vec::new();
    for name in ["splitter", "counter"] {
        let component = model.component_model(name).unwrap();
        let mut row = vec![component.instance.alpha.to_bits()];
        if let Some(saturation) = &component.instance.saturation {
            row.extend([
                saturation.input_sp.to_bits(),
                saturation.output_st.to_bits(),
            ]);
        }
        row.extend(component.shares.iter().map(|s| s.to_bits()));
        if let Some(cpu) = cpu.get(name) {
            row.extend([cpu.base.to_bits(), cpu.psi.to_bits()]);
        }
        bits.push((name.to_string(), row));
    }
    for rate in [5.0e6, 15.0e6, 30.0e6, 60.0e6] {
        let p = model.predict(&HashMap::new(), rate).expect("prediction");
        let mut row = vec![p.sink_output_rate.to_bits()];
        for c in &p.per_component {
            row.extend([
                c.input_rate.to_bits(),
                c.output_rate.to_bits(),
                u64::from(c.saturated),
            ]);
        }
        bits.push((format!("{rate:e}"), row));
    }
    bits
}

/// Warm == fresh: a long-lived service that ingests one minute at a time
/// for three windows answers, at every minute, what a service created
/// that minute answers — every fitted parameter and every model's
/// forecast, bit for bit — and after its first fit it never reads the
/// whole window again. The live load ramps through the splitter's knee
/// and back, so the window the models see keeps changing.
#[test]
fn a_warm_service_equals_a_fresh_one_at_every_minute_of_three_windows() {
    const LIVE: u64 = 3 * WINDOW_MINUTES as u64;
    const START: u64 = 90;
    let metrics = swept_hour();
    let warm = service(&metrics, WINDOW_MINUTES);
    let per_sec = |per_min: f64| per_min / 60.0;
    let profile = RateProfile::PiecewiseLinear {
        points: vec![
            (START * 60, per_sec(4.0e6)),
            ((START + LIVE / 2) * 60, per_sec(56.0e6)),
            ((START + LIVE) * 60, per_sec(4.0e6)),
        ],
    };
    let topology = wordcount_topology_with(PARALLELISM, profile, None);
    let mut live = Simulation::new(topology, quiet()).unwrap();
    live.skip_to_minute(START);
    let models: Vec<String> = MODELS.map(String::from).to_vec();
    let forecasts = |caladrius: &Caladrius| -> Vec<Vec<ForecastPoint>> {
        let forecasts = caladrius.forecast_traffic(TOPOLOGY, Some(&models));
        let forecasts = forecasts.expect("forecasts");
        forecasts.into_iter().map(|f| f.points).collect()
    };

    let mut cold_fits = None;
    let (mut saturated, mut both_cpu_lines) = (0, 0);
    for minute in 0..=LIVE {
        if minute > 0 {
            live.run_minutes_into(1, &metrics);
        }
        let fresh = service(&metrics, WINDOW_MINUTES);
        let (model, cpu) = warm.fitted_models(TOPOLOGY).expect("fit");
        let splitter = model.component_model("splitter").unwrap();
        saturated += u64::from(splitter.instance.saturation.is_some());
        both_cpu_lines += u64::from(cpu.len() == 2);
        assert_eq!(fitted_bits(&warm), fitted_bits(&fresh), "minute {minute}");
        let served = forecasts(&warm);
        for ((model, served), fresh) in MODELS.iter().zip(&served).zip(forecasts(&fresh)) {
            assert_bitwise(served, &fresh, &format!("{model}, live minute {minute}"));
        }
        let stats = warm.model_cache_stats();
        let cold_fits = *cold_fits.get_or_insert(stats.full_fits);
        assert_eq!(stats.full_fits, cold_fits, "minute {minute}: a full fit");
        assert_eq!(stats.misses, minute + 1);
    }
    let reads = warm.source_history_reads();
    assert_eq!((reads.full, reads.tail), (1, LIVE));
    // The windows compared held knees and CPU lines, and windows without.
    assert!(saturated > 0 && saturated <= LIVE, "{saturated}");
    assert!(
        both_cpu_lines > 0 && both_cpu_lines <= LIVE,
        "{both_cpu_lines}"
    );
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

    // 40 of the hour's minutes stay: less than the window.
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
