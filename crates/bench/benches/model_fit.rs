//! model_fit: incremental vs full model refit under steady ingest.
//!
//! The watermark-advance path is the service's hot loop: every fresh
//! minute of metrics stales the cached models of a topology, and before
//! the delta-aware cache every advance meant a full refit over the
//! sliding observation window. This bench measures both paths on the
//! same store — a WordCount topology carrying more than 24 hours of
//! recorded history with the training window spanning a full day — and
//! gates the headline claim: absorbing a one-minute append through the
//! streaming sufficient statistics must be at least 5× faster than
//! refitting the window from scratch.
//!
//! Phases:
//!
//! 1. **Feed** — stage the reference WordCount sweep once and replay it
//!    cyclically (shifted past the previous cycle each round) until the
//!    store holds ≥ 24 h of recorded minutes.
//! 2. **Steady ingest** — alternate "ship one fresh minute" with a
//!    refit on two services over the same store: one rides the
//!    incremental (Stale) cache path, the other is invalidated every
//!    round so it refits cold. Wall times and the ≥ 5× gate are
//!    reported at the end.

use caladrius_bench::{columns, fast_mode, header, row};
use caladrius_core::config::CaladriusConfig;
use caladrius_core::providers::{SimMetricsProvider, StaticTracker};
use caladrius_core::Caladrius;
use caladrius_fleet::StagedWorkload;
use caladrius_tsdb::MetricBatch;
use caladrius_workload::wordcount::{wordcount_topology, WordCountParallelism};
use heron_sim::metrics::SimMetrics;
use std::sync::Arc;
use std::time::Instant;

const MINUTE_MS: i64 = 60_000;

fn main() {
    header(
        "model_fit: incremental refit vs full refit on steady ingest",
        "\"the model needs to be re-fitted as new data arrives\" — made \
         O(new minutes) by streaming sufficient statistics",
    );
    // ≥ 24 h of recorded minutes; the training window spans the day.
    let window_minutes = 1440u32;
    let target_minutes = if fast_mode() { 360 } else { 1500 };
    let refit_rounds = if fast_mode() { 10 } else { 30 };

    // Phase 1: stage once, replay cyclically into one topology's store.
    let staged = StagedWorkload::stage_wordcount();
    let metrics = SimMetrics::new("wordcount");
    let bound = staged.bind(&metrics);
    let span_ms = (staged.minute_ts(staged.minutes() - 1) - staged.minute_ts(0)) + MINUTE_MS;
    let feed_started = Instant::now();
    let mut batch = MetricBatch::new(0);
    let mut shipped = 0usize;
    let mut offset = 0i64;
    while shipped < target_minutes {
        for idx in 0..staged.minutes() {
            bound.fill_at(&staged, idx, offset, &mut batch);
            metrics.ingest(&batch);
            shipped += 1;
            if shipped == target_minutes {
                break;
            }
        }
        offset += span_ms;
    }
    let history_hours = shipped as f64 / 60.0;
    println!(
        "\nfeed: {shipped} recorded minutes ({history_hours:.1} h of data) in {:.2}s",
        feed_started.elapsed().as_secs_f64()
    );

    // Two services over the same store: one rides the incremental cache
    // path, the other is invalidated per round so every refit is cold.
    let service = || {
        Caladrius::with_config(
            Arc::new(SimMetricsProvider::new(metrics.clone())),
            Arc::new(StaticTracker::new().with(wordcount_topology(
                WordCountParallelism {
                    spout: 8,
                    splitter: 2,
                    counter: 3,
                },
                26.0e6,
            ))),
            CaladriusConfig {
                source_window_minutes: window_minutes,
                ..CaladriusConfig::default()
            },
        )
    };
    let incremental = service();
    let full = service();

    // Cold fits populate both caches (and are themselves timed).
    let cold_started = Instant::now();
    incremental.fitted_models("wordcount").expect("cold fit");
    let cold_secs = cold_started.elapsed().as_secs_f64();
    full.fitted_models("wordcount").expect("cold fit");

    // Phase 2: steady ingest — one fresh minute per round, then one
    // refit on each service.
    let mut fresh_idx = shipped % staged.minutes();
    let mut inc_total = 0.0f64;
    let mut full_total = 0.0f64;
    columns("round", &["inc ms", "full ms", "speedup"]);
    for round in 0..refit_rounds {
        if fresh_idx == 0 {
            offset += span_ms;
        }
        bound.fill_at(&staged, fresh_idx, offset, &mut batch);
        metrics.ingest(&batch);
        fresh_idx = (fresh_idx + 1) % staged.minutes();

        let started = Instant::now();
        incremental.fitted_models("wordcount").expect("stale refit");
        let inc_secs = started.elapsed().as_secs_f64();
        inc_total += inc_secs;

        full.invalidate_model_cache(Some("wordcount"));
        let started = Instant::now();
        full.fitted_models("wordcount").expect("cold refit");
        let full_secs = started.elapsed().as_secs_f64();
        full_total += full_secs;

        if round < 5 || round == refit_rounds - 1 {
            row(
                format!("round {round}"),
                &[inc_secs * 1e3, full_secs * 1e3, full_secs / inc_secs],
            );
        }
    }

    // The incremental service must have ridden the Stale path on every
    // round — one cold fit, everything else absorbed as deltas.
    let stats = incremental.model_cache_stats();
    assert!(
        stats.incremental_fits > 0,
        "steady ingest must refit incrementally"
    );
    assert_eq!(
        stats.fits,
        stats.full_fits + stats.incremental_fits,
        "every fit is either full or incremental"
    );

    let inc_mean_ms = inc_total / refit_rounds as f64 * 1e3;
    let full_mean_ms = full_total / refit_rounds as f64 * 1e3;
    let speedup = full_total / inc_total;
    println!(
        "\nsteady ingest over {refit_rounds} rounds ({window_minutes}-minute window, \
         {history_hours:.1} h history):"
    );
    println!("  cold fit:               {:.2} ms", cold_secs * 1e3);
    println!("  full refit (mean):      {full_mean_ms:.2} ms");
    println!("  incremental refit (mean): {inc_mean_ms:.3} ms");
    println!(
        "  incremental fits {} / full fits {} (incremental service)",
        stats.incremental_fits, stats.full_fits
    );
    println!("  speedup: {speedup:.1}x");
    assert!(
        speedup >= 5.0,
        "incremental refit speedup {speedup:.1}x < 5x"
    );

    println!("\nmodel_fit: OK");
}
