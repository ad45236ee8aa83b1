//! Owners of a per-instance obs scope — a metrics store (`db=`), a
//! service (`service=`), a job runner (`runner=`) and a fleet (`fleet=`)
//! — take their series out of the process-global registry when dropped,
//! so a process that keeps building short-lived stores and services (one
//! per onboarded topology, two per replayed plan window) does not keep
//! every series it ever registered.
//!
//! Both tests compare the global registry's size before and after, so
//! they take turns, and nothing else in this binary registers series.

use caladrius::api::JobRunner;
use caladrius::core::providers::{SimMetricsProvider, StaticTracker};
use caladrius::core::Caladrius;
use caladrius::fleet::{Fleet, FleetConfig};
use caladrius::obs::{global_registry, render_prometheus};
use caladrius::planner::{
    replay_timeline, PlanCost, PlanTimeline, PlannerConfig, ReplayConfig, WindowPlan,
};
use caladrius::sim::metrics::SimMetrics;
use caladrius::tsdb::Sample;
use caladrius::workload::wordcount::{wordcount_topology, WordCountParallelism};
use std::sync::{Arc, Mutex, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

/// One of each scope owner, each with a recorded sample so its rows are
/// non-trivial.
fn owners() -> (SimMetrics, Caladrius, JobRunner, Fleet) {
    let store = SimMetrics::new("wordcount");
    let db = store.db();
    let handle = db.register(&caladrius::tsdb::SeriesKey::new("execute-count"));
    db.append_series(&handle, &[Sample::new(0, 1.0)]);
    let service = Caladrius::new(
        Arc::new(SimMetricsProvider::new(store.clone())),
        Arc::new(StaticTracker::new()),
    );
    let runner = JobRunner::new(1);
    let fleet = Fleet::new(FleetConfig {
        shards: 1,
        ..FleetConfig::default()
    });
    (store, service, runner, fleet)
}

/// Exposition lines of one scope-labelled row per owner kind.
const SCOPED_ROWS: [&str; 4] = [
    "caladrius_tsdb_ingest_samples_total{db=",
    "caladrius_model_cache_hits_total{service=",
    "caladrius_job_duration_seconds_count{runner=",
    "caladrius_fleet_ingest_batches_total{fleet=",
];

fn scoped_rows(row: &str) -> usize {
    render_prometheus(global_registry())
        .lines()
        .filter(|line| line.starts_with(row))
        .count()
}

#[test]
fn dropped_owners_take_their_series_with_them() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let registry = global_registry();
    // The first owners register the process-wide (unscoped) series.
    drop(owners());
    let before = registry.len();
    let rows_before = SCOPED_ROWS.map(scoped_rows);

    let alive: Vec<_> = (0..100).map(|_| owners()).collect();
    assert!(registry.len() > before);
    for (row, was) in SCOPED_ROWS.iter().zip(rows_before) {
        assert!(
            scoped_rows(row) >= was + 100,
            "a live owner's {row}..}} row is missing from the scrape"
        );
    }

    drop(alive);
    assert_eq!(registry.len(), before);
    assert_eq!(SCOPED_ROWS.map(scoped_rows), rows_before);
}

#[test]
fn replaying_a_timeline_leaves_the_registry_as_it_found_it() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let base = wordcount_topology(
        WordCountParallelism {
            spout: 8,
            splitter: 2,
            counter: 3,
        },
        10.0e6,
    );
    let windows: Vec<WindowPlan> = [10.0e6, 16.0e6, 20.0e6, 12.0e6]
        .iter()
        .enumerate()
        .map(|(window, &rate)| {
            let parallelisms = vec![
                ("spout".to_string(), 8),
                ("splitter".to_string(), 4),
                ("counter".to_string(), 4),
            ];
            WindowPlan {
                window,
                start_ts: window as i64 * 900_000,
                end_ts: (window as i64 + 1) * 900_000,
                peak_rate: rate,
                planned_rate: rate,
                cost: PlanCost::of(&parallelisms, &PlannerConfig::default().limits),
                parallelisms,
                saturation_rate: f64::INFINITY,
                actions: Vec::new(),
            }
        })
        .collect();
    let timeline = PlanTimeline {
        peak_parallelisms: windows[0].parallelisms.clone(),
        peak_cost: windows[0].cost,
        windows,
        oracle_evals: 0,
    };
    let config = ReplayConfig {
        warmup_minutes: 5,
        measure_minutes: 2,
        ..ReplayConfig::default()
    };
    let registry = global_registry();
    // The first replay registers the replay pool's and the simulator's
    // process-wide series.
    replay_timeline(&base, &timeline, &config).unwrap();
    let before = registry.len();
    let replays = replay_timeline(&base, &timeline, &config).unwrap();
    assert_eq!(replays.len(), 4);
    assert_eq!(registry.len(), before);
}
