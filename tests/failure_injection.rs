//! Failure-injection integration tests: the stack must degrade loudly
//! and precisely, not silently.

use caladrius::core::error::CoreError;
use caladrius::core::providers::{SimMetricsProvider, StaticTracker};
use caladrius::core::service::SourceRateSpec;
use caladrius::core::Caladrius;
use caladrius::sim::grouping::Grouping;
use caladrius::sim::metrics::metric;
use caladrius::sim::prelude::*;
use caladrius::sim::profiles::RateProfile;
use caladrius::tsdb::Aggregation;
use caladrius::workload::wordcount::{
    wordcount_topology, wordcount_topology_with, WordCountParallelism,
};
use std::collections::HashMap;
use std::sync::Arc;

#[test]
fn user_logic_failures_show_in_the_errors_signal() {
    // The "errors" golden signal (paper §III-B1): a bolt failing 10 % of
    // tuples must show it as proportionally reduced output.
    let topo = TopologyBuilder::new("flaky")
        .spout("spout", 2, RateProfile::constant(1000.0), 60)
        .bolt(
            "worker",
            2,
            WorkProfile::new(5_000.0, 1.0, 8)
                .with_gateway_overhead(0.0)
                .with_fail_rate(0.10),
        )
        .edge("spout", "worker", Grouping::shuffle())
        .build()
        .unwrap();
    let mut sim = Simulation::new(
        topo,
        SimConfig {
            metric_noise: 0.0,
            ..SimConfig::default()
        },
    )
    .unwrap();
    sim.warmup_minutes(2);
    let metrics = sim.run_minutes(5);
    let mean = |name: &str| {
        let s = metrics.component_sum(name, Some("worker"), 0, i64::MAX);
        Aggregation::Mean.apply(s.iter().map(|x| x.value))
    };
    // A 1:1 bolt: every executed tuple is either emitted or failed.
    let fail_rate = 1.0 - mean(metric::EMIT_COUNT) / mean(metric::EXECUTE_COUNT);
    assert!((fail_rate - 0.10).abs() < 0.01);
}

#[test]
fn biased_fields_scaling_is_refused_not_guessed() {
    // Skewed keys (Zipf over a tiny key set) bias the counter instances;
    // asking Caladrius to scale that component must produce the paper's
    // documented refusal, not a silent wrong answer.
    let parallelism = WordCountParallelism {
        spout: 8,
        splitter: 2,
        counter: 3,
    };
    let metrics = SimMetrics::new("wordcount");
    let grouping = Grouping::fields_zipf(20, 1.6);
    for (leg, rate) in [6.0e6, 12.0e6, 20.0e6].into_iter().enumerate() {
        let topo = wordcount_topology_with(
            parallelism,
            RateProfile::constant_per_min(rate),
            Some(grouping.clone()),
        );
        let mut sim = Simulation::new(
            topo,
            SimConfig {
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.skip_to_minute(leg as u64 * 60);
        sim.warmup_minutes(20);
        sim.run_minutes_into(10, &metrics);
    }
    let tracker = StaticTracker::new().with(wordcount_topology_with(
        parallelism,
        RateProfile::constant_per_min(20.0e6),
        Some(grouping),
    ));
    let caladrius = Caladrius::new(
        Arc::new(SimMetricsProvider::new(metrics)),
        Arc::new(tracker),
    );
    let model = caladrius.fit_topology_model("wordcount").unwrap();
    let counter = model.component_model("counter").unwrap();
    assert!(
        !counter.is_unbiased(),
        "zipf keys must register as biased: bias {}",
        counter.bias()
    );

    // Same parallelism: fine (bias assumed stable).
    let same = model.predict(&HashMap::new(), 10.0e6);
    assert!(same.is_ok());
    // New counter parallelism: refused.
    let scaled = HashMap::from([("counter".to_string(), 5u32)]);
    match model.predict(&scaled, 10.0e6) {
        Err(CoreError::Unpredictable(msg)) => assert!(msg.contains("fields")),
        other => panic!("expected Unpredictable, got {other:?}"),
    }
}

#[test]
fn missing_metrics_are_a_loud_error() {
    // A tracker that knows the topology but a metrics store that has
    // never heard of it.
    let parallelism = WordCountParallelism::default();
    let empty = SimMetrics::new("wordcount");
    let caladrius = Caladrius::new(
        Arc::new(SimMetricsProvider::new(empty)),
        Arc::new(StaticTracker::new().with(wordcount_topology(parallelism, 1.0e6))),
    );
    match caladrius.evaluate("wordcount", &HashMap::new(), &SourceRateSpec::Fixed(1.0e6)) {
        Err(CoreError::Unknown(msg)) => assert!(msg.contains("no metrics")),
        other => panic!("expected Unknown(no metrics), got {other:?}"),
    }
}

#[test]
fn gappy_metrics_still_fit() {
    // Drop whole stretches of minutes (metrics outages): fitting and
    // forecasting must survive on the remaining windows.
    let parallelism = WordCountParallelism {
        spout: 8,
        splitter: 2,
        counter: 3,
    };
    let metrics = SimMetrics::new("wordcount");
    for (leg, rate) in [8.0e6, 16.0e6, 26.0e6].into_iter().enumerate() {
        let mut sim = Simulation::new(
            wordcount_topology(parallelism, rate),
            SimConfig {
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        // Scatter short recording bursts with gaps between them.
        sim.skip_to_minute(leg as u64 * 100);
        sim.warmup_minutes(20);
        for _ in 0..3 {
            sim.run_minutes_into(3, &metrics);
            sim.warmup_minutes(7); // 7-minute metric outage
        }
    }
    let caladrius = Caladrius::new(
        Arc::new(SimMetricsProvider::new(metrics)),
        Arc::new(StaticTracker::new().with(wordcount_topology(parallelism, 26.0e6))),
    );
    let model = caladrius.fit_topology_model("wordcount").unwrap();
    let splitter = model.component_model("splitter").unwrap();
    assert!((splitter.instance.alpha - 7.63).abs() < 0.2);
    let forecasts = caladrius
        .forecast_traffic("wordcount", Some(&["prophet".to_string()]))
        .unwrap();
    assert!(forecasts[0].mean.is_finite());
}

#[test]
fn invalid_topologies_and_requests_are_rejected() {
    // Zero parallelism.
    assert!(TopologyBuilder::new("bad")
        .spout("s", 0, RateProfile::constant(1.0), 8)
        .build()
        .is_err());
    // Disconnected bolt.
    assert!(TopologyBuilder::new("bad")
        .spout("s", 1, RateProfile::constant(1.0), 8)
        .bolt("island", 1, WorkProfile::new(1.0, 1.0, 8))
        .build()
        .is_err());
    // Negative what-if rate at the service level.
    let parallelism = WordCountParallelism::default();
    let metrics = SimMetrics::new("wordcount");
    let mut sim =
        Simulation::new(wordcount_topology(parallelism, 1.0e6), SimConfig::default()).unwrap();
    sim.run_minutes_into(5, &metrics);
    let caladrius = Caladrius::new(
        Arc::new(SimMetricsProvider::new(metrics)),
        Arc::new(StaticTracker::new().with(wordcount_topology(parallelism, 1.0e6))),
    );
    assert!(matches!(
        caladrius.evaluate("wordcount", &HashMap::new(), &SourceRateSpec::Fixed(-5.0)),
        Err(CoreError::InvalidRequest(_))
    ));
    let zero = HashMap::from([("splitter".to_string(), 0u32)]);
    assert!(caladrius
        .evaluate("wordcount", &zero, &SourceRateSpec::Fixed(1.0e6))
        .is_err());
}
