//! Deep and path-rich topologies through the whole service: a 40-layer
//! chain at parallelism 4 (4^40 instance paths, past `u64`) and a chain
//! of 66 diamonds (2^66 spout→sink paths). Both are standard shapes in
//! stream-processing benchmark grids. Fitting, reading the source
//! history and evaluating need the topology's structure, never its path
//! count or its paths, so all three must answer on both.

use caladrius::core::model::relative_error;
use caladrius::core::providers::{SimMetricsProvider, StaticTracker};
use caladrius::core::service::SourceRateSpec;
use caladrius::core::Caladrius;
use caladrius::sim::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-instance capacity (tuples/s at 1 core): far above every offered
/// rate, so no component saturates.
const CAPACITY: f64 = 1.0e6;

/// `layers` components in a line, every one at `parallelism`.
fn chain(layers: usize, parallelism: u32, rate_per_min: f64) -> Topology {
    let mut builder = TopologyBuilder::new("chain").spout(
        "c0",
        parallelism,
        RateProfile::constant_per_min(rate_per_min),
        64,
    );
    for layer in 1..layers {
        builder = builder
            .bolt(
                format!("c{layer}"),
                parallelism,
                WorkProfile::new(CAPACITY, 1.0, 64),
            )
            .edge(
                format!("c{}", layer - 1),
                format!("c{layer}"),
                Grouping::shuffle(),
            );
    }
    builder.build().unwrap()
}

/// `diamonds` diamonds in a line, joined end to end: `j{i}` fans out to
/// `l{i}` and `r{i}`, which both feed `j{i+1}`. Each join halves its
/// input, so the rate stays level down the chain.
fn diamond_chain(diamonds: usize, rate_per_min: f64) -> Topology {
    let mut builder = TopologyBuilder::new("diamonds").spout(
        "j0",
        1,
        RateProfile::constant_per_min(rate_per_min),
        64,
    );
    for i in 0..diamonds {
        let (join, next) = (format!("j{i}"), format!("j{}", i + 1));
        for branch in [format!("l{i}"), format!("r{i}")] {
            builder = builder
                .bolt(branch.clone(), 1, WorkProfile::new(CAPACITY, 1.0, 64))
                .edge(join.clone(), branch, Grouping::shuffle());
        }
        builder = builder
            .bolt(next.clone(), 1, WorkProfile::new(CAPACITY, 0.5, 64))
            .edge(format!("l{i}"), next.clone(), Grouping::shuffle())
            .edge(format!("r{i}"), next, Grouping::shuffle());
    }
    builder.build().unwrap()
}

/// A service over three legs at different offered rates, so every
/// component's input moves and its model has something to fit.
fn fitted(build: impl Fn(f64) -> Topology) -> Caladrius {
    let name = build(1.0).name.clone();
    let metrics = SimMetrics::new(&name);
    for (leg, rate) in [1.0e6, 2.0e6, 3.0e6].into_iter().enumerate() {
        let mut sim = Simulation::new(build(rate), SimConfig::default()).unwrap();
        sim.skip_to_minute(leg as u64 * 20);
        sim.warmup_minutes(3);
        sim.run_minutes_into(8, &metrics);
    }
    Caladrius::new(
        Arc::new(SimMetricsProvider::new(metrics)),
        Arc::new(StaticTracker::new().with(build(2.0e6))),
    )
}

fn assert_answers(caladrius: &Caladrius, topology: &str, components: usize) {
    let history = caladrius.source_history(topology).unwrap();
    assert!(!history.is_empty(), "{topology}: empty source history");

    let (model, _) = caladrius.fitted_models(topology).unwrap();
    assert_eq!(model.spouts().len(), 1);

    let report = caladrius
        .evaluate(topology, &HashMap::new(), &SourceRateSpec::Fixed(2.5e6))
        .unwrap();
    assert_eq!(report.prediction.per_component.len(), components);
    assert!(report.prediction.bottleneck.is_none());
    // Every shape keeps the rate level from spout to sink.
    let sink = report.prediction.sink_output_rate;
    assert!(
        relative_error(sink, 2.5e6) < 0.02,
        "{topology}: sink output {sink:.3e}"
    );
}

#[test]
fn deep_chain_fits_and_evaluates() {
    let caladrius = fitted(|rate| chain(40, 4, rate));
    assert_answers(&caladrius, "chain", 40);
}

#[test]
fn diamond_chain_fits_and_evaluates() {
    let caladrius = fitted(|rate| diamond_chain(66, rate));
    assert_answers(&caladrius, "diamonds", 1 + 66 * 3);
}
