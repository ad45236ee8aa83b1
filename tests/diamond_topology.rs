//! End-to-end model validation on the fan-out/fan-in diamond topology —
//! the multi-path case the paper's §IV-B3 alludes to ("multiple
//! sub-critical path candidates can be considered and predicted at the
//! same time") but does not evaluate.

use caladrius::core::model::relative_error;
use caladrius::core::providers::tracker::to_logical_spec;
use caladrius::core::providers::{SimMetricsProvider, StaticTracker};
use caladrius::core::Caladrius;
use caladrius::graph::TopologyDag;
use caladrius::sim::metrics::metric;
use caladrius::sim::prelude::*;
use caladrius::tsdb::Aggregation;
use caladrius::workload::diamond::{diamond_topology, DiamondParallelism, BRANCH_CAPACITY_PER_MIN};
use std::collections::HashMap;
use std::sync::Arc;

fn mean(samples: &[caladrius::tsdb::Sample]) -> f64 {
    Aggregation::Mean.apply(samples.iter().map(|s| s.value))
}

fn fitted_caladrius() -> Caladrius {
    let parallelism = DiamondParallelism::default();
    let metrics = SimMetrics::new("diamond");
    // Sweep through linear and saturated regimes (branches knee at 30 M).
    for (leg, rate) in [8.0e6, 16.0e6, 24.0e6, 28.0e6, 36.0e6]
        .into_iter()
        .enumerate()
    {
        let mut sim =
            Simulation::new(diamond_topology(parallelism, rate), SimConfig::default()).unwrap();
        sim.skip_to_minute(leg as u64 * 100);
        sim.warmup_minutes(35);
        sim.run_minutes_into(10, &metrics);
    }
    Caladrius::new(
        Arc::new(SimMetricsProvider::new(metrics)),
        Arc::new(StaticTracker::new().with(diamond_topology(parallelism, 8.0e6))),
    )
}

#[test]
fn dag_model_predicts_fan_out_fan_in() {
    let caladrius = fitted_caladrius();
    let model = caladrius.fit_topology_model("diamond").unwrap();

    // Two critical-path candidates through the diamond: at unit
    // parallelism it has two spout→sink paths, enrich fanning out to the
    // geo and device branches, which both feed the aggregator.
    let mut spec = to_logical_spec(&diamond_topology(DiamondParallelism::default(), 8.0e6));
    for (_, p) in &mut spec.components {
        *p = 1;
    }
    let dag = TopologyDag::new(&spec).unwrap();
    assert_eq!(dag.instance_path_count(), Ok(2));
    let names = |vs: &[usize]| -> Vec<&str> { vs.iter().map(|&v| dag.name(v)).collect() };
    let enrich = (0..dag.len()).find(|&v| dag.name(v) == "enrich").unwrap();
    let mut branches = names(dag.successors(enrich));
    branches.sort();
    assert_eq!(branches, ["device", "geo"]);
    for &branch in dag.successors(enrich) {
        assert_eq!(names(dag.successors(branch)), ["aggregator"]);
    }

    // Linear regime: aggregator sees 2x the offered rate.
    let pred = model.predict(&HashMap::new(), 10.0e6).unwrap();
    assert!(pred.bottleneck.is_none());
    assert!(
        relative_error(pred.sink_output_rate, 20.0e6) < 0.02,
        "fan-in doubling: predicted {:.2e}",
        pred.sink_output_rate
    );

    // The topology knee is set by the branches: 2 instances x 15 M each.
    let sat = model
        .saturation_source_rate(&HashMap::new())
        .unwrap()
        .unwrap();
    assert!(
        relative_error(sat, 2.0 * BRANCH_CAPACITY_PER_MIN) < 0.05,
        "topology knee {:.2e}",
        sat
    );
    // Probe between the branch knee (30 M) and the enrich knee (40 M) so
    // the diagnosis is unambiguous.
    let pred = model.predict(&HashMap::new(), 34.0e6).unwrap();
    let bottleneck = pred.bottleneck.expect("saturated");
    assert!(
        bottleneck == "geo" || bottleneck == "device",
        "bottleneck {bottleneck}"
    );

    // Scaling the branches and the enrich bolt moves the knee to 4 x 15 M
    // = 60 M (the branches again, at their new parallelism). Note the
    // aggregator's knee is NOT the limit here even though its capacity
    // (2 x 40 M input = 40 M offered) is lower: the aggregator never
    // saturated during training — the branches always throttled the
    // topology first — so its knee is unobservable and the model honestly
    // treats it as unbounded (the paper needs "one [point] in the
    // saturation interval" to place a knee).
    let proposal = HashMap::from([
        ("geo".to_string(), 4u32),
        ("device".to_string(), 4u32),
        ("enrich".to_string(), 4u32),
    ]);
    let sat = model.saturation_source_rate(&proposal).unwrap().unwrap();
    assert!(
        relative_error(sat, 60.0e6) < 0.05,
        "branch-bound knee {:.2e}",
        sat
    );
    let pred = model.predict(&proposal, 70.0e6).unwrap();
    let bottleneck = pred.bottleneck.expect("saturated at 70 M");
    assert!(
        bottleneck == "geo" || bottleneck == "device",
        "bottleneck {bottleneck}"
    );
    assert!(
        model
            .component_model("aggregator")
            .unwrap()
            .instance
            .saturation
            .is_none(),
        "the aggregator's knee must be honestly unknown"
    );
}

#[test]
fn diamond_prediction_matches_fresh_deployment() {
    let caladrius = fitted_caladrius();
    let model = caladrius.fit_topology_model("diamond").unwrap();

    // Dry-run a scaled proposal, then actually deploy it and compare the
    // aggregate throughput.
    let proposal = HashMap::from([("geo".to_string(), 3u32), ("device".to_string(), 3u32)]);
    let rate = 26.0e6;
    let predicted = model.predict(&proposal, rate).unwrap().sink_output_rate;

    let deployed = DiamondParallelism {
        geo: 3,
        device: 3,
        ..DiamondParallelism::default()
    };
    let mut sim = Simulation::new(diamond_topology(deployed, rate), SimConfig::default()).unwrap();
    sim.warmup_minutes(35);
    let metrics = sim.run_minutes(10);
    let measured =
        mean(&metrics.component_sum(metric::EXECUTE_COUNT, Some("aggregator"), 0, i64::MAX));

    let err = relative_error(predicted, measured);
    assert!(
        err < 0.05,
        "diamond dry-run: predicted {predicted:.3e}, measured {measured:.3e}, error {:.1}%",
        err * 100.0
    );
}
