//! Cross-crate property-based tests of the model invariants.

use caladrius::core::model::component::{ComponentModel, GroupingKind};
use caladrius::core::model::instance::{InstanceModel, InstanceObservation, Saturation};
use caladrius::core::model::topology::TopologyModel;
use caladrius::graph::topology_graph::LogicalSpec;
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_instance_model() -> impl Strategy<Value = InstanceModel> {
    (0.1f64..20.0, 1.0f64..1e8, prop::bool::ANY).prop_map(|(alpha, sp, saturated)| {
        InstanceModel::from_params(
            alpha,
            saturated.then_some(Saturation {
                input_sp: sp,
                output_st: alpha * sp,
            }),
        )
    })
}

fn shuffle_component(p: u32, instance: InstanceModel) -> ComponentModel {
    ComponentModel {
        name: "c".into(),
        fitted_parallelism: p,
        instance,
        shares: vec![1.0 / f64::from(p); p as usize],
        grouping: GroupingKind::Shuffle,
    }
}

/// Eq. 13 as first written — bracket by doubling, then 200 unconditional
/// halvings. `TopologyModel::saturation_source_rate` leaves its loop at
/// the interval's floating-point fixed point and must land on the same
/// bits.
fn saturation_by_200_halvings(topo: &TopologyModel, p: &HashMap<String, u32>) -> Option<f64> {
    let saturates = |rate: f64| topo.predict(p, rate).unwrap().bottleneck.is_some();
    let mut hi = 1.0;
    let mut bracketed = false;
    for _ in 0..80 {
        if saturates(hi) {
            bracketed = true;
            break;
        }
        hi *= 2.0;
    }
    if !bracketed {
        return None;
    }
    let mut lo = 0.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if saturates(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// A two-bolt topology, chain (`spout → a → b`) or diamond (`spout → a`,
/// `spout → b`, both into an unbounded `sink`). Each bolt is
/// `(parallelism, log10 alpha, log10 knee)`; `None` knees never saturate.
fn two_bolt_topology(diamond: bool, bolts: [(u32, f64, Option<f64>); 2]) -> TopologyModel {
    let [a, b] = bolts;
    let mut spec = LogicalSpec::new("t")
        .component("spout", 1)
        .component("a", a.0)
        .component("b", b.0)
        .edge("spout", "a", "shuffle");
    let mut models = HashMap::new();
    for (name, (p, log_alpha, log_knee)) in [("a", a), ("b", b)] {
        let alpha = 10f64.powf(log_alpha);
        let saturation = log_knee.map(|k| 10f64.powf(k)).map(|knee| Saturation {
            input_sp: knee,
            output_st: alpha * knee,
        });
        let mut component = shuffle_component(p, InstanceModel::from_params(alpha, saturation));
        component.name = name.into();
        models.insert(name.to_string(), component);
    }
    if diamond {
        spec = spec
            .component("sink", 1)
            .edge("spout", "b", "shuffle")
            .edge("a", "sink", "shuffle")
            .edge("b", "sink", "shuffle");
        let mut sink = shuffle_component(1, InstanceModel::from_params(1.0, None));
        sink.name = "sink".into();
        models.insert("sink".to_string(), sink);
    } else {
        spec = spec.edge("a", "b", "shuffle");
    }
    TopologyModel::new(spec, models).unwrap()
}

/// Spouts `s1` and `s2` feed `a` and `b`, which join in `c`. Each bolt is
/// `(parallelism, log10 alpha, log10 knee, grouping)`: 0 shuffle, 1
/// fields over biased keys, 2 fields over uniform keys, 3 all, 4 global.
fn fan_in_topology(bolts: [(u32, f64, Option<f64>, u32); 3]) -> TopologyModel {
    let mut spec = LogicalSpec::new("t")
        .component("s1", 1)
        .component("s2", 2)
        .edge("s1", "a", "shuffle")
        .edge("s2", "b", "shuffle")
        .edge("a", "c", "shuffle")
        .edge("b", "c", "shuffle");
    let mut models = HashMap::new();
    for (name, (p, log_alpha, log_knee, grouping)) in ["a", "b", "c"].into_iter().zip(bolts) {
        spec = spec.component(name, p);
        let alpha = 10f64.powf(log_alpha);
        let saturation = log_knee.map(|k| 10f64.powf(k)).map(|knee| Saturation {
            input_sp: knee,
            output_st: alpha * knee,
        });
        let mut component = shuffle_component(p, InstanceModel::from_params(alpha, saturation));
        component.name = name.into();
        component.grouping = match grouping {
            0 => GroupingKind::Shuffle,
            1 | 2 => GroupingKind::Fields,
            3 => GroupingKind::All,
            _ => GroupingKind::Global,
        };
        if grouping == 1 {
            let total = f64::from(p) * (f64::from(p) + 1.0) / 2.0;
            component.shares = (1..=p).map(|i| f64::from(i) / total).collect();
        }
        models.insert(name.to_string(), component);
    }
    TopologyModel::new(spec, models).unwrap()
}

#[test]
fn saturation_search_edges_match_200_halvings() {
    let none = HashMap::new();
    // Never saturates: no bracket, no search.
    let open = two_bolt_topology(false, [(2, 0.0, None), (3, 1.0, None)]);
    assert_eq!(open.saturation_source_rate(&none).unwrap(), None);
    assert_eq!(saturation_by_200_halvings(&open, &none), None);
    // Saturates below the bracket's first probe (hi = 1.0).
    let tiny = two_bolt_topology(true, [(1, 0.0, Some(-7.5)), (4, -3.0, None)]);
    let sat = tiny.saturation_source_rate(&none).unwrap();
    assert!(sat.unwrap() < 1e-6);
    assert_eq!(
        sat.map(f64::to_bits),
        saturation_by_200_halvings(&tiny, &none).map(f64::to_bits)
    );
}

proptest! {
    /// The fixed-point exit is exact: same bits as 200 halvings, over
    /// chains and diamonds, 16 decades of alpha and knee, with and
    /// without a parallelism proposal.
    #[test]
    fn saturation_search_matches_200_halvings_bit_for_bit(
        diamond in prop::bool::ANY,
        fitted in (1u32..65, 1u32..65),
        log_alpha in (-8.0f64..8.0, -8.0f64..8.0),
        log_knee in (-8.0f64..8.0, -8.0f64..8.0),
        has_knee in (prop::bool::ANY, prop::bool::ANY),
        propose in prop::bool::ANY,
        proposed in (1u32..65, 1u32..65),
    ) {
        let topo = two_bolt_topology(diamond, [
            (fitted.0, log_alpha.0, has_knee.0.then_some(log_knee.0)),
            (fitted.1, log_alpha.1, has_knee.1.then_some(log_knee.1)),
        ]);
        let proposal = if propose {
            HashMap::from([("a".to_string(), proposed.0), ("b".to_string(), proposed.1)])
        } else {
            HashMap::new()
        };
        prop_assert_eq!(
            topo.saturation_source_rate(&proposal).unwrap().map(f64::to_bits),
            saturation_by_200_halvings(&topo, &proposal).map(f64::to_bits)
        );
    }

    /// The search walks the DAG itself instead of asking `predict`: same
    /// bits as 200 halvings over `predict`, through a fan-in of two
    /// spouts and every grouping (biased fields keys keep their fitted
    /// parallelism — any other is an error, not a saturation point).
    #[test]
    fn saturation_search_matches_200_halvings_on_fan_in_with_groupings(
        fitted in (1u32..65, 1u32..65, 1u32..65),
        log_alpha in (-8.0f64..8.0, -8.0f64..8.0, -8.0f64..8.0),
        log_knee in (-8.0f64..8.0, -8.0f64..8.0, -8.0f64..8.0),
        has_knee in (prop::bool::ANY, prop::bool::ANY, prop::bool::ANY),
        grouping in (0u32..5, 0u32..5, 0u32..5),
        propose in prop::bool::ANY,
        proposed in (1u32..65, 1u32..65, 1u32..65),
    ) {
        let topo = fan_in_topology([
            (fitted.0, log_alpha.0, has_knee.0.then_some(log_knee.0), grouping.0),
            (fitted.1, log_alpha.1, has_knee.1.then_some(log_knee.1), grouping.1),
            (fitted.2, log_alpha.2, has_knee.2.then_some(log_knee.2), grouping.2),
        ]);
        let mut proposal = HashMap::new();
        if propose {
            for (name, p, grouping) in [
                ("a", proposed.0, grouping.0),
                ("b", proposed.1, grouping.1),
                ("c", proposed.2, grouping.2),
            ] {
                if grouping != 1 {
                    proposal.insert(name.to_string(), p);
                }
            }
        }
        prop_assert_eq!(
            topo.saturation_source_rate(&proposal).unwrap().map(f64::to_bits),
            saturation_by_200_halvings(&topo, &proposal).map(f64::to_bits)
        );
    }

    /// Eq. 2 is exactly `min(alpha * t, ST)`.
    #[test]
    fn instance_output_is_min_form(model in arb_instance_model(), t in 0.0f64..1e9) {
        let expected = match model.saturation {
            Some(s) => (model.alpha * t).min(s.output_st),
            None => model.alpha * t,
        };
        prop_assert!((model.output_for_source(t) - expected).abs() <= 1e-9 * expected.max(1.0));
    }

    /// The instance model is monotone non-decreasing in the source rate.
    #[test]
    fn instance_output_is_monotone(model in arb_instance_model(), a in 0.0f64..1e8, b in 0.0f64..1e8) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(model.output_for_source(lo) <= model.output_for_source(hi) + 1e-9);
        prop_assert!(model.input_for_source(lo) <= model.input_for_source(hi) + 1e-9);
    }

    /// Inverse round-trips below the knee.
    #[test]
    fn instance_inverse_roundtrips(model in arb_instance_model(), t in 0.0f64..1e8) {
        let below_knee = match model.saturation {
            Some(s) => t < s.input_sp,
            None => true,
        };
        prop_assume!(below_knee);
        let y = model.output_for_source(t);
        let back = model.source_for_output(y);
        prop_assert!((back - t).abs() <= 1e-6 * t.max(1.0), "t={t}, back={back}");
    }

    /// Fitting exact synthetic data recovers the parameters.
    #[test]
    fn instance_fit_recovers_params(alpha in 0.1f64..20.0, sp in 10.0f64..1e6) {
        let obs: Vec<InstanceObservation> = (1..=40)
            .map(|i| {
                let t = sp * i as f64 / 20.0; // sweep to 2x the knee
                let input = t.min(sp);
                InstanceObservation {
                    source_rate: t,
                    input_rate: input,
                    output_rate: alpha * input,
                    backpressured: t > sp,
                }
            })
            .collect();
        let m = InstanceModel::fit(&obs).unwrap();
        prop_assert!((m.alpha - alpha).abs() < 1e-6 * alpha);
        let s = m.saturation.unwrap();
        prop_assert!((s.input_sp - sp).abs() < 1e-6 * sp);
    }

    /// Eq. 9: at p=1 the component model IS the instance model, and
    /// scaling to p multiplies both axes of the curve.
    #[test]
    fn component_shuffle_scaling_identity(
        model in arb_instance_model(),
        p in 1u32..16,
        t in 0.0f64..1e8,
    ) {
        let single = shuffle_component(1, model);
        let multi = shuffle_component(1, model);
        let direct = single.predict(1, t).unwrap().output_rate;
        prop_assert!((direct - model.output_for_source(t)).abs() < 1e-9 * direct.max(1.0));
        // T_c(p, p*t) = p * T_i(t)
        let scaled = multi.predict(p, t * f64::from(p)).unwrap().output_rate;
        prop_assert!(
            (scaled - f64::from(p) * direct).abs() <= 1e-6 * scaled.max(1.0),
            "p={p} t={t}: {scaled} vs {}", f64::from(p) * direct
        );
    }

    /// Component saturation onset scales linearly with parallelism under
    /// shuffle grouping.
    #[test]
    fn component_saturation_scales(model in arb_instance_model(), p in 1u32..16) {
        prop_assume!(model.saturation.is_some());
        let c = shuffle_component(1, model);
        let s1 = c.saturation_source_rate(1).unwrap().unwrap();
        let sp = c.saturation_source_rate(p).unwrap().unwrap();
        prop_assert!((sp - f64::from(p) * s1).abs() < 1e-6 * sp);
    }

    /// Topology DAG prediction equals literal Eq. 12 chaining on a chain
    /// topology, for arbitrary per-component models.
    #[test]
    fn topology_chain_equals_path_product(
        models in prop::collection::vec(arb_instance_model(), 1..5),
        source in 0.0f64..1e7,
    ) {
        let mut spec = LogicalSpec::new("chain").component("spout", 1);
        let mut map = HashMap::new();
        let mut prev = "spout".to_string();
        for (i, m) in models.iter().enumerate() {
            let name = format!("bolt{i}");
            spec = spec.component(name.clone(), 1).edge(prev.clone(), name.clone(), "shuffle");
            map.insert(name.clone(), shuffle_component(1, *m));
            prev = name;
        }
        let topo = TopologyModel::new(spec, map).unwrap();
        let none = HashMap::new();
        let dag = topo.predict(&none, source).unwrap().sink_output_rate;
        // Manual Eq. 12 chain.
        let mut t = source;
        for m in &models {
            t = m.output_for_source(t);
        }
        prop_assert!((dag - t).abs() <= 1e-9 * t.max(1.0));
    }

    /// The topology's saturation point (Eq. 13) is consistent with the
    /// forward prediction (Eq. 12): just below it nothing saturates, just
    /// above it something does.
    #[test]
    fn topology_saturation_point_is_the_boundary(
        alpha in 0.5f64..5.0,
        sp in 100.0f64..1e6,
        p in 1u32..8,
    ) {
        let spec = LogicalSpec::new("t")
            .component("spout", 1)
            .component("bolt", p)
            .edge("spout", "bolt", "shuffle");
        let instance = InstanceModel::from_params(
            alpha,
            Some(Saturation { input_sp: sp, output_st: alpha * sp }),
        );
        let models = HashMap::from([("bolt".to_string(), shuffle_component(p, instance))]);
        let topo = TopologyModel::new(spec, models).unwrap();
        let none = HashMap::new();
        let knee = topo.saturation_source_rate(&none).unwrap().unwrap();
        prop_assert!((knee - f64::from(p) * sp).abs() < 1e-3 * knee);
        prop_assert!(topo.predict(&none, knee * 0.99).unwrap().bottleneck.is_none());
        prop_assert!(topo.predict(&none, knee * 1.01).unwrap().bottleneck.is_some());
    }
}
