//! The topology-level throughput model (paper §IV-B3, Eq. 12–14).
//!
//! Component models are chained along the topology DAG: each component's
//! source rate is the sum of its upstream components' predicted outputs,
//! and its own output follows its [`ComponentModel`]. On a simple chain
//! this is exactly the paper's Eq. 12; the inverse walk that finds the
//! topology's saturation point is Eq. 13, and comparing it with the
//! actual (or forecast) source rate classifies backpressure risk
//! (Eq. 14).

use crate::error::{CoreError, Result};
use crate::model::component::ComponentModel;
use caladrius_graph::topology_graph::{LogicalSpec, TopologyDag};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Backpressure risk classification (paper Eq. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackpressureRisk {
    /// `t₀ < t'₀`: the offered rate is comfortably below the topology
    /// saturation point.
    Low,
    /// `t₀ ~ t'₀` or beyond: backpressure is imminent or active.
    High,
}

impl BackpressureRisk {
    /// Eq. 14: the risk of offering `source_rate` to a topology whose
    /// saturation point (Eq. 13) is `saturation`. Low only when the rate
    /// clears the saturation point by [`RISK_MARGIN`]; a topology with no
    /// known saturation point is never at risk.
    pub fn classify(saturation: Option<f64>, source_rate: f64) -> Self {
        match saturation {
            Some(t_sat) if source_rate >= t_sat * (1.0 - RISK_MARGIN) => Self::High,
            _ => Self::Low,
        }
    }
}

/// Per-component line of a topology prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentReport {
    /// Component name.
    pub name: String,
    /// Parallelism used for the prediction.
    pub parallelism: u32,
    /// Source rate arriving at the component (tuples/min).
    pub source_rate: f64,
    /// Predicted processed rate (tuples/min).
    pub input_rate: f64,
    /// Predicted emitted rate (tuples/min).
    pub output_rate: f64,
    /// Predicted processed rate per instance.
    pub per_instance_inputs: Vec<f64>,
    /// Whether the component is predicted to saturate.
    pub saturated: bool,
}

/// The outcome of one topology prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyPrediction {
    /// Offered source rate the prediction was made for (tuples/min).
    pub source_rate: f64,
    /// Total predicted output rate across sink components (tuples/min).
    pub sink_output_rate: f64,
    /// Per-component details in topological order.
    pub per_component: Vec<ComponentReport>,
    /// First saturated component in topological order, if any — the
    /// predicted backpressure source.
    pub bottleneck: Option<String>,
}

/// The chained topology model.
#[derive(Debug, Clone)]
pub struct TopologyModel {
    spec: LogicalSpec,
    models: HashMap<String, ComponentModel>,
    /// Spout component names (no incoming edges).
    spouts: Vec<String>,
    /// The components in topological order.
    order: Vec<Node>,
}

/// One component of the DAG, at its place in the topological order.
#[derive(Debug, Clone)]
struct Node {
    name: String,
    /// Whether the offered source rate enters here.
    spout: bool,
    /// Where each declared out stream leads (spec edge order), as
    /// indices into the topological order.
    targets: Vec<usize>,
}

#[cfg(test)]
thread_local! {
    /// DAG walks made on this thread — by [`TopologyModel::predict`] or
    /// by a saturation search's probes — so tests can pin how much work a
    /// search or an evaluation does.
    pub(crate) static DAG_WALKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// [`TopologyPrediction`]s built on this thread.
    pub(crate) static PREDICTIONS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Relative margin under the saturation point treated as "high risk"
/// (Eq. 14's `t'₀ ∼ t₀`).
pub const RISK_MARGIN: f64 = 0.05;

impl TopologyModel {
    /// Builds a topology model from a logical spec and per-bolt component
    /// models. Spouts need no model (their output *is* the source rate).
    pub fn new(spec: LogicalSpec, models: HashMap<String, ComponentModel>) -> Result<Self> {
        let dag = TopologyDag::new(&spec)?;
        let spouts: Vec<String> = dag
            .spouts()
            .iter()
            .map(|&v| dag.name(v).to_string())
            .collect();
        let mut is_spout = vec![false; dag.len()];
        for &v in dag.spouts() {
            is_spout[v] = true;
        }
        for ((name, _), spout) in spec.components.iter().zip(&is_spout) {
            if !spout && !models.contains_key(name) {
                return Err(CoreError::Unknown(format!(
                    "no component model supplied for bolt {name:?}"
                )));
            }
        }
        let mut position = vec![0; dag.len()];
        for (i, &v) in dag.order().iter().enumerate() {
            position[v] = i;
        }
        let order = dag
            .order()
            .iter()
            .map(|&v| Node {
                name: dag.name(v).to_string(),
                spout: is_spout[v],
                targets: dag.successors(v).iter().map(|&w| position[w]).collect(),
            })
            .collect();
        Ok(Self {
            spec,
            models,
            spouts,
            order,
        })
    }

    /// Names of the spout components.
    pub fn spouts(&self) -> &[String] {
        &self.spouts
    }

    /// The component model for a bolt, if present.
    pub fn component_model(&self, name: &str) -> Option<&ComponentModel> {
        self.models.get(name)
    }

    fn resolve_parallelism(&self, parallelisms: &HashMap<String, u32>, name: &str) -> Result<u32> {
        if let Some(p) = parallelisms.get(name) {
            if *p == 0 {
                return Err(CoreError::InvalidRequest(format!(
                    "parallelism of {name:?} must be positive"
                )));
            }
            return Ok(*p);
        }
        self.spec
            .components
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
            .ok_or_else(|| CoreError::Unknown(format!("component {name:?}")))
    }

    /// Predicts topology behaviour for an offered source rate `t₀`
    /// (tuples/min) under the given parallelism overrides (components not
    /// listed keep their spec parallelism). This is the generalised
    /// Eq. 12: full DAG propagation in topological order.
    pub fn predict(
        &self,
        parallelisms: &HashMap<String, u32>,
        source_rate: f64,
    ) -> Result<TopologyPrediction> {
        if !(source_rate.is_finite() && source_rate >= 0.0) {
            return Err(CoreError::InvalidRequest(format!(
                "source rate must be non-negative, got {source_rate}"
            )));
        }
        #[cfg(test)]
        PREDICTIONS_BUILT.set(PREDICTIONS_BUILT.get() + 1);
        let mut per_component = Vec::with_capacity(self.order.len());
        let mut bottleneck = None;
        let sink_output_rate =
            Walk::new(self, parallelisms).run(source_rate, |name, p, source, model| {
                let (input_rate, output_rate, per_instance_inputs, saturated) = match model {
                    Some(model) => {
                        let pred = model.predict(p, source)?;
                        (
                            pred.input_rate,
                            pred.output_rate,
                            pred.per_instance_inputs,
                            pred.saturated,
                        )
                    }
                    // Spouts forward the offered rate unchanged.
                    None => (
                        source,
                        source,
                        vec![source / f64::from(p); p as usize],
                        false,
                    ),
                };
                if saturated && bottleneck.is_none() {
                    bottleneck = Some(name.to_string());
                }
                per_component.push(ComponentReport {
                    name: name.to_string(),
                    parallelism: p,
                    source_rate: source,
                    input_rate,
                    output_rate,
                    per_instance_inputs,
                    saturated,
                });
                Ok(output_rate)
            })?;
        Ok(TopologyPrediction {
            source_rate,
            sink_output_rate,
            per_component,
            bottleneck,
        })
    }

    /// Eq. 13: the topology saturation point `t'₀` — the smallest offered
    /// source rate at which some component saturates. `None` when no
    /// fitted component model ever observed saturation (the topology has
    /// no known limit).
    pub fn saturation_source_rate(
        &self,
        parallelisms: &HashMap<String, u32>,
    ) -> Result<Option<f64>> {
        // The proposal is resolved once, by the first probe; every probe
        // after it only redoes the arithmetic.
        let mut walk = Walk::new(self, parallelisms);
        // The bottleneck indicator is monotone in t₀, so bisect. First
        // bracket an upper bound.
        let mut hi = 1.0;
        let mut saturates = false;
        for _ in 0..80 {
            if walk.any_saturates(hi)? {
                saturates = true;
                break;
            }
            hi *= 2.0;
        }
        if !saturates {
            return Ok(None);
        }
        // Once `lo` and `hi` are adjacent floats `mid` rounds onto one of
        // them, where the indicator is already known: the interval has
        // reached its fixed point and further halvings cannot move it.
        // Exact, not a tolerance; 200 only bounds the loop.
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if walk.any_saturates(mid)? {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(Some(0.5 * (lo + hi)))
    }

    /// Eq. 14: classifies backpressure risk for an offered rate `t₀`.
    /// Returns the risk and the saturation point it was judged against.
    pub fn backpressure_risk(
        &self,
        parallelisms: &HashMap<String, u32>,
        source_rate: f64,
    ) -> Result<(BackpressureRisk, Option<f64>)> {
        let sat = self.saturation_source_rate(parallelisms)?;
        Ok((BackpressureRisk::classify(sat, source_rate), sat))
    }
}

/// Eq. 12's propagation, written once: [`TopologyModel::predict`] makes
/// one walk and keeps a report of it, a saturation search makes ≈ 80 and
/// keeps one bit of each.
///
/// A component's model and parallelism are resolved by the first walk to
/// reach it, just before that walk evaluates it, and kept for the walks
/// that follow: a walk therefore raises the first error in topological
/// order, whether the proposal or an arriving rate caused it, and a
/// search resolves its proposal once.
struct Walk<'a> {
    topology: &'a TopologyModel,
    parallelisms: &'a HashMap<String, u32>,
    resolved: Vec<(u32, Option<&'a ComponentModel>)>,
    /// Rate arriving at each component, indexed like the order.
    arriving: Vec<f64>,
}

impl<'a> Walk<'a> {
    fn new(topology: &'a TopologyModel, parallelisms: &'a HashMap<String, u32>) -> Self {
        let n = topology.order.len();
        Self {
            topology,
            parallelisms,
            resolved: Vec::with_capacity(n),
            arriving: vec![0.0; n],
        }
    }

    /// Offers `source_rate` to the spouts and visits every component in
    /// topological order with `(name, parallelism, arriving rate, model)`
    /// — no model means a spout; `output` answers with the component's
    /// total output rate, which is split evenly over its out edges. The
    /// component model's output is its total across streams, and the
    /// simulator emits the same α per declared stream, so each of `k` out
    /// edges carries `1/k` of it. Returns the summed output of the sinks.
    fn run(
        &mut self,
        source_rate: f64,
        mut output: impl FnMut(&'a str, u32, f64, Option<&'a ComponentModel>) -> Result<f64>,
    ) -> Result<f64> {
        #[cfg(test)]
        DAG_WALKS.set(DAG_WALKS.get() + 1);
        let topology = self.topology;
        let per_spout = source_rate / topology.spouts.len() as f64;
        for (arriving, node) in self.arriving.iter_mut().zip(&topology.order) {
            *arriving = if node.spout { per_spout } else { 0.0 };
        }
        let mut sink_output = 0.0;
        for (k, node) in topology.order.iter().enumerate() {
            if k == self.resolved.len() {
                let p = topology.resolve_parallelism(self.parallelisms, &node.name)?;
                self.resolved.push((p, topology.models.get(&node.name)));
            }
            let (p, model) = self.resolved[k];
            let output_rate = output(&node.name, p, self.arriving[k], model)?;
            if node.targets.is_empty() {
                sink_output += output_rate;
            } else {
                let per_edge = output_rate / node.targets.len() as f64;
                for to in &node.targets {
                    self.arriving[*to] += per_edge;
                }
            }
        }
        Ok(sink_output)
    }

    /// Whether any component saturates at `source_rate`:
    /// `predict(..)?.bottleneck.is_some()` to the bit, and the same
    /// error where `predict` has one, with nothing built. Every component
    /// is visited even after one has saturated — an error further
    /// downstream must still surface.
    fn any_saturates(&mut self, source_rate: f64) -> Result<bool> {
        let mut any = false;
        self.run(source_rate, |_, p, source, model| {
            let Some(model) = model else {
                return Ok(source);
            };
            let (output_rate, saturated) = model.output_and_saturation(p, source)?;
            any |= saturated;
            Ok(output_rate)
        })?;
        Ok(any)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::component::{arbitrary_component, ComponentModel, GroupingKind};
    use crate::model::instance::{InstanceModel, Saturation};

    fn model(name: &str, p: u32, alpha: f64, instance_sp: f64) -> (String, ComponentModel) {
        (
            name.to_string(),
            ComponentModel {
                name: name.to_string(),
                fitted_parallelism: p,
                instance: InstanceModel::from_params(
                    alpha,
                    Some(Saturation {
                        input_sp: instance_sp,
                        output_st: alpha * instance_sp,
                    }),
                ),
                shares: vec![1.0 / f64::from(p); p as usize],
                grouping: GroupingKind::Shuffle,
            },
        )
    }

    /// The paper's WordCount: spout → splitter (α=7.63, SP=11/inst) →
    /// counter (α=1, SP=70/inst), rates in M tuples/min.
    fn wordcount(splitter_p: u32, counter_p: u32) -> TopologyModel {
        let spec = LogicalSpec::new("wc")
            .component("spout", 2)
            .component("splitter", splitter_p)
            .component("counter", counter_p)
            .edge("spout", "splitter", "shuffle")
            .edge("splitter", "counter", "fields");
        let models = HashMap::from([
            model("splitter", splitter_p, 7.63, 11.0),
            model("counter", counter_p, 1.0, 70.0),
        ]);
        TopologyModel::new(spec, models).unwrap()
    }

    #[test]
    fn linear_regime_propagates_alpha_chain() {
        let m = wordcount(2, 4);
        let pred = m.predict(&HashMap::new(), 10.0).unwrap();
        // 10 M sentences → 76.3 M words → counter processes all.
        assert!((pred.sink_output_rate - 76.3).abs() < 1e-9);
        assert!(pred.bottleneck.is_none());
        assert_eq!(pred.per_component.len(), 3);
        assert_eq!(pred.per_component[0].name, "spout");
    }

    #[test]
    fn splitter_is_the_bottleneck_on_fig1_config() {
        // Splitter p=2 knees at 22 M; counter p=4 knees at 280 M input,
        // i.e. source 280/7.63 ≈ 36.7 M — splitter saturates first.
        let m = wordcount(2, 4);
        let pred = m.predict(&HashMap::new(), 30.0).unwrap();
        assert_eq!(pred.bottleneck.as_deref(), Some("splitter"));
        // Output caps at 22 × 7.63 ≈ 167.9 M words.
        assert!((pred.sink_output_rate - 22.0 * 7.63).abs() < 1e-6);
    }

    #[test]
    fn eq13_saturation_point() {
        let m = wordcount(2, 4);
        let sat = m.saturation_source_rate(&HashMap::new()).unwrap().unwrap();
        assert!((sat - 22.0).abs() < 0.01, "topology SP ≈ 22 M, got {sat}");
    }

    #[test]
    fn saturation_search_stops_at_its_fixed_point() {
        // The bracket ends at hi = 32 after 6 walks; ~53 halvings later
        // the interval is two adjacent floats. 200 unconditional halvings
        // made 206 walks here (228 at the service's tuples/min rates).
        let m = wordcount(2, 4);
        let none = HashMap::new();
        let (walks, built) = (DAG_WALKS.get(), PREDICTIONS_BUILT.get());
        let sat = m.saturation_source_rate(&none).unwrap().unwrap();
        let walks = DAG_WALKS.get() - walks;
        assert!(walks <= 80 + 64, "{walks} walks in one search");
        assert_eq!(
            PREDICTIONS_BUILT.get() - built,
            0,
            "a search reads one bit per probe and builds no report"
        );
        // The answer is the boundary to the last bit: its neighbours
        // straddle the indicator.
        let below = f64::from_bits(sat.to_bits() - 1);
        let above = f64::from_bits(sat.to_bits() + 1);
        assert!(m.predict(&none, below).unwrap().bottleneck.is_none());
        assert!(m.predict(&none, above).unwrap().bottleneck.is_some());
    }

    /// A bolt for the walk proptest: `(fitted parallelism, log10 α, log10
    /// knee, grouping)`, as [`arbitrary_component`] reads them.
    type Bolt = (u32, f64, Option<f64>, u32);

    fn bolt(
        name: &str,
        (fitted_p, log_alpha, log_knee, grouping): Bolt,
    ) -> (String, ComponentModel) {
        let component = arbitrary_component(name, fitted_p, log_alpha, log_knee, grouping);
        (name.to_string(), component)
    }

    /// Three bolts wired as a chain (`spout → a → b → c`), a diamond
    /// (`spout → a`, `spout → b`, both into `c`) or a fan-in (spouts `s1`
    /// and `s2` feed `a` and `b`, which join in `c`).
    fn three_bolts(shape: u32, bolts: [Bolt; 3]) -> TopologyModel {
        let [a, b, c] = bolts;
        let spec = LogicalSpec::new("t")
            .component("a", a.0)
            .component("b", b.0)
            .component("c", c.0);
        let spec = match shape {
            0 => spec
                .component("spout", 2)
                .edge("spout", "a", "shuffle")
                .edge("a", "b", "shuffle")
                .edge("b", "c", "shuffle"),
            1 => spec
                .component("spout", 2)
                .edge("spout", "a", "shuffle")
                .edge("spout", "b", "shuffle")
                .edge("a", "c", "shuffle")
                .edge("b", "c", "shuffle"),
            _ => spec
                .component("s1", 1)
                .component("s2", 3)
                .edge("s1", "a", "shuffle")
                .edge("s2", "b", "shuffle")
                .edge("a", "c", "shuffle")
                .edge("b", "c", "shuffle"),
        };
        let models = HashMap::from([bolt("a", a), bolt("b", b), bolt("c", c)]);
        TopologyModel::new(spec, models).unwrap()
    }

    /// What the search asked before it had its own walk.
    fn saturates_by_predict(
        m: &TopologyModel,
        proposal: &HashMap<String, u32>,
        rate: f64,
    ) -> Result<bool> {
        Ok(m.predict(proposal, rate)?.bottleneck.is_some())
    }

    proptest::proptest! {
        /// The search's predicate is `predict(..)?.bottleneck.is_some()`:
        /// the same decision at every rate the search can probe, and the
        /// same error (a biased fields bolt at a new parallelism, an
        /// arriving rate that overflowed) where `predict` has one.
        #[test]
        fn any_saturates_is_predict_reduced_to_its_bottleneck_bit(
            shape in 0u32..3,
            fitted in (1u32..65, 1u32..65, 1u32..65),
            log_alpha in (-8.0f64..8.0, -8.0f64..8.0, -8.0f64..8.0),
            knee in (0u32..8, -8.0f64..8.0, -8.0f64..8.0, -8.0f64..8.0),
            grouping in (0u32..5, 0u32..5, 0u32..5),
            proposed in (0u32..8, 1u32..65, 1u32..65, 1u32..65),
            rates in ((0.0f64..80.0, 0.0f64..80.0), (0.0f64..80.0, 0.0f64..80.0)),
        ) {
            // Bit i of `knee.0` gives bolt i a knee; bit i of `proposed.0`
            // proposes a parallelism for it.
            let has = |bits: u32, i: u32| bits & (1 << i) != 0;
            let m = three_bolts(shape, [
                (fitted.0, log_alpha.0, has(knee.0, 0).then_some(knee.1), grouping.0),
                (fitted.1, log_alpha.1, has(knee.0, 1).then_some(knee.2), grouping.1),
                (fitted.2, log_alpha.2, has(knee.0, 2).then_some(knee.3), grouping.2),
            ]);
            let proposal: HashMap<String, u32> =
                [("a", proposed.1), ("b", proposed.2), ("c", proposed.3)]
                    .into_iter()
                    .zip(0..)
                    .filter(|(_, i)| has(proposed.0, *i))
                    .map(|((name, p), _)| (name.to_string(), p))
                    .collect();
            // One walk state across the probes, as in a search.
            let mut walk = Walk::new(&m, &proposal);
            let ((r0, r1), (r2, r3)) = rates;
            for rate in [0.0, 1.0, r0.exp2(), r1.exp2(), r2.exp2(), r3.exp2(), 80f64.exp2()] {
                assert_eq!(
                    walk.any_saturates(rate),
                    saturates_by_predict(&m, &proposal, rate),
                    "rate {rate}"
                );
            }
        }
    }

    #[test]
    fn a_search_fails_exactly_as_predict_does() {
        let searched = |m: &TopologyModel, proposal: &HashMap<String, u32>| {
            let err = m.saturation_source_rate(proposal).unwrap_err();
            // The bracket's first probe is where `predict` met it.
            assert_eq!(err, m.predict(proposal, 1.0).unwrap_err());
            err
        };
        let m = wordcount(2, 4);
        let zero = HashMap::from([("counter".to_string(), 0u32)]);
        assert!(matches!(searched(&m, &zero), CoreError::InvalidRequest(_)));

        // Biased fields keys cannot be re-hashed onto a new parallelism.
        let biased = three_bolts(
            0,
            [(2, 0.0, None, 0), (4, 0.0, Some(1.0), 1), (2, 0.0, None, 0)],
        );
        let rescaled = HashMap::from([("b".to_string(), 5u32)]);
        assert!(matches!(
            searched(&biased, &rescaled),
            CoreError::Unpredictable(_)
        ));

        // A rate that stops being one: `a` emits a negative rate to `b`.
        let mut negative =
            three_bolts(0, [(1, 0.0, None, 0), (1, 0.0, None, 0), (1, 0.0, None, 0)]);
        negative.models.get_mut("a").unwrap().instance.alpha = -1.0;
        let err = searched(&negative, &HashMap::new());
        assert!(matches!(&err, CoreError::InvalidRequest(why) if why.contains("got -")));
        // The first error in topological order wins, whichever kind it
        // is: `c`'s proposal is bad too, but `b` fails before the walk
        // gets there...
        let bad_c = HashMap::from([("c".to_string(), 0u32)]);
        assert_eq!(searched(&negative, &bad_c), err);
        // ...and a bad proposal for `a` is met before `b`'s rate.
        let bad_a = HashMap::from([("a".to_string(), 0u32)]);
        assert_ne!(searched(&negative, &bad_a), err);
    }

    #[test]
    fn saturation_point_moves_with_parallelism() {
        let m = wordcount(2, 4);
        // Dry-run update: splitter 2 → 3 lifts the knee to 33 M (still
        // below the counter's 280/7.63 ≈ 36.7 M).
        let p = HashMap::from([("splitter".to_string(), 3u32)]);
        let sat = m.saturation_source_rate(&p).unwrap().unwrap();
        assert!((sat - 33.0).abs() < 0.01, "got {sat}");
        // Scaling the splitter past the counter's limit shifts the
        // bottleneck to the counter (knee at source 280/7.63 ≈ 36.7 M).
        let p = HashMap::from([("splitter".to_string(), 8u32)]);
        let sat = m.saturation_source_rate(&p).unwrap().unwrap();
        assert!((sat - 280.0 / 7.63).abs() < 0.1, "got {sat}");
        let pred = m.predict(&p, 50.0).unwrap();
        assert_eq!(pred.bottleneck.as_deref(), Some("counter"));
    }

    #[test]
    fn eq14_risk_classification() {
        let m = wordcount(2, 4);
        let none = HashMap::new();
        let (risk, sat) = m.backpressure_risk(&none, 10.0).unwrap();
        assert_eq!(risk, BackpressureRisk::Low);
        assert!((sat.unwrap() - 22.0).abs() < 0.01);
        // Just under the knee but inside the 5 % margin: high.
        let (risk, _) = m.backpressure_risk(&none, 21.5).unwrap();
        assert_eq!(risk, BackpressureRisk::High);
        let (risk, _) = m.backpressure_risk(&none, 30.0).unwrap();
        assert_eq!(risk, BackpressureRisk::High);
    }

    #[test]
    fn eq12_chaining_matches_dag_on_chain() {
        let m = wordcount(2, 4);
        let (splitter, counter) = (&m.models["splitter"], &m.models["counter"]);
        for t in [5.0, 22.0, 40.0] {
            let words = splitter.predict(2, t).unwrap().output_rate;
            let chain = counter.predict(4, words).unwrap().output_rate;
            let dag = m.predict(&HashMap::new(), t).unwrap().sink_output_rate;
            assert!((chain - dag).abs() < 1e-9, "t={t}: {chain} vs {dag}");
        }
    }

    #[test]
    fn diamond_topology_sums_sink_inputs() {
        // spout → a, spout → b, a → sink, b → sink; all α=1, no knees.
        let spec = LogicalSpec::new("d")
            .component("spout", 1)
            .component("a", 1)
            .component("b", 1)
            .component("sink", 1)
            .edge("spout", "a", "shuffle")
            .edge("spout", "b", "shuffle")
            .edge("a", "sink", "shuffle")
            .edge("b", "sink", "shuffle");
        let unbounded = |name: &str| {
            (
                name.to_string(),
                ComponentModel {
                    name: name.to_string(),
                    fitted_parallelism: 1,
                    instance: InstanceModel::from_params(1.0, None),
                    shares: vec![1.0],
                    grouping: GroupingKind::Shuffle,
                },
            )
        };
        let models = HashMap::from([unbounded("a"), unbounded("b"), unbounded("sink")]);
        let m = TopologyModel::new(spec, models).unwrap();
        let pred = m.predict(&HashMap::new(), 10.0).unwrap();
        // The spout's 10 splits 5/5 over its two out edges, and the sink
        // receives both halves.
        assert!((pred.sink_output_rate - 10.0).abs() < 1e-9);
    }

    #[test]
    fn no_saturation_returns_none() {
        let spec = LogicalSpec::new("t")
            .component("spout", 1)
            .component("b", 1)
            .edge("spout", "b", "shuffle");
        let models = HashMap::from([(
            "b".to_string(),
            ComponentModel {
                name: "b".to_string(),
                fitted_parallelism: 1,
                instance: InstanceModel::from_params(2.0, None),
                shares: vec![1.0],
                grouping: GroupingKind::Shuffle,
            },
        )]);
        let m = TopologyModel::new(spec, models).unwrap();
        assert_eq!(m.saturation_source_rate(&HashMap::new()).unwrap(), None);
        let (risk, _) = m.backpressure_risk(&HashMap::new(), 1e12).unwrap();
        assert_eq!(risk, BackpressureRisk::Low);
    }

    #[test]
    fn missing_bolt_model_rejected() {
        let spec = LogicalSpec::new("t")
            .component("spout", 1)
            .component("b", 1)
            .edge("spout", "b", "shuffle");
        assert!(matches!(
            TopologyModel::new(spec, HashMap::new()),
            Err(CoreError::Unknown(_))
        ));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let m = wordcount(2, 4);
        assert!(m.predict(&HashMap::new(), -1.0).is_err());
        assert!(m.predict(&HashMap::new(), f64::NAN).is_err());
        let zero = HashMap::from([("splitter".to_string(), 0u32)]);
        assert!(m.predict(&zero, 1.0).is_err());
    }
}
