//! Model interfaces and the name-keyed registry (the paper's model tier,
//! Fig. 2).
//!
//! Caladrius is "modular and extensible ... users can implement their own
//! models" (§IV). Performance models share the [`PerformanceModel`]
//! interface and are looked up by name; by default the registry contains
//! the paper's two: the topology throughput prediction model and the
//! backpressure evaluation model. The API tier runs every configured
//! model and concatenates the results.

use crate::error::{CoreError, Result};
use crate::model::topology::{BackpressureRisk, TopologyModel};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// A single model's output: scalar results plus free-form notes, the
/// JSON-friendly shape the API tier returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelOutput {
    /// Model name.
    pub model: String,
    /// Named scalar results (rates in tuples/min, risk as 0/1, ...).
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable annotations (bottleneck names, caveats).
    pub notes: Vec<String>,
}

/// Inputs common to all performance models.
#[derive(Debug, Clone)]
pub struct PerformanceQuery<'a> {
    /// The fitted topology model.
    pub topology: &'a TopologyModel,
    /// Proposed parallelism overrides (dry-run `update` semantics).
    pub parallelisms: &'a HashMap<String, u32>,
    /// Offered source rate to evaluate at (tuples/min).
    pub source_rate: f64,
    /// The topology's saturation point under `parallelisms` (Eq. 13),
    /// searched once for every model that needs it.
    pub saturation: Option<f64>,
}

impl<'a> PerformanceQuery<'a> {
    /// Builds the query, running the Eq. 13 saturation search.
    pub fn new(
        topology: &'a TopologyModel,
        parallelisms: &'a HashMap<String, u32>,
        source_rate: f64,
    ) -> Result<Self> {
        Ok(Self {
            topology,
            parallelisms,
            source_rate,
            saturation: topology.saturation_source_rate(parallelisms)?,
        })
    }
}

/// The performance-model interface of the model tier.
pub trait PerformanceModel: Send + Sync {
    /// Registry name.
    fn name(&self) -> &'static str;

    /// Evaluates the model for a query.
    fn run(&self, query: &PerformanceQuery<'_>) -> Result<ModelOutput>;
}

/// The topology throughput prediction model (paper Fig. 2, §IV-B).
#[derive(Debug, Default)]
pub struct ThroughputModel;

impl PerformanceModel for ThroughputModel {
    fn name(&self) -> &'static str {
        "topology_throughput"
    }

    fn run(&self, query: &PerformanceQuery<'_>) -> Result<ModelOutput> {
        let pred = query
            .topology
            .predict(query.parallelisms, query.source_rate)?;
        let mut metrics = BTreeMap::new();
        metrics.insert("source_rate".into(), pred.source_rate);
        metrics.insert("sink_output_rate".into(), pred.sink_output_rate);
        for c in &pred.per_component {
            metrics.insert(format!("{}.input_rate", c.name), c.input_rate);
            metrics.insert(format!("{}.output_rate", c.name), c.output_rate);
            metrics.insert(
                format!("{}.saturated", c.name),
                if c.saturated { 1.0 } else { 0.0 },
            );
        }
        let notes = match &pred.bottleneck {
            Some(b) => vec![format!("bottleneck component: {b}")],
            None => vec!["no component saturates at this rate".into()],
        };
        Ok(ModelOutput {
            model: self.name().into(),
            metrics,
            notes,
        })
    }
}

/// The backpressure evaluation model (paper Fig. 2, Eq. 14).
#[derive(Debug, Default)]
pub struct BackpressureModel;

impl PerformanceModel for BackpressureModel {
    fn name(&self) -> &'static str {
        "backpressure_risk"
    }

    fn run(&self, query: &PerformanceQuery<'_>) -> Result<ModelOutput> {
        let sat = query.saturation;
        let risk = BackpressureRisk::classify(sat, query.source_rate);
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "risk_high".into(),
            if risk == BackpressureRisk::High {
                1.0
            } else {
                0.0
            },
        );
        if let Some(t) = sat {
            metrics.insert("topology_saturation_rate".into(), t);
            metrics.insert(
                "headroom_ratio".into(),
                t / query.source_rate.max(f64::MIN_POSITIVE),
            );
        }
        let notes = vec![match (risk, sat) {
            (BackpressureRisk::High, Some(t)) => format!(
                "HIGH risk: offered rate {:.3e} is at or beyond the saturation point {t:.3e}",
                query.source_rate
            ),
            (BackpressureRisk::Low, Some(t)) => format!(
                "low risk: offered rate {:.3e} is below the saturation point {t:.3e}",
                query.source_rate
            ),
            (_, None) => "no saturation point observable from training data".into(),
        }];
        Ok(ModelOutput {
            model: self.name().into(),
            metrics,
            notes,
        })
    }
}

/// The latency / saturation-headroom model (extension).
///
/// The paper lists latency among the four golden signals but models only
/// throughput and backpressure. Queueing latency explodes as an
/// instance's utilisation `rho = input / capacity` approaches 1, so the
/// actionable signal a model can provide *without* a distributional
/// service-time model is per-component utilisation under the proposed
/// configuration, plus a flag when any component enters the
/// latency-critical band.
#[derive(Debug, Default)]
pub struct LatencyModel;

/// Utilisation above which queueing delay grows steeply (the
/// latency-critical band).
pub const LATENCY_CRITICAL_UTILISATION: f64 = 0.8;

impl PerformanceModel for LatencyModel {
    fn name(&self) -> &'static str {
        "latency_headroom"
    }

    fn run(&self, query: &PerformanceQuery<'_>) -> Result<ModelOutput> {
        let pred = query
            .topology
            .predict(query.parallelisms, query.source_rate)?;
        let mut metrics = BTreeMap::new();
        let mut worst: Option<(String, f64)> = None;
        for c in &pred.per_component {
            let Some(model) = query.topology.component_model(&c.name) else {
                continue; // spout
            };
            let Some(sat) = model.instance.saturation else {
                continue; // no known capacity: utilisation undefined
            };
            // Utilisation of the hottest instance under the proposal.
            let peak_input = c.per_instance_inputs.iter().copied().fold(0.0, f64::max);
            let rho = (peak_input / sat.input_sp).min(1.0);
            metrics.insert(format!("{}.utilisation", c.name), rho);
            if worst.as_ref().is_none_or(|(_, w)| rho > *w) {
                worst = Some((c.name.clone(), rho));
            }
        }
        let mut notes = Vec::new();
        if let Some((name, rho)) = worst {
            metrics.insert("max_utilisation".into(), rho);
            metrics.insert(
                "latency_critical".into(),
                if rho >= LATENCY_CRITICAL_UTILISATION {
                    1.0
                } else {
                    0.0
                },
            );
            notes.push(if rho >= LATENCY_CRITICAL_UTILISATION {
                format!(
                    "{name} runs at {:.0}% utilisation: queueing latency is in its \
                     steep region",
                    rho * 100.0
                )
            } else {
                format!(
                    "hottest component {name} at {:.0}% utilisation: latency headroom OK",
                    rho * 100.0
                )
            });
        } else {
            notes.push("no component with a known capacity: latency not assessable".into());
        }
        Ok(ModelOutput {
            model: self.name().into(),
            metrics,
            notes,
        })
    }
}

/// A name-keyed registry of performance models.
pub struct ModelRegistry {
    models: HashMap<&'static str, Box<dyn PerformanceModel>>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.names())
            .finish()
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self {
            models: HashMap::new(),
        }
    }

    /// The default registry: throughput + backpressure + latency models.
    pub fn with_defaults() -> Self {
        let mut r = Self::empty();
        r.register(Box::new(ThroughputModel));
        r.register(Box::new(BackpressureModel));
        r.register(Box::new(LatencyModel));
        r
    }

    /// Registers (or replaces) a model under its own name.
    pub fn register(&mut self, model: Box<dyn PerformanceModel>) {
        self.models.insert(model.name(), model);
    }

    /// Sorted model names.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.models.keys().copied().collect();
        names.sort_unstable();
        names
    }

    /// Runs one model by name.
    pub fn run(&self, name: &str, query: &PerformanceQuery<'_>) -> Result<ModelOutput> {
        self.models
            .get(name)
            .ok_or_else(|| CoreError::UnknownModel(name.to_string()))?
            .run(query)
    }

    /// Runs every registered model and concatenates the outputs — the
    /// paper's default endpoint behaviour ("the endpoint will run all
    /// model implementations defined in the configuration and concatenate
    /// the results").
    pub fn run_all(&self, query: &PerformanceQuery<'_>) -> Result<Vec<ModelOutput>> {
        self.names()
            .into_iter()
            .map(|n| self.run(n, query))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::component::{ComponentModel, GroupingKind};
    use crate::model::instance::{InstanceModel, Saturation};
    use caladrius_graph::topology_graph::LogicalSpec;

    fn topo_model() -> TopologyModel {
        let spec = LogicalSpec::new("wc")
            .component("spout", 1)
            .component("bolt", 2)
            .edge("spout", "bolt", "shuffle");
        let models = HashMap::from([(
            "bolt".to_string(),
            ComponentModel {
                name: "bolt".into(),
                fitted_parallelism: 2,
                instance: InstanceModel::from_params(
                    2.0,
                    Some(Saturation {
                        input_sp: 10.0,
                        output_st: 20.0,
                    }),
                ),
                shares: vec![0.5, 0.5],
                grouping: GroupingKind::Shuffle,
            },
        )]);
        TopologyModel::new(spec, models).unwrap()
    }

    #[test]
    fn throughput_model_reports_rates_and_bottleneck() {
        let t = topo_model();
        let parallelisms = HashMap::new();
        let q = PerformanceQuery::new(&t, &parallelisms, 8.0).unwrap();
        let out = ThroughputModel.run(&q).unwrap();
        assert_eq!(out.metrics["sink_output_rate"], 16.0);
        assert_eq!(out.metrics["bolt.saturated"], 0.0);
        let q = PerformanceQuery::new(&t, &parallelisms, 50.0).unwrap();
        let out = ThroughputModel.run(&q).unwrap();
        assert_eq!(out.metrics["sink_output_rate"], 40.0);
        assert_eq!(out.metrics["bolt.saturated"], 1.0);
        assert!(out.notes[0].contains("bolt"));
    }

    #[test]
    fn backpressure_model_reports_risk_and_headroom() {
        let t = topo_model();
        let parallelisms = HashMap::new();
        let q = PerformanceQuery::new(&t, &parallelisms, 5.0).unwrap();
        let out = BackpressureModel.run(&q).unwrap();
        assert_eq!(out.metrics["risk_high"], 0.0);
        assert!((out.metrics["topology_saturation_rate"] - 20.0).abs() < 0.01);
        assert!((out.metrics["headroom_ratio"] - 4.0).abs() < 0.01);
        let q = PerformanceQuery::new(&t, &parallelisms, 25.0).unwrap();
        let out = BackpressureModel.run(&q).unwrap();
        assert_eq!(out.metrics["risk_high"], 1.0);
    }

    #[test]
    fn registry_runs_by_name_and_all() {
        let registry = ModelRegistry::with_defaults();
        assert_eq!(
            registry.names(),
            vec![
                "backpressure_risk",
                "latency_headroom",
                "topology_throughput"
            ]
        );
        let t = topo_model();
        let parallelisms = HashMap::new();
        let q = PerformanceQuery::new(&t, &parallelisms, 5.0).unwrap();
        let one = registry.run("topology_throughput", &q).unwrap();
        assert_eq!(one.model, "topology_throughput");
        let all = registry.run_all(&q).unwrap();
        assert_eq!(all.len(), 3);
        assert!(matches!(
            registry.run("nope", &q),
            Err(CoreError::UnknownModel(_))
        ));
    }

    #[test]
    fn latency_model_without_known_capacity() {
        // A bolt whose knee was never observed: utilisation undefined.
        let spec = LogicalSpec::new("t")
            .component("spout", 1)
            .component("bolt", 1)
            .edge("spout", "bolt", "shuffle");
        let models = HashMap::from([(
            "bolt".to_string(),
            ComponentModel {
                name: "bolt".into(),
                fitted_parallelism: 1,
                instance: InstanceModel::from_params(1.0, None),
                shares: vec![1.0],
                grouping: GroupingKind::Shuffle,
            },
        )]);
        let t = TopologyModel::new(spec, models).unwrap();
        let parallelisms = HashMap::new();
        let q = PerformanceQuery::new(&t, &parallelisms, 5.0).unwrap();
        let out = LatencyModel.run(&q).unwrap();
        assert!(out.metrics.is_empty());
        assert!(out.notes[0].contains("not assessable"));
    }

    #[test]
    fn latency_model_reports_utilisation() {
        let t = topo_model();
        let parallelisms = HashMap::new();
        // bolt: 2 instances, per-instance knee 10. Source 8 → 4 each →
        // 40% utilisation.
        let q = PerformanceQuery::new(&t, &parallelisms, 8.0).unwrap();
        let out = LatencyModel.run(&q).unwrap();
        assert!((out.metrics["bolt.utilisation"] - 0.4).abs() < 1e-9);
        assert_eq!(out.metrics["latency_critical"], 0.0);
        // Source 18 → 9 each → 90%: latency-critical.
        let q = PerformanceQuery::new(&t, &parallelisms, 18.0).unwrap();
        let out = LatencyModel.run(&q).unwrap();
        assert!((out.metrics["max_utilisation"] - 0.9).abs() < 1e-9);
        assert_eq!(out.metrics["latency_critical"], 1.0);
        assert!(out.notes[0].contains("steep"));
        // Beyond the knee utilisation clamps at 1.
        let q = PerformanceQuery::new(&t, &parallelisms, 100.0).unwrap();
        let out = LatencyModel.run(&q).unwrap();
        assert_eq!(out.metrics["max_utilisation"], 1.0);
    }

    #[test]
    fn registry_accepts_custom_models() {
        struct Nop;
        impl PerformanceModel for Nop {
            fn name(&self) -> &'static str {
                "nop"
            }
            fn run(&self, _q: &PerformanceQuery<'_>) -> Result<ModelOutput> {
                Ok(ModelOutput {
                    model: "nop".into(),
                    metrics: BTreeMap::new(),
                    notes: vec![],
                })
            }
        }
        let mut registry = ModelRegistry::empty();
        registry.register(Box::new(Nop));
        assert_eq!(registry.names(), vec!["nop"]);
    }
}
