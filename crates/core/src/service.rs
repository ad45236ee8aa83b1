//! The Caladrius service: orchestration of providers, traffic models and
//! performance models into the dry-run evaluation the paper's §V
//! demonstrates (Heron `update --dry-run` semantics: "the new packing
//! plan and the expected throughput is calculated without requiring
//! topology deployment").

use crate::accuracy::{AccuracyMonitor, AccuracySummary, PendingPrediction, PredictionKind};
use crate::config::CaladriusConfig;
use crate::error::{CoreError, Result};
use crate::freshness::{DataStamp, Freshness, StampedCache};
use crate::model::component::{ComponentModel, GroupingKind};
use crate::model::cpu::CpuModel;
use crate::model::topology::{BackpressureRisk, TopologyModel, TopologyPrediction};
use crate::model::traits::{ModelOutput, ModelRegistry, PerformanceQuery};
use crate::providers::metrics::{slide_from, FitWindow, MetricsProvider, TrainingWindow};
use crate::providers::tracker::TopologyTracker;
use crate::traffic::{TrafficForecast, TrafficModelRegistry};
use caladrius_forecast::DataPoint;
use caladrius_graph::topology_graph::TopologyDag;
use caladrius_obs::{Counter, Histogram};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How the evaluation picks the source rate to model against.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceRateSpec {
    /// The mean observed source rate over the most recent minutes.
    Current,
    /// An explicit rate in tuples/min (what-if analysis).
    Fixed(f64),
    /// The forecast peak over the configured horizon — the preemptive
    /// scaling case. `conservative` uses the forecast's upper bound.
    Forecast {
        /// Traffic model name (defaults to the first configured).
        model: Option<String>,
        /// Use the interval's upper bound instead of the point forecast.
        conservative: bool,
    },
}

/// A full dry-run evaluation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationReport {
    /// Topology evaluated.
    pub topology: String,
    /// Parallelism overrides the evaluation assumed.
    pub proposed_parallelisms: BTreeMap<String, u32>,
    /// Source rate (tuples/min) the prediction was made at.
    pub source_rate: f64,
    /// Traffic forecast backing the source rate, when one was requested.
    pub traffic: Option<TrafficForecast>,
    /// Outputs of every configured performance model.
    pub model_outputs: Vec<ModelOutput>,
    /// The detailed throughput prediction.
    pub prediction: TopologyPrediction,
    /// Eq. 14 risk classification.
    pub risk: BackpressureRisk,
    /// The topology saturation point `t'₀`, if observable.
    pub saturation_rate: Option<f64>,
    /// Predicted total CPU load (cores) per bolt under the proposal.
    pub cpu_by_component: BTreeMap<String, f64>,
}

/// Structural summary of a proposed packing plan (paper §III-C1's graph
/// calculation interface).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackingOverview {
    /// Containers used.
    pub containers: usize,
    /// Instances placed.
    pub total_instances: usize,
    /// Largest number of instances on a single container (stream-manager
    /// load concentration — see the `stmgr_ablation` bench for why this
    /// matters).
    pub max_instances_per_container: usize,
    /// Standard deviation of instances per container (0 = perfectly even).
    pub balance_stddev: f64,
    /// Fraction of upstream→downstream instance pairs crossing containers.
    pub remote_pair_fraction: f64,
    /// Distinct instance-level paths through the topology (paper Fig. 1c).
    pub instance_paths: u64,
}

/// Cumulative model-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelCacheStats {
    /// Model reads served the kept window's models (or fit error), found
    /// there or waited for while another reader fitted them.
    pub hits: u64,
    /// Model reads that fitted the kept window's models: the first under
    /// each window stamp, a failed fit included.
    pub misses: u64,
    /// Individual model fits performed (one per component throughput
    /// model, one per CPU model).
    pub fits: u64,
    /// Fits over a kept training window slid forward (the watermark
    /// advanced; only the new minutes were read).
    pub incremental_fits: u64,
    /// Fits over a read of the whole training window.
    pub full_fits: u64,
    /// Capacity-plan searches completed ([`Caladrius::plan_capacity`]).
    pub plans: u64,
    /// Oracle evaluations the plan searches spent in total.
    pub plan_evals: u64,
    /// Capacity-oracle assessments answered from the plan-time memo
    /// (`CachedOracle`) instead of re-running the fitted models.
    pub oracle_hits: u64,
    /// Capacity-oracle assessments computed by the fitted models.
    pub oracle_misses: u64,
}

/// Cumulative plan-cache counters (see [`Caladrius::plan_capacity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Plans served verbatim from the cache (no forecast, no search).
    pub hits: u64,
    /// Plans that had to run the search because no valid entry existed.
    pub misses: u64,
    /// Misses whose search was warm-started from a stale cached plan.
    pub warm_starts: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
}

/// How accesses to the kept training windows (the source history among
/// them) were served, cumulatively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourceHistoryReads {
    /// Served from the kept window: no store read.
    pub hit: u64,
    /// The kept window slid forward by reading only the new minutes.
    pub tail: u64,
    /// Read from the store over the whole training window.
    pub full: u64,
}

/// One topology's training window, kept under the [`DataStamp`] it was
/// read or slid to, with the fit jobs it was assembled for, how it got
/// there, and what is derived from it: the models and, per registered
/// traffic model, the forecast (or the error), each computed by the
/// first caller that asks. A slide empties them.
#[derive(Clone)]
struct KeptWindow {
    stamp: DataStamp,
    jobs: Vec<FitJob>,
    window: TrainingWindow,
    /// Slid from the previous stamp's window, not read whole.
    slid: bool,
    /// Why a slide was tried and failed, when it was.
    fallback: Option<String>,
    models: OnceLock<Result<FittedModels>>,
    forecasts: BTreeMap<String, OnceLock<Result<TrafficForecast>>>,
}

/// A topology's kept window, if any, behind the lock readers take it by.
type WindowSlot = Arc<Mutex<Option<Arc<KeptWindow>>>>;

impl KeptWindow {
    /// The source column, or [`CoreError::NotEnoughObservations`] when
    /// the window holds no usable minute of it.
    fn source(&self, topology: &str) -> Result<&[DataPoint]> {
        match self.window.source() {
            [] => Err(CoreError::NotEnoughObservations {
                what: format!("source history for {topology:?}"),
                needed: 1,
                got: 0,
            }),
            source => Ok(source),
        }
    }
}

/// One component-model fit job: (name, parallelism, upstream emission
/// weights, grouping).
type FitJob = (String, u32, Vec<(String, f64)>, GroupingKind);

/// Per-bolt fit jobs in declaration order, with per-edge emission
/// weights derived from each upstream's out-degree.
fn fit_jobs(spec: &caladrius_graph::LogicalSpec, dag: &TopologyDag) -> Vec<FitJob> {
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); dag.len()];
    for (e, &(_, to)) in dag.edges().iter().enumerate() {
        in_edges[to].push(e);
    }
    (0..dag.len())
        .filter(|&v| !in_edges[v].is_empty()) // spouts have none
        .map(|v| {
            let upstreams: Vec<(String, f64)> = in_edges[v]
                .iter()
                .map(|&e| {
                    let from = dag.edges()[e].0;
                    let weight = 1.0 / dag.successors(from).len() as f64;
                    (dag.name(from).to_string(), weight)
                })
                .collect();
            let grouping = GroupingKind::from_name(&spec.edges[in_edges[v][0]].2);
            (
                dag.name(v).to_string(),
                dag.parallelism(v),
                upstreams,
                grouping,
            )
        })
        .collect()
}

/// Summarises the round-robin packing of `dag`'s instances over
/// `containers` containers (Heron's default order: component declaration
/// order, then instance index). Instance `k` of that sequence lands on
/// container `k % containers`, so a component whose first instance takes
/// slot `first` places `instances_on(c, first, p, containers)` of its `p`
/// instances on container `c`, and the summary works from those counts.
fn packing_summary(dag: &TopologyDag, containers: usize) -> Result<PackingOverview> {
    let mut first_slot = Vec::with_capacity(dag.len());
    let mut total_instances = 0usize;
    for v in 0..dag.len() {
        first_slot.push(total_instances);
        total_instances += dag.parallelism(v) as usize;
    }
    let counts: Vec<f64> = (0..containers)
        .map(|c| instances_on(c, 0, total_instances, containers) as f64)
        .collect();
    let mean = counts.iter().sum::<f64>() / counts.len() as f64;
    let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;

    // Remote-pair fraction: how many upstream→downstream instance pairs
    // cross containers. A pair is local when both ends share one.
    let on = |v: usize, c: usize| {
        instances_on(c, first_slot[v], dag.parallelism(v) as usize, containers) as u128
    };
    let mut pairs = 0u128;
    let mut remote = 0u128;
    for &(from, to) in dag.edges() {
        let all = dag.parallelism(from) as u128 * dag.parallelism(to) as u128;
        let local: u128 = (0..containers).map(|c| on(from, c) * on(to, c)).sum();
        pairs += all;
        remote += all - local;
    }

    Ok(PackingOverview {
        containers,
        total_instances,
        max_instances_per_container: counts.iter().copied().fold(0.0, f64::max) as usize,
        balance_stddev: var.sqrt(),
        remote_pair_fraction: if pairs > 0 {
            remote as f64 / pairs as f64
        } else {
            0.0
        },
        instance_paths: dag.instance_path_count()?,
    })
}

/// How many of `count` consecutive round-robin slots starting at `first`
/// fall on container `c` of `containers`.
fn instances_on(c: usize, first: usize, count: usize, containers: usize) -> usize {
    let offset = (c + containers - first % containers) % containers;
    count / containers + usize::from(offset < count % containers)
}

/// `Err(InvalidRequest)` when `p` instances of `component` exceed
/// [`caladrius_planner::MAX_PARALLELISM`].
fn within_parallelism_bound(component: &str, p: u32) -> Result<()> {
    use caladrius_planner::MAX_PARALLELISM;
    if p > MAX_PARALLELISM {
        return Err(CoreError::InvalidRequest(format!(
            "parallelism of {component:?} is {p}, above the bound of {MAX_PARALLELISM}"
        )));
    }
    Ok(())
}

/// What [`Caladrius::fitted_models`] hands out: the fitted topology model
/// and the per-component CPU models, shared with the cache.
pub type FittedModels = (Arc<TopologyModel>, Arc<HashMap<String, CpuModel>>);

/// The Caladrius performance-modelling service.
pub struct Caladrius {
    config: CaladriusConfig,
    metrics: Arc<dyn MetricsProvider>,
    tracker: Arc<dyn TopologyTracker>,
    traffic: TrafficModelRegistry,
    performance: ModelRegistry,
    /// Per topology: the training window every model and forecast is
    /// fitted over, with them, in a slot whose lock a reader holds while
    /// it reads the stamp and serves, slides or rebuilds the window
    /// ([`Caladrius::training_window`]).
    windows: Mutex<HashMap<String, WindowSlot>>,
    /// Finished plan timelines per `(topology, plan_request_key)`,
    /// bounded by `plan_cache_capacity`.
    plans: StampedCache<(String, u64), caladrius_planner::PlanTimeline>,
    /// Cache/fit/plan counters (and the accuracy monitor's series) live
    /// in the process-wide obs registry, labelled `service="<scope>"` so
    /// [`Caladrius::model_cache_stats`] stays exact per instance while
    /// `/metrics/service` sees every instance in the process. Dropping
    /// the service removes them.
    scope: String,
    cache_hits: Counter,
    cache_misses: Counter,
    model_fits: Counter,
    incremental_fits: Counter,
    full_fits: Counter,
    plans_run: Counter,
    plan_evals: Counter,
    oracle_cache_hits: Counter,
    oracle_cache_misses: Counter,
    plan_cache_hits: Counter,
    plan_cache_misses: Counter,
    plan_warm_starts: Counter,
    plan_cache_evictions: Counter,
    history_hits: Counter,
    history_tail_reads: Counter,
    history_full_reads: Counter,
    evaluate_duration: Histogram,
    fit_duration: Histogram,
    plan_duration: Histogram,
    accuracy: AccuracyMonitor,
}

impl std::fmt::Debug for Caladrius {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Caladrius")
            .field("config", &self.config)
            .field("traffic_models", &self.traffic.names())
            .field("performance_models", &self.performance.names())
            .finish_non_exhaustive()
    }
}

impl Drop for Caladrius {
    fn drop(&mut self) {
        caladrius_obs::global_registry().forget_labelled("service", &self.scope);
    }
}

impl Caladrius {
    /// Creates a service with default config and model registries.
    pub fn new(metrics: Arc<dyn MetricsProvider>, tracker: Arc<dyn TopologyTracker>) -> Self {
        Self::with_config(metrics, tracker, CaladriusConfig::default())
    }

    /// Creates a service with an explicit configuration.
    pub fn with_config(
        metrics: Arc<dyn MetricsProvider>,
        tracker: Arc<dyn TopologyTracker>,
        config: CaladriusConfig,
    ) -> Self {
        Self::with_config_labelled(metrics, tracker, config, &[])
    }

    /// [`Caladrius::with_config`] with extra labels on every obs series
    /// this instance registers (cache counters, fit/plan histograms).
    /// The fleet tier labels each shard's service `shard="<index>"` so
    /// one `/metrics` exposition separates per-shard cache and plan
    /// behaviour; the per-instance `service` label is always present.
    pub fn with_config_labelled(
        metrics: Arc<dyn MetricsProvider>,
        tracker: Arc<dyn TopologyTracker>,
        config: CaladriusConfig,
        extra_labels: &[(&str, &str)],
    ) -> Self {
        let registry = caladrius_obs::global_registry();
        let scope = caladrius_obs::next_scope_id().to_string();
        let mut labels: Vec<(&str, &str)> = vec![("service", &scope)];
        labels.extend_from_slice(extra_labels);
        registry.describe(
            "caladrius_model_cache_hits_total",
            "Model reads served the kept window's fitted models",
        );
        registry.describe(
            "caladrius_model_cache_misses_total",
            "Model reads that fitted the kept window's models",
        );
        registry.describe(
            "caladrius_model_fits_total",
            "Individual component/CPU model fits performed",
        );
        registry.describe(
            "caladrius_model_fits_incremental_total",
            "Model fits over a kept training window slid forward by a tail read",
        );
        registry.describe(
            "caladrius_model_fits_full_total",
            "Model fits over a read of the whole training window",
        );
        registry.describe("caladrius_plans_total", "Capacity-plan searches completed");
        registry.describe(
            "caladrius_plan_oracle_evals_total",
            "Oracle evaluations spent inside plan searches",
        );
        registry.describe(
            "caladrius_oracle_cache_hits_total",
            "Capacity-oracle assessments answered from the plan-time memo",
        );
        registry.describe(
            "caladrius_oracle_cache_misses_total",
            "Capacity-oracle assessments computed by the fitted models",
        );
        registry.describe(
            "caladrius_plan_cache_hits_total",
            "Capacity plans served verbatim from the plan cache",
        );
        registry.describe(
            "caladrius_plan_cache_misses_total",
            "Capacity plans that had to run the horizon search",
        );
        registry.describe(
            "caladrius_plan_warm_starts_total",
            "Plan searches warm-started from a stale cached timeline",
        );
        registry.describe(
            "caladrius_plan_cache_evictions_total",
            "Plan-cache entries dropped by the LRU bound",
        );
        registry.describe(
            "caladrius_source_history_reads_total",
            "Training-window accesses by path: kept window (hit), new minutes only (tail), whole window (full)",
        );
        registry.describe(
            "caladrius_evaluate_duration_seconds",
            "Wall-clock time of Caladrius::evaluate",
        );
        registry.describe(
            "caladrius_model_fit_duration_seconds",
            "Wall-clock time of a model fit over the kept window",
        );
        registry.describe(
            "caladrius_plan_duration_seconds",
            "Wall-clock time of Caladrius::plan_capacity",
        );
        let plans = StampedCache::new(config.plan_cache_capacity);
        let history_reads = |path| {
            let mut labels = labels.clone();
            labels.push(("path", path));
            registry.counter("caladrius_source_history_reads_total", &labels)
        };
        Self {
            config,
            metrics,
            tracker,
            traffic: TrafficModelRegistry::with_defaults(),
            performance: ModelRegistry::with_defaults(),
            windows: Mutex::default(),
            plans,
            cache_hits: registry.counter("caladrius_model_cache_hits_total", &labels),
            cache_misses: registry.counter("caladrius_model_cache_misses_total", &labels),
            model_fits: registry.counter("caladrius_model_fits_total", &labels),
            incremental_fits: registry.counter("caladrius_model_fits_incremental_total", &labels),
            full_fits: registry.counter("caladrius_model_fits_full_total", &labels),
            plans_run: registry.counter("caladrius_plans_total", &labels),
            plan_evals: registry.counter("caladrius_plan_oracle_evals_total", &labels),
            oracle_cache_hits: registry.counter("caladrius_oracle_cache_hits_total", &labels),
            oracle_cache_misses: registry.counter("caladrius_oracle_cache_misses_total", &labels),
            plan_cache_hits: registry.counter("caladrius_plan_cache_hits_total", &labels),
            plan_cache_misses: registry.counter("caladrius_plan_cache_misses_total", &labels),
            plan_warm_starts: registry.counter("caladrius_plan_warm_starts_total", &labels),
            plan_cache_evictions: registry.counter("caladrius_plan_cache_evictions_total", &labels),
            history_hits: history_reads("hit"),
            history_tail_reads: history_reads("tail"),
            history_full_reads: history_reads("full"),
            evaluate_duration: registry.histogram("caladrius_evaluate_duration_seconds", &labels),
            fit_duration: registry.histogram("caladrius_model_fit_duration_seconds", &labels),
            plan_duration: registry.histogram("caladrius_plan_duration_seconds", &labels),
            accuracy: AccuracyMonitor::new(&scope),
            scope,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CaladriusConfig {
        &self.config
    }

    /// Mutable access to the traffic-model registry (to plug custom
    /// models in, per the paper's extensibility goal). Kept windows and
    /// plans go: their forecasts came from the factories as they were.
    pub fn traffic_registry_mut(&mut self) -> &mut TrafficModelRegistry {
        self.invalidate_model_cache(None);
        &mut self.traffic
    }

    /// Mutable access to the performance-model registry.
    pub fn performance_registry_mut(&mut self) -> &mut ModelRegistry {
        &mut self.performance
    }

    /// Known topology names.
    pub fn topologies(&self) -> Vec<String> {
        self.tracker.topologies()
    }

    /// Shared handle to the metrics provider (the API tier's raw metrics
    /// endpoint reads through it).
    pub fn metrics_provider(&self) -> Arc<dyn MetricsProvider> {
        Arc::clone(&self.metrics)
    }

    /// Structural assessment of a proposed packing — the paper's "graph
    /// calculation interface for estimating properties of proposed
    /// packing plans" (§III-C1). Parallelism overrides are applied, the
    /// instances are round-robin packed over `containers`, and the
    /// resulting plan is summarised.
    pub fn packing_overview(
        &self,
        topology: &str,
        proposed_parallelisms: &HashMap<String, u32>,
        containers: usize,
    ) -> Result<PackingOverview> {
        if containers == 0 {
            return Err(CoreError::InvalidRequest(
                "containers must be at least 1".into(),
            ));
        }
        // The tracked spec's own errors come before the proposal's.
        let mut spec = self.tracker.logical_spec(topology)?;
        TopologyDag::new(&spec)?;
        for (name, p) in &mut spec.components {
            if let Some(&proposed) = proposed_parallelisms.get(name.as_str()) {
                if proposed == 0 {
                    return Err(CoreError::InvalidRequest(format!(
                        "parallelism of {name:?} must be positive"
                    )));
                }
                *p = proposed;
            }
        }
        packing_summary(&TopologyDag::new(&spec)?, containers)
    }

    /// First minute of the training window ending at minute `to`.
    fn window_start(&self, to: i64) -> i64 {
        to - i64::from(self.config.source_window_minutes - 1) * 60_000
    }

    /// The versions of `topology`'s data and plan right now.
    fn data_stamp(&self, topology: &str) -> Result<DataStamp> {
        Ok(DataStamp {
            watermark: self
                .metrics
                .latest_minute(topology)
                .ok_or_else(|| CoreError::Unknown(format!("no metrics for {topology:?}")))?,
            plan_version: self.tracker.last_updated(topology)?,
            truncation_gen: self.metrics.truncation_generation(topology),
        })
    }

    /// The topology's offered-load history over the training window:
    /// the kept window's source column.
    pub fn source_history(&self, topology: &str) -> Result<Vec<DataPoint>> {
        let kept = self.training_window(topology)?;
        Ok(kept.source(topology)?.to_vec())
    }

    /// The topology's training window ending at the store's newest
    /// minute, kept per topology: the one place the Hit / Stale / Cold
    /// decision is made ([`DataStamp::freshness`]).
    ///
    /// * **Hit** — stamp unchanged: the kept window, no store read.
    /// * **Stale** — only the watermark advanced: one read of the minutes
    ///   after the kept ones that lie in the window ([`slide_from`])
    ///   slides every column ([`TrainingWindow::slide`]).
    /// * **Cold** — anything else, a failed slide included (other fit
    ///   jobs, other instances, a read error; the window records why):
    ///   a read of the whole window.
    ///
    /// All three give, point for point, what a read of the whole window
    /// gives, with one caveat: a sample written at or below the watermark
    /// after it was read stays invisible until the window goes cold.
    ///
    /// All of it runs under the topology's slot lock, the stamp read
    /// included: readers in a new minute wait for the first one's slide,
    /// then share its window and what is derived on it, fitted outside.
    fn training_window(&self, topology: &str) -> Result<Arc<KeptWindow>> {
        let slot = self.windows.lock().get(topology).cloned();
        let slot = match slot {
            Some(slot) => slot,
            // Only a topology with data and a plan gets a slot.
            None => {
                self.data_stamp(topology)?;
                Arc::clone(self.windows.lock().entry(topology.into()).or_default())
            }
        };
        let mut slot = slot.lock();
        let now = self.data_stamp(topology)?;
        if let Some(kept) = slot.as_ref().filter(|kept| kept.stamp == now) {
            self.history_hits.inc();
            return Ok(Arc::clone(kept));
        }
        let stale = slot.take();
        let spec = self.tracker.logical_spec(topology)?;
        let jobs = fit_jobs(&spec, &TopologyDag::new(&spec)?);
        let (from, to) = (self.window_start(now.watermark), now.watermark);
        let bolts = || {
            jobs.iter()
                .map(|(name, _, up, _)| (name.as_str(), up.as_slice()))
        };
        let read = |read_from| {
            let read = FitWindow::read(self.metrics.as_ref(), topology, &spec, read_from, to)?;
            Ok::<_, CoreError>(TrainingWindow::assemble(&read, bolts()))
        };
        let mut fallback = None;
        if let Some(mut kept) = stale.filter(|kept| kept.stamp.freshness(&now) == Freshness::Stale)
        {
            let slid = if kept.jobs != jobs {
                Err(CoreError::Unknown(format!(
                    "the fit jobs of {topology:?} changed under an unchanged plan version"
                )))
            } else {
                // In place: nothing else holds the window unless a caller
                // is still fitting over the previous stamp's.
                let entry = Arc::make_mut(&mut kept);
                let previous = std::mem::replace(&mut entry.stamp, now);
                (entry.slid, entry.fallback) = (true, None);
                entry.models.take();
                entry.forecasts.values_mut().for_each(|f| drop(f.take()));
                read(slide_from(previous.watermark, from))
                    .and_then(|delta| entry.window.slide(delta, from))
            };
            match slid {
                Ok(()) => {
                    self.history_tail_reads.inc();
                    *slot = Some(Arc::clone(&kept));
                    return Ok(kept);
                }
                Err(why) => fallback = Some(why.to_string()),
            }
        }
        self.history_full_reads.inc();
        let window = read(from)?;
        let forecasts = self.traffic.names().into_iter();
        let kept = Arc::new(KeptWindow {
            stamp: now,
            jobs,
            window,
            slid: false,
            fallback,
            models: OnceLock::new(),
            forecasts: forecasts.map(|name| (name, OnceLock::new())).collect(),
        });
        *slot = Some(Arc::clone(&kept));
        Ok(kept)
    }

    /// How source-history reads were served so far.
    pub fn source_history_reads(&self) -> SourceHistoryReads {
        SourceHistoryReads {
            hit: self.history_hits.get(),
            tail: self.history_tail_reads.get(),
            full: self.history_full_reads.get(),
        }
    }

    /// Forecasts future source throughput with the named models (or the
    /// configured defaults), over the configured horizon.
    pub fn forecast_traffic(
        &self,
        topology: &str,
        models: Option<&[String]>,
    ) -> Result<Vec<TrafficForecast>> {
        let names: Vec<String> = match models {
            Some(names) => names.to_vec(),
            None => self.config.traffic_models.clone(),
        };
        // The first caller fits a fresh forecaster over the window's source
        // column, which is what a fresh service fits, bit for bit.
        let kept = self.training_window(topology)?;
        names
            .iter()
            .map(|name| {
                let forecast = kept
                    .forecasts
                    .get(name)
                    .ok_or_else(|| CoreError::UnknownModel(name.clone()))?;
                let forecast = forecast.get_or_init(|| {
                    let history = kept.source(topology)?;
                    self.traffic
                        .forecast(name, history, &self.horizon_after(history))
                });
                forecast.clone()
            })
            .collect()
    }

    fn horizon_after(&self, history: &[DataPoint]) -> Vec<i64> {
        let last = history.last().map(|p| p.ts).unwrap_or(0);
        (1..=i64::from(self.config.forecast_horizon_minutes))
            .map(|m| last + m * 60_000)
            .collect()
    }

    /// The topology throughput model fitted over the training window
    /// ([`Caladrius::fitted_models`]).
    pub fn fit_topology_model(&self, topology: &str) -> Result<TopologyModel> {
        Ok(Arc::unwrap_or_clone(self.fitted_models(topology)?.0))
    }

    /// Fits a CPU model per bolt from the training window. Bolts whose
    /// observations cannot support a fit (no data, or no input-rate
    /// variance to regress on) are skipped rather than failing the whole
    /// report ([`Caladrius::fitted_models`]).
    pub fn fit_cpu_models(&self, topology: &str) -> Result<HashMap<String, CpuModel>> {
        Ok(Arc::unwrap_or_clone(self.fitted_models(topology)?.1))
    }

    /// The fit: every model over the whole of `kept`'s window, counted as
    /// `incremental_fits` when the window got to its stamp by a slide and
    /// as `full_fits` when by a read of the whole window. Either way the
    /// models are fitted over the same observations in the same order, so
    /// a warm service's model is a fresh service's, bit for bit.
    ///
    /// A throughput model with nothing to fit from fails the fit
    /// ([`CoreError::NotEnoughObservations`]); a CPU model in that state
    /// is skipped (no data, or no input-rate variance to regress on). A
    /// failed fit counts nothing. The `core.fit` span says how the window
    /// got there (`mode`: `incremental` or `full`) and, when a slide
    /// failed, why (`fallback`).
    fn fit(&self, topology: &str, kept: &KeptWindow) -> Result<FittedModels> {
        let started = Instant::now();
        let mut span = caladrius_obs::global_span("core.fit");
        span.field("topology", topology);
        span.field("mode", if kept.slid { "incremental" } else { "full" });
        if let Some(why) = &kept.fallback {
            span.field("fallback", why);
        }
        let mut models = HashMap::new();
        let mut cpu_models = HashMap::new();
        for ((name, parallelism, _, grouping), bolt) in kept.jobs.iter().zip(kept.window.bolts()) {
            let model =
                ComponentModel::fit(name, *parallelism, grouping.clone(), bolt.component())?;
            match CpuModel::fit(bolt.cpu()) {
                Ok(cpu_model) => {
                    cpu_models.insert(name.clone(), cpu_model);
                }
                Err(CoreError::NotEnoughObservations { .. }) => {}
                Err(other) => return Err(other),
            }
            models.insert(name.clone(), model);
        }
        let fits = (models.len() + cpu_models.len()) as u64;
        let spec = self.tracker.logical_spec(topology)?;
        let topology_model = Arc::new(TopologyModel::new(spec, models)?);
        self.model_fits.add(fits);
        if kept.slid {
            self.incremental_fits.add(fits);
        } else {
            self.full_fits.add(fits);
        }
        self.fit_duration.record_duration(started.elapsed());
        Ok((topology_model, Arc::new(cpu_models)))
    }

    /// Fitted models for `topology`, derived on the training window
    /// (`Caladrius::training_window`): the caller that fits them is a
    /// cache miss, one that finds them or waits for another to fit them a
    /// hit. A failed fit is served as it is until the window moves.
    pub fn fitted_models(&self, topology: &str) -> Result<FittedModels> {
        let kept = self.training_window(topology)?;
        let mut hit = true;
        let models = kept.models.get_or_init(|| {
            hit = false;
            self.cache_misses.inc();
            self.fit(topology, &kept)
        });
        self.cache_hits.add(u64::from(hit));
        models.clone()
    }

    /// Resolves a requested traffic-model name against the configured
    /// default.
    fn resolve_traffic_model(&self, requested: Option<&str>) -> Result<String> {
        requested
            .map(String::from)
            .or_else(|| self.config.traffic_models.first().cloned())
            .ok_or_else(|| CoreError::InvalidRequest("no traffic model configured".into()))
    }

    /// Cumulative cache and fit counters.
    pub fn model_cache_stats(&self) -> ModelCacheStats {
        ModelCacheStats {
            hits: self.cache_hits.get(),
            misses: self.cache_misses.get(),
            fits: self.model_fits.get(),
            incremental_fits: self.incremental_fits.get(),
            full_fits: self.full_fits.get(),
            plans: self.plans_run.get(),
            plan_evals: self.plan_evals.get(),
            oracle_hits: self.oracle_cache_hits.get(),
            oracle_misses: self.oracle_cache_misses.get(),
        }
    }

    /// Cumulative plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.plan_cache_hits.get(),
            misses: self.plan_cache_misses.get(),
            warm_starts: self.plan_warm_starts.get(),
            evictions: self.plan_cache_evictions.get(),
        }
    }

    /// Plan-cache lookup for `topology` under `request`, without fitting
    /// models or forecasting: the cached timeline, if there is one, and
    /// how it stands against the store. A [`Freshness::Hit`] timeline is
    /// byte-identical to what [`Caladrius::plan_capacity`] would return
    /// (and is counted as a cache hit); any other entry means a search
    /// would warm-start from it; `None` means it would run cold. The
    /// fleet tier uses this to partition topologies into unchanged /
    /// drifted / new before deciding what to schedule on the plan pool.
    pub fn plan_cache_lookup(
        &self,
        topology: &str,
        request: &crate::capacity::CapacityPlanRequest,
    ) -> Result<Option<(Freshness, caladrius_planner::PlanTimeline)>> {
        let model_name = self.resolve_traffic_model(request.traffic_model.as_deref())?;
        let request_key =
            crate::capacity::plan_request_key(&model_name, request.conservative, &request.planner);
        let key = (topology.to_string(), request_key);
        Ok(self.plan_cache_read(&key, &self.data_stamp(topology)?))
    }

    /// Reads the plan cache under `now`, counting a Hit.
    fn plan_cache_read(
        &self,
        key: &(String, u64),
        now: &DataStamp,
    ) -> Option<(Freshness, caladrius_planner::PlanTimeline)> {
        let found = self.plans.read(key, now, Clone::clone);
        if matches!(found, Some((Freshness::Hit, _))) {
            self.plan_cache_hits.inc();
        }
        found
    }

    /// Drops kept windows with their models and forecasts (all
    /// topologies, or one). Invalidation is otherwise automatic — new
    /// data or plan versions force refits — so this is only needed when a
    /// provider is swapped out from under the service. Cached plans for
    /// the same scope go too: they were searched against those models.
    pub fn invalidate_model_cache(&self, topology: Option<&str>) {
        match topology {
            Some(name) => drop(self.windows.lock().remove(name)),
            None => self.windows.lock().clear(),
        }
        self.plans.forget(topology, |(name, _)| name);
    }

    fn resolve_source_rate(
        &self,
        topology: &str,
        spec: &SourceRateSpec,
    ) -> Result<(f64, Option<TrafficForecast>)> {
        match spec {
            SourceRateSpec::Fixed(rate) => {
                if !(rate.is_finite() && *rate >= 0.0) {
                    return Err(CoreError::InvalidRequest(format!(
                        "fixed source rate must be non-negative, got {rate}"
                    )));
                }
                Ok((*rate, None))
            }
            SourceRateSpec::Current => {
                let kept = self.training_window(topology)?;
                let history = kept.source(topology)?;
                let recent: Vec<f64> = history.iter().rev().take(5).map(|p| p.y).collect();
                Ok((recent.iter().sum::<f64>() / recent.len() as f64, None))
            }
            SourceRateSpec::Forecast {
                model,
                conservative,
            } => {
                let name = self.resolve_traffic_model(model.as_deref())?;
                let forecast = self
                    .forecast_traffic(topology, Some(std::slice::from_ref(&name)))?
                    .pop()
                    .expect("one model requested, one forecast returned");
                let rate = if *conservative {
                    forecast.peak_upper
                } else {
                    forecast.peak
                };
                Ok((rate.max(0.0), Some(forecast)))
            }
        }
    }

    /// Runs the full dry-run evaluation: fit models from live metrics
    /// (or reuse cached fits while the data watermark and packing plan
    /// are unchanged), resolve the source rate, run every configured
    /// performance model, classify backpressure risk and predict CPU
    /// loads. A proposal of more than [`caladrius_planner::MAX_PARALLELISM`]
    /// instances of a component is an [`CoreError::InvalidRequest`].
    pub fn evaluate(
        &self,
        topology: &str,
        proposed_parallelisms: &HashMap<String, u32>,
        source: &SourceRateSpec,
    ) -> Result<EvaluationReport> {
        for (name, &p) in proposed_parallelisms {
            within_parallelism_bound(name, p)?;
        }
        self.score_pending();
        let mut span = caladrius_obs::global_span("core.evaluate");
        span.field("topology", topology);
        let started = Instant::now();
        let (model, cpu_models) = self.fitted_models(topology)?;
        let (source_rate, traffic) = self.resolve_source_rate(topology, source)?;

        // One saturation search serves the configured models and the
        // report's own verdict.
        let query = PerformanceQuery::new(&model, proposed_parallelisms, source_rate)?;
        let mut model_outputs = Vec::new();
        for name in &self.config.performance_models {
            model_outputs.push(self.performance.run(name, &query)?);
        }
        let prediction = model.predict(proposed_parallelisms, source_rate)?;
        let saturation_rate = query.saturation;
        let risk = BackpressureRisk::classify(saturation_rate, source_rate);

        let mut cpu_by_component = BTreeMap::new();
        for report in &prediction.per_component {
            let (Some(cpu), Some(component)) = (
                cpu_models.get(&report.name),
                model.component_model(&report.name),
            ) else {
                continue;
            };
            cpu_by_component.insert(
                report.name.clone(),
                cpu.predict_component(component, report.parallelism, report.source_rate)?,
            );
        }

        // Register what this evaluation claimed about the future so the
        // accuracy monitor can score it once the window closes.
        if let Some(forecast) = &traffic {
            if let (Some(first), Some(last)) = (forecast.points.first(), forecast.points.last()) {
                let window_start = first.ts;
                let window_end = last.ts + 60_000;
                self.accuracy.record(PendingPrediction {
                    topology: topology.to_string(),
                    model: forecast.model.clone(),
                    kind: PredictionKind::Traffic,
                    window_start,
                    window_end,
                    predicted: source_rate,
                });
                // Throughput claims are only realizable for the deployed
                // parallelism — hypothetical proposals never run.
                if proposed_parallelisms.is_empty() {
                    self.accuracy.record(PendingPrediction {
                        topology: topology.to_string(),
                        model: "topology_model".to_string(),
                        kind: PredictionKind::Throughput,
                        window_start,
                        window_end,
                        predicted: prediction.sink_output_rate,
                    });
                }
            }
        }
        self.evaluate_duration.record_duration(started.elapsed());

        Ok(EvaluationReport {
            topology: topology.to_string(),
            proposed_parallelisms: proposed_parallelisms
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            source_rate,
            traffic,
            model_outputs,
            prediction,
            risk,
            saturation_rate,
            cpu_by_component,
        })
    }

    /// Preemptive-scaling helper: finds the smallest parallelism for
    /// `component` (all else unchanged) that keeps backpressure risk low
    /// at `source_rate`, up to `max_parallelism`. Returns `None` when no
    /// parallelism in range suffices. A `max_parallelism` above
    /// [`caladrius_planner::MAX_PARALLELISM`] is an
    /// [`CoreError::InvalidRequest`].
    ///
    /// Raising a component's parallelism weakly raises the topology
    /// saturation point, so "risk is Low at parallelism p" is a
    /// monotone predicate — the boundary is found by binary search
    /// (O(log max) risk evaluations instead of the old linear scan).
    pub fn recommend_parallelism(
        &self,
        topology: &str,
        component: &str,
        source_rate: f64,
        max_parallelism: u32,
    ) -> Result<Option<u32>> {
        within_parallelism_bound(component, max_parallelism)?;
        let (model, _) = self.fitted_models(topology)?;
        let mut failure: Option<CoreError> = None;
        let found = caladrius_planner::min_satisfying(1, max_parallelism, |p| {
            let proposal = HashMap::from([(component.to_string(), p)]);
            match model.backpressure_risk(&proposal, source_rate) {
                Ok((risk, _)) => Ok(risk == BackpressureRisk::Low),
                Err(e) => {
                    failure = Some(e);
                    Err(caladrius_planner::PlanError::Oracle(String::new()))
                }
            }
        });
        match (found, failure) {
            (_, Some(e)) => Err(e),
            (Ok(found), None) => Ok(found),
            (Err(e), None) => Err(e.into()),
        }
    }

    /// Horizon capacity planning: forecasts source traffic, chunks the
    /// horizon into windows, and searches the joint parallelism space of
    /// every modelled bolt for the minimum-cost assignment that keeps
    /// backpressure risk Low (with the request's CPU headroom) at each
    /// window's peak forecast rate. Returns the hysteresis-smoothed plan
    /// timeline with per-window scale actions; fitted models are served
    /// from the watermark-keyed cache.
    ///
    /// Validate a returned timeline against the simulator with
    /// [`caladrius_planner::replay_timeline`].
    pub fn plan_capacity(
        &self,
        topology: &str,
        request: &crate::capacity::CapacityPlanRequest,
    ) -> Result<caladrius_planner::PlanTimeline> {
        use crate::capacity::{forecast_windows, plan_request_key, CachedOracle, ModelOracle};
        self.score_pending();
        let mut span = caladrius_obs::global_span("core.plan");
        span.field("topology", topology);
        let started = Instant::now();
        request.planner.validate().map_err(CoreError::from)?;

        // Plan-cache read before any model or forecast work: models,
        // forecast and search are deterministic functions of the data the
        // stamp versions, so an entry under an equal stamp is what the
        // search would reproduce. Any other entry seeds the search.
        let model_name = self.resolve_traffic_model(request.traffic_model.as_deref())?;
        let request_key = plan_request_key(&model_name, request.conservative, &request.planner);
        let key = (topology.to_string(), request_key);
        let now = self.data_stamp(topology)?;
        let warm = match self.plan_cache_read(&key, &now) {
            Some((Freshness::Hit, timeline)) => {
                span.field("plan_cache", "hit");
                self.plan_duration.record_duration(started.elapsed());
                return Ok(timeline);
            }
            seed => seed.map(|(_, previous)| previous),
        };

        let (model, cpu_models) = self.fitted_models(topology)?;
        let forecast = self
            .forecast_traffic(topology, Some(std::slice::from_ref(&model_name)))?
            .pop()
            .expect("one model requested, one forecast returned");
        let windows = forecast_windows(
            &forecast,
            request.planner.window_minutes,
            request.conservative,
        )?;
        self.plan_cache_misses.inc();

        // Plan the modelled bolts in declaration order; the current
        // deployment seeds the window-0 action diff.
        let initial: Vec<(String, u32)> = self
            .tracker
            .logical_spec(topology)?
            .components
            .iter()
            .filter(|(name, _)| model.component_model(name).is_some())
            .map(|(name, p)| (name.clone(), *p))
            .collect();
        let components: Vec<String> = initial.iter().map(|(name, _)| name.clone()).collect();
        if components.is_empty() {
            return Err(CoreError::Unpredictable(format!(
                "no modelled bolts to plan for {topology:?}"
            )));
        }

        // The memo makes repeated assessments — smoothing probes, binary
        // searches revisiting a configuration, adjacent same-rate
        // windows — free across the whole plan.
        let oracle = CachedOracle::with_counters(
            ModelOracle::new(Arc::clone(&model), Arc::clone(&cpu_models), components),
            self.oracle_cache_hits.clone(),
            self.oracle_cache_misses.clone(),
        );
        if warm.is_some() {
            self.plan_warm_starts.inc();
            span.field("plan_cache", "warm-start");
        }
        let timeline = caladrius_planner::plan_horizon_warm(
            &oracle,
            &initial,
            &windows,
            &request.planner,
            warm.as_ref(),
        )
        .map_err(CoreError::from)?;
        self.plans_run.inc();
        self.plan_evals.add(timeline.oracle_evals);
        span.field("oracle_evals", timeline.oracle_evals);
        let evicted = self.plans.put(key, now, timeline.clone());
        self.plan_cache_evictions.add(evicted);
        // Each planning window is a dated traffic claim; register them
        // all for future scoring.
        for window in &windows {
            self.accuracy.record(PendingPrediction {
                topology: topology.to_string(),
                model: model_name.clone(),
                kind: PredictionKind::Traffic,
                window_start: window.start_ts,
                window_end: window.end_ts,
                predicted: window.peak_rate,
            });
        }
        self.plan_duration.record_duration(started.elapsed());
        Ok(timeline)
    }

    /// Scores every pending forecast-accuracy prediction whose window
    /// has closed (the metrics watermark passed its end), feeding APE
    /// histograms per (topology, model, kind). Runs automatically at the
    /// top of [`Caladrius::evaluate`] and [`Caladrius::plan_capacity`];
    /// callers may also invoke it directly (e.g. on a timer). Returns
    /// the number of predictions scored by this pass.
    pub fn score_pending(&self) -> usize {
        let due = self
            .accuracy
            .take_due(|topology| self.metrics.latest_minute(topology));
        let mut scored = 0;
        for prediction in &due {
            match self.realize(prediction) {
                Some(realized) => {
                    self.accuracy.score(prediction, realized);
                    scored += 1;
                }
                None => self.accuracy.drop_unrealizable(prediction),
            }
        }
        scored
    }

    /// What actually happened over a prediction's window: the peak over
    /// the minutes in `[window_start, window_end)` of the kept training
    /// window's source column (a traffic claim) or sink column (a
    /// throughput claim). `None` when the prediction's window starts
    /// before the training window does (its first minutes are no longer
    /// kept) or holds no minute of the column.
    fn realize(&self, prediction: &PendingPrediction) -> Option<f64> {
        let kept = self.training_window(&prediction.topology).ok()?;
        if prediction.window_start < self.window_start(kept.stamp.watermark) {
            return None;
        }
        let column = match prediction.kind {
            PredictionKind::Traffic => kept.window.source(),
            PredictionKind::Throughput => kept.window.sink(),
        };
        let first = column.partition_point(|p| p.ts < prediction.window_start);
        let end = column.partition_point(|p| p.ts < prediction.window_end);
        column[first..end].iter().map(|p| p.y).reduce(f64::max)
    }

    /// Per-(topology, model, kind) forecast-accuracy summaries scored so
    /// far by this service instance.
    pub fn accuracy_summaries(&self) -> Vec<AccuracySummary> {
        self.accuracy.summaries()
    }

    /// Predictions still waiting for their horizon windows to close.
    pub fn pending_predictions(&self) -> usize {
        self.accuracy.pending_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::metrics::SimMetricsProvider;
    use crate::providers::tracker::StaticTracker;
    use caladrius_workload::wordcount::{
        wordcount_topology, WordCountParallelism, ALPHA, SPLITTER_CAPACITY_PER_MIN,
    };
    use heron_sim::engine::{SimConfig, Simulation};

    const PARALLELISM: WordCountParallelism = WordCountParallelism {
        spout: 8,
        splitter: 2,
        counter: 3,
    };

    /// Runs one sweep leg (warmup + 10 recorded minutes) into `metrics`,
    /// starting at simulated minute `start`.
    fn run_leg(metrics: &heron_sim::metrics::SimMetrics, start: u64, rate: f64) {
        let topo = wordcount_topology(PARALLELISM, rate);
        let mut sim = Simulation::new(
            topo,
            SimConfig {
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        // Restarted topologies never share wall-clock minutes.
        sim.skip_to_minute(start);
        sim.warmup_minutes(30);
        sim.run_minutes_into(10, metrics);
    }

    /// Runs the word-count topology through a source-rate sweep so the
    /// metrics contain both linear and saturated windows.
    fn sweep_metrics() -> heron_sim::metrics::SimMetrics {
        let metrics = heron_sim::metrics::SimMetrics::new("wordcount");
        for (leg, rate) in [4.0e6, 8.0e6, 12.0e6, 16.0e6, 20.0e6, 26.0e6]
            .into_iter()
            .enumerate()
        {
            run_leg(&metrics, leg as u64 * 100, rate);
        }
        metrics
    }

    /// Service over the sweep metrics, keeping the shared metrics handle.
    fn service_with_metrics() -> (Caladrius, heron_sim::metrics::SimMetrics) {
        let metrics = sweep_metrics();
        let tracker = StaticTracker::new().with(wordcount_topology(PARALLELISM, 20.0e6));
        let caladrius = Caladrius::new(
            Arc::new(SimMetricsProvider::new(metrics.clone())),
            Arc::new(tracker),
        );
        (caladrius, metrics)
    }

    fn service() -> Caladrius {
        service_with_metrics().0
    }

    #[test]
    fn end_to_end_fit_and_evaluate() {
        let caladrius = service();
        assert_eq!(caladrius.topologies(), vec!["wordcount"]);

        let model = caladrius.fit_topology_model("wordcount").unwrap();
        let splitter = model.component_model("splitter").unwrap();
        assert!(
            (splitter.instance.alpha - ALPHA).abs() < 0.1,
            "fitted alpha {}",
            splitter.instance.alpha
        );
        let sat = splitter
            .instance
            .saturation
            .expect("sweep saturates the splitter");
        assert!(
            (sat.input_sp - SPLITTER_CAPACITY_PER_MIN).abs() / SPLITTER_CAPACITY_PER_MIN < 0.05,
            "fitted SP {}",
            sat.input_sp
        );

        // Dry-run: current config (splitter p=2) at 30 M/min is high risk;
        // splitter p=4 clears it (knee at ~44 M/min).
        let report = caladrius
            .evaluate("wordcount", &HashMap::new(), &SourceRateSpec::Fixed(30.0e6))
            .unwrap();
        assert_eq!(report.risk, BackpressureRisk::High);
        assert_eq!(report.prediction.bottleneck.as_deref(), Some("splitter"));

        let proposal = HashMap::from([("splitter".to_string(), 4u32)]);
        let report = caladrius
            .evaluate("wordcount", &proposal, &SourceRateSpec::Fixed(30.0e6))
            .unwrap();
        assert_eq!(report.risk, BackpressureRisk::Low);
        assert!(report.prediction.bottleneck.is_none());
        // Throughput ≈ 30 M × α words/min at the sink.
        let expected = 30.0e6 * ALPHA;
        assert!(
            (report.prediction.sink_output_rate - expected).abs() / expected < 0.05,
            "sink output {}",
            report.prediction.sink_output_rate
        );
        assert_eq!(report.model_outputs.len(), 3);
        assert!(report.cpu_by_component.contains_key("splitter"));
        assert!(report.cpu_by_component["splitter"] > 0.0);
    }

    #[test]
    fn evaluate_searches_for_the_saturation_point_once() {
        use crate::model::topology::DAG_WALKS;
        let caladrius = service();
        let proposal = HashMap::from([("splitter".to_string(), 3u32)]);
        let source = SourceRateSpec::Fixed(30.0e6);
        // The first call fits; the second is the cached-model path.
        caladrius.evaluate("wordcount", &proposal, &source).unwrap();
        let before = DAG_WALKS.get();
        let report = caladrius.evaluate("wordcount", &proposal, &source).unwrap();
        let in_evaluate = DAG_WALKS.get() - before;

        let (model, _) = caladrius.fitted_models("wordcount").unwrap();
        let before = DAG_WALKS.get();
        let direct = model.backpressure_risk(&proposal, 30.0e6).unwrap();
        let in_search = DAG_WALKS.get() - before;
        // One search, plus one prediction each for the throughput model,
        // the latency model and the report's own `prediction`.
        assert_eq!(in_evaluate, in_search + 3);

        // Eq. 14 has one implementation: the report, the backpressure
        // model's output and the direct call agree to the bit.
        assert_eq!((report.risk, report.saturation_rate), direct);
        let output = report
            .model_outputs
            .iter()
            .find(|o| o.model == "backpressure_risk")
            .unwrap();
        assert_eq!(
            output.metrics["risk_high"] == 1.0,
            report.risk == BackpressureRisk::High
        );
        assert_eq!(
            output.metrics["topology_saturation_rate"].to_bits(),
            report.saturation_rate.unwrap().to_bits()
        );
    }

    #[test]
    fn evaluate_with_current_rate() {
        let caladrius = service();
        let report = caladrius
            .evaluate("wordcount", &HashMap::new(), &SourceRateSpec::Current)
            .unwrap();
        // The final sweep leg offered 26 M/min.
        assert!((report.source_rate - 26.0e6).abs() / 26.0e6 < 0.02);
        assert_eq!(report.risk, BackpressureRisk::High);
    }

    #[test]
    fn evaluate_with_forecast_source() {
        let caladrius = service();
        let report = caladrius
            .evaluate(
                "wordcount",
                &HashMap::new(),
                &SourceRateSpec::Forecast {
                    model: Some("stats_summary".into()),
                    conservative: false,
                },
            )
            .unwrap();
        let forecast = report.traffic.expect("forecast requested");
        assert_eq!(forecast.model, "stats_summary");
        assert!(report.source_rate > 0.0);
    }

    #[test]
    fn recommend_parallelism_finds_smallest_safe() {
        let caladrius = service();
        // 30 M/min needs splitter knee > 30/0.95: p=3 knees at 33 M.
        let p = caladrius
            .recommend_parallelism("wordcount", "splitter", 30.0e6, 16)
            .unwrap();
        assert_eq!(p, Some(3));
        // An absurd rate exceeds every parallelism in range.
        let p = caladrius
            .recommend_parallelism("wordcount", "splitter", 1.0e12, 4)
            .unwrap();
        assert_eq!(p, None);
    }

    #[test]
    fn parallelism_above_the_bound_is_an_invalid_request() {
        use caladrius_planner::MAX_PARALLELISM;
        let caladrius = service();
        let proposal = |p| HashMap::from([("splitter".to_string(), p)]);
        let fixed = SourceRateSpec::Fixed(30.0e6);
        assert!(matches!(
            caladrius.evaluate("wordcount", &proposal(MAX_PARALLELISM + 1), &fixed),
            Err(CoreError::InvalidRequest(_))
        ));
        assert!(caladrius
            .evaluate("wordcount", &proposal(MAX_PARALLELISM), &fixed)
            .is_ok());
        assert!(matches!(
            caladrius.recommend_parallelism("wordcount", "splitter", 30.0e6, MAX_PARALLELISM + 1),
            Err(CoreError::InvalidRequest(_))
        ));
        let p = caladrius
            .recommend_parallelism("wordcount", "splitter", 30.0e6, MAX_PARALLELISM)
            .unwrap();
        assert_eq!(p, Some(3));
    }

    #[test]
    fn traffic_forecast_runs_configured_models() {
        let caladrius = service();
        let forecasts = caladrius.forecast_traffic("wordcount", None).unwrap();
        assert_eq!(forecasts.len(), 2); // prophet + stats_summary
        for f in &forecasts {
            assert!(f.mean > 0.0);
            assert_eq!(
                f.points.len(),
                caladrius.config().forecast_horizon_minutes as usize
            );
        }
    }

    #[test]
    fn packing_overview_reports_structure() {
        let caladrius = service();
        // Deployed: spout 8, splitter 2, counter 3 = 13 instances.
        let overview = caladrius
            .packing_overview("wordcount", &HashMap::new(), 4)
            .unwrap();
        assert_eq!(overview.containers, 4);
        assert_eq!(overview.total_instances, 13);
        assert_eq!(overview.max_instances_per_container, 4);
        assert!(overview.remote_pair_fraction > 0.0);
        assert_eq!(overview.instance_paths, 8 * 2 * 3);
        // Proposed splitter 4: 15 instances, more paths.
        let proposal = HashMap::from([("splitter".to_string(), 4u32)]);
        let overview = caladrius
            .packing_overview("wordcount", &proposal, 4)
            .unwrap();
        assert_eq!(overview.total_instances, 15);
        assert_eq!(overview.instance_paths, 8 * 4 * 3);
        // Errors.
        assert!(caladrius
            .packing_overview("wordcount", &HashMap::new(), 0)
            .is_err());
        assert!(caladrius
            .packing_overview(
                "wordcount",
                &HashMap::from([("splitter".to_string(), 0)]),
                2
            )
            .is_err());
        assert!(caladrius
            .packing_overview("ghost", &HashMap::new(), 2)
            .is_err());
    }

    #[test]
    fn packing_overview_counts_hostile_parallelism_exactly() {
        // 2,000,008 instances and 10^12 splitter→counter pairs: answered
        // from per-container counts, never by visiting them.
        let caladrius = service();
        let proposal = HashMap::from([
            ("splitter".to_string(), 1_000_000u32),
            ("counter".to_string(), 1_000_000u32),
        ]);
        let overview = caladrius
            .packing_overview("wordcount", &proposal, 13)
            .unwrap();
        assert_eq!(overview.total_instances, 8 + 2_000_000);
        assert_eq!(overview.instance_paths, 8 * 1_000_000 * 1_000_000);
        assert_eq!(overview.max_instances_per_container, 153_847);
        assert!((0.0..1.0).contains(&overview.remote_pair_fraction));
    }

    /// The packing summary as it was computed before it worked from
    /// per-container counts: materialise the round-robin assignment, then
    /// visit every upstream→downstream instance pair.
    fn reference_packing(
        spec: &caladrius_graph::LogicalSpec,
        num_containers: usize,
    ) -> PackingOverview {
        let mut assignment: Vec<Vec<(String, u32)>> = vec![Vec::new(); num_containers];
        let mut next = 0usize;
        for (name, p) in &spec.components {
            for i in 0..*p {
                assignment[next % num_containers].push((name.clone(), i));
                next += 1;
            }
        }
        let counts: Vec<f64> = assignment.iter().map(|c| c.len() as f64).collect();
        let total_instances: usize = assignment.iter().map(Vec::len).sum();
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;
        let mut location = HashMap::new();
        for (c_idx, contents) in assignment.iter().enumerate() {
            for (component, index) in contents {
                location.insert((component.clone(), *index), c_idx);
            }
        }
        let parallelism: HashMap<&str, u32> = spec
            .components
            .iter()
            .map(|(n, p)| (n.as_str(), *p))
            .collect();
        let mut pairs = 0usize;
        let mut remote = 0usize;
        for (from, to, _) in &spec.edges {
            for fi in 0..parallelism[from.as_str()] {
                for ti in 0..parallelism[to.as_str()] {
                    pairs += 1;
                    if location.get(&(from.clone(), fi)) != location.get(&(to.clone(), ti)) {
                        remote += 1;
                    }
                }
            }
        }
        PackingOverview {
            containers: num_containers,
            total_instances,
            max_instances_per_container: counts.iter().copied().fold(0.0, f64::max) as usize,
            balance_stddev: var.sqrt(),
            remote_pair_fraction: if pairs > 0 {
                remote as f64 / pairs as f64
            } else {
                0.0
            },
            instance_paths: TopologyDag::new(spec)
                .unwrap()
                .instance_path_count()
                .unwrap(),
        }
    }

    /// A small random acyclic spec (streams run down the declaration
    /// order and may repeat) and a container count.
    fn arb_packing() -> proptest::strategy::BoxedStrategy<(caladrius_graph::LogicalSpec, usize)> {
        proptest::strategy::BoxedStrategy::from_fn(|rng| {
            let n = 1 + rng.below(6);
            let mut spec = caladrius_graph::LogicalSpec::new("random");
            for v in 0..n {
                spec = spec.component(format!("c{v}"), 1 + rng.below(9) as u32);
            }
            for _ in 0..rng.below(10) {
                let (a, b) = (rng.below(n), rng.below(n));
                if a < b {
                    spec = spec.edge(format!("c{a}"), format!("c{b}"), "shuffle");
                }
            }
            (spec, 1 + rng.below(14))
        })
    }

    proptest::proptest! {
        /// Every field of the summary equals the materialised reference's,
        /// the floats bit for bit.
        #[test]
        fn packing_summary_matches_materialised_round_robin(case in arb_packing()) {
            let (spec, containers) = case;
            let got = packing_summary(&TopologyDag::new(&spec).unwrap(), containers).unwrap();
            let want = reference_packing(&spec, containers);
            proptest::prop_assert_eq!(got.containers, want.containers);
            proptest::prop_assert_eq!(got.total_instances, want.total_instances);
            proptest::prop_assert_eq!(
                got.max_instances_per_container,
                want.max_instances_per_container
            );
            proptest::prop_assert_eq!(got.balance_stddev.to_bits(), want.balance_stddev.to_bits());
            proptest::prop_assert_eq!(
                got.remote_pair_fraction.to_bits(),
                want.remote_pair_fraction.to_bits()
            );
            proptest::prop_assert_eq!(got.instance_paths, want.instance_paths);
        }
    }

    #[test]
    fn raw_series_selection_through_provider() {
        let caladrius = service();
        let provider = caladrius.metrics_provider();
        let (name, filters) =
            caladrius_tsdb::query::parse_selector("execute-count{component=splitter,instance=0}")
                .unwrap();
        let rows = provider
            .select_series("wordcount", &name, &filters, 0, i64::MAX)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert!(!rows[0].1.is_empty());
        assert_eq!(rows[0].0.tag("instance"), Some("0"));
        assert!(provider
            .select_series("ghost", &name, &filters, 0, 1)
            .is_err());
    }

    #[test]
    fn repeated_evaluate_serves_cached_models_without_refitting() {
        let caladrius = service();
        let source = SourceRateSpec::Fixed(30.0e6);
        let first = caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after_first = caladrius.model_cache_stats();
        assert_eq!(after_first.misses, 1);
        assert_eq!(after_first.hits, 0);
        assert!(after_first.fits > 0);

        let second = caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after_second = caladrius.model_cache_stats();
        assert_eq!(
            after_second.fits, after_first.fits,
            "second evaluate on unchanged data must perform zero model fits"
        );
        assert_eq!(after_second.hits, 1);
        assert_eq!(after_second.misses, 1);
        assert_eq!(second, first);

        // recommend_parallelism shares the same cached fits.
        caladrius
            .recommend_parallelism("wordcount", "splitter", 30.0e6, 16)
            .unwrap();
        let after_third = caladrius.model_cache_stats();
        assert_eq!(after_third.fits, after_first.fits);
        assert_eq!(after_third.hits, 2);
    }

    #[test]
    fn new_minutes_invalidate_model_cache() {
        let (caladrius, metrics) = service_with_metrics();
        let source = SourceRateSpec::Fixed(30.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let before = caladrius.model_cache_stats();

        // A fresh leg of data moves the watermark: the next evaluate
        // must refit over the newer window.
        run_leg(&metrics, 600, 24.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after = caladrius.model_cache_stats();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.hits, before.hits);
        assert!(after.fits > before.fits, "new data must force a refit");
    }

    #[test]
    fn packing_change_invalidates_model_cache() {
        use crate::providers::tracker::ClusterTracker;
        use heron_sim::cluster::Cluster;
        use heron_sim::packing::PackingAlgorithm;

        let metrics = sweep_metrics();
        let mut cluster = Cluster::new();
        cluster
            .submit(
                wordcount_topology(PARALLELISM, 20.0e6),
                PackingAlgorithm::RoundRobin { num_containers: 4 },
            )
            .unwrap();
        let shared = Arc::new(parking_lot::RwLock::new(cluster));
        let caladrius = Caladrius::new(
            Arc::new(SimMetricsProvider::new(metrics)),
            Arc::new(ClusterTracker::new(Arc::clone(&shared))),
        );

        let source = SourceRateSpec::Fixed(30.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let before = caladrius.model_cache_stats();
        assert_eq!(before.hits, 1);

        // Scaling the deployed topology bumps the tracker version; models
        // fitted against the old plan must not be reused.
        shared
            .write()
            .update_parallelism("wordcount", &[("splitter", 3)])
            .unwrap();
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after = caladrius.model_cache_stats();
        assert_eq!(after.misses, before.misses + 1);
        assert!(after.fits > before.fits, "plan change must force a refit");
    }

    #[test]
    fn explicit_invalidation_drops_cached_entry() {
        let caladrius = service();
        let source = SourceRateSpec::Fixed(30.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        caladrius.invalidate_model_cache(Some("wordcount"));
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        assert_eq!(caladrius.model_cache_stats().misses, 2);
    }

    #[test]
    fn invalid_requests_rejected() {
        let caladrius = service();
        assert!(caladrius
            .evaluate("wordcount", &HashMap::new(), &SourceRateSpec::Fixed(-1.0))
            .is_err());
        assert!(caladrius
            .evaluate("ghost", &HashMap::new(), &SourceRateSpec::Fixed(1.0))
            .is_err());
        assert!(caladrius.forecast_traffic("ghost", None).is_err());
    }

    #[test]
    fn recommend_parallelism_matches_linear_scan() {
        let caladrius = service();
        let (model, _) = caladrius.fitted_models("wordcount").unwrap();
        for rate in [
            5.0e6, 10.0e6, 20.0e6, 30.0e6, 40.0e6, 55.0e6, 70.0e6, 90.0e6, 150.0e6, 1.0e12,
        ] {
            let linear = (1..=16u32).find(|p| {
                let proposal = HashMap::from([("splitter".to_string(), *p)]);
                let (risk, _) = model.backpressure_risk(&proposal, rate).unwrap();
                risk == BackpressureRisk::Low
            });
            let binary = caladrius
                .recommend_parallelism("wordcount", "splitter", rate, 16)
                .unwrap();
            assert_eq!(binary, linear, "binary/linear divergence at {rate:.3e}");
        }
    }

    #[test]
    fn forecast_accuracy_scores_predictions_and_ranks_biased_model_worse() {
        use caladrius_forecast::stats::StatsSummaryModel;
        use caladrius_forecast::{ForecastError, ForecastPoint, Forecaster};

        /// A deliberately miscalibrated forecaster: the fitted
        /// stats-summary mean, tripled.
        struct BiasedModel(StatsSummaryModel);
        impl Forecaster for BiasedModel {
            fn fit(&mut self, history: &[DataPoint]) -> std::result::Result<(), ForecastError> {
                self.0.fit(history)
            }
            fn predict(
                &self,
                timestamps: &[i64],
            ) -> std::result::Result<Vec<ForecastPoint>, ForecastError> {
                Ok(self
                    .0
                    .predict(timestamps)?
                    .into_iter()
                    .map(|mut p| {
                        p.yhat *= 3.0;
                        p.lower *= 3.0;
                        p.upper *= 3.0;
                        p
                    })
                    .collect())
            }
            fn name(&self) -> &'static str {
                "biased"
            }
        }

        let (mut caladrius, metrics) = service_with_metrics();
        caladrius.traffic_registry_mut().register("biased", || {
            Box::new(BiasedModel(StatsSummaryModel::mean()))
        });

        // Two evaluations of the deployed topology, one per model. Each
        // registers a traffic prediction for the coming horizon (and a
        // throughput prediction for the deployed parallelism).
        for model in ["stats_summary", "biased"] {
            caladrius
                .evaluate(
                    "wordcount",
                    &HashMap::new(),
                    &SourceRateSpec::Forecast {
                        model: Some(model.into()),
                        conservative: false,
                    },
                )
                .unwrap();
        }
        assert!(caladrius.pending_predictions() >= 3);
        assert_eq!(caladrius.score_pending(), 0, "windows still open");

        // Let the future happen: run the topology (at the final sweep
        // leg's offered rate) through the full forecast horizon so the
        // watermark passes every pending window's end.
        let watermark = caladrius
            .metrics_provider()
            .latest_minute("wordcount")
            .unwrap();
        let topo = wordcount_topology(PARALLELISM, 26.0e6);
        let mut sim = Simulation::new(
            topo,
            SimConfig {
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.skip_to_minute(watermark as u64 / 60_000);
        sim.run_minutes_into(65, &metrics);

        let scored = caladrius.score_pending();
        assert!(scored >= 3, "expected ≥3 scored predictions, got {scored}");

        let summaries = caladrius.accuracy_summaries();
        let ape_of = |model: &str, kind: PredictionKind| {
            summaries
                .iter()
                .find(|s| s.model == model && s.kind == kind)
                .unwrap_or_else(|| panic!("no summary for {model}/{kind:?}"))
        };
        let fitted = ape_of("stats_summary", PredictionKind::Traffic);
        let biased = ape_of("biased", PredictionKind::Traffic);
        assert!(fitted.count >= 1 && biased.count >= 1);
        assert!(fitted.mean_ape.is_finite() && fitted.p90_ape >= 0.0);
        assert!(
            biased.mean_ape > fitted.mean_ape,
            "biased model (APE {:.3}) must score worse than fitted (APE {:.3})",
            biased.mean_ape,
            fitted.mean_ape
        );
        let throughput = ape_of("topology_model", PredictionKind::Throughput);
        assert!(throughput.count >= 1);

        // The APE histograms surface on the global registry too.
        let families = caladrius_obs::global_registry().families();
        assert!(families.iter().any(|f| f.name == "caladrius_forecast_ape"
            && f.rows
                .iter()
                .any(|r| r.labels.iter().any(|(k, v)| k == "model" && v == "biased"))));
    }

    /// A spout feeding two sinks, `left` and `right`, neither near
    /// saturation.
    fn forked(rate: f64) -> heron_sim::topology::Topology {
        use heron_sim::grouping::Grouping;
        use heron_sim::profiles::RateProfile;
        use heron_sim::topology::{TopologyBuilder, WorkProfile};
        TopologyBuilder::new("forked")
            .spout("spout", 4, RateProfile::constant_per_min(rate), 64)
            .bolt("left", 2, WorkProfile::new(1.0e6, 1.0, 64))
            .bolt("right", 3, WorkProfile::new(1.0e6, 0.5, 64))
            .edge("spout", "left", Grouping::shuffle())
            .edge("spout", "right", Grouping::shuffle())
            .build()
            .unwrap()
    }

    /// Forty contiguous minutes of [`forked`] at four offered rates, and
    /// a simulation that carries on from the next minute at another.
    fn forked_run() -> (heron_sim::metrics::SimMetrics, Simulation) {
        let quiet = || SimConfig {
            metric_noise: 0.0,
            ..SimConfig::default()
        };
        let metrics = heron_sim::metrics::SimMetrics::new("forked");
        for (leg, rate) in [1.0e6, 2.0e6, 3.0e6, 4.0e6].into_iter().enumerate() {
            let mut sim = Simulation::new(forked(rate), quiet()).unwrap();
            sim.skip_to_minute(leg as u64 * 10);
            sim.warmup_minutes(30);
            sim.run_minutes_into(10, &metrics);
        }
        let mut live = Simulation::new(forked(2.5e6), quiet()).unwrap();
        live.skip_to_minute(40);
        live.warmup_minutes(30);
        (metrics, live)
    }

    fn forked_service(
        metrics: &heron_sim::metrics::SimMetrics,
        config: crate::config::CaladriusConfig,
    ) -> Caladrius {
        Caladrius::with_config(
            Arc::new(SimMetricsProvider::new(metrics.clone())),
            Arc::new(StaticTracker::new().with(forked(2.5e6))),
            config,
        )
    }

    /// Runs the next minute of `sim` into `metrics`, passing every sample
    /// through `edit` on the way (`None` leaves it out).
    fn ingest_minute(
        sim: &mut Simulation,
        metrics: &heron_sim::metrics::SimMetrics,
        edit: impl Fn(&str, &caladrius_tsdb::SeriesKey, f64) -> Option<f64>,
    ) {
        let scratch = heron_sim::metrics::SimMetrics::new(metrics.topology());
        sim.run_minutes_into(1, &scratch);
        for name in scratch.db().metric_names() {
            for (key, samples) in scratch.db().select(&name, &[], i64::MIN, i64::MAX).unwrap() {
                let handle = metrics.db().register(&key);
                for s in samples {
                    if let Some(value) = edit(&name, &key, s.value) {
                        metrics.db().append(&handle, s.ts, value);
                    }
                }
            }
        }
    }

    /// How a claim was realised by reading the store: over the claim's
    /// window, per spout its offered load or per sink its emit count,
    /// summed per minute in DAG order; a traffic minute whose sum is not
    /// a finite, non-negative rate is left out. The reference the kept
    /// window's columns are held to.
    fn realize_from_store(caladrius: &Caladrius, claim: &PendingPrediction) -> Option<f64> {
        use heron_sim::metrics::metric::{EMIT_COUNT, SOURCE_OFFERED};
        let spec = caladrius.tracker.logical_spec(&claim.topology).ok()?;
        let dag = TopologyDag::new(&spec).ok()?;
        let (components, metric_name) = match claim.kind {
            PredictionKind::Traffic => (dag.spouts(), SOURCE_OFFERED),
            PredictionKind::Throughput => (dag.sinks(), EMIT_COUNT),
        };
        let (from, to) = (claim.window_start, claim.window_end - 1);
        let mut by_ts: BTreeMap<i64, f64> = BTreeMap::new();
        for &v in components {
            let name = dag.name(v);
            let set = caladrius
                .metrics
                .series_set(&claim.topology, name, metric_name, from, to);
            for s in set.ok()?.combined {
                *by_ts.entry(s.ts).or_insert(0.0) += s.value;
            }
        }
        let usable =
            |y: &f64| claim.kind == PredictionKind::Throughput || (y.is_finite() && *y >= 0.0);
        by_ts.into_values().filter(usable).reduce(f64::max)
    }

    /// Every claim that falls due in a live run is realised from the kept
    /// window exactly as reading the store over its window realises it,
    /// bit for bit, with a NaN and a −1e9 offered load, a NaN emit count
    /// and a minute one sink did not report among the minutes scored.
    #[test]
    fn claims_realised_from_the_kept_window_equal_the_store_reads() {
        use heron_sim::metrics::metric::{EMIT_COUNT, EXECUTE_COUNT, SOURCE_OFFERED};
        let (metrics, mut live) = forked_run();
        let caladrius = forked_service(
            &metrics,
            crate::config::CaladriusConfig {
                traffic_models: vec!["stats_summary".into()],
                source_window_minutes: 120,
                forecast_horizon_minutes: 20,
                ..crate::config::CaladriusConfig::default()
            },
        );
        let mut request = crate::capacity::CapacityPlanRequest::default();
        request.planner.window_minutes = 5;
        let forecast = SourceRateSpec::Forecast {
            model: None,
            conservative: false,
        };
        let first = |key: &caladrius_tsdb::SeriesKey, component: &str| {
            key.tag("component") == Some(component) && key.tag("instance") == Some("0")
        };
        let mut realised: HashMap<PredictionKind, usize> = HashMap::new();
        for minute in 0..32 {
            ingest_minute(&mut live, &metrics, |name, key, value| match minute {
                6 if name == SOURCE_OFFERED && first(key, "spout") => Some(f64::NAN),
                // Without its execute count the minute is no observation
                // of `left`, so the NaN reaches the sink column only.
                6 if name == EMIT_COUNT && first(key, "left") => Some(f64::NAN),
                6 if name == EXECUTE_COUNT && key.tag("component") == Some("left") => None,
                9 if name == SOURCE_OFFERED && first(key, "spout") => Some(-1.0e9),
                12 if name == EMIT_COUNT && key.tag("component") == Some("right") => None,
                _ => Some(value),
            });
            let watermark = |topology: &str| caladrius.metrics.latest_minute(topology);
            for claim in caladrius.accuracy.take_due(watermark) {
                let served = caladrius.realize(&claim).map(f64::to_bits);
                let read = realize_from_store(&caladrius, &claim).map(f64::to_bits);
                assert_eq!(served, read, "live minute {minute}: {claim:?}");
                assert!(served.is_some(), "live minute {minute}: {claim:?}");
                *realised.entry(claim.kind).or_default() += 1;
            }
            caladrius
                .evaluate("forked", &HashMap::new(), &forecast)
                .unwrap();
            caladrius.plan_capacity("forked", &request).unwrap();
        }
        assert!(realised[&PredictionKind::Traffic] > 0, "{realised:?}");
        assert!(realised[&PredictionKind::Throughput] > 0, "{realised:?}");
    }

    /// A claim whose window starts before the kept training window's
    /// first minute is dropped, not scored. With a 45-minute window and a
    /// 60-minute horizon an evaluation's claims are, and a plan's
    /// 15-minute windows are scored as each closes.
    #[test]
    fn a_claim_reaching_back_before_the_kept_window_is_dropped() {
        let (metrics, mut live) = forked_run();
        let caladrius = forked_service(
            &metrics,
            crate::config::CaladriusConfig {
                traffic_models: vec!["stats_summary".into()],
                source_window_minutes: 45,
                ..crate::config::CaladriusConfig::default()
            },
        );
        let forecast = SourceRateSpec::Forecast {
            model: None,
            conservative: false,
        };
        caladrius
            .evaluate("forked", &HashMap::new(), &forecast)
            .unwrap();
        let request = crate::capacity::CapacityPlanRequest::default();
        assert_eq!(request.planner.window_minutes, 15);
        caladrius.plan_capacity("forked", &request).unwrap();
        assert_eq!(caladrius.pending_predictions(), 2 + 4);
        let dropped = caladrius_obs::global_registry().counter(
            "caladrius_forecast_predictions_dropped_total",
            &[("service", caladrius.scope.as_str())],
        );
        // Every claim starts at the first forecast minute, the one after
        // the newest. The plan's windows are due once the 15th, 30th,
        // 45th and 60th minute after it have landed, the evaluation's
        // with the 60th, when the kept window starts 16 minutes after it.
        for minute in 1..=61u64 {
            ingest_minute(&mut live, &metrics, |_, _, value| Some(value));
            caladrius.score_pending();
            let scored = (minute - 1) / 15;
            assert_eq!(caladrius.accuracy.scored_count(), scored, "minute {minute}");
            let expected = if minute < 61 { 0 } else { 2 };
            assert_eq!(dropped.get(), expected, "minute {minute}");
        }
        assert_eq!(caladrius.pending_predictions(), 0);
    }

    #[test]
    fn plan_capacity_covers_the_horizon_and_counts_searches() {
        use crate::capacity::CapacityPlanRequest;
        let caladrius = service();
        let request = CapacityPlanRequest::default();
        let timeline = caladrius.plan_capacity("wordcount", &request).unwrap();

        // Default horizon is 60 forecast minutes in 15-minute windows.
        assert_eq!(timeline.windows.len(), 4);
        for window in &timeline.windows {
            // Only the modelled bolts are planned — never the spout.
            let names: Vec<&str> = window
                .parallelisms
                .iter()
                .map(|(n, _)| n.as_str())
                .collect();
            assert_eq!(names, vec!["splitter", "counter"]);
            assert!(window.cost.total_instances >= 2);
            assert!(window.cost.containers >= 1);
            // The model itself judges the planned configuration safe at
            // the planned (headroomed) rate.
            let proposal: HashMap<String, u32> = window.parallelisms.iter().cloned().collect();
            let report = caladrius
                .evaluate(
                    "wordcount",
                    &proposal,
                    &SourceRateSpec::Fixed(window.planned_rate),
                )
                .unwrap();
            assert_eq!(
                report.risk,
                BackpressureRisk::Low,
                "window {} plan is not Low-risk at {:.3e}",
                window.window,
                window.planned_rate
            );
        }
        assert!(!timeline.peak_parallelisms.is_empty());
        assert!(timeline.peak_cost.total_instances > 0);

        let stats = caladrius.model_cache_stats();
        assert_eq!(stats.plans, 1);
        assert!(stats.plan_evals >= timeline.oracle_evals);
        assert!(stats.plan_evals > 0);
        // The search revisits configurations (each ascent phase re-probes
        // its final assignment, smoothing re-probes solved plans): the
        // plan-time memo must absorb those instead of the models.
        assert!(stats.oracle_misses > 0);
        assert!(
            stats.oracle_hits > 0,
            "repeated assessments must hit the oracle memo"
        );

        // A second plan on unchanged data is served verbatim from the
        // plan cache: no new search, no new fits, identical timeline.
        let fits_before = stats.fits;
        let again = caladrius.plan_capacity("wordcount", &request).unwrap();
        assert_eq!(again, timeline, "cache hit must be byte-identical");
        let stats = caladrius.model_cache_stats();
        assert_eq!(stats.plans, 1, "cache hit must not run a search");
        assert_eq!(stats.fits, fits_before, "cache hit must not refit");
        let plan_cache = caladrius.plan_cache_stats();
        assert_eq!((plan_cache.hits, plan_cache.misses), (1, 1));
        assert_eq!(plan_cache.warm_starts, 0);
    }

    /// A from-scratch service over the shared metrics with a
    /// `window_minutes` training window.
    fn batch_reference(metrics: &heron_sim::metrics::SimMetrics, window_minutes: u32) -> Caladrius {
        let config = crate::config::CaladriusConfig {
            source_window_minutes: window_minutes,
            ..crate::config::CaladriusConfig::default()
        };
        Caladrius::with_config(
            Arc::new(SimMetricsProvider::new(metrics.clone())),
            Arc::new(StaticTracker::new().with(wordcount_topology(PARALLELISM, 20.0e6))),
            config,
        )
    }

    #[test]
    fn watermark_advance_slides_the_window_and_matches_a_fresh_fit() {
        // Wide enough that the slid window still holds the load ramp
        // both CPU lines regress on.
        const WINDOW: u32 = 400;
        let metrics = sweep_metrics();
        let caladrius = batch_reference(&metrics, WINDOW);
        let source = SourceRateSpec::Fixed(30.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let cold = caladrius.model_cache_stats();
        assert!(cold.full_fits > 0, "first fit is a full fit");
        assert_eq!(cold.incremental_fits, 0);
        assert_eq!(cold.fits, cold.full_fits);

        // New data moves the watermark; the refit must read only the new
        // minutes and slide the kept window over them.
        run_leg(&metrics, 600, 24.0e6);
        let served = caladrius.fitted_models("wordcount").unwrap();
        let warm = caladrius.model_cache_stats();
        assert!(
            warm.incremental_fits > 0,
            "watermark advance must slide the window"
        );
        assert_eq!(
            warm.full_fits, cold.full_fits,
            "watermark advance must not trigger full refits"
        );
        assert_eq!(warm.fits, warm.full_fits + warm.incremental_fits);

        // The slid window is the window a fresh service reads: every
        // parameter, the CPU lines included, bit for bit.
        let from_scratch = batch_reference(&metrics, WINDOW)
            .fitted_models("wordcount")
            .unwrap();
        assert_eq!(model_bits(&served), model_bits(&from_scratch));
        assert_eq!(served.1.len(), 2, "both CPU lines were fitted");
    }

    /// Counts every windowed read per `(component, metric)`, records the
    /// `from` bounds the reads asked for and, once armed, fails the next
    /// read.
    struct ProbedProvider {
        inner: SimMetricsProvider,
        reads: parking_lot::Mutex<BTreeMap<(String, String), u32>>,
        froms: parking_lot::Mutex<std::collections::BTreeSet<i64>>,
        fail_next: std::sync::atomic::AtomicBool,
    }

    impl ProbedProvider {
        fn service() -> (
            Caladrius,
            Arc<ProbedProvider>,
            heron_sim::metrics::SimMetrics,
        ) {
            let metrics = sweep_metrics();
            let (caladrius, provider) = Self::over(&metrics);
            (caladrius, provider, metrics)
        }

        /// A default service over `metrics`.
        fn over(metrics: &heron_sim::metrics::SimMetrics) -> (Caladrius, Arc<ProbedProvider>) {
            let provider = Arc::new(ProbedProvider {
                inner: SimMetricsProvider::new(metrics.clone()),
                reads: Default::default(),
                froms: Default::default(),
                fail_next: Default::default(),
            });
            let tracker = StaticTracker::new().with(wordcount_topology(PARALLELISM, 20.0e6));
            let caladrius = Caladrius::new(
                Arc::clone(&provider) as Arc<dyn MetricsProvider>,
                Arc::new(tracker),
            );
            (caladrius, provider)
        }
    }

    impl MetricsProvider for ProbedProvider {
        fn series_set(
            &self,
            topology: &str,
            component: &str,
            metric_name: &str,
            from: i64,
            to: i64,
        ) -> Result<heron_sim::metrics::SeriesSet> {
            let key = (component.to_string(), metric_name.to_string());
            *self.reads.lock().entry(key).or_insert(0) += 1;
            self.froms.lock().insert(from);
            if self
                .fail_next
                .swap(false, std::sync::atomic::Ordering::SeqCst)
            {
                return Err(CoreError::Unknown("injected read failure".into()));
            }
            self.inner
                .series_set(topology, component, metric_name, from, to)
        }

        fn latest_minute(&self, topology: &str) -> Option<i64> {
            self.inner.latest_minute(topology)
        }

        fn truncation_generation(&self, topology: &str) -> Option<u64> {
            self.inner.truncation_generation(topology)
        }

        fn select_series(
            &self,
            topology: &str,
            metric_name: &str,
            filters: &[caladrius_tsdb::TagFilter],
            from: i64,
            to: i64,
        ) -> Result<Vec<(caladrius_tsdb::SeriesKey, Vec<caladrius_tsdb::Sample>)>> {
            self.inner
                .select_series(topology, metric_name, filters, from, to)
        }
    }

    /// A fit reads every series set once, spout source-offered included,
    /// and a Stale fit only the minutes after the kept ones that lie in
    /// the window: never the window again, and after a gap longer than
    /// the window never a minute before it. In a new minute, whichever of
    /// a forecast and a fit asks first slides the one kept window; the
    /// other reads nothing.
    #[test]
    fn a_fit_reads_every_series_set_once() {
        use heron_sim::metrics::metric::{
            BACKPRESSURE_TIME, CPU_LOAD, EMIT_COUNT, EXECUTE_COUNT, SOURCE_OFFERED,
        };
        let (caladrius, provider, metrics) = ProbedProvider::service();
        let mut once = BTreeMap::new();
        for metric_name in [EMIT_COUNT, SOURCE_OFFERED] {
            once.insert(("spout".to_string(), metric_name.to_string()), 1);
        }
        for bolt in ["splitter", "counter"] {
            for metric_name in [EXECUTE_COUNT, EMIT_COUNT, BACKPRESSURE_TIME, CPU_LOAD] {
                once.insert((bolt.to_string(), metric_name.to_string()), 1);
            }
        }
        assert_eq!(once.len(), 10);
        let forecast = || {
            let model = ["stats_summary".to_string()];
            caladrius
                .forecast_traffic("wordcount", Some(&model))
                .unwrap()
        };

        caladrius.fitted_models("wordcount").unwrap();
        assert_eq!(*provider.reads.lock(), once, "cold fit");
        let cold = caladrius.model_cache_stats();
        assert!(cold.full_fits > 0 && cold.incremental_fits == 0);

        // Steady ingest over the 4-hour window: one fresh minute a round.
        // Every Stale fit reads each series set once, from just after the
        // previous fit's watermark, never the window again.
        let rounds = 30;
        let mut sim = Simulation::new(
            wordcount_topology(PARALLELISM, 24.0e6),
            SimConfig {
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.skip_to_minute(600);
        sim.warmup_minutes(30);
        let window = caladrius.config().source_window_minutes;
        let mut fitted = 0;
        for round in 0..rounds {
            let fitted_to = metrics.db().watermark().unwrap();
            sim.run_minutes_into(1, &metrics);
            provider.reads.lock().clear();
            provider.froms.lock().clear();
            let forecast_first = round % 2 == 1;
            if forecast_first {
                forecast();
                assert_eq!(*provider.reads.lock(), once, "forecast, round {round}");
                provider.reads.lock().clear();
            }
            let served = caladrius.fitted_models("wordcount").unwrap();
            if forecast_first {
                assert!(provider.reads.lock().is_empty(), "fit, round {round}");
            } else {
                assert_eq!(*provider.reads.lock(), once, "stale fit, round {round}");
                provider.reads.lock().clear();
                forecast();
                assert!(provider.reads.lock().is_empty(), "forecast, round {round}");
            }
            // Both throughput models and the CPU lines the slid window
            // supports: what a fresh service fits.
            fitted += 2 + served.1.len() as u64;
            let fresh = batch_reference(&metrics, window).fitted_models("wordcount");
            assert_eq!(
                model_bits(&served),
                model_bits(&fresh.unwrap()),
                "round {round}"
            );
            assert_eq!(
                provider.froms.lock().iter().copied().collect::<Vec<_>>(),
                vec![fitted_to + 1],
                "stale fit, round {round}"
            );
        }
        let stale = caladrius.model_cache_stats();
        assert!(stale.incremental_fits > 0);
        assert_eq!(stale.fits, stale.full_fits + stale.incremental_fits);
        assert_eq!(stale.full_fits, cold.full_fits);
        assert_eq!(stale.incremental_fits, fitted);

        // Two days pass: the next minute's read starts at the window.
        sim.skip_to_minute(4_000);
        sim.run_minutes_into(1, &metrics);
        provider.reads.lock().clear();
        provider.froms.lock().clear();
        let served = caladrius.fitted_models("wordcount").unwrap();
        assert_eq!(*provider.reads.lock(), once, "after the gap");
        let window_start = caladrius.window_start(metrics.db().watermark().unwrap());
        assert_eq!(
            provider.froms.lock().iter().copied().collect::<Vec<_>>(),
            vec![window_start],
            "after the gap"
        );
        let after_gap = caladrius.model_cache_stats();
        assert_eq!(after_gap.full_fits, cold.full_fits);
        assert!(after_gap.incremental_fits > stale.incremental_fits);
        let fresh = batch_reference(&metrics, window).fitted_models("wordcount");
        assert_eq!(model_bits(&served), model_bits(&fresh.unwrap()));
    }

    /// Every fitted parameter, bit for bit.
    fn model_bits((model, cpu): &FittedModels) -> Vec<(String, Vec<u64>)> {
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
        bits
    }

    #[test]
    fn a_failed_stale_fit_falls_back_to_cold_and_says_why() {
        let (caladrius, provider, metrics) = ProbedProvider::service();
        caladrius.fitted_models("wordcount").unwrap();
        let cold = caladrius.model_cache_stats();
        run_leg(&metrics, 600, 24.0e6);

        // The first read of the delta fails; the call must not.
        provider
            .fail_next
            .store(true, std::sync::atomic::Ordering::SeqCst);
        let request = caladrius_obs::next_request_id();
        let served = {
            let _scope = caladrius_obs::RequestScope::enter(request);
            caladrius.fitted_models("wordcount").unwrap()
        };
        let after = caladrius.model_cache_stats();
        assert_eq!(after.misses, cold.misses + 1);
        assert_eq!(after.incremental_fits, 0);
        assert_eq!(after.fits, after.full_fits);

        let spans = caladrius_obs::tracer().recent_filtered(usize::MAX, Some(request));
        let fit = spans.iter().find(|s| s.name == "core.fit").unwrap();
        let field = |key: &str| {
            let found = fit.fields.iter().find(|(k, _)| k == key);
            found.map(|(_, v)| v.as_str())
        };
        assert_eq!(field("mode"), Some("full"));
        assert!(field("fallback").unwrap().contains("injected read failure"));

        let fresh = batch_reference(&metrics, caladrius.config().source_window_minutes);
        let from_scratch = fresh.fitted_models("wordcount").unwrap();
        assert_eq!(model_bits(&served), model_bits(&from_scratch));
        // One cold fit's worth of models over that window, no more.
        let one_fit = fresh.model_cache_stats().full_fits;
        assert_eq!(after.full_fits, cold.full_fits + one_fit);

        // A fit that did not fall back carries no such field.
        let cold_span = caladrius_obs::next_request_id();
        {
            let _scope = caladrius_obs::RequestScope::enter(cold_span);
            fresh.invalidate_model_cache(None);
            fresh.fitted_models("wordcount").unwrap();
        }
        let spans = caladrius_obs::tracer().recent_filtered(usize::MAX, Some(cold_span));
        let fit = spans.iter().find(|s| s.name == "core.fit").unwrap();
        assert!(fit.fields.iter().all(|(k, _)| k != "fallback"));
    }

    /// A hostile offered load in the newest minute (NaN, ±inf, a negative
    /// count) is no load: the source history leaves that minute out, so
    /// `Current` answers the mean of the last five valid minutes and every
    /// forecast what-if a positive rate.
    #[test]
    fn hostile_source_rates_are_left_out_of_the_source_history() {
        use heron_sim::metrics::metric::SOURCE_OFFERED;
        const RATE: f64 = 8.0e6;
        for hostile in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0e9] {
            let metrics = heron_sim::metrics::SimMetrics::new("wordcount");
            let quiet = SimConfig {
                metric_noise: 0.0,
                ..SimConfig::default()
            };
            let topology = wordcount_topology(PARALLELISM, RATE);
            let mut sim = Simulation::new(topology.clone(), quiet).unwrap();
            sim.run_minutes_into(60, &metrics);
            let newest = metrics.db().watermark().unwrap();
            metrics.record_instance(SOURCE_OFFERED, "spout", 0, 0, newest + 60_000, hostile);
            let caladrius = Caladrius::new(
                Arc::new(SimMetricsProvider::new(metrics)),
                Arc::new(StaticTracker::new().with(topology)),
            );

            let history = caladrius.source_history("wordcount").unwrap();
            assert_eq!(history.last().unwrap().ts, newest, "{hostile}");
            let recent = history.iter().rev().take(5).map(|p| p.y);
            let mean = recent.sum::<f64>() / 5.0;
            assert!((mean - RATE).abs() < 1.0, "{mean}");
            let current = caladrius
                .evaluate("wordcount", &HashMap::new(), &SourceRateSpec::Current)
                .unwrap();
            assert_eq!(current.source_rate.to_bits(), mean.to_bits(), "{hostile}");
            for model in ["prophet", "stats_summary", "ar"] {
                let source = SourceRateSpec::Forecast {
                    model: Some(model.to_string()),
                    conservative: false,
                };
                let report = caladrius
                    .evaluate("wordcount", &HashMap::new(), &source)
                    .unwrap();
                assert!(report.source_rate > 0.0, "{model} at {hostile}");
            }
        }
    }

    #[test]
    fn truncation_forces_full_refit() {
        let (caladrius, metrics) = service_with_metrics();
        let source = SourceRateSpec::Fixed(30.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let before = caladrius.model_cache_stats();

        // Retention drops the oldest leg: the cached sufficient
        // statistics cover windows that no longer exist, so the delta
        // path must be refused even though only the watermark moved.
        metrics.db().truncate_before(200 * 60_000).unwrap();
        run_leg(&metrics, 600, 24.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after = caladrius.model_cache_stats();
        assert_eq!(
            after.incremental_fits, before.incremental_fits,
            "truncated history must not be patched incrementally"
        );
        assert!(
            after.full_fits > before.full_fits,
            "truncation must force a full refit"
        );
    }

    #[test]
    fn truncation_at_an_unchanged_watermark_is_cold() {
        let (caladrius, metrics) = service_with_metrics();
        let source = SourceRateSpec::Fixed(30.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let before = caladrius.model_cache_stats();

        // The newest minute stays, so the watermark does not move — but
        // the models were fitted on legs that are gone now.
        let watermark = metrics.db().watermark();
        assert!(metrics.db().truncate_before(300 * 60_000).unwrap() > 0);
        assert_eq!(metrics.db().watermark(), watermark);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after = caladrius.model_cache_stats();
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.misses, before.misses + 1);
        assert!(after.full_fits > before.full_fits);
        assert_eq!(after.incremental_fits, before.incremental_fits);
    }

    #[test]
    fn retention_eviction_forces_full_refit() {
        let (caladrius, metrics) = service_with_metrics();
        let source = SourceRateSpec::Fixed(30.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let before = caladrius.model_cache_stats();

        // A retention pass evicts old chunks through the same truncation
        // path the cache guards on (the generation counter), so fitted
        // state over evicted windows must be rebuilt in full.
        let dropped = caladrius_tsdb::retention::RetentionPolicy::hours(4)
            .enforce(&metrics.db())
            .unwrap();
        assert!(dropped > 0, "retention must evict chunks for this test");
        run_leg(&metrics, 600, 24.0e6);
        caladrius
            .evaluate("wordcount", &HashMap::new(), &source)
            .unwrap();
        let after = caladrius.model_cache_stats();
        assert_eq!(after.incremental_fits, before.incremental_fits);
        assert!(
            after.full_fits > before.full_fits,
            "retention-driven eviction must force a full refit"
        );
    }

    #[test]
    fn forecaster_cache_refits_over_the_window_and_matches_a_fresh_service() {
        let models: Vec<String> = ["prophet", "stats_summary", "ar"]
            .map(String::from)
            .to_vec();
        // Prophet needs 31 points: the slid window must still hold them.
        const WINDOW: u32 = 400;
        let metrics = sweep_metrics();
        let caladrius = batch_reference(&metrics, WINDOW);
        let first = caladrius
            .forecast_traffic("wordcount", Some(&models))
            .unwrap();
        let again = caladrius
            .forecast_traffic("wordcount", Some(&models))
            .unwrap();
        assert_eq!(first, again, "cached forecaster must be deterministic");

        // New data: every forecaster is refitted over the slid window,
        // which is what a fresh service fits.
        run_leg(&metrics, 600, 24.0e6);
        let served = caladrius
            .forecast_traffic("wordcount", Some(&models))
            .unwrap();
        let fresh = batch_reference(&metrics, WINDOW)
            .forecast_traffic("wordcount", Some(&models))
            .unwrap();
        let bits = |forecasts: &[TrafficForecast]| -> Vec<(i64, u64, u64, u64)> {
            let points = forecasts.iter().flat_map(|f| &f.points);
            let bits = |p: &caladrius_forecast::ForecastPoint| {
                (p.ts, p.yhat.to_bits(), p.lower.to_bits(), p.upper.to_bits())
            };
            points.map(bits).collect()
        };
        assert_eq!(bits(&served), bits(&fresh));
        assert_eq!(served.len(), 3);
    }

    /// Re-registering a traffic model replaces what it forecasts at once,
    /// under an unchanged stamp: the served forecast is the new factory's,
    /// as a fresh service with that factory gives it.
    #[test]
    fn re_registering_a_traffic_model_serves_the_new_forecaster() {
        use caladrius_forecast::ar::ArModel;
        let ar =
            || -> Box<dyn caladrius_forecast::Forecaster + Send> { Box::new(ArModel::new(2, 0.9)) };
        let (mut caladrius, metrics) = service_with_metrics();
        let model = ["stats_summary".to_string()];
        let before = caladrius
            .forecast_traffic("wordcount", Some(&model))
            .unwrap();
        caladrius
            .traffic_registry_mut()
            .register("stats_summary", ar);
        let served = caladrius
            .forecast_traffic("wordcount", Some(&model))
            .unwrap();

        let window = crate::config::CaladriusConfig::default().source_window_minutes;
        let mut fresh = batch_reference(&metrics, window);
        fresh.traffic_registry_mut().register("stats_summary", ar);
        assert_eq!(
            served,
            fresh.forecast_traffic("wordcount", Some(&model)).unwrap()
        );
        assert_ne!(served, before);
    }

    /// Four what-ifs released together after a new leg share one slide
    /// and one fit: per round one model-cache miss, one tail read, no
    /// whole-window read and one fit's worth of fits, the other three
    /// readers waiting for the first (hits). Four Prophet what-ifs after
    /// the next legs fit Prophet once a round.
    #[test]
    fn concurrent_readers_in_a_new_minute_share_one_slide_and_one_fit() {
        use caladrius_forecast::{ForecastError, ForecastPoint, Forecaster};
        use std::sync::atomic::{AtomicU64, Ordering};

        /// A forecaster that counts its fits.
        struct CountedFits(Box<dyn Forecaster + Send>, Arc<AtomicU64>);
        impl Forecaster for CountedFits {
            fn fit(&mut self, history: &[DataPoint]) -> std::result::Result<(), ForecastError> {
                self.1.fetch_add(1, Ordering::SeqCst);
                self.0.fit(history)
            }
            fn predict(
                &self,
                timestamps: &[i64],
            ) -> std::result::Result<Vec<ForecastPoint>, ForecastError> {
                self.0.predict(timestamps)
            }
            fn name(&self) -> &'static str {
                self.0.name()
            }
        }

        const WINDOW: u32 = 400;
        const READERS: u64 = 4;
        let metrics = sweep_metrics();
        let mut caladrius = batch_reference(&metrics, WINDOW);
        let prophet_fits = Arc::new(AtomicU64::new(0));
        let fits = Arc::clone(&prophet_fits);
        caladrius
            .traffic_registry_mut()
            .register("prophet", move || {
                let prophet = TrafficModelRegistry::with_defaults().create("prophet");
                Box::new(CountedFits(prophet.unwrap(), Arc::clone(&fits)))
            });
        caladrius.fitted_models("wordcount").unwrap();
        let what_ifs = |source: &SourceRateSpec| {
            let barrier = std::sync::Barrier::new(READERS as usize);
            std::thread::scope(|scope| {
                for _ in 0..READERS {
                    scope.spawn(|| {
                        barrier.wait();
                        caladrius
                            .evaluate("wordcount", &HashMap::new(), source)
                            .unwrap()
                    });
                }
            });
        };
        let fixed = SourceRateSpec::Fixed(30.0e6);
        let prophet = SourceRateSpec::Forecast {
            model: Some("prophet".into()),
            conservative: false,
        };
        for round in 0..25 {
            run_leg(&metrics, 600 + round * 100, 24.0e6);
            let (stats, reads) = (
                caladrius.model_cache_stats(),
                caladrius.source_history_reads(),
            );
            let fitted = prophet_fits.load(Ordering::SeqCst);
            let forecasting = round >= 20;
            what_ifs(if forecasting { &prophet } else { &fixed });
            let (after, after_reads) = (
                caladrius.model_cache_stats(),
                caladrius.source_history_reads(),
            );
            assert_eq!(after.misses - stats.misses, 1, "round {round}");
            assert_eq!(after.hits - stats.hits, READERS - 1, "round {round}");
            assert_eq!(after_reads.tail - reads.tail, 1, "round {round}");
            assert_eq!(after_reads.full, reads.full, "round {round}");
            let fresh = batch_reference(&metrics, WINDOW);
            fresh.fitted_models("wordcount").unwrap();
            let one_fit = fresh.model_cache_stats().fits;
            assert_eq!(after.fits - stats.fits, one_fit, "round {round}");
            let prophet_fitted = prophet_fits.load(Ordering::SeqCst) - fitted;
            assert_eq!(prophet_fitted, u64::from(forecasting), "round {round}");
            if !forecasting {
                assert_eq!(after_reads.hit - reads.hit, READERS - 1, "round {round}");
            }
        }
    }

    /// A fit that fails is a function of its window like a model is: a
    /// second call under the same stamp gets the same error without a
    /// store read or a fit, and the next minute fits again.
    #[test]
    fn a_failed_fit_is_served_until_the_stamp_moves() {
        let idle = wordcount_topology(PARALLELISM, 0.0);
        let quiet = SimConfig {
            metric_noise: 0.0,
            ..SimConfig::default()
        };
        let metrics = heron_sim::metrics::SimMetrics::new("wordcount");
        let mut sim = Simulation::new(idle, quiet.clone()).unwrap();
        sim.run_minutes_into(30, &metrics);
        let (caladrius, provider) = ProbedProvider::over(&metrics);

        let failed = caladrius.fitted_models("wordcount").unwrap_err();
        assert!(
            matches!(failed, CoreError::NotEnoughObservations { .. }),
            "{failed:?}"
        );
        let first = caladrius.model_cache_stats();
        assert_eq!((first.misses, first.hits, first.fits), (1, 0, 0));
        provider.reads.lock().clear();
        assert_eq!(caladrius.fitted_models("wordcount").unwrap_err(), failed);
        assert!(provider.reads.lock().is_empty());
        let again = caladrius.model_cache_stats();
        assert_eq!((again.misses, again.hits, again.fits), (1, 1, 0));

        // A loaded minute lands: the window slides and the models fit.
        let mut loaded = Simulation::new(wordcount_topology(PARALLELISM, 8.0e6), quiet).unwrap();
        loaded.skip_to_minute(30);
        loaded.warmup_minutes(30);
        loaded.run_minutes_into(1, &metrics);
        caladrius.fitted_models("wordcount").unwrap();
        let after = caladrius.model_cache_stats();
        assert_eq!((after.misses, after.hits), (2, 1));
        assert!(after.fits > 0 && after.fits == after.incremental_fits);
        assert_eq!(caladrius.source_history_reads().tail, 1);
    }
}
