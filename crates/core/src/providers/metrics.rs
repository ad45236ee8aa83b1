//! Metrics provider: the interface Caladrius pulls performance metrics
//! through, and the observation-window assembly feeding the models.

use crate::error::{CoreError, Result};
use crate::model::component::ComponentObservation;
use crate::model::cpu::CpuObservation;
use caladrius_forecast::DataPoint;
use caladrius_tsdb::{IngestStats, Sample};
use heron_sim::metrics::{metric, SimMetrics};
use std::collections::BTreeMap;

/// Backpressure-time (ms per minute) above which a window counts as
/// backpressured. The metric is bimodal (≈0 or ≈60 000, paper §IV-B1), so
/// the exact threshold is uncritical.
pub const BACKPRESSURE_THRESHOLD_MS: f64 = 1_000.0;

/// Access to per-minute, per-instance metrics of running topologies —
/// the paper's "Metrics Interface", implemented against Cuckoo and the
/// HeronMetricsCache at Twitter, and against the simulator tsdb here.
pub trait MetricsProvider: Send + Sync {
    /// Per-minute sum of `metric_name` across all instances of
    /// `component` in `[from, to]`.
    fn component_series(
        &self,
        topology: &str,
        component: &str,
        metric_name: &str,
        from: i64,
        to: i64,
    ) -> Result<Vec<Sample>>;

    /// Per-minute series of `metric_name` per instance of `component` in
    /// `[from, to]`.
    ///
    /// Contract: every instance's series is ascending in `ts` with at
    /// most one sample per minute bucket (what `tsdb::query::combine`
    /// returns) — [`component_observations`] binary-searches it.
    fn per_instance_series(
        &self,
        topology: &str,
        component: &str,
        metric_name: &str,
        from: i64,
        to: i64,
    ) -> Result<Vec<(u32, Vec<Sample>)>>;

    /// Timestamp (ms) of the newest recorded minute for the topology, if
    /// any data exists. Doubles as the data watermark keying the model
    /// cache in [`crate::service::Caladrius`], so it must advance whenever
    /// new samples land.
    fn latest_minute(&self, topology: &str) -> Option<i64>;

    /// Monotone counter of retention truncations that actually dropped
    /// samples from the backing store, when the store exposes one.
    /// Incremental fit consumers compare snapshots: a change means
    /// already-absorbed history was rewritten, so accumulated sufficient
    /// statistics are invalid and a full refit is due. `None` means the
    /// provider cannot detect truncation (callers must then choose
    /// between trusting the data or always refitting).
    fn truncation_generation(&self) -> Option<u64> {
        None
    }

    /// Cumulative ingest counters of the backing store, if it exposes
    /// them (`None` for providers without ingest visibility).
    fn ingest_stats(&self) -> Option<IngestStats> {
        None
    }

    /// Raw series access for ad-hoc queries (the metrics-debugging
    /// endpoint): every series of `metric_name` within the topology that
    /// matches `filters`, with its full key.
    fn select_series(
        &self,
        topology: &str,
        metric_name: &str,
        filters: &[caladrius_tsdb::TagFilter],
        from: i64,
        to: i64,
    ) -> Result<Vec<(caladrius_tsdb::SeriesKey, Vec<Sample>)>>;
}

/// The tsdb-backed provider used with the simulator.
#[derive(Debug, Clone)]
pub struct SimMetricsProvider {
    metrics: SimMetrics,
}

impl SimMetricsProvider {
    /// Wraps a simulation's metrics store.
    pub fn new(metrics: SimMetrics) -> Self {
        Self { metrics }
    }
}

impl MetricsProvider for SimMetricsProvider {
    fn component_series(
        &self,
        topology: &str,
        component: &str,
        metric_name: &str,
        from: i64,
        to: i64,
    ) -> Result<Vec<Sample>> {
        if topology != self.metrics.topology() {
            return Err(CoreError::Unknown(format!("topology {topology:?}")));
        }
        Ok(self
            .metrics
            .component_sum(metric_name, Some(component), from, to))
    }

    fn per_instance_series(
        &self,
        topology: &str,
        component: &str,
        metric_name: &str,
        from: i64,
        to: i64,
    ) -> Result<Vec<(u32, Vec<Sample>)>> {
        if topology != self.metrics.topology() {
            return Err(CoreError::Unknown(format!("topology {topology:?}")));
        }
        Ok(self.metrics.per_instance(metric_name, component, from, to))
    }

    fn latest_minute(&self, topology: &str) -> Option<i64> {
        if topology != self.metrics.topology() {
            return None;
        }
        // O(1) off the per-db watermark — no catalog scan, no series
        // locks. All simulator metrics for a minute land in one batch, so
        // the watermark is exactly the newest flushed minute.
        self.metrics.db().watermark()
    }

    fn truncation_generation(&self) -> Option<u64> {
        Some(self.metrics.db().truncation_generation())
    }

    fn ingest_stats(&self) -> Option<IngestStats> {
        Some(self.metrics.db().ingest_stats())
    }

    fn select_series(
        &self,
        topology: &str,
        metric_name: &str,
        filters: &[caladrius_tsdb::TagFilter],
        from: i64,
        to: i64,
    ) -> Result<Vec<(caladrius_tsdb::SeriesKey, Vec<Sample>)>> {
        if topology != self.metrics.topology() {
            return Err(CoreError::Unknown(format!("topology {topology:?}")));
        }
        let mut scoped = vec![caladrius_tsdb::TagFilter::eq(
            heron_sim::metrics::tag::TOPOLOGY,
            topology,
        )];
        scoped.extend_from_slice(filters);
        Ok(self.metrics.db().select(metric_name, &scoped, from, to)?)
    }
}

/// Assembles per-minute [`ComponentObservation`]s for one component.
///
/// `upstream_emits` lists `(upstream component, fraction of its emission
/// that reaches this component)` pairs; the component's source rate per
/// minute is the weighted sum of those upstream emit series — "the
/// throughput that the external source provides whilst waiting to be
/// processed by the entity" (paper §II-C), seen from inside the topology.
///
/// A window without observations is [`CoreError::NotEnoughObservations`]
/// — here and in [`source_history`] and [`cpu_observations`]; delta
/// readers turn that back into an empty delta with `or_empty`.
pub fn component_observations(
    provider: &dyn MetricsProvider,
    topology: &str,
    component: &str,
    upstream_emits: &[(String, f64)],
    from: i64,
    to: i64,
) -> Result<Vec<ComponentObservation>> {
    let input = provider.component_series(topology, component, metric::EXECUTE_COUNT, from, to)?;
    let output = provider.component_series(topology, component, metric::EMIT_COUNT, from, to)?;
    let bp = provider.component_series(topology, component, metric::BACKPRESSURE_TIME, from, to)?;
    let per_instance =
        provider.per_instance_series(topology, component, metric::EXECUTE_COUNT, from, to)?;

    // Source = weighted sum of upstream emissions, minute-aligned.
    let mut source: BTreeMap<i64, f64> = BTreeMap::new();
    for (upstream, weight) in upstream_emits {
        for s in provider.component_series(topology, upstream, metric::EMIT_COUNT, from, to)? {
            *source.entry(s.ts).or_insert(0.0) += s.value * weight;
        }
    }

    let input_by_ts: BTreeMap<i64, f64> = input.iter().map(|s| (s.ts, s.value)).collect();
    let output_by_ts: BTreeMap<i64, f64> = output.iter().map(|s| (s.ts, s.value)).collect();
    let bp_by_ts: BTreeMap<i64, f64> = bp.iter().map(|s| (s.ts, s.value)).collect();

    let mut observations = Vec::new();
    for (ts, input_rate) in &input_by_ts {
        let Some(output_rate) = output_by_ts.get(ts) else {
            continue;
        };
        let source_rate = source.get(ts).copied().unwrap_or(*input_rate);
        let backpressured = bp_by_ts.get(ts).copied().unwrap_or(0.0) > BACKPRESSURE_THRESHOLD_MS;
        let per_instance_inputs: Vec<f64> = per_instance
            .iter()
            .map(|(_, series)| {
                series
                    .binary_search_by_key(ts, |s| s.ts)
                    .map_or(0.0, |i| series[i].value)
            })
            .collect();
        observations.push(ComponentObservation {
            source_rate,
            input_rate: *input_rate,
            output_rate: *output_rate,
            per_instance_inputs,
            backpressured,
        });
    }
    if observations.is_empty() {
        return Err(CoreError::NotEnoughObservations {
            what: format!("component observations for {component:?}"),
            needed: 1,
            got: 0,
        });
    }
    Ok(observations)
}

/// The topology's source-throughput history (offered load summed over all
/// spouts, tuples/min) as forecaster training data.
pub fn source_history(
    provider: &dyn MetricsProvider,
    topology: &str,
    spouts: &[String],
    from: i64,
    to: i64,
) -> Result<Vec<DataPoint>> {
    let mut by_ts: BTreeMap<i64, f64> = BTreeMap::new();
    for spout in spouts {
        for s in provider.component_series(topology, spout, metric::SOURCE_OFFERED, from, to)? {
            *by_ts.entry(s.ts).or_insert(0.0) += s.value;
        }
    }
    if by_ts.is_empty() {
        return Err(no_source_history(topology));
    }
    Ok(by_ts
        .into_iter()
        .map(|(ts, y)| DataPoint::new(ts, y))
        .collect())
}

fn no_source_history(topology: &str) -> CoreError {
    CoreError::NotEnoughObservations {
        what: format!("source history for {topology:?}"),
        needed: 1,
        got: 0,
    }
}

/// Slides a history that [`source_history`] read up to `read_to` forward
/// to the window `[from, to]`: reads only `[read_to + 1, to]`, appends it
/// and drops the points older than `from`.
///
/// Every point is a per-minute sum that neither read splits, so the
/// result is bit for bit what `source_history(.., from, to)` returns —
/// provided nothing at or before `read_to` changed in the store since
/// (no truncation, no late sample, same spouts); the caller's version
/// stamp vouches for that.
pub fn slide_source_history(
    provider: &dyn MetricsProvider,
    topology: &str,
    spouts: &[String],
    history: &mut Vec<DataPoint>,
    read_to: i64,
    from: i64,
    to: i64,
) -> Result<()> {
    let delta = source_history(provider, topology, spouts, read_to.saturating_add(1), to);
    history.extend(or_empty(delta)?);
    let expired = history.partition_point(|p| p.ts < from);
    history.drain(..expired);
    if history.is_empty() {
        return Err(no_source_history(topology));
    }
    Ok(())
}

/// Pools per-instance `(input rate, cpu load)` pairs of a component into
/// CPU-model training data.
///
/// Backpressured windows are excluded: at saturation the measured CPU is
/// clipped at the instance's allocation ("its CPU ... load is supposed to
/// be at the maximum possible level", paper §V-E), so including those
/// windows would bias the linear ratio ψ.
pub fn cpu_observations(
    provider: &dyn MetricsProvider,
    topology: &str,
    component: &str,
    from: i64,
    to: i64,
) -> Result<Vec<CpuObservation>> {
    let inputs =
        provider.per_instance_series(topology, component, metric::EXECUTE_COUNT, from, to)?;
    let cpus = provider.per_instance_series(topology, component, metric::CPU_LOAD, from, to)?;
    let bps =
        provider.per_instance_series(topology, component, metric::BACKPRESSURE_TIME, from, to)?;
    let by_instance = |series: Vec<(u32, Vec<Sample>)>| -> BTreeMap<u32, BTreeMap<i64, f64>> {
        series
            .into_iter()
            .map(|(i, s)| (i, s.into_iter().map(|x| (x.ts, x.value)).collect()))
            .collect()
    };
    let cpu_by_instance = by_instance(cpus);
    let bp_by_instance = by_instance(bps);
    let mut observations = Vec::new();
    for (instance, series) in inputs {
        let Some(cpu_series) = cpu_by_instance.get(&instance) else {
            continue;
        };
        let bp_series = bp_by_instance.get(&instance);
        for s in series {
            let backpressured = bp_series
                .and_then(|b| b.get(&s.ts))
                .is_some_and(|ms| *ms > BACKPRESSURE_THRESHOLD_MS);
            if backpressured {
                continue;
            }
            if let Some(cpu) = cpu_series.get(&s.ts) {
                observations.push(CpuObservation {
                    input_rate: s.value,
                    cpu_load: *cpu,
                });
            }
        }
    }
    if observations.is_empty() {
        return Err(CoreError::NotEnoughObservations {
            what: format!("cpu observations for {component:?}"),
            needed: 2,
            got: 0,
        });
    }
    Ok(observations)
}

/// For delta reads (`from = since + 1`) through the assemblers above: no
/// new minute may have landed yet, so there an empty window is an empty
/// delta, not [`CoreError::NotEnoughObservations`]. Providers must not
/// return that variant themselves: it would be swallowed here too.
pub(crate) fn or_empty<T>(window: Result<Vec<T>>) -> Result<Vec<T>> {
    match window {
        Err(CoreError::NotEnoughObservations { .. }) => Ok(Vec::new()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_sim::engine::{SimConfig, Simulation};
    use heron_sim::grouping::Grouping;
    use heron_sim::profiles::RateProfile;
    use heron_sim::topology::{TopologyBuilder, WorkProfile};

    fn run_sim(rate: f64) -> SimMetrics {
        let topo = TopologyBuilder::new("t")
            .spout("spout", 2, RateProfile::constant(rate), 60)
            .bolt(
                "bolt",
                2,
                WorkProfile::new(1000.0, 2.0, 8).with_gateway_overhead(0.0),
            )
            .edge("spout", "bolt", Grouping::shuffle())
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
        sim.run_minutes(10)
    }

    #[test]
    fn provider_reads_component_series() {
        let provider = SimMetricsProvider::new(run_sim(500.0));
        let series = provider
            .component_series("t", "bolt", metric::EXECUTE_COUNT, 0, i64::MAX)
            .unwrap();
        assert_eq!(series.len(), 10);
        assert!((series[5].value - 500.0 * 60.0).abs() < 1.0);
        assert!(provider
            .component_series("other", "bolt", metric::EXECUTE_COUNT, 0, 1)
            .is_err());
        assert!(provider.latest_minute("t").is_some());
        assert!(provider.latest_minute("other").is_none());
    }

    /// The windows every assembler test reads: the usual one, and the
    /// widest there is (`from - 1` used to overflow on it).
    const WINDOWS: [(i64, i64); 2] = [(0, i64::MAX), (i64::MIN, i64::MAX)];

    #[test]
    fn observations_align_minutes() {
        let provider = SimMetricsProvider::new(run_sim(500.0));
        for (from, to) in WINDOWS {
            let upstream = [("spout".to_string(), 1.0)];
            let obs = component_observations(&provider, "t", "bolt", &upstream, from, to).unwrap();
            assert_eq!(obs.len(), 10);
            for o in &obs {
                assert!((o.source_rate - 30_000.0).abs() < 1.0);
                assert!((o.input_rate - 30_000.0).abs() < 1.0);
                // The bolt is a sink: its recorded output is its processing
                // throughput (the way the paper counts the Counter's output),
                // not input × selectivity.
                assert!((o.output_rate - 30_000.0).abs() < 1.0);
                assert_eq!(o.per_instance_inputs.len(), 2);
                // Shuffle grouping: each instance sees half the input.
                assert!(o
                    .per_instance_inputs
                    .iter()
                    .all(|i| (i - 15_000.0).abs() < 1.0));
                assert!(!o.backpressured);
            }
        }
    }

    #[test]
    fn source_history_sums_spouts() {
        let provider = SimMetricsProvider::new(run_sim(500.0));
        for (from, to) in WINDOWS {
            let hist = source_history(&provider, "t", &["spout".to_string()], from, to).unwrap();
            assert_eq!(hist.len(), 10);
            assert!((hist[0].y - 30_000.0).abs() < 1.0);
            assert!(hist.windows(2).all(|w| w[1].ts - w[0].ts == 60_000));
        }
    }

    #[test]
    fn cpu_observations_pool_instances() {
        let provider = SimMetricsProvider::new(run_sim(500.0));
        for (from, to) in WINDOWS {
            let obs = cpu_observations(&provider, "t", "bolt", from, to).unwrap();
            assert_eq!(obs.len(), 20); // 2 instances x 10 minutes
            for o in &obs {
                assert!(o.cpu_load > 0.0 && o.cpu_load <= 1.0);
                assert!(o.input_rate > 0.0);
            }
        }
    }

    #[test]
    fn per_instance_series_are_ascending_with_one_sample_per_minute() {
        // The contract `component_observations` binary-searches on, with
        // a late duplicate in one minute bucket to make it bite.
        let metrics = run_sim(500.0);
        let late = metrics.db().watermark().unwrap() - 3 * 60_000 + 1_000;
        metrics.record_instance(metric::EXECUTE_COUNT, "bolt", 1, 0, late, 1.0);
        let provider = SimMetricsProvider::new(metrics);
        let per_instance = provider
            .per_instance_series("t", "bolt", metric::EXECUTE_COUNT, i64::MIN, i64::MAX)
            .unwrap();
        assert_eq!(per_instance.len(), 2);
        for (_, series) in &per_instance {
            assert_eq!(series.len(), 10);
            assert!(series.iter().all(|s| s.ts % 60_000 == 0));
            assert!(series.windows(2).all(|w| w[0].ts < w[1].ts));
        }
    }

    #[test]
    fn an_empty_delta_is_not_an_error() {
        let provider = SimMetricsProvider::new(run_sim(500.0));
        let newest = provider.latest_minute("t").unwrap();
        let delta = cpu_observations(&provider, "t", "bolt", newest + 1, i64::MAX);
        assert!(matches!(
            delta,
            Err(CoreError::NotEnoughObservations { .. })
        ));
        assert!(or_empty(delta).unwrap().is_empty());
        // Any other error stays one.
        let unknown = cpu_observations(&provider, "other", "bolt", newest + 1, i64::MAX);
        assert!(matches!(or_empty(unknown), Err(CoreError::Unknown(_))));
    }

    #[test]
    fn missing_component_yields_not_enough_observations() {
        let provider = SimMetricsProvider::new(run_sim(100.0));
        assert!(matches!(
            component_observations(&provider, "t", "ghost", &[], 0, i64::MAX),
            Err(CoreError::NotEnoughObservations { .. })
        ));
        assert!(matches!(
            cpu_observations(&provider, "t", "ghost", 0, i64::MAX),
            Err(CoreError::NotEnoughObservations { .. })
        ));
        assert!(matches!(
            source_history(&provider, "t", &["ghost".to_string()], 0, i64::MAX),
            Err(CoreError::NotEnoughObservations { .. })
        ));
    }
}
