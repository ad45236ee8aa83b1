//! Metrics provider: the interface Caladrius pulls performance metrics
//! through, and the observation-window assembly feeding the models.

use crate::error::{CoreError, Result};
use crate::model::component::ComponentObservation;
use crate::model::cpu::CpuObservation;
use caladrius_forecast::DataPoint;
use caladrius_graph::topology_graph::LogicalSpec;
use caladrius_tsdb::{IngestStats, Sample};
use heron_sim::metrics::{metric, SeriesSet, SimMetrics};

/// Backpressure-time (ms per minute) above which a window counts as
/// backpressured. The metric is bimodal (≈0 or ≈60 000, paper §IV-B1), so
/// the exact threshold is uncritical.
pub const BACKPRESSURE_THRESHOLD_MS: f64 = 1_000.0;

/// Access to per-minute, per-instance metrics of running topologies —
/// the paper's "Metrics Interface", implemented against Cuckoo and the
/// HeronMetricsCache at Twitter, and against the simulator tsdb here.
pub trait MetricsProvider: Send + Sync {
    /// Every series of `metric_name` that `component` owns in
    /// `[from, to]`, read once and returned both ways round: summed per
    /// minute over all of them, and per minute per instance. Callers
    /// take the half they need.
    ///
    /// Contract ([`SeriesSet`]): `combined` adds the series in the
    /// store's key order — not in the order `per_instance` lists the
    /// instances, so it cannot be rebuilt from that half — and every
    /// instance's series is ascending in `ts` with at most one sample
    /// per minute bucket (what `tsdb::query::combine` returns); the
    /// throughput assembler walks it with a forward cursor.
    fn series_set(
        &self,
        topology: &str,
        component: &str,
        metric_name: &str,
        from: i64,
        to: i64,
    ) -> Result<SeriesSet>;

    /// Timestamp (ms) of the newest recorded minute for the topology, if
    /// any data exists. Doubles as the data watermark keying the model
    /// cache in [`crate::service::Caladrius`], so it must advance whenever
    /// new samples land.
    fn latest_minute(&self, topology: &str) -> Option<i64>;

    /// Monotone counter of retention truncations that actually dropped
    /// samples of `topology` from the backing store, when the store
    /// exposes one. Incremental fit consumers compare snapshots: a change
    /// means already-absorbed history was rewritten, so accumulated
    /// sufficient statistics are invalid and a full refit is due. `None`
    /// means the provider cannot detect truncation (callers must then
    /// choose between trusting the data or always refitting).
    fn truncation_generation(&self, _topology: &str) -> Option<u64> {
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
    fn series_set(
        &self,
        topology: &str,
        component: &str,
        metric_name: &str,
        from: i64,
        to: i64,
    ) -> Result<SeriesSet> {
        if topology != self.metrics.topology() {
            return Err(CoreError::Unknown(format!("topology {topology:?}")));
        }
        Ok(self.metrics.series_set(metric_name, component, from, to))
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

    fn truncation_generation(&self, topology: &str) -> Option<u64> {
        (topology == self.metrics.topology()).then(|| self.metrics.db().truncation_generation())
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

/// Everything one fit reads: each `(component, metric)` series set of
/// `[from, to]` exactly once — per bolt execute-count, emit-count,
/// backpressure-time and cpu-load, per spout that feeds a bolt
/// emit-count — from which both the throughput and the CPU observations
/// are assembled. A cold fit builds it over the training window, a refit
/// over the new minutes only; it does not know which.
///
/// A window without samples assembles to no observations, which is what
/// a refit sees when no new minute has landed; whether that is an error
/// is for the model being solved to say.
pub(crate) struct FitWindow<'a> {
    /// `((component, metric), what was read)`: a handful, searched.
    sets: Vec<((&'a str, &'static str), SeriesSet)>,
}

/// What a component that was not read assembles from.
static NO_SERIES: SeriesSet = SeriesSet {
    combined: Vec::new(),
    per_instance: Vec::new(),
};

impl<'a> FitWindow<'a> {
    /// Reads the window; the reads are independent and fan out on the
    /// shared "fit" pool.
    pub(crate) fn read(
        provider: &dyn MetricsProvider,
        topology: &str,
        spec: &'a LogicalSpec,
        from: i64,
        to: i64,
    ) -> Result<Self> {
        let mut reads: Vec<(&'a str, &'static str)> = Vec::new();
        for (name, _) in &spec.components {
            if spec.edges.iter().any(|(_, to_c, _)| to_c == name) {
                let bolt = [
                    metric::EXECUTE_COUNT,
                    metric::EMIT_COUNT,
                    metric::BACKPRESSURE_TIME,
                    metric::CPU_LOAD,
                ];
                reads.extend(bolt.map(|m| (name.as_str(), m)));
            } else if spec.edges.iter().any(|(from_c, _, _)| from_c == name) {
                reads.push((name.as_str(), metric::EMIT_COUNT));
            }
        }
        let sets = caladrius_exec::shared_pool("fit").parallel_try_map(
            &reads,
            |_, (component, metric_name)| {
                provider.series_set(topology, component, metric_name, from, to)
            },
        )?;
        Ok(Self {
            sets: reads.into_iter().zip(sets).collect(),
        })
    }

    fn set(&self, component: &str, metric_name: &'static str) -> &SeriesSet {
        let read = self
            .sets
            .iter()
            .find(|(key, _)| *key == (component, metric_name));
        read.map_or(&NO_SERIES, |(_, set)| set)
    }

    /// Assembles per-minute [`ComponentObservation`]s for one component.
    ///
    /// `upstream_emits` lists `(upstream component, fraction of its
    /// emission that reaches this component)` pairs; the component's
    /// source rate per minute is the weighted sum of those upstream emit
    /// series — "the throughput that the external source provides whilst
    /// waiting to be processed by the entity" (paper §II-C), seen from
    /// inside the topology.
    ///
    /// One observation per minute of the execute series that also has an
    /// emit sample. Every column is ascending ([`MetricsProvider::series_set`]'s
    /// contract), so each is joined by a cursor that moves forward only.
    pub(crate) fn component_observations(
        &self,
        component: &str,
        upstream_emits: &[(String, f64)],
    ) -> Vec<ComponentObservation> {
        let execute = self.set(component, metric::EXECUTE_COUNT);
        let mut output = Column::new(&self.set(component, metric::EMIT_COUNT).combined);
        let mut backpressure =
            Column::new(&self.set(component, metric::BACKPRESSURE_TIME).combined);
        let mut upstreams: Vec<(Column, f64)> = upstream_emits
            .iter()
            .map(|(upstream, weight)| {
                let emits = &self.set(upstream, metric::EMIT_COUNT).combined;
                (Column::new(emits), *weight)
            })
            .collect();
        let mut instances: Vec<Column> = execute
            .per_instance
            .iter()
            .map(|(_, series)| Column::new(series))
            .collect();

        let mut observations = Vec::new();
        for s in &execute.combined {
            let Some(output_rate) = output.at(s.ts) else {
                continue;
            };
            // Source = weighted sum of upstream emissions, minute-aligned,
            // added in the order the upstreams are given.
            let mut source_rate = None;
            for (emits, weight) in &mut upstreams {
                if let Some(emitted) = emits.at(s.ts) {
                    source_rate = Some(source_rate.unwrap_or(0.0) + emitted * *weight);
                }
            }
            let backpressured = backpressure.at(s.ts).unwrap_or(0.0) > BACKPRESSURE_THRESHOLD_MS;
            let per_instance_inputs: Vec<f64> = instances
                .iter_mut()
                .map(|inputs| inputs.at(s.ts).unwrap_or(0.0))
                .collect();
            observations.push(ComponentObservation {
                source_rate: source_rate.unwrap_or(s.value),
                input_rate: s.value,
                output_rate,
                per_instance_inputs,
                backpressured,
            });
        }
        observations
    }

    /// Pools per-instance `(input rate, cpu load)` pairs of a component
    /// into CPU-model training data, instance by instance in the order
    /// the execute read lists them, minute by minute.
    ///
    /// Backpressured windows are excluded: at saturation the measured CPU
    /// is clipped at the instance's allocation ("its CPU ... load is
    /// supposed to be at the maximum possible level", paper §V-E), so
    /// including those windows would bias the linear ratio ψ.
    pub(crate) fn cpu_observations(&self, component: &str) -> Vec<CpuObservation> {
        let series_of = |metric_name, instance: &u32| {
            let per_instance = &self.set(component, metric_name).per_instance;
            let found = per_instance.iter().rfind(|(i, _)| i == instance);
            found.map(|(_, series)| series.as_slice())
        };
        let mut observations = Vec::new();
        for (instance, series) in &self.set(component, metric::EXECUTE_COUNT).per_instance {
            let Some(cpu_series) = series_of(metric::CPU_LOAD, instance) else {
                continue;
            };
            let mut cpu = Column::new(cpu_series);
            let mut backpressure =
                Column::new(series_of(metric::BACKPRESSURE_TIME, instance).unwrap_or(&[]));
            for s in series {
                let backpressured = backpressure
                    .at(s.ts)
                    .is_some_and(|ms| ms > BACKPRESSURE_THRESHOLD_MS);
                if backpressured {
                    continue;
                }
                if let Some(cpu_load) = cpu.at(s.ts) {
                    observations.push(CpuObservation {
                        input_rate: s.value,
                        cpu_load,
                    });
                }
            }
        }
        observations
    }
}

/// An ascending series read at ascending timestamps: a forward-only
/// cursor that answers what a `ts → value` map built from the series
/// would (the last sample at a timestamp wins).
struct Column<'s> {
    samples: &'s [Sample],
    next: usize,
}

impl<'s> Column<'s> {
    fn new(samples: &'s [Sample]) -> Self {
        Self { samples, next: 0 }
    }

    /// The value at `ts`, which must not be below any earlier probe.
    fn at(&mut self, ts: i64) -> Option<f64> {
        let ahead = &self.samples[self.next..];
        self.next += ahead.iter().take_while(|s| s.ts <= ts).count();
        let last = self.next.checked_sub(1).map(|i| self.samples[i]);
        last.filter(|s| s.ts == ts).map(|s| s.value)
    }
}

/// Spout-summed offered load per minute in `[from, to]`; empty when
/// nothing was recorded there. Each minute's sum starts at `0.0` and adds
/// the spouts that recorded it in the order they are given.
fn read_source_history(
    provider: &dyn MetricsProvider,
    topology: &str,
    spouts: &[String],
    from: i64,
    to: i64,
) -> Result<Vec<DataPoint>> {
    let mut history: Vec<DataPoint> = Vec::new();
    for spout in spouts {
        let offered = provider.series_set(topology, spout, metric::SOURCE_OFFERED, from, to)?;
        history = add_minutes(history, &offered.combined);
    }
    Ok(history)
}

/// Merges one ascending per-minute series into an ascending running sum:
/// a minute only `series` has enters as `0.0 + value`.
fn add_minutes(sum: Vec<DataPoint>, series: &[Sample]) -> Vec<DataPoint> {
    let mut merged = Vec::with_capacity(sum.len().max(series.len()));
    let mut sum = sum.into_iter().peekable();
    for s in series {
        while let Some(point) = sum.next_if(|p| p.ts < s.ts) {
            merged.push(point);
        }
        let before = sum.next_if(|p| p.ts == s.ts).map_or(0.0, |p| p.y);
        merged.push(DataPoint::new(s.ts, before + s.value));
    }
    merged.extend(sum);
    merged
}

fn no_source_history(topology: &str) -> CoreError {
    CoreError::NotEnoughObservations {
        what: format!("source history for {topology:?}"),
        needed: 1,
        got: 0,
    }
}

/// The topology's source-throughput history (offered load summed over all
/// spouts, tuples/min) as forecaster training data. A window without
/// observations is [`CoreError::NotEnoughObservations`].
pub fn source_history(
    provider: &dyn MetricsProvider,
    topology: &str,
    spouts: &[String],
    from: i64,
    to: i64,
) -> Result<Vec<DataPoint>> {
    let history = read_source_history(provider, topology, spouts, from, to)?;
    if history.is_empty() {
        return Err(no_source_history(topology));
    }
    Ok(history)
}

/// Slides a history that [`source_history`] read up to `read_to` forward
/// to the window `[from, to]`: reads only `[read_to + 1, to]` (no new
/// minute may have landed yet: an empty delta), appends it and drops the
/// points older than `from`.
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
    let since = read_to.saturating_add(1);
    history.extend(read_source_history(provider, topology, spouts, since, to)?);
    let expired = history.partition_point(|p| p.ts < from);
    history.drain(..expired);
    if history.is_empty() {
        return Err(no_source_history(topology));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_sim::engine::{SimConfig, Simulation};
    use heron_sim::grouping::Grouping;
    use heron_sim::profiles::RateProfile;
    use heron_sim::topology::{TopologyBuilder, WorkProfile};
    use std::collections::BTreeMap;

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

    /// The logical spec of [`run_sim`]'s topology, plus a bolt nothing
    /// was ever recorded for.
    fn spec() -> LogicalSpec {
        LogicalSpec::new("t")
            .component("spout", 2)
            .component("bolt", 2)
            .component("ghost", 1)
            .edge("spout", "bolt", "shuffle")
            .edge("spout", "ghost", "shuffle")
    }

    #[test]
    fn provider_reads_component_series() {
        let provider = SimMetricsProvider::new(run_sim(500.0));
        let series = provider
            .series_set("t", "bolt", metric::EXECUTE_COUNT, 0, i64::MAX)
            .unwrap()
            .combined;
        assert_eq!(series.len(), 10);
        assert!((series[5].value - 500.0 * 60.0).abs() < 1.0);
        assert!(provider
            .series_set("other", "bolt", metric::EXECUTE_COUNT, 0, 1)
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
            let spec = spec();
            let window = FitWindow::read(&provider, "t", &spec, from, to).unwrap();
            let obs = window.component_observations("bolt", &upstream);
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
            let spec = spec();
            let window = FitWindow::read(&provider, "t", &spec, from, to).unwrap();
            let obs = window.cpu_observations("bolt");
            assert_eq!(obs.len(), 20); // 2 instances x 10 minutes
            for o in &obs {
                assert!(o.cpu_load > 0.0 && o.cpu_load <= 1.0);
                assert!(o.input_rate > 0.0);
            }
        }
    }

    #[test]
    fn per_instance_views_are_ascending_with_one_sample_per_minute() {
        // The contract `component_observations`' per-instance cursors rely on, with
        // a late duplicate in one minute bucket to make it bite.
        let metrics = run_sim(500.0);
        let late = metrics.db().watermark().unwrap() - 3 * 60_000 + 1_000;
        metrics.record_instance(metric::EXECUTE_COUNT, "bolt", 1, 0, late, 1.0);
        let provider = SimMetricsProvider::new(metrics);
        let per_instance = provider
            .series_set("t", "bolt", metric::EXECUTE_COUNT, i64::MIN, i64::MAX)
            .unwrap()
            .per_instance;
        assert_eq!(per_instance.len(), 2);
        for (_, series) in &per_instance {
            assert_eq!(series.len(), 10);
            assert!(series.iter().all(|s| s.ts % 60_000 == 0));
            assert!(series.windows(2).all(|w| w[0].ts < w[1].ts));
        }
    }

    /// The per-instance metrics a fit reads of a bolt.
    const BOLT_METRICS: [&str; 4] = [
        metric::EXECUTE_COUNT,
        metric::EMIT_COUNT,
        metric::BACKPRESSURE_TIME,
        metric::CPU_LOAD,
    ];

    /// An hour of WordCount (spout 8, splitter 5, counter 7) with a
    /// repack: from the last simulated minute on, every counter instance
    /// also reports from another container, so in any window across it
    /// an instance owns two series (and in that one minute two samples,
    /// which the per-instance view merges). Returns the store and its
    /// last simulated minute.
    fn repacked_wordcount() -> (SimMetrics, i64) {
        use caladrius_workload::wordcount::{wordcount_topology, WordCountParallelism};
        let parallelism = WordCountParallelism {
            spout: 8,
            splitter: 5,
            counter: 7,
        };
        let topo = wordcount_topology(parallelism, 20.0e6);
        let mut sim = Simulation::new(topo, SimConfig::default()).unwrap();
        sim.warmup_minutes(2);
        let metrics = sim.run_minutes(60);
        let newest = metrics.db().watermark().unwrap();
        for minute in 0..6 {
            for instance in 0..7u32 {
                for (m, name) in BOLT_METRICS.iter().enumerate() {
                    let value = 0.1 + f64::from(instance * 31 + minute * 7 + m as u32) / 3.0;
                    let ts = newest + i64::from(minute) * 60_000;
                    metrics.record_instance(name, "counter", instance, 40 - instance, ts, value);
                }
            }
        }
        (metrics, newest)
    }

    #[test]
    fn one_read_returns_both_views_in_the_stores_order() {
        let (metrics, newest) = repacked_wordcount();
        let metric_names = BOLT_METRICS;

        let bits = |s: &[Sample]| -> Vec<(i64, u64)> {
            s.iter().map(|x| (x.ts, x.value.to_bits())).collect()
        };
        let provider = SimMetricsProvider::new(metrics.clone());
        let mut interleaved = 0;
        for (from, to) in [
            (i64::MIN, i64::MAX),
            (newest - 5 * 60_000, newest + 2 * 60_000),
        ] {
            for component in ["spout", "splitter", "counter"] {
                for name in metric_names {
                    let set = provider.series_set("t", component, name, from, to);
                    assert!(matches!(set, Err(CoreError::Unknown(_))));
                    let set = provider
                        .series_set("wordcount", component, name, from, to)
                        .unwrap();
                    let sum = metrics.component_sum(name, Some(component), from, to);
                    assert!(!sum.is_empty(), "{component} {name}");
                    assert_eq!(bits(&set.combined), bits(&sum), "{component} {name}");
                    let per_instance = metrics.per_instance(name, component, from, to);
                    assert_eq!(set.per_instance.len(), per_instance.len());
                    for ((i, s), (by_i, by_s)) in set.per_instance.iter().zip(&per_instance) {
                        assert_eq!(i, by_i);
                        assert_eq!(bits(s), bits(by_s), "{component} {name} instance {i}");
                    }
                    // The shortcut this read is not: per-instance rows
                    // summed in the order they come back.
                    let mut regrouped: BTreeMap<i64, f64> = BTreeMap::new();
                    for s in set.per_instance.iter().flat_map(|(_, s)| s) {
                        *regrouped.entry(s.ts).or_insert(0.0) += s.value;
                    }
                    interleaved += set
                        .combined
                        .iter()
                        .filter(|s| regrouped[&s.ts].to_bits() != s.value.to_bits())
                        .count();
                }
            }
        }
        assert!(interleaved > 0, "the store order never mattered here");
    }

    #[test]
    fn an_empty_delta_is_not_an_error() {
        let provider = SimMetricsProvider::new(run_sim(500.0));
        let newest = provider.latest_minute("t").unwrap();
        let spec = spec();
        let delta = FitWindow::read(&provider, "t", &spec, newest + 1, i64::MAX).unwrap();
        assert!(delta.cpu_observations("bolt").is_empty());
        let upstream = [("spout".to_string(), 1.0)];
        assert!(delta.component_observations("bolt", &upstream).is_empty());
        let mut history =
            source_history(&provider, "t", &["spout".to_string()], 0, newest).unwrap();
        let read = history.clone();
        let spouts = ["spout".to_string()];
        slide_source_history(&provider, "t", &spouts, &mut history, newest, 0, i64::MAX).unwrap();
        assert_eq!(history, read);
        // Any other error stays one.
        let unknown = FitWindow::read(&provider, "other", &spec, newest + 1, i64::MAX);
        assert!(matches!(unknown, Err(CoreError::Unknown(_))));
        let unknown = slide_source_history(
            &provider,
            "other",
            &spouts,
            &mut history,
            newest,
            0,
            i64::MAX,
        );
        assert!(matches!(unknown, Err(CoreError::Unknown(_))));
    }

    #[test]
    fn missing_component_yields_not_enough_observations() {
        // The assemblers hand a model nothing; the model says so.
        use crate::model::component::{ComponentModel, GroupingKind};
        use crate::model::cpu::CpuModel;
        let provider = SimMetricsProvider::new(run_sim(100.0));
        let spec = spec();
        let window = FitWindow::read(&provider, "t", &spec, 0, i64::MAX).unwrap();
        for ghost in ["ghost", "never-read"] {
            let observations = window.component_observations(ghost, &[]);
            assert!(matches!(
                ComponentModel::fit(ghost, 1, GroupingKind::Shuffle, &observations),
                Err(CoreError::NotEnoughObservations { .. })
            ));
            assert!(matches!(
                CpuModel::fit(&window.cpu_observations(ghost)),
                Err(CoreError::NotEnoughObservations { .. })
            ));
        }
        assert!(matches!(
            source_history(&provider, "t", &["ghost".to_string()], 0, i64::MAX),
            Err(CoreError::NotEnoughObservations { .. })
        ));
    }

    /// The map-based assemblers the cursor joins replaced: every column
    /// collected into a `ts → value` map, then looked up. The reference
    /// the non-test assemblers are held to, bit for bit.
    mod reference {
        use super::super::*;
        use std::collections::BTreeMap;

        pub(super) fn component_observations(
            window: &FitWindow<'_>,
            component: &str,
            upstream_emits: &[(String, f64)],
        ) -> Vec<ComponentObservation> {
            let by_ts = |series: &[Sample]| -> BTreeMap<i64, f64> {
                series.iter().map(|s| (s.ts, s.value)).collect()
            };
            let execute = window.set(component, metric::EXECUTE_COUNT);
            let output_by_ts = by_ts(&window.set(component, metric::EMIT_COUNT).combined);
            let bp_by_ts = by_ts(&window.set(component, metric::BACKPRESSURE_TIME).combined);
            let mut source: BTreeMap<i64, f64> = BTreeMap::new();
            for (upstream, weight) in upstream_emits {
                for s in &window.set(upstream, metric::EMIT_COUNT).combined {
                    *source.entry(s.ts).or_insert(0.0) += s.value * weight;
                }
            }
            let instances_by_ts: Vec<BTreeMap<i64, f64>> = execute
                .per_instance
                .iter()
                .map(|(_, series)| by_ts(series))
                .collect();
            let mut observations = Vec::new();
            for (ts, input_rate) in &by_ts(&execute.combined) {
                let Some(output_rate) = output_by_ts.get(ts) else {
                    continue;
                };
                let source_rate = source.get(ts).copied().unwrap_or(*input_rate);
                let backpressured =
                    bp_by_ts.get(ts).copied().unwrap_or(0.0) > BACKPRESSURE_THRESHOLD_MS;
                let per_instance_inputs: Vec<f64> = instances_by_ts
                    .iter()
                    .map(|inputs| inputs.get(ts).copied().unwrap_or(0.0))
                    .collect();
                observations.push(ComponentObservation {
                    source_rate,
                    input_rate: *input_rate,
                    output_rate: *output_rate,
                    per_instance_inputs,
                    backpressured,
                });
            }
            observations
        }

        pub(super) fn cpu_observations(
            window: &FitWindow<'_>,
            component: &str,
        ) -> Vec<CpuObservation> {
            let by_instance = |metric_name| -> BTreeMap<u32, BTreeMap<i64, f64>> {
                window
                    .set(component, metric_name)
                    .per_instance
                    .iter()
                    .map(|(i, s)| (*i, s.iter().map(|x| (x.ts, x.value)).collect()))
                    .collect()
            };
            let cpu_by_instance = by_instance(metric::CPU_LOAD);
            let bp_by_instance = by_instance(metric::BACKPRESSURE_TIME);
            let mut observations = Vec::new();
            for (instance, series) in &window.set(component, metric::EXECUTE_COUNT).per_instance {
                let Some(cpu_series) = cpu_by_instance.get(instance) else {
                    continue;
                };
                let bp_series = bp_by_instance.get(instance);
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
            observations
        }

        pub(super) fn source_history(
            provider: &dyn MetricsProvider,
            topology: &str,
            spouts: &[String],
            from: i64,
            to: i64,
        ) -> Result<Vec<DataPoint>> {
            let mut by_ts: BTreeMap<i64, f64> = BTreeMap::new();
            for spout in spouts {
                let offered =
                    provider.series_set(topology, spout, metric::SOURCE_OFFERED, from, to)?;
                for s in offered.combined {
                    *by_ts.entry(s.ts).or_insert(0.0) += s.value;
                }
            }
            Ok(by_ts
                .into_iter()
                .map(|(ts, y)| DataPoint::new(ts, y))
                .collect())
        }
    }

    fn component_bits(observations: &[ComponentObservation]) -> Vec<Vec<u64>> {
        observations
            .iter()
            .map(|o| {
                let mut row = vec![
                    o.source_rate.to_bits(),
                    o.input_rate.to_bits(),
                    o.output_rate.to_bits(),
                    u64::from(o.backpressured),
                ];
                row.extend(o.per_instance_inputs.iter().map(|v| v.to_bits()));
                row
            })
            .collect()
    }

    fn cpu_bits(observations: &[CpuObservation]) -> Vec<(u64, u64)> {
        observations
            .iter()
            .map(|o| (o.input_rate.to_bits(), o.cpu_load.to_bits()))
            .collect()
    }

    fn history_bits(history: &[DataPoint]) -> Vec<(i64, u64)> {
        history.iter().map(|p| (p.ts, p.y.to_bits())).collect()
    }

    /// Runs every assembler and its map reference over `windows` of
    /// `metrics`; returns how many component observations were
    /// backpressured and how many CPU observations there were, so the
    /// caller can confirm what was exercised.
    fn assert_assemblers_match_reference(
        metrics: &SimMetrics,
        spec: &LogicalSpec,
        upstreams: &[(&str, Vec<(String, f64)>)],
        spouts: &[String],
        windows: &[(i64, i64)],
    ) -> (usize, usize) {
        let topology = metrics.topology().to_string();
        let provider = SimMetricsProvider::new(metrics.clone());
        let (mut backpressured, mut cpu) = (0, 0);
        for &(from, to) in windows {
            let window = FitWindow::read(&provider, &topology, spec, from, to).unwrap();
            for (component, upstream_emits) in upstreams {
                let actual = window.component_observations(component, upstream_emits);
                let expected =
                    reference::component_observations(&window, component, upstream_emits);
                assert_eq!(
                    component_bits(&actual),
                    component_bits(&expected),
                    "{component} [{from}, {to}]"
                );
                backpressured += actual.iter().filter(|o| o.backpressured).count();
                let actual = window.cpu_observations(component);
                let expected = reference::cpu_observations(&window, component);
                assert_eq!(cpu_bits(&actual), cpu_bits(&expected), "{component} cpu");
                cpu += actual.len();
            }
            let actual = source_history(&provider, &topology, spouts, from, to);
            let expected = reference::source_history(&provider, &topology, spouts, from, to);
            match (actual, expected) {
                (Ok(actual), Ok(expected)) => {
                    assert_eq!(history_bits(&actual), history_bits(&expected))
                }
                (Err(_), Ok(expected)) => assert!(expected.is_empty()),
                (actual, expected) => panic!("{actual:?} vs {expected:?}"),
            }
        }
        (backpressured, cpu)
    }

    #[test]
    fn cursor_assemblers_match_the_map_reference_on_a_repacked_store() {
        let (metrics, newest) = repacked_wordcount();
        let spec = LogicalSpec::new("wordcount")
            .component("spout", 8)
            .component("splitter", 5)
            .component("counter", 7)
            .edge("spout", "splitter", "shuffle")
            .edge("splitter", "counter", "fields");
        let upstreams = [
            ("splitter", vec![("spout".to_string(), 1.0)]),
            ("counter", vec![("splitter".to_string(), 1.0)]),
            // Two upstreams, one of them twice: the sum's order shows.
            (
                "counter",
                vec![
                    ("splitter".to_string(), 0.3),
                    ("spout".to_string(), 0.7),
                    ("splitter".to_string(), 1.0 / 3.0),
                ],
            ),
        ];
        let spouts = [
            "spout".to_string(),
            "counter".to_string(),
            "spout".to_string(),
        ];
        let windows = [
            (i64::MIN, i64::MAX),
            (newest - 5 * 60_000, newest + 2 * 60_000),
            (newest + 1, i64::MAX),
        ];
        let (_, cpu) =
            assert_assemblers_match_reference(&metrics, &spec, &upstreams, &spouts, &windows);
        assert!(cpu > 0);
    }

    #[test]
    fn cursor_assemblers_match_the_map_reference_with_a_gap_and_a_late_duplicate() {
        // A run copied into a fresh store minus one minute of the bolt's
        // emit count and of instance 1's CPU load, with two minutes of
        // instance 0 backpressured, then a late duplicate in one of the
        // bolt's execute-count minutes.
        let source = run_sim(3_000.0);
        let newest = source.db().watermark().unwrap();
        let gap = newest - 4 * 60_000;
        let metrics = SimMetrics::new("t");
        for name in source.db().metric_names() {
            for (key, samples) in source.db().select(&name, &[], i64::MIN, i64::MAX).unwrap() {
                let bolt = key.tag("component") == Some("bolt");
                let instance = key.tag("instance");
                let handle = metrics.db().register(&key);
                let skipped = |s: &Sample| {
                    s.ts == gap
                        && bolt
                        && (name == metric::EMIT_COUNT
                            || (name == metric::CPU_LOAD && instance == Some("1")))
                };
                for s in samples.iter().filter(|s| !skipped(s)) {
                    let stalled = bolt
                        && name == metric::BACKPRESSURE_TIME
                        && instance == Some("0")
                        && (newest - 7 * 60_000..newest - 5 * 60_000).contains(&s.ts);
                    let value = if stalled { 60_000.0 } else { s.value };
                    metrics.db().append(&handle, s.ts, value);
                }
            }
        }
        let late = newest - 3 * 60_000 + 1_000;
        metrics.record_instance(metric::EXECUTE_COUNT, "bolt", 1, 0, late, 1.0);
        let upstreams = [
            ("bolt", vec![("spout".to_string(), 1.0)]),
            ("ghost", vec![("spout".to_string(), 0.5)]),
        ];
        let spouts = ["spout".to_string()];
        let windows = [(i64::MIN, i64::MAX), (0, i64::MAX), (gap, newest)];
        let (backpressured, _) =
            assert_assemblers_match_reference(&metrics, &spec(), &upstreams, &spouts, &windows);
        assert!(backpressured > 0, "no backpressured minute was joined");
    }
}
