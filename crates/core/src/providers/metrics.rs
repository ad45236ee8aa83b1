//! Metrics provider: the interface Caladrius pulls performance metrics
//! through, and the observation-window assembly feeding the models.

use crate::error::{CoreError, Result};
use crate::model::component::ComponentObservation;
use crate::model::cpu::CpuObservation;
use caladrius_forecast::DataPoint;
use caladrius_graph::topology_graph::LogicalSpec;
use caladrius_tsdb::{IngestStats, Sample};
use heron_sim::metrics::{metric, SeriesSet, SimMetrics};
use std::collections::VecDeque;

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
    /// exposes one. Consumers that keep a window compare snapshots: a
    /// change means already-read history was rewritten, so a kept window
    /// is invalid and a full refit is due. `None` means the provider
    /// cannot detect truncation (callers must then choose between
    /// trusting the data or always refitting).
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

/// Everything one training window is assembled from: each
/// `(component, metric)` series set of `[from, to]` exactly once — per
/// bolt execute-count, emit-count, backpressure-time and cpu-load, per
/// spout source-offered and, when it feeds a bolt, emit-count. A read of
/// the whole window or of the minutes after a kept one; it does not know
/// which.
///
/// A window without samples assembles to no observations, which is what
/// a slide sees when no new minute has landed; whether that is an error
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
            } else {
                reads.push((name.as_str(), metric::SOURCE_OFFERED));
                if spec.edges.iter().any(|(from_c, _, _)| from_c == name) {
                    reads.push((name.as_str(), metric::EMIT_COUNT));
                }
            }
        }
        let sets = caladrius_exec::shared_pool("fit").parallel_try_map(
            &reads,
            |_, (component, metric_name)| {
                let mut set = provider.series_set(topology, component, metric_name, from, to)?;
                if *metric_name == metric::SOURCE_OFFERED {
                    // Only the spout sum is assembled: the instances' half
                    // goes at once, so a window read holds no more than
                    // the bolt sets beside one spout column.
                    set.per_instance = Vec::new();
                }
                Ok::<_, CoreError>(set)
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

    /// The source column: the spouts' offered load, in declaration order
    /// ([`offered_load`]).
    fn source_minutes(&self) -> Vec<DataPoint> {
        let sets = self.sets.iter();
        offered_load(
            sets.filter(|((_, m), _)| *m == metric::SOURCE_OFFERED)
                .map(|(_, set)| set),
        )
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
    /// emit sample, with that minute, oldest first. Every column is
    /// ascending ([`MetricsProvider::series_set`]'s contract), so each is
    /// joined by a cursor that moves forward only.
    pub(crate) fn component_observations(
        &self,
        component: &str,
        upstream_emits: &[(String, f64)],
    ) -> VecDeque<(i64, ComponentObservation)> {
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

        // Sized to the read: a kept window lives as long as its topology.
        let mut observations = VecDeque::with_capacity(execute.combined.len());
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
            let observation = ComponentObservation {
                source_rate: source_rate.unwrap_or(s.value),
                input_rate: s.value,
                output_rate,
                per_instance_inputs,
                backpressured,
            };
            observations.push_back((s.ts, observation));
        }
        observations
    }

    /// Per-instance `(input rate, cpu load)` pairs of a component as
    /// CPU-model training data, with their minute: one list per instance
    /// the execute read lists, in its order (empty for an instance
    /// without a CPU series), minute by minute. Pooled instance by
    /// instance, they are what the CPU fit reads.
    ///
    /// Backpressured windows are excluded: at saturation the measured CPU
    /// is clipped at the instance's allocation ("its CPU ... load is
    /// supposed to be at the maximum possible level", paper §V-E), so
    /// including those windows would bias the linear ratio ψ.
    pub(crate) fn cpu_observations(&self, component: &str) -> Vec<PerInstance<CpuObservation>> {
        let series_of = |metric_name, instance: &u32| {
            let per_instance = &self.set(component, metric_name).per_instance;
            let found = per_instance.iter().rfind(|(i, _)| i == instance);
            found.map(|(_, series)| series.as_slice())
        };
        let execute = &self.set(component, metric::EXECUTE_COUNT).per_instance;
        execute
            .iter()
            .map(|(instance, series)| {
                let mut observations = VecDeque::with_capacity(series.len());
                if let Some(cpu_series) = series_of(metric::CPU_LOAD, instance) {
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
                            let observation = CpuObservation {
                                input_rate: s.value,
                                cpu_load,
                            };
                            observations.push_back((s.ts, observation));
                        }
                    }
                }
                (*instance, observations)
            })
            .collect()
    }
}

/// One instance's observations with their minutes, oldest first.
pub(crate) type PerInstance<T> = (u32, VecDeque<(i64, T)>);

/// The training window every model and forecast of a topology is fitted
/// over, kept between fits: the source column (the offered load summed
/// over spouts per minute, [`offered_load`]) and per bolt what
/// [`FitWindow`] assembled of it, every observation with its minute.
///
/// A slide drops the minutes that left the window and appends what a
/// read of the minutes after the kept ones assembled. Every point and
/// observation is assembled from one minute's samples alone, so the kept
/// window is, point for point and in the same order, what a read of the
/// whole window assembles — provided nothing at or before the last read
/// changed in the store (the caller's version stamp vouches for that) and
/// the new read lists the instances the kept window was assembled with,
/// which [`TrainingWindow::slide`] checks.
#[derive(Debug, Clone)]
pub(crate) struct TrainingWindow {
    /// Per bolt, in the order the window was assembled for.
    bolts: Vec<BoltWindow>,
    /// One point per usable minute, oldest first.
    source: Vec<DataPoint>,
}

/// One bolt's share of a [`TrainingWindow`].
#[derive(Debug, Clone)]
pub(crate) struct BoltWindow {
    /// Component observations, oldest first.
    component: VecDeque<(i64, ComponentObservation)>,
    /// CPU observations per instance, in the execute read's order: the
    /// order of every component observation's `per_instance_inputs`.
    cpu: Vec<PerInstance<CpuObservation>>,
}

impl BoltWindow {
    /// The component observations, oldest first.
    pub(crate) fn component(&self) -> impl Iterator<Item = &ComponentObservation> {
        self.component.iter().map(|(_, o)| o)
    }

    /// The CPU observations pooled instance by instance, minute by
    /// minute: the order the CPU fit reads them in.
    pub(crate) fn cpu(&self) -> impl Iterator<Item = &CpuObservation> {
        self.cpu
            .iter()
            .flat_map(|(_, minutes)| minutes.iter().map(|(_, o)| o))
    }
}

impl TrainingWindow {
    /// What `read` assembles: the source column and, for each of `bolts`
    /// with its upstreams, its observations.
    pub(crate) fn assemble<'j>(
        read: &FitWindow<'_>,
        bolts: impl IntoIterator<Item = (&'j str, &'j [(String, f64)])>,
    ) -> Self {
        let bolts = bolts.into_iter().map(|(bolt, upstreams)| BoltWindow {
            component: read.component_observations(bolt, upstreams),
            cpu: read.cpu_observations(bolt),
        });
        Self {
            bolts: bolts.collect(),
            source: read.source_minutes(),
        }
    }

    /// The bolts' windows, in the order the window was assembled for.
    pub(crate) fn bolts(&self) -> &[BoltWindow] {
        &self.bolts
    }

    /// The source column, oldest first.
    pub(crate) fn source(&self) -> &[DataPoint] {
        &self.source
    }

    /// Slides the window to start at minute `from` and appends `delta`,
    /// what a read of the minutes after the kept ones assembled for the
    /// same bolts. Errs, leaving the window as it was, when a bolt's read
    /// lists other instances than the kept window was assembled with (an
    /// instance's series registered since): every per-instance column
    /// would shift.
    pub(crate) fn slide(&mut self, delta: TrainingWindow, from: i64) -> Result<()> {
        let instances = |bolt: &BoltWindow| bolt.cpu.iter().map(|(i, _)| *i).collect::<Vec<_>>();
        let same = self.bolts.len() == delta.bolts.len()
            && (self.bolts.iter().zip(&delta.bolts)).all(|(a, b)| instances(a) == instances(b));
        if !same {
            return Err(CoreError::Unknown(
                "a bolt's instances changed under the kept training window".into(),
            ));
        }
        let expired = self.source.partition_point(|p| p.ts < from);
        self.source.drain(..expired);
        self.source.extend(delta.source);
        for (kept, new) in self.bolts.iter_mut().zip(delta.bolts) {
            drop_before(&mut kept.component, from);
            kept.component.extend(new.component);
            for ((_, kept), (_, new)) in kept.cpu.iter_mut().zip(new.cpu) {
                drop_before(kept, from);
                kept.extend(new);
            }
        }
        Ok(())
    }
}

/// Drops the minutes before `from` from an ascending list.
fn drop_before<T>(minutes: &mut VecDeque<(i64, T)>, from: i64) {
    while minutes.front().is_some_and(|(ts, _)| *ts < from) {
        minutes.pop_front();
    }
}

/// Where a read that brings a window read up to `read_to` forward to a
/// window starting at `from` starts: just after `read_to`, but never
/// before the window, so a topology left alone for longer than the
/// window reads only the window again, not every minute since.
pub(crate) fn slide_from(read_to: i64, from: i64) -> i64 {
    read_to.saturating_add(1).max(from)
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

/// The offered load summed over spouts per minute, from each spout's
/// `source-offered` set in spout order: each minute's sum starts at `0.0`
/// and adds the spouts that recorded it in that order. A minute whose sum
/// is not a finite, non-negative rate is left out, as a minute without a
/// sample is: a stored NaN or a negative count is no load to forecast.
pub(crate) fn offered_load<'s>(spouts: impl IntoIterator<Item = &'s SeriesSet>) -> Vec<DataPoint> {
    let mut sum = Vec::new();
    for offered in spouts {
        sum = add_minutes(sum, &offered.combined);
    }
    sum.retain(|p| p.y.is_finite() && p.y >= 0.0);
    sum
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
            let minutes: Vec<i64> = obs.iter().map(|(ts, _)| *ts).collect();
            assert!(minutes.windows(2).all(|w| w[1] - w[0] == 60_000));
            for (_, o) in &obs {
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
            let spec = spec();
            let window = FitWindow::read(&provider, "t", &spec, from, to).unwrap();
            let hist = window.source_minutes();
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
            let per_instance = window.cpu_observations("bolt");
            let instances: Vec<u32> = per_instance.iter().map(|(i, _)| *i).collect();
            assert_eq!(instances, [0, 1]);
            let obs: Vec<_> = per_instance.into_iter().flat_map(|(_, m)| m).collect();
            assert_eq!(obs.len(), 20); // 2 instances x 10 minutes
            for (_, o) in &obs {
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

    /// Sliding == batch at the assembler: a kept training window slid
    /// by reads of the minutes after it — one, a few, more than the
    /// window at once — assembles, point for point, observation for
    /// observation and in the same order, what a read of the whole window
    /// assembles, across a repack that gives every counter instance a
    /// second series. A read that lists an instance the kept window never
    /// saw is refused, and the window is left as it was.
    #[test]
    fn a_slid_training_window_is_a_read_of_the_whole_window() {
        const MINUTE: i64 = 60_000;
        const WIDTH: i64 = 20;
        let (metrics, newest) = repacked_wordcount();
        let provider = SimMetricsProvider::new(metrics.clone());
        let spec = LogicalSpec::new("wordcount")
            .component("spout", 8)
            .component("splitter", 5)
            .component("counter", 7)
            .edge("spout", "splitter", "shuffle")
            .edge("splitter", "counter", "fields");
        let upstreams = [
            ("splitter", vec![("spout".to_string(), 1.0)]),
            ("counter", vec![("splitter".to_string(), 1.0)]),
        ];
        let bolts = || upstreams.iter().map(|(bolt, up)| (*bolt, up.as_slice()));
        let mut kept: Option<TrainingWindow> = None;
        let mut to = newest - 35 * MINUTE;
        let mut read_to = None;
        for step in [1, 1, 3, 2, 25, 1, 2, 1, 3, 1] {
            let from = to - (WIDTH - 1) * MINUTE;
            let read_from = read_to.map_or(from, |read_to| slide_from(read_to, from));
            let read = FitWindow::read(&provider, "wordcount", &spec, read_from, to).unwrap();
            let delta = TrainingWindow::assemble(&read, bolts());
            let slid = match &mut kept {
                Some(kept) => {
                    kept.slide(delta, from).unwrap();
                    kept
                }
                None => kept.insert(delta),
            };
            let whole = FitWindow::read(&provider, "wordcount", &spec, from, to).unwrap();
            let expected = whole.source_minutes();
            assert_eq!(history_bits(slid.source()), history_bits(&expected));
            assert!(!expected.is_empty(), "source to {to}");
            for ((bolt, upstream), slid) in upstreams.iter().zip(slid.bolts()) {
                let expected = whole.component_observations(bolt, upstream);
                assert_eq!(
                    component_bits(&slid.component),
                    component_bits(&expected),
                    "{bolt} to {to}"
                );
                assert!(!expected.is_empty(), "{bolt} to {to}");
                let expected = whole.cpu_observations(bolt);
                assert_eq!(
                    cpu_bits(&slid.cpu),
                    cpu_bits(&expected),
                    "{bolt} cpu to {to}"
                );
                let pooled: Vec<_> = slid.cpu().copied().collect();
                let flat = expected.iter().flat_map(|(_, m)| m.iter().map(|(_, o)| *o));
                assert_eq!(pooled, flat.collect::<Vec<_>>());
            }
            read_to = Some(to);
            to += step * MINUTE;
        }
        assert!(read_to > Some(newest), "the slides crossed the repack");

        // An eighth counter instance reports: the kept window's columns
        // no longer line up with a read's.
        let mut kept = kept.unwrap();
        let before = kept.clone();
        let next = read_to.unwrap() + MINUTE;
        metrics.record_instance(metric::EXECUTE_COUNT, "counter", 7, 0, next, 1.0);
        let from = next - (WIDTH - 1) * MINUTE;
        let read = FitWindow::read(&provider, "wordcount", &spec, next, next).unwrap();
        let refused = kept.slide(TrainingWindow::assemble(&read, bolts()), from);
        assert!(matches!(refused, Err(CoreError::Unknown(_))));
        assert_eq!(history_bits(kept.source()), history_bits(before.source()));
        for (kept, before) in kept.bolts().iter().zip(before.bolts()) {
            assert_eq!(
                component_bits(&kept.component),
                component_bits(&before.component)
            );
            assert_eq!(cpu_bits(&kept.cpu), cpu_bits(&before.cpu));
        }
    }

    #[test]
    fn an_empty_delta_is_not_an_error() {
        let provider = SimMetricsProvider::new(run_sim(500.0));
        let newest = provider.latest_minute("t").unwrap();
        let spec = spec();
        let delta = FitWindow::read(&provider, "t", &spec, newest + 1, i64::MAX).unwrap();
        let cpu = delta.cpu_observations("bolt");
        assert!(cpu.len() == 2 && cpu.iter().all(|(_, minutes)| minutes.is_empty()));
        let upstream = [("spout".to_string(), 1.0)];
        assert!(delta.component_observations("bolt", &upstream).is_empty());
        assert!(delta.source_minutes().is_empty());
        let bolts = || [("bolt", upstream.as_slice())];
        let whole = FitWindow::read(&provider, "t", &spec, 0, newest).unwrap();
        let mut window = TrainingWindow::assemble(&whole, bolts());
        let read = window.clone();
        window
            .slide(TrainingWindow::assemble(&delta, bolts()), 0)
            .unwrap();
        assert_eq!(history_bits(window.source()), history_bits(read.source()));
        assert_eq!(window.source().len(), 10);
        assert_eq!(
            component_bits(&window.bolts()[0].component),
            component_bits(&read.bolts()[0].component)
        );
        // Any other error stays one.
        let unknown = FitWindow::read(&provider, "other", &spec, newest + 1, i64::MAX);
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
            let observations = observations.iter().map(|(_, o)| o);
            assert!(matches!(
                ComponentModel::fit(ghost, 1, GroupingKind::Shuffle, observations),
                Err(CoreError::NotEnoughObservations { .. })
            ));
            let cpu = window.cpu_observations(ghost);
            assert!(matches!(
                CpuModel::fit(cpu.iter().flat_map(|(_, m)| m.iter().map(|(_, o)| o))),
                Err(CoreError::NotEnoughObservations { .. })
            ));
        }
        let ghost = provider.series_set("t", "ghost", metric::SOURCE_OFFERED, 0, i64::MAX);
        assert!(offered_load([&ghost.unwrap()]).is_empty());
    }

    /// Hostile offered loads: a minute whose spout sum is NaN, ±inf or
    /// negative is left out of the source column, as a minute without a
    /// sample is; a negative sample that other spouts outweigh stays in.
    #[test]
    fn a_minute_without_a_usable_load_is_left_out_of_the_source_column() {
        let metrics = run_sim(500.0);
        let newest = metrics.db().watermark().unwrap();
        let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0e9];
        for (k, value) in hostile.into_iter().enumerate() {
            let ts = newest + (k as i64 + 1) * 60_000;
            metrics.record_instance(metric::SOURCE_OFFERED, "spout", 0, 0, ts, value);
        }
        let outweighed = newest + 5 * 60_000;
        metrics.record_instance(metric::SOURCE_OFFERED, "spout", 0, 0, outweighed, -1.0);
        metrics.record_instance(metric::SOURCE_OFFERED, "spout", 1, 0, outweighed, 3.0);
        let provider = SimMetricsProvider::new(metrics);
        let spec = spec();
        let window = FitWindow::read(&provider, "t", &spec, 0, i64::MAX).unwrap();
        let source = window.source_minutes();
        assert_eq!(source.len(), 11);
        assert_eq!(source[9].ts, newest);
        assert_eq!((source[10].ts, source[10].y), (outweighed, 2.0));
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
        ) -> VecDeque<(i64, ComponentObservation)> {
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
            let mut observations = VecDeque::new();
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
                let observation = ComponentObservation {
                    source_rate,
                    input_rate: *input_rate,
                    output_rate: *output_rate,
                    per_instance_inputs,
                    backpressured,
                };
                observations.push_back((*ts, observation));
            }
            observations
        }

        pub(super) fn cpu_observations(
            window: &FitWindow<'_>,
            component: &str,
        ) -> Vec<PerInstance<CpuObservation>> {
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
                let mut minutes = VecDeque::new();
                let bp_series = bp_by_instance.get(instance);
                for s in series
                    .iter()
                    .filter(|_| cpu_by_instance.contains_key(instance))
                {
                    let backpressured = bp_series
                        .and_then(|b| b.get(&s.ts))
                        .is_some_and(|ms| *ms > BACKPRESSURE_THRESHOLD_MS);
                    if backpressured {
                        continue;
                    }
                    if let Some(cpu) = cpu_by_instance[instance].get(&s.ts) {
                        let observation = CpuObservation {
                            input_rate: s.value,
                            cpu_load: *cpu,
                        };
                        minutes.push_back((s.ts, observation));
                    }
                }
                observations.push((*instance, minutes));
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
                .filter(|(_, y)| y.is_finite() && *y >= 0.0)
                .map(|(ts, y)| DataPoint::new(ts, y))
                .collect())
        }
    }

    fn component_bits(observations: &VecDeque<(i64, ComponentObservation)>) -> Vec<Vec<u64>> {
        observations
            .iter()
            .map(|(ts, o)| {
                let mut row = vec![
                    *ts as u64,
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

    fn cpu_bits(observations: &[PerInstance<CpuObservation>]) -> Vec<(u32, i64, u64, u64)> {
        let pooled = observations.iter().flat_map(|(i, minutes)| {
            let bits = |(ts, o): &(i64, CpuObservation)| {
                (*i, *ts, o.input_rate.to_bits(), o.cpu_load.to_bits())
            };
            minutes.iter().map(bits)
        });
        pooled.collect()
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
                backpressured += actual.iter().filter(|(_, o)| o.backpressured).count();
                let actual = window.cpu_observations(component);
                let expected = reference::cpu_observations(&window, component);
                assert_eq!(cpu_bits(&actual), cpu_bits(&expected), "{component} cpu");
                cpu += actual
                    .iter()
                    .map(|(_, minutes)| minutes.len())
                    .sum::<usize>();
            }
            let offered = spouts.iter().map(|spout| {
                let set = provider.series_set(&topology, spout, metric::SOURCE_OFFERED, from, to);
                set.unwrap()
            });
            let actual = offered_load(&offered.collect::<Vec<_>>());
            let expected = reference::source_history(&provider, &topology, spouts, from, to);
            assert_eq!(history_bits(&actual), history_bits(&expected.unwrap()));
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
