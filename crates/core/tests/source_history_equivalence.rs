//! Sliding == batch over the window, for everything a long-lived service
//! keeps per topology.
//!
//! A long-lived service keeps one training window per topology — the
//! source column and every bolt's observations — and slides it forward
//! with tail reads; its models and forecasts are derived from it. Over
//! random schedules of appends, gaps, truncations, retention passes,
//! spout rescales and explicit invalidations, after **every** step its
//! `source_history`, its fitted models and its forecasts must equal —
//! bit for bit, or the same error — what a service created that instant
//! reads and fits from scratch over the same window, and the window
//! counters must show the path the version stamp dictates: a full read
//! exactly where the stamp says Cold, a tail read where only the
//! watermark advanced, a hit otherwise. Models and forecasts are derived
//! on the window just kept, so each fit and forecast is one more hit, and
//! the models (a failed fit's error included) are fitted once per window:
//! a model-cache miss exactly where the window moved.
//!
//! A tail read is the range read from just after the last watermark (or
//! from the window's start, if that is later) to the watermark; a
//! schedule with NaN, ±inf and negative samples and a gap longer than
//! the window holds to the same bar, and the last test carries the reads
//! across the store's chunk seals.
//!
//! Runs over the core `SimMetricsProvider` and over the fleet tier's
//! `ShardMetricsProvider` (with a shard-mate whose truncations bump the
//! shard-wide generation). Deterministic; CI runs it under
//! `CALADRIUS_THREADS=1`.

use caladrius_core::config::CaladriusConfig;
use caladrius_core::error::CoreError;
use caladrius_core::providers::metrics::{MetricsProvider, SimMetricsProvider};
use caladrius_core::providers::tracker::TopologyTracker;
use caladrius_core::service::FittedModels;
use caladrius_core::{Caladrius, SourceHistoryReads};
use caladrius_fleet::{FleetTracker, ShardMetricsProvider};
use caladrius_tsdb::retention::RetentionPolicy;
use caladrius_workload::wordcount::{
    wordcount_topology, wordcount_topology_with, WordCountParallelism,
};
use heron_sim::engine::{SimConfig, Simulation};
use heron_sim::metrics::{metric, SimMetrics};
use heron_sim::profiles::RateProfile;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const TOPOLOGY: &str = "wordcount";
const MINUTE: i64 = 60_000;
const WINDOW_MINUTES: u32 = 40;
/// The forecasters every proptest step compares.
const FORECASTERS: [&str; 2] = ["ar", "stats_summary"];
/// Every traffic model: what the fixed schedules compare.
const MODELS: [&str; 3] = ["prophet", "ar", "stats_summary"];

#[derive(Debug, Clone)]
enum Step {
    /// Append this many contiguous minutes.
    Append(i64),
    /// Append one minute whose first spout instance reports this offered
    /// load and whose first instance of each bolt reports it as its
    /// execute count and CPU load.
    Hostile(f64),
    /// Skip this many minutes, then append one.
    Gap(i64),
    /// Skip this many minutes: the next minute appended lands after them.
    Skip(i64),
    /// `truncate_before(watermark - minutes)`; −1 wipes the store.
    Truncate(i64),
    /// A retention pass keeping this many minutes.
    Retain(i64),
    /// Redeploy with this many spout instances (bumps the plan version).
    Rescale(u32),
    /// `invalidate_model_cache`.
    Invalidate,
    /// Wipe the shard-mate's store (a no-op for a single-store provider).
    TruncateNeighbour,
    /// Just read again.
    Read,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            -1.0e4f64..0.0,
        ]
        .prop_map(Step::Hostile),
        (1i64..4).prop_map(Step::Append),
        (1i64..4).prop_map(Step::Append),
        (1i64..4).prop_map(Step::Append),
        (1i64..70).prop_map(Step::Gap),
        (1i64..70).prop_map(Step::Skip),
        (-1i64..45).prop_map(Step::Truncate),
        (5i64..45).prop_map(Step::Retain),
        (1u32..5).prop_map(Step::Rescale),
        Just(Step::Invalidate),
        Just(Step::TruncateNeighbour),
        Just(Step::Read),
    ];
    prop::collection::vec(step, 1..16)
}

/// One topology's store behind a provider, plus the handles the steps
/// mutate.
struct Harness {
    metrics: SimMetrics,
    neighbour: Option<SimMetrics>,
    provider: Arc<dyn MetricsProvider>,
    tracker: Arc<FleetTracker>,
    spouts: u32,
    next_minute: i64,
}

fn parallelism(spouts: u32) -> WordCountParallelism {
    WordCountParallelism {
        spout: spouts,
        splitter: 2,
        counter: 3,
    }
}

fn deployed(spouts: u32) -> heron_sim::topology::Topology {
    wordcount_topology(parallelism(spouts), 1.0e6)
}

impl Harness {
    fn new(sharded: bool) -> Self {
        let metrics = SimMetrics::new(TOPOLOGY);
        let tracker = Arc::new(FleetTracker::new());
        tracker.insert(deployed(2));
        let (provider, neighbour): (Arc<dyn MetricsProvider>, _) = if sharded {
            let neighbour = SimMetrics::new("neighbour");
            neighbour.record_instance(metric::SOURCE_OFFERED, "spout", 0, 0, MINUTE, 1.0);
            let shard = ShardMetricsProvider::new();
            shard.register(metrics.clone());
            shard.register(neighbour.clone());
            (Arc::new(shard), Some(neighbour))
        } else {
            (Arc::new(SimMetricsProvider::new(metrics.clone())), None)
        };
        Harness {
            metrics,
            neighbour,
            provider,
            tracker,
            spouts: 2,
            next_minute: 1,
        }
    }

    fn service(&self) -> Caladrius {
        self.service_over(WINDOW_MINUTES)
    }

    fn service_over(&self, window_minutes: u32) -> Caladrius {
        Caladrius::with_config(
            Arc::clone(&self.provider),
            Arc::clone(&self.tracker) as Arc<dyn TopologyTracker>,
            CaladriusConfig {
                source_window_minutes: window_minutes,
                ..CaladriusConfig::default()
            },
        )
    }

    /// Appends `minutes` minutes of every series a fit and a forecast
    /// read, with sums that depend on the order of addition in their
    /// last bits.
    fn append(&mut self, minutes: i64) {
        for _ in 0..minutes {
            self.append_minute(None);
        }
    }

    /// One minute: per spout instance its offered load and emit count;
    /// per bolt instance its execute count, emit count, backpressure
    /// time and CPU load. The load cycles through a 17-minute ramp that
    /// backpressures the splitter at its top; `hostile` replaces the
    /// offered load of spout instance 0 and the execute count and CPU
    /// load of each bolt's instance 0.
    fn append_minute(&mut self, hostile: Option<f64>) {
        let ts = self.next_minute * MINUTE;
        let load = 1000.0 * (1.0 + (self.next_minute % 17) as f64);
        for instance in 0..self.spouts {
            let mut value = (self.next_minute as f64 * 1000.0 + 0.1) / (f64::from(instance) + 3.0);
            if let (0, Some(hostile)) = (instance, hostile) {
                value = hostile;
            }
            let record = |name, value| {
                self.metrics
                    .record_instance(name, "spout", instance, 0, ts, value)
            };
            record(metric::SOURCE_OFFERED, value);
            record(metric::EMIT_COUNT, load / (f64::from(instance) + 1.7));
        }
        for (bolt, instances, capacity) in [("splitter", 2, 9_000.0), ("counter", 3, 1e9)] {
            for instance in 0..instances {
                let offered = load / (f64::from(instance) + 1.3);
                let mut executed = offered.min(capacity) + 0.1 / f64::from(instance + 3);
                let mut cpu = 0.05 + executed * 1.0e-4 + f64::from(instance) / 7.0;
                if let (0, Some(value)) = (instance, hostile) {
                    (executed, cpu) = (value, value);
                }
                let backpressure = if offered > capacity { 60_000.0 } else { 0.0 };
                let record = |name, value| {
                    self.metrics
                        .record_instance(name, bolt, instance, 0, ts, value)
                };
                record(metric::EXECUTE_COUNT, executed);
                record(metric::EMIT_COUNT, executed * 7.63);
                record(metric::BACKPRESSURE_TIME, backpressure);
                record(metric::CPU_LOAD, cpu);
            }
        }
        self.next_minute += 1;
    }

    fn apply(&mut self, step: &Step, warm: &Caladrius) {
        let watermark = self.provider.latest_minute(TOPOLOGY);
        match *step {
            Step::Append(minutes) => self.append(minutes),
            Step::Hostile(value) => self.append_minute(Some(value)),
            Step::Gap(minutes) => {
                self.next_minute += minutes;
                self.append(1);
            }
            Step::Skip(minutes) => self.next_minute += minutes,
            Step::Truncate(minutes) => {
                if let Some(watermark) = watermark {
                    let db = self.metrics.db();
                    db.truncate_before(watermark - minutes * MINUTE).unwrap();
                }
            }
            Step::Retain(minutes) => {
                let policy = RetentionPolicy {
                    window_ms: minutes * MINUTE,
                };
                policy.enforce(&self.metrics.db()).unwrap();
            }
            Step::Rescale(spouts) => {
                self.spouts = spouts;
                self.tracker.insert(deployed(spouts));
            }
            Step::Invalidate => warm.invalidate_model_cache(Some(TOPOLOGY)),
            Step::TruncateNeighbour => {
                if let Some(neighbour) = &self.neighbour {
                    neighbour.db().truncate_before(i64::MAX).unwrap();
                    neighbour.record_instance(metric::SOURCE_OFFERED, "spout", 0, 0, MINUTE, 1.0);
                }
            }
            Step::Read => {}
        }
    }

    /// `(watermark, plan version, truncation generation)` as a service
    /// would read them now; `None` while the store is empty.
    fn stamp(&self) -> Option<(i64, u64, Option<u64>)> {
        Some((
            self.provider.latest_minute(TOPOLOGY)?,
            self.tracker.last_updated(TOPOLOGY).unwrap(),
            self.provider.truncation_generation(TOPOLOGY),
        ))
    }
}

fn bits(history: &[caladrius_forecast::DataPoint]) -> Vec<(i64, u64)> {
    history.iter().map(|p| (p.ts, p.y.to_bits())).collect()
}

/// Every fitted parameter, bit for bit: per bolt α, the saturation
/// point, the shares and the CPU line — or the error the fit gave.
fn fitted_bits(caladrius: &Caladrius) -> Result<Vec<Vec<u64>>, CoreError> {
    Ok(model_bits(&caladrius.fitted_models(TOPOLOGY)?))
}

/// [`fitted_bits`] of models already fitted.
fn model_bits((model, cpu): &FittedModels) -> Vec<Vec<u64>> {
    let mut bits = Vec::new();
    for name in ["splitter", "counter"] {
        let component = model.component_model(name).expect("a fitted bolt");
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
        bits.push(row);
    }
    bits
}

/// `model`'s forecast, bit for bit, or the error it gave.
fn forecast_bits(caladrius: &Caladrius, model: &str) -> Result<Vec<[u64; 4]>, CoreError> {
    let forecast = caladrius.forecast_traffic(TOPOLOGY, Some(&[model.to_string()]))?;
    let points = forecast.iter().flat_map(|f| &f.points);
    let bits = |p: &caladrius_forecast::ForecastPoint| {
        [
            p.ts as u64,
            p.yhat.to_bits(),
            p.lower.to_bits(),
            p.upper.to_bits(),
        ]
    };
    Ok(points.map(bits).collect())
}

/// Replays `steps`, checking the warm service against a fresh one after
/// each — the history, the fitted models and the `forecasters`' forecasts
/// — and returns how the warm service's window accesses were served, and
/// what each step's fit gave (the fit's error, if any).
fn run(
    mut harness: Harness,
    steps: &[Step],
    forecasters: &[&str],
) -> (SourceHistoryReads, Vec<Option<CoreError>>) {
    harness.append(45);
    let warm = harness.service();
    // The stamps the warm service keeps its window and its models under,
    // if any.
    let mut cached = None;
    let mut models_at = None;
    let mut expected = SourceHistoryReads::default();
    let mut misses = 0;
    let mut fits = Vec::new();
    for step in std::iter::once(&Step::Read).chain(steps) {
        harness.apply(step, &warm);
        if matches!(step, Step::Invalidate) {
            cached = None;
            models_at = None;
        }
        let now = harness.stamp();
        let fresh = harness.service();
        let fresh_history = fresh.source_history(TOPOLOGY);
        let served = warm.source_history(TOPOLOGY);
        match (&served, &fresh_history) {
            (Ok(served), Ok(fresh)) => {
                assert_eq!(bits(served), bits(fresh), "after {step:?}");
                assert!(served.len() <= WINDOW_MINUTES as usize);
            }
            (Err(_), Err(_)) => {}
            _ => panic!("after {step:?}: served {served:?} but fresh {fresh_history:?}"),
        }
        // The path the stamp dictates, re-derived independently. With
        // data in the store the window is kept, usable minutes or not.
        if let Some(now) = now {
            match cached {
                Some(entry) if entry == now => expected.hit += 1,
                Some((watermark, plan, generation))
                    if plan == now.1 && generation == now.2 && watermark < now.0 =>
                {
                    expected.tail += 1
                }
                _ => expected.full += 1,
            }
            cached = Some(now);
        }
        assert_eq!(warm.source_history_reads(), expected, "after {step:?}");

        // Models and forecasts are derived on the window just kept: each
        // call is a window hit. The models, or the fit's error, are
        // fitted once per window, the first time they are asked for.
        let fit = fitted_bits(&warm);
        assert_eq!(fit, fitted_bits(&fresh), "models after {step:?}");
        if now.is_some() && models_at != now {
            misses += 1;
        }
        models_at = now;
        fits.push(fit.err());
        for model in forecasters {
            let served = forecast_bits(&warm, model);
            assert_eq!(
                served,
                forecast_bits(&fresh, model),
                "{model} after {step:?}"
            );
        }
        if now.is_some() {
            expected.hit += 1 + forecasters.len() as u64;
        }
        assert_eq!(warm.source_history_reads(), expected, "after {step:?}");
        assert_eq!(warm.model_cache_stats().misses, misses, "after {step:?}");
    }
    (expected, fits)
}

proptest! {
    #[test]
    fn maintained_history_equals_a_fresh_read_over_the_sim_provider(steps in arb_steps()) {
        run(Harness::new(false), &steps, &FORECASTERS);
    }

    #[test]
    fn maintained_history_equals_a_fresh_read_over_the_shard_provider(steps in arb_steps()) {
        run(Harness::new(true), &steps, &FORECASTERS);
    }
}

/// The schedule the proptest is least likely to draw in full: every
/// kind of Cold event once, each followed by tail reads.
#[test]
fn every_cold_event_costs_exactly_one_full_read() {
    let steps = [
        Step::Append(1),
        Step::Read,
        Step::Gap(40),
        Step::Append(2),
        Step::Truncate(10),
        Step::Append(1),
        Step::Retain(2),
        Step::Append(3),
        Step::Rescale(4),
        Step::Append(1),
        Step::Invalidate,
        Step::Append(1),
        Step::TruncateNeighbour,
        Step::Append(1),
    ];
    for sharded in [false, true] {
        let (reads, fits) = run(Harness::new(sharded), &steps, &[]);
        // Cold: the first read, truncate, retain, rescale, invalidate.
        // A shard-mate's truncation is not this topology's: a Hit on
        // either provider (the generation is per topology), as is the
        // plain read. Every other step slides the window.
        let accesses = steps.len() as u64 + 1;
        assert_eq!(reads.full, 5, "{reads:?}");
        assert_eq!(reads.tail, accesses - reads.full - 2);
        // The history's two hits, plus one for the fit of every step.
        assert!(fits.iter().all(Option::is_none), "{fits:?}");
        assert_eq!(reads.hit, 2 + accesses, "{reads:?}");
    }
}

/// Hostile samples and a gap longer than the window. NaN, ±inf and
/// negative execute counts and CPU loads pass through the window — the
/// fits skip what they cannot use — and after every step the warm
/// service equals a fresh one: history, models, CPU lines and all three
/// forecasters. When the gap has slid every kept minute out and the one
/// new minute is unusable, the slid fit fails as a cold fit over that
/// window does, with a typed `NotEnoughObservations`, and the next
/// minutes bring it back.
#[test]
fn hostile_samples_and_a_gap_longer_than_the_window_stay_warm_equals_fresh() {
    let steps = [
        Step::Hostile(f64::NAN),
        Step::Append(1),
        Step::Hostile(f64::INFINITY),
        Step::Hostile(f64::NEG_INFINITY),
        Step::Append(2),
        Step::Hostile(-250.0),
        Step::Append(1),
        Step::Gap(2 * i64::from(WINDOW_MINUTES)),
        Step::Append(3),
        Step::Hostile(f64::NAN),
        Step::Append(1),
    ];
    // A gap that lands on a hostile minute leaves nothing usable.
    let mut unusable = steps.to_vec();
    let gap = unusable.len() + 1;
    unusable.extend([
        Step::Skip(i64::from(WINDOW_MINUTES) + 5),
        Step::Hostile(f64::NAN),
        Step::Append(2),
    ]);
    for sharded in [false, true] {
        let (_, fits) = run(Harness::new(sharded), &steps, &MODELS);
        assert!(fits.iter().all(Option::is_none), "{fits:?}");
        let (_, fits) = run(Harness::new(sharded), &unusable, &MODELS);
        assert!(fits[..gap + 1].iter().all(Option::is_none), "{fits:?}");
        assert!(
            matches!(fits[gap + 1], Some(CoreError::NotEnoughObservations { .. })),
            "{fits:?}"
        );
        assert!(fits[gap + 2].is_none(), "{fits:?}");
    }
}

/// A long-lived service whose every read is checked against a
/// from-scratch one.
struct Reader {
    service: Caladrius,
    reads: u64,
    /// `full_fits` after the first read: the models of the one cold fit.
    cold_fits: u64,
    /// CPU lines compared with a fresh service's.
    cpu_lines: u64,
}

impl Reader {
    fn new(service: Caladrius) -> Self {
        Reader {
            service,
            reads: 0,
            cold_fits: 0,
            cpu_lines: 0,
        }
    }

    /// Reads the history and the fitted models; only the first read may
    /// have fitted or read in full. Given a fresh service, everything a
    /// caller could tell two fits apart by must equal its, bit for bit:
    /// throughput predictions, every fitted parameter, the CPU lines.
    fn check(&mut self, fresh: Option<&Caladrius>, what: &str) {
        let history = |c: &Caladrius| bits(&c.source_history(TOPOLOGY).expect("history"));
        let served_history = history(&self.service);
        let (model, cpu) = self.service.fitted_models(TOPOLOGY).expect("served fit");

        self.reads += 1;
        let models = self.service.model_cache_stats();
        if self.reads == 1 {
            self.cold_fits = models.full_fits;
        }
        assert_eq!((models.hits, models.misses), (0, self.reads), "{what}");
        assert_eq!(models.full_fits, self.cold_fits, "{what}: refitted in full");
        assert!(models.incremental_fits >= 2 * (self.reads - 1), "{what}");
        assert_eq!(models.fits, models.full_fits + models.incremental_fits);
        // The history reads or slides the window; the fit after it finds
        // the window kept under the stamp.
        let history_reads = SourceHistoryReads {
            hit: self.reads,
            tail: self.reads - 1,
            full: 1,
        };
        assert_eq!(self.service.source_history_reads(), history_reads, "{what}");

        let Some(fresh) = fresh else {
            return;
        };
        assert_eq!(served_history, history(fresh), "{what}: history");
        let (fresh_model, fresh_cpu) = fresh.fitted_models(TOPOLOGY).expect("fresh fit");
        for rate in [5.0e6, 15.0e6, 21.0e6, 30.0e6] {
            let predict = |m: &caladrius_core::model::topology::TopologyModel| {
                let p = m.predict(&HashMap::new(), rate).expect("prediction");
                let per_component: Vec<_> = p
                    .per_component
                    .iter()
                    .map(|c| (c.input_rate.to_bits(), c.output_rate.to_bits(), c.saturated))
                    .collect();
                (p.sink_output_rate.to_bits(), p.bottleneck, per_component)
            };
            assert_eq!(predict(&model), predict(&fresh_model), "{what}: {rate:e}");
        }
        let mut names: Vec<_> = cpu.keys().collect();
        names.sort();
        let mut fresh_names: Vec<_> = fresh_cpu.keys().collect();
        fresh_names.sort();
        assert_eq!(names, fresh_names, "{what}: cpu models");
        for name in names {
            let (served, fresh) = (&cpu[name], &fresh_cpu[name]);
            assert_eq!(
                served.psi.to_bits(),
                fresh.psi.to_bits(),
                "{what}: {name} psi"
            );
            assert_eq!(
                served.base.to_bits(),
                fresh.base.to_bits(),
                "{what}: {name} base"
            );
        }
        assert_eq!(
            model_bits(&(model, cpu.clone())),
            model_bits(&(fresh_model, fresh_cpu)),
            "{what}: parameters"
        );
        self.cpu_lines += cpu.len() as u64;
    }
}

/// Delta reads across chunk seals. A series' head is sealed into a
/// Gorilla chunk every 240 samples, so over 555 simulated minutes every
/// series seals twice. One service reads every minute: its delta is the
/// newest minute, first out of a head that has just been sealed away
/// under it, then out of the fresh one. A second reads every 37th minute:
/// its deltas start inside a sealed chunk (minutes 223..=259, 445..=481),
/// at other times inside the head. The window is 200 minutes, so from
/// minute 200 on every read also drops the minutes that left it.
///
/// Every read checks the counters. The from-scratch comparison (a cold
/// fit over the same window) is made where a seal can show: at the
/// lagging reader's minutes, within five minutes of each seal, and at the
/// end.
#[test]
fn deltas_across_chunk_seals_equal_a_from_scratch_service() {
    const MINUTES: u64 = 555;
    const LAG: u64 = 37;
    const WINDOW: u32 = 200;
    const CHUNK: u64 = caladrius_tsdb::series::DEFAULT_CHUNK_SIZE as u64;
    // A triangle through the splitter's knee (2 × 11 M/min), so the
    // models fit slopes, a saturation point and backpressured windows.
    let per_sec = |per_min: f64| per_min / 60.0;
    let profile = RateProfile::PiecewiseLinear {
        points: vec![
            (0, per_sec(4.0e6)),
            (MINUTES * 30, per_sec(26.0e6)),
            (MINUTES * 60, per_sec(4.0e6)),
        ],
    };
    let config = SimConfig {
        metric_noise: 0.0,
        event_mode: true,
        ..SimConfig::default()
    };
    for sharded in [false, true] {
        let harness = Harness::new(sharded);
        let topology = wordcount_topology_with(parallelism(2), profile.clone(), None);
        let mut live = Simulation::new(topology, config.clone()).unwrap();
        let mut warm = Reader::new(harness.service_over(WINDOW));
        let mut lagging = Reader::new(harness.service_over(WINDOW));
        let mut compared = 0u64;
        for minute in 1..=MINUTES {
            live.run_minutes_into(1, &harness.metrics);
            // Ten minutes in, a fit has observations to stand on.
            if minute < 10 {
                continue;
            }
            let lagging_reads = minute % LAG == 0;
            let near_seal = [CHUNK, 2 * CHUNK].iter().any(|s| s.abs_diff(minute) <= 5);
            let fresh = (lagging_reads || near_seal || minute == MINUTES)
                .then(|| harness.service_over(WINDOW));
            compared += u64::from(fresh.is_some());
            warm.check(fresh.as_ref(), &format!("warm, minute {minute}"));
            if lagging_reads {
                lagging.check(fresh.as_ref(), &format!("lagging, minute {minute}"));
            }
        }
        assert_eq!((warm.reads, lagging.reads), (MINUTES - 9, MINUTES / LAG));
        // 15 lagging reads (the last minute among them) + 2 × 11 near a
        // seal, of which minute 481 is both.
        assert_eq!(compared, 36);
        assert!(warm.cpu_lines > 0 && lagging.cpu_lines > 0);
    }
}
