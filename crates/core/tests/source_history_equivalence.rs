//! Incremental == batch for the maintained source history.
//!
//! A long-lived service keeps each topology's source-rate window and
//! slides it forward with tail reads. Over random schedules of appends,
//! gaps, truncations, retention passes, spout rescales and explicit
//! invalidations, after **every** step its `source_history` must equal —
//! same `ts`, same `y.to_bits()` — what a service created that instant
//! reads from scratch, and the read counters must show the path the
//! version stamp dictates: a full read exactly where the stamp says
//! Cold, a tail read where only the watermark advanced, nothing
//! otherwise.
//!
//! A tail read is the range read `[last watermark + 1, watermark]`, and
//! the fitted models absorb their deltas through the same reads; the last
//! test carries both across the store's chunk seals.
//!
//! Runs over the core `SimMetricsProvider` and over the fleet tier's
//! `ShardMetricsProvider` (with a shard-mate whose truncations bump the
//! shard-wide generation). Deterministic; CI runs it under
//! `CALADRIUS_THREADS=1`.

use caladrius_core::config::CaladriusConfig;
use caladrius_core::providers::metrics::{MetricsProvider, SimMetricsProvider};
use caladrius_core::providers::tracker::TopologyTracker;
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
const WINDOW_MINUTES: u32 = 30;

#[derive(Debug, Clone)]
enum Step {
    /// Append this many contiguous minutes.
    Append(i64),
    /// Skip this many minutes, then append one.
    Gap(i64),
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
        (1i64..4).prop_map(Step::Append),
        (1i64..4).prop_map(Step::Append),
        (1i64..4).prop_map(Step::Append),
        (1i64..70).prop_map(Step::Gap),
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

    /// Appends `minutes` minutes of per-instance offered load whose sums
    /// depend on the order of addition in their last bits.
    fn append(&mut self, minutes: i64) {
        for _ in 0..minutes {
            for instance in 0..self.spouts {
                let value = (self.next_minute as f64 * 1000.0 + 0.1) / (f64::from(instance) + 3.0);
                self.metrics.record_instance(
                    metric::SOURCE_OFFERED,
                    "spout",
                    instance,
                    0,
                    self.next_minute * MINUTE,
                    value,
                );
            }
            self.next_minute += 1;
        }
    }

    fn apply(&mut self, step: &Step, warm: &Caladrius) {
        let watermark = self.provider.latest_minute(TOPOLOGY);
        match *step {
            Step::Append(minutes) => self.append(minutes),
            Step::Gap(minutes) => {
                self.next_minute += minutes;
                self.append(1);
            }
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

/// Replays `steps`, checking the warm service against a fresh one after
/// each; returns how the warm service's reads were served.
fn run(mut harness: Harness, steps: &[Step]) -> SourceHistoryReads {
    harness.append(45);
    let warm = harness.service();
    // The stamp of the entry the warm service holds, if any.
    let mut cached = None;
    let mut expected = SourceHistoryReads::default();
    for step in std::iter::once(&Step::Read).chain(steps) {
        harness.apply(step, &warm);
        if matches!(step, Step::Invalidate) {
            cached = None;
        }
        let now = harness.stamp();
        let fresh = harness.service().source_history(TOPOLOGY);
        let served = warm.source_history(TOPOLOGY);
        match (&served, &fresh) {
            (Ok(served), Ok(fresh)) => {
                assert_eq!(bits(served), bits(fresh), "after {step:?}");
                assert!(served.len() <= WINDOW_MINUTES as usize);
            }
            (Err(_), Err(_)) => {}
            _ => panic!("after {step:?}: served {served:?} but fresh {fresh:?}"),
        }
        // The path the stamp dictates, re-derived independently.
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
            // A failed read leaves no entry behind.
            cached = served.is_ok().then_some(now);
        }
        assert_eq!(warm.source_history_reads(), expected, "after {step:?}");
    }
    expected
}

proptest! {
    #[test]
    fn maintained_history_equals_a_fresh_read_over_the_sim_provider(steps in arb_steps()) {
        run(Harness::new(false), &steps);
    }

    #[test]
    fn maintained_history_equals_a_fresh_read_over_the_shard_provider(steps in arb_steps()) {
        run(Harness::new(true), &steps);
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
        let reads = run(Harness::new(sharded), &steps);
        // Cold: the first read, truncate, retain, rescale, invalidate.
        // A shard-mate's truncation is not this topology's: a Hit on
        // either provider (the generation is per topology).
        assert_eq!(reads.full, 5, "{reads:?}");
        assert_eq!(reads.hit, 2, "{reads:?}");
        assert_eq!(reads.tail, steps.len() as u64 + 1 - reads.full - reads.hit);
    }
}

/// A long-lived service whose every read is checked against a
/// from-scratch one.
struct Reader {
    service: Caladrius,
    reads: u64,
    /// `full_fits` after the first read: the models of the one cold fit.
    cold_fits: u64,
}

impl Reader {
    fn new(service: Caladrius) -> Self {
        Reader {
            service,
            reads: 0,
            cold_fits: 0,
        }
    }

    /// Reads the history and the fitted models; only the first read may
    /// have fitted or read in full. Given a fresh service, everything a
    /// caller could tell two fits apart by must equal its: throughput
    /// predictions bit for bit, the CPU lines (pooled instance-major per
    /// delta, so their sums round differently) to 1e-9.
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
        let history_reads = SourceHistoryReads {
            hit: 0,
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
            for (a, b) in [(served.psi, fresh.psi), (served.base, fresh.base)] {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "{what}: {a} vs {b}"
                );
            }
        }
    }
}

/// Delta reads across chunk seals. A series' head is sealed into a
/// Gorilla chunk every 240 samples, so over 555 simulated minutes every
/// series seals twice. One service reads every minute: its delta is the
/// newest minute, first out of a head that has just been sealed away
/// under it, then out of the fresh one. A second reads every 37th minute:
/// its deltas start inside a sealed chunk (minutes 223..=259, 445..=481),
/// at other times inside the head. The window spans the whole run, so a
/// from-scratch service's sliding fit covers the same minutes as the
/// long-lived services' anchored ones.
///
/// Every read checks the counters. The from-scratch comparison (a cold
/// fit over the whole run) is made where a seal can show: at the lagging
/// reader's minutes, within five minutes of each seal, and at the end.
#[test]
fn deltas_across_chunk_seals_equal_a_from_scratch_service() {
    const MINUTES: u64 = 555;
    const LAG: u64 = 37;
    const WIDE: u32 = 600;
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
        let mut warm = Reader::new(harness.service_over(WIDE));
        let mut lagging = Reader::new(harness.service_over(WIDE));
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
                .then(|| harness.service_over(WIDE));
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
    }
}
