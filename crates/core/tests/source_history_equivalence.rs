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
use caladrius_workload::wordcount::{wordcount_topology, WordCountParallelism};
use heron_sim::metrics::{metric, SimMetrics};
use proptest::prelude::*;
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

fn deployed(spouts: u32) -> heron_sim::topology::Topology {
    wordcount_topology(
        WordCountParallelism {
            spout: spouts,
            splitter: 2,
            counter: 3,
        },
        1.0e6,
    )
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
        Caladrius::with_config(
            Arc::clone(&self.provider),
            Arc::clone(&self.tracker) as Arc<dyn TopologyTracker>,
            CaladriusConfig {
                source_window_minutes: WINDOW_MINUTES,
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
            self.provider.truncation_generation(),
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
        // Cold: the first read, truncate, retain, rescale, invalidate —
        // and, on a shard, the neighbour's truncation.
        assert_eq!(reads.full, 5 + u64::from(sharded), "{reads:?}");
        assert_eq!(reads.hit, 1 + u64::from(!sharded), "{reads:?}");
        assert_eq!(reads.tail, steps.len() as u64 + 1 - reads.full - reads.hit);
    }
}
