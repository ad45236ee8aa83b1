//! Inputs shared by the workloads: topology shapes, the simulated
//! reference day, and its phase-staggered replay into hosted stores.
//!
//! Round cost follows the data phase a topology is in (a saturated
//! afternoon fits and plans differently from a quiet night), so a
//! replayed history must not move all topologies through the day in
//! lock-step: one *contiguous* simulated day is staged once, replayed
//! day-shifted with contiguous timestamps, and topology `i` of `T`
//! starts `i·1440/T` minutes into it. Every round then sees the same mix
//! of day phases, which is what makes a round median repeat.

use caladrius_core::config::CaladriusConfig;
use caladrius_core::Caladrius;
use caladrius_fleet::{BoundWorkload, FleetTracker, ShardMetricsProvider, StagedWorkload};
use caladrius_tsdb::MetricBatch;
use caladrius_workload::traffic::DiurnalTraffic;
use caladrius_workload::wordcount::{
    wordcount_topology, wordcount_topology_with, WordCountParallelism,
};
use heron_sim::engine::{SimConfig, Simulation};
use heron_sim::metrics::SimMetrics;
use heron_sim::topology::Topology;
use std::sync::Arc;

pub const MINUTE_MS: i64 = 60_000;
pub const DAY_MINUTES: usize = 1440;

/// The two WordCount shapes the workloads host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// spout 32 / splitter 8 / counter 12: 52 instances, 240 replicated
    /// series.
    Medium,
    /// spout 8 / splitter 2 / counter 3: the fleet tenant.
    Small,
}

impl Size {
    pub fn parallelism(self) -> WordCountParallelism {
        match self {
            Size::Medium => WordCountParallelism {
                spout: 32,
                splitter: 8,
                counter: 12,
            },
            Size::Small => WordCountParallelism {
                spout: 8,
                splitter: 2,
                counter: 3,
            },
        }
    }

    /// Mean offered load, tuples/min.
    pub fn base_rate(self) -> f64 {
        match self {
            Size::Medium => 64.0e6,
            Size::Small => 16.0e6,
        }
    }

    /// Length of one load cycle. The cycle's peak (×1.6) lies above the
    /// splitter's saturation rate (11e6/min per instance), so a cycle
    /// holds both the linear and the saturated regime and models fit —
    /// provided the training window sees enough of both. The medium
    /// shape is fitted over a whole day; the small shape over the default
    /// 240-minute window, so its "day" is four 6-hour cycles: a window
    /// that saw little but the saturated peak fits a flat CPU model that
    /// no parallelism can satisfy, and the plan fails.
    pub fn cycle_secs(self) -> u64 {
        match self {
            Size::Medium => 86_400,
            Size::Small => 21_600,
        }
    }
}

/// splitmix64: the seed only ever feeds this generator; the program
/// under test sees generated inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }
}

/// A deployed (constant-rate) topology of `size` called `name`.
pub fn deployed(size: Size, name: &str) -> Topology {
    let mut topology = wordcount_topology(size.parallelism(), size.base_rate());
    topology.name = name.to_string();
    topology
}

/// Simulates one day of `size`'s load cycle at `rate_scale` × its base rate
/// into a fresh store, and returns the store with the simulation (whose
/// lifetime counters say how the day was advanced).
pub fn simulate_day(
    size: Size,
    name: &str,
    rate_scale: f64,
    sim_seed: u64,
    event_mode: bool,
) -> (SimMetrics, Simulation) {
    let profile = DiurnalTraffic {
        base_rate: size.base_rate() * rate_scale / 60.0,
        amplitude: 0.6,
        period_secs: size.cycle_secs(),
        phase_secs: 0,
        knots_per_period: 24,
    }
    .to_profile(86_400);
    let mut topology = wordcount_topology_with(size.parallelism(), profile, None);
    topology.name = name.to_string();
    let mut sim = Simulation::new(
        topology,
        SimConfig {
            seed: sim_seed,
            event_mode,
            ..SimConfig::default()
        },
    )
    .expect("the wordcount topology is valid");
    let metrics = SimMetrics::new(name);
    sim.run_minutes_into(DAY_MINUTES as u64, &metrics);
    (metrics, sim)
}

/// The staged reference day: one exact-tick simulated day, snapshotted
/// for replay.
pub fn reference_day(size: Size, seed: u64) -> StagedWorkload {
    let (metrics, _) = simulate_day(size, "reference-day", 1.0, seed, false);
    let staged = StagedWorkload::from_staged(&metrics);
    assert_eq!(staged.minutes(), DAY_MINUTES, "a contiguous day");
    staged
}

/// One hosted topology's replay cursor over the staged day.
#[derive(Debug)]
pub struct Replica {
    pub name: String,
    pub metrics: SimMetrics,
    bound: BoundWorkload,
    /// Staged minute this topology's history starts at.
    phase: usize,
    /// Minutes fed so far.
    fed: usize,
}

impl Replica {
    pub fn new(name: String, metrics: SimMetrics, staged: &StagedWorkload, phase: usize) -> Self {
        let bound = staged.bind(&metrics);
        Replica {
            name,
            metrics,
            bound,
            phase,
            fed: 0,
        }
    }

    /// Fills `batch` with this topology's next minute: staged minute
    /// `(phase + fed) mod 1440`, stamped `fed` minutes after the first
    /// staged timestamp so the history stays contiguous across day
    /// boundaries. The caller ships the batch.
    pub fn fill_next(&mut self, staged: &StagedWorkload, batch: &mut MetricBatch) {
        let idx = (self.phase + self.fed) % staged.minutes();
        let ts = staged.minute_ts(0) + self.fed as i64 * MINUTE_MS;
        self.bound
            .fill_at(staged, idx, ts - staged.minute_ts(idx), batch);
        self.fed += 1;
    }
}

/// Staged minute topology `i` of `count` starts at.
pub fn stagger(i: usize, count: usize) -> usize {
    i * DAY_MINUTES / count
}

/// A multi-topology single-tenant service: one `Caladrius` over
/// per-topology stores, assembled from the fleet tier's public provider
/// seams.
pub struct Hosted {
    pub caladrius: Arc<Caladrius>,
    provider: Arc<ShardMetricsProvider>,
    pub tracker: Arc<FleetTracker>,
    pub replicas: Vec<Replica>,
    config: CaladriusConfig,
}

impl Hosted {
    /// Hosts `count` topologies of `size` and feeds each
    /// `history_minutes` of phase-staggered history.
    pub fn new(
        staged: &StagedWorkload,
        size: Size,
        count: usize,
        history_minutes: usize,
        config: CaladriusConfig,
    ) -> Hosted {
        let provider = Arc::new(ShardMetricsProvider::new());
        let tracker = Arc::new(FleetTracker::new());
        let mut batch = MetricBatch::new(0);
        let replicas = (0..count)
            .map(|i| {
                let name = format!("wc-{i}");
                let metrics = SimMetrics::new(&name);
                provider.register(metrics.clone());
                tracker.insert(deployed(size, &name));
                let mut replica = Replica::new(name, metrics, staged, stagger(i, count));
                for _ in 0..history_minutes {
                    replica.fill_next(staged, &mut batch);
                    replica.metrics.ingest(&batch);
                }
                replica
            })
            .collect();
        let caladrius = Arc::new(Caladrius::with_config(
            Arc::clone(&provider) as _,
            Arc::clone(&tracker) as _,
            config.clone(),
        ));
        Hosted {
            caladrius,
            provider,
            tracker,
            replicas,
            config,
        }
    }

    /// A second, cache-cold service over the same stores. Probes go here
    /// so they never touch the measured service's caches.
    pub fn shadow(&self) -> Caladrius {
        Caladrius::with_config(
            Arc::clone(&self.provider) as _,
            Arc::clone(&self.tracker) as _,
            self.config.clone(),
        )
    }

    pub fn config(&self) -> &CaladriusConfig {
        &self.config
    }

    /// Ships topology `i`'s next staged minute to its store.
    pub fn ingest_next(&mut self, i: usize, staged: &StagedWorkload, batch: &mut MetricBatch) {
        let replica = &mut self.replicas[i];
        replica.fill_next(staged, batch);
        replica.metrics.ingest(batch);
    }
}

/// The service configuration of the medium workloads: the training
/// window spans the whole replayed day, so every fit sees the linear
/// and the saturated regime whatever phase the topology is in.
pub fn day_window() -> CaladriusConfig {
    CaladriusConfig {
        source_window_minutes: DAY_MINUTES as u32,
        ..CaladriusConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_stays_in_range() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(43).next_u64());
        let mut r = Rng::new(7);
        assert!((0..200).all(|_| (6..=12).contains(&r.range(6, 12))));
    }

    /// A hand-built three-minute "day" with one series whose value is its
    /// minute index.
    fn tiny_day() -> StagedWorkload {
        let metrics = SimMetrics::new("tiny");
        for minute in 0..3 {
            metrics.record_instance(
                heron_sim::metrics::metric::EXECUTE_COUNT,
                "splitter",
                0,
                0,
                (minute + 1) * MINUTE_MS,
                minute as f64,
            );
        }
        StagedWorkload::from_staged(&metrics)
    }

    #[test]
    fn replay_is_phase_shifted_and_contiguous_across_day_boundaries() {
        let staged = tiny_day();
        assert_eq!(staged.minutes(), 3);
        let metrics = SimMetrics::new("replica");
        let mut replica = Replica::new("replica".into(), metrics.clone(), &staged, 2);
        let mut batch = MetricBatch::new(0);
        for _ in 0..7 {
            replica.fill_next(&staged, &mut batch);
            metrics.ingest(&batch);
        }
        let series = metrics.component_sum(
            heron_sim::metrics::metric::EXECUTE_COUNT,
            Some("splitter"),
            0,
            i64::MAX,
        );
        // Timestamps run on without a gap; values start at the phase and
        // wrap around the staged day.
        let stamps: Vec<i64> = series.iter().map(|s| s.ts).collect();
        let expected: Vec<i64> = (1..=7).map(|m| m * MINUTE_MS).collect();
        assert_eq!(stamps, expected);
        let values: Vec<f64> = series.iter().map(|s| s.value).collect();
        assert_eq!(values, [2.0, 0.0, 1.0, 2.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn stagger_spreads_topologies_over_the_day() {
        assert_eq!(stagger(0, 4), 0);
        assert_eq!(stagger(1, 4), 360);
        assert_eq!(stagger(3, 4), 1080);
        assert_eq!(stagger(127, 128), 1428);
    }
}
