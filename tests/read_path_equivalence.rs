//! Pins what onboarding a topology produces, so a change to the read path
//! (tsdb decode → bucket → merge, and the fit's observation assembly)
//! can prove it moved no bit.
//!
//! Two small WordCount days are simulated in event mode into fresh
//! stores and onboarded the way a new topology is: a cold fit, a cold
//! capacity plan, and a replay of that plan. Each run is folded into an
//! FNV-1a digest of the fitted component models, the CPU models (sorted
//! by component name), the plan's windows, the replay reports and the
//! sink's per-minute `component_sum`. Every float enters by its bits;
//! nothing that holds a `HashMap` is digested through `Debug`.

use caladrius::core::capacity::CapacityPlanRequest;
use caladrius::core::config::CaladriusConfig;
use caladrius::core::model::component::{ComponentModel, GroupingKind};
use caladrius::core::model::cpu::CpuModel;
use caladrius::core::providers::{SimMetricsProvider, StaticTracker};
use caladrius::core::Caladrius;
use caladrius::planner::{replay_timeline, PlanAction, PlanCost, ReplayConfig};
use caladrius::sim::engine::{SimConfig, Simulation};
use caladrius::sim::metrics::{metric, SimMetrics};
use caladrius::workload::traffic::DiurnalTraffic;
use caladrius::workload::wordcount::{
    wordcount_topology, wordcount_topology_with, WordCountParallelism,
};
use std::sync::Arc;

const TOPOLOGY: &str = "onboarded";
const DAY_MINUTES: u64 = 1440;
const PARALLELISM: WordCountParallelism = WordCountParallelism {
    spout: 8,
    splitter: 2,
    counter: 3,
};
/// Mean offered load, tuples/min.
const BASE_RATE: f64 = 16.0e6;

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn str(&mut self, value: &str) {
        self.u64(value.len() as u64);
        self.bytes(value.as_bytes());
    }

    fn parallelisms(&mut self, parallelisms: &[(String, u32)]) {
        self.u64(parallelisms.len() as u64);
        for (name, p) in parallelisms {
            self.str(name);
            self.u64(u64::from(*p));
        }
    }

    fn cost(&mut self, cost: &PlanCost) {
        self.u64(u64::from(cost.total_instances));
        self.f64(cost.total_cores);
        self.u64(cost.total_ram_mb);
        self.u64(u64::from(cost.containers));
    }

    fn component_model(&mut self, model: &ComponentModel) {
        self.str(&model.name);
        self.u64(u64::from(model.fitted_parallelism));
        self.f64(model.instance.alpha);
        match model.instance.saturation {
            None => self.u64(0),
            Some(knee) => {
                self.u64(1);
                self.f64(knee.input_sp);
                self.f64(knee.output_st);
            }
        }
        self.u64(model.shares.len() as u64);
        for share in &model.shares {
            self.f64(*share);
        }
        match &model.grouping {
            GroupingKind::Shuffle => self.u64(0),
            GroupingKind::Fields => self.u64(1),
            GroupingKind::All => self.u64(2),
            GroupingKind::Global => self.u64(3),
            GroupingKind::Other(name) => {
                self.u64(4);
                self.str(name);
            }
        }
    }

    fn cpu_model(&mut self, name: &str, model: &CpuModel) {
        self.str(name);
        self.f64(model.base);
        self.f64(model.psi);
    }
}

/// One day of the small shape's six-hour load cycle at `rate_scale` ×
/// the base rate, simulated in event mode into a fresh store.
fn simulate_day(rate_scale: f64, seed: u64) -> SimMetrics {
    let profile = DiurnalTraffic {
        base_rate: BASE_RATE * rate_scale / 60.0,
        amplitude: 0.6,
        period_secs: 6 * 3600,
        phase_secs: 0,
        knots_per_period: 24,
    }
    .to_profile(86_400);
    let mut topology = wordcount_topology_with(PARALLELISM, profile, None);
    topology.name = TOPOLOGY.to_string();
    let config = SimConfig {
        seed,
        event_mode: true,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(topology, config).unwrap();
    let metrics = SimMetrics::new(TOPOLOGY);
    sim.run_minutes_into(DAY_MINUTES, &metrics);
    metrics
}

/// Onboards one simulated day and digests everything it produced.
fn onboard_digest(rate_scale: f64, seed: u64) -> u64 {
    let metrics = simulate_day(rate_scale, seed);
    let mut topology = wordcount_topology(PARALLELISM, BASE_RATE);
    topology.name = TOPOLOGY.to_string();
    let service = Caladrius::with_config(
        Arc::new(SimMetricsProvider::new(metrics.clone())),
        Arc::new(StaticTracker::new().with(topology.clone())),
        CaladriusConfig::default(),
    );
    let (models, cpu_models) = service.fitted_models(TOPOLOGY).unwrap();
    let timeline = service
        .plan_capacity(TOPOLOGY, &CapacityPlanRequest::default())
        .unwrap();
    let replay = replay_timeline(&topology, &timeline, &ReplayConfig::default()).unwrap();

    let mut hash = Fnv1a::new();
    for component in &topology.components {
        match models.component_model(&component.name) {
            Some(model) => hash.component_model(model),
            None => hash.str(&component.name),
        }
    }
    assert_eq!(cpu_models.len(), 2, "one CPU model per bolt");
    let mut cpu: Vec<_> = cpu_models.iter().collect();
    cpu.sort_by(|a, b| a.0.cmp(b.0));
    for (name, model) in cpu {
        hash.cpu_model(name, model);
    }
    assert!(!timeline.windows.is_empty());
    for window in &timeline.windows {
        hash.u64(window.window as u64);
        hash.u64(window.start_ts as u64);
        hash.u64(window.end_ts as u64);
        hash.f64(window.peak_rate);
        hash.f64(window.planned_rate);
        hash.parallelisms(&window.parallelisms);
        hash.cost(&window.cost);
        hash.f64(window.saturation_rate);
        for action in &window.actions {
            let (kind, component, from, to) = match action {
                PlanAction::ScaleUp {
                    component,
                    from,
                    to,
                } => (0, component, from, to),
                PlanAction::ScaleDown {
                    component,
                    from,
                    to,
                } => (1, component, from, to),
            };
            hash.u64(kind);
            hash.str(component);
            hash.u64(u64::from(*from));
            hash.u64(u64::from(*to));
        }
    }
    hash.parallelisms(&timeline.peak_parallelisms);
    hash.cost(&timeline.peak_cost);
    hash.u64(timeline.oracle_evals);
    assert_eq!(replay.len(), timeline.windows.len());
    for window in &replay {
        hash.u64(window.window as u64);
        hash.f64(window.offered_rate);
        hash.f64(window.sink_rate);
        hash.f64(window.backpressure_ms);
        hash.u64(u64::from(window.low_risk));
        hash.u64(window.sim_events);
        hash.u64(window.closed_form_ticks);
    }
    let sink = metrics.component_sum(metric::EXECUTE_COUNT, Some("counter"), 0, i64::MAX);
    assert_eq!(sink.len(), DAY_MINUTES as usize);
    for s in &sink {
        hash.u64(s.ts as u64);
        hash.f64(s.value);
    }
    hash.0
}

/// Digests recorded when the read path still re-sorted every window.
/// A change that moves any onboarding bit fails here; the failure
/// message lists the new digests.
const PINNED_DIGESTS: [(&str, u64); 2] = [
    ("full load", 0xfc7bb03e9f017576),
    ("light load", 0xb60609faec0837cc),
];

#[test]
fn onboarding_outputs_match_pinned_digests() {
    let actual = [
        ("full load", onboard_digest(1.0, 0x5eed_0001)),
        ("light load", onboard_digest(0.9, 0x5eed_0002)),
    ];
    let listing: String = actual
        .iter()
        .map(|(name, digest)| format!("    ({name:?}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(actual, PINNED_DIGESTS, "actual digests:\n{listing}");
}
