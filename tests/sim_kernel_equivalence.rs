//! Equivalence suite for the SoA simulation kernel.
//!
//! The engine's hot loop was rewritten from per-instance enum-matching
//! structs into a flat struct-of-arrays kernel (`engine::Simulation`);
//! `reference::ReferenceSimulation` retains the original tick verbatim.
//! The rewrite is only legal because it is *bit-identical*: every tsdb
//! sample the two kernels emit must match down to the last mantissa bit
//! (`f64::to_bits`), across topologies, rates, observation noise, stream
//! manager modes and backpressure regimes.
//!
//! Event-driven advancement (`SimConfig::event_mode`) intentionally
//! trades that guarantee for speed, so it is checked against a tolerance
//! instead: sink throughput within 0.1 % of the exact run and the same
//! backpressure verdict, across constant, stepped, ramping, diurnal and
//! flash-crowd rate profiles. Overloaded runs drain their backpressure
//! episodes in closed form; there the per-minute backpressure time of
//! every instance must equal the exact kernel's.
//!
//! Both modes are also pinned against themselves: six runs (event mode
//! on steady, ramping, onboarding, flash-crowd and overloaded load, and
//! one exact run with warm-up) are digested sample by sample, together
//! with their event and tick counters, and compared with recorded
//! constants.

use caladrius::sim::engine::{ExactTickReason, SimConfig, Simulation};
use caladrius::sim::metrics::{metric, SimMetrics};
use caladrius::sim::profiles::RateProfile;
use caladrius::sim::reference::ReferenceSimulation;
use caladrius::sim::topology::Topology;
use caladrius::tsdb::Aggregation;
use caladrius::workload::diamond::{diamond_topology, diamond_topology_with, DiamondParallelism};
use caladrius::workload::traffic::{flash_crowd, DiurnalTraffic};
use caladrius::workload::wordcount::{
    wordcount_topology, wordcount_topology_with, WordCountParallelism,
};
use proptest::prelude::*;

/// Every metric family either kernel can emit.
const METRIC_NAMES: [&str; 5] = [
    metric::EXECUTE_COUNT,
    metric::EMIT_COUNT,
    metric::SOURCE_OFFERED,
    metric::BACKPRESSURE_TIME,
    metric::CPU_LOAD,
];

/// Flattens a metrics db into `(series key, ts, value bits)` rows, sorted
/// deterministically, so two dbs can be compared for bitwise equality.
fn dump(metrics: &SimMetrics) -> Vec<(String, i64, u64)> {
    dump_of(metrics, &METRIC_NAMES)
}

/// [`dump`] restricted to the metric families in `names`.
fn dump_of(metrics: &SimMetrics, names: &[&str]) -> Vec<(String, i64, u64)> {
    let db = metrics.db();
    let mut rows = Vec::new();
    for &name in names {
        for (key, samples) in db.select(name, &[], i64::MIN, i64::MAX).unwrap() {
            for s in samples {
                rows.push((format!("{key:?}"), s.ts, s.value.to_bits()));
            }
        }
    }
    rows
}

/// Runs both kernels over the same schedule and asserts bitwise-equal
/// output, returning whether the run ever backpressured (so callers can
/// confirm a regime was actually exercised).
fn assert_bit_identical(topology: Topology, config: SimConfig, minutes: u64) -> bool {
    let mut soa = Simulation::new(topology.clone(), config.clone()).unwrap();
    let mut reference = ReferenceSimulation::new(topology, config).unwrap();
    let soa_metrics = SimMetrics::new(soa.topology().name.clone());
    let ref_metrics = SimMetrics::new(reference.topology().name.clone());
    soa.run_minutes_into(minutes, &soa_metrics);
    reference.run_minutes_into(minutes, &ref_metrics);
    assert_eq!(soa.now_secs(), reference.now_secs());
    assert_eq!(
        soa.backpressure_active(),
        reference.backpressure_active(),
        "kernels disagree on live backpressure state"
    );
    assert_eq!(
        soa.ticks_closed_form(),
        0,
        "event mode must stay off unless opted into"
    );
    let (a, b) = (dump(&soa_metrics), dump(&ref_metrics));
    assert_eq!(a.len(), b.len(), "kernels emitted different sample counts");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y, "sample diverged (key, ts, f64 bits)");
    }
    let bp: f64 = a
        .iter()
        .filter(|(k, _, _)| k.contains(metric::BACKPRESSURE_TIME))
        .map(|(_, _, bits)| f64::from_bits(*bits))
        .sum();
    bp > 0.0
}

#[derive(Debug, Clone)]
struct Case {
    topology: Topology,
    config: SimConfig,
    minutes: u64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        prop::bool::ANY, // wordcount vs diamond
        0.2f64..2.0,     // offered rate as a fraction of the bottleneck knee
        prop::bool::ANY, // observation noise on/off
        prop::bool::ANY, // finite vs transparent stream managers
        0u64..1u64 << 32,
    )
        .prop_map(|(diamond, load, noise, finite_stmgr, seed)| {
            let topology = if diamond {
                // Geo/device branches knee near 30 M events/min at
                // parallelism 2.
                diamond_topology(DiamondParallelism::default(), load * 30.0e6)
            } else {
                // One splitter knees at 11 M words/min.
                wordcount_topology(WordCountParallelism::default(), load * 11.0e6)
            };
            let config = SimConfig {
                metric_noise: if noise { 0.004 } else { 0.0 },
                seed,
                stmgr_capacity: finite_stmgr.then_some(150_000.0),
                ..SimConfig::default()
            };
            Case {
                topology,
                config,
                minutes: 4,
            }
        })
}

proptest! {
    /// The SoA kernel is bit-identical to the retained reference tick
    /// across topologies, load levels, noise, stream manager modes and
    /// seeds — including runs that cross in and out of backpressure.
    #[test]
    fn soa_kernel_is_bit_identical_to_reference(case in arb_case()) {
        assert_bit_identical(case.topology, case.config, case.minutes);
    }
}

#[test]
fn backpressure_regime_is_exercised_and_bit_identical() {
    // 2× the splitter knee guarantees sustained backpressure.
    let topology = wordcount_topology(WordCountParallelism::default(), 22.0e6);
    let saw_bp = assert_bit_identical(topology, SimConfig::default(), 8);
    assert!(saw_bp, "overload run must actually backpressure");
}

#[test]
fn stepped_rates_are_bit_identical() {
    let topology = caladrius::workload::wordcount::wordcount_topology_with(
        WordCountParallelism::default(),
        RateProfile::Steps {
            initial: 8.0e6 / 60.0,
            steps: vec![(120, 22.0e6 / 60.0), (300, 4.0e6 / 60.0)],
        },
        None,
    );
    assert_bit_identical(topology, SimConfig::default(), 8);
}

/// Mean sink throughput (tuples/min) and total backpressure over the
/// observation window `[from, ∞)`.
fn sink_and_bp(metrics: &SimMetrics, topology: &Topology, from: i64) -> (f64, f64) {
    let mut sink_rate = 0.0;
    let mut bp_ms = 0.0;
    for (idx, component) in topology.components.iter().enumerate() {
        let name = component.name.as_str();
        let series = metrics.component_sum(metric::BACKPRESSURE_TIME, Some(name), from, i64::MAX);
        bp_ms += series.iter().map(|s| s.value).sum::<f64>();
        if topology.out_edges(idx).next().is_none() {
            let series = metrics.component_sum(metric::EXECUTE_COUNT, Some(name), from, i64::MAX);
            sink_rate += Aggregation::Mean.apply(series.iter().map(|s| s.value));
        }
    }
    (sink_rate, bp_ms)
}

/// Asserts that every instance's per-minute backpressure time is the
/// same in both runs, and returns a lower bound on the ticks the exact
/// run spent in backpressure (per minute, the longest any one instance
/// held it).
fn assert_backpressure_identical(exact: &SimMetrics, event: &SimMetrics) -> u64 {
    let (a, b) = (
        dump_of(exact, &[metric::BACKPRESSURE_TIME]),
        dump_of(event, &[metric::BACKPRESSURE_TIME]),
    );
    assert_eq!(a.len(), b.len(), "different backpressure sample counts");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y, "per-minute backpressure diverged (key, ts, f64 bits)");
    }
    let mut longest = std::collections::BTreeMap::<i64, f64>::new();
    for (_, ts, bits) in &a {
        let held = longest.entry(*ts).or_default();
        *held = held.max(f64::from_bits(*bits));
    }
    (longest.values().sum::<f64>() / 1000.0) as u64
}

/// Share of a simulation's ticks advanced in closed form.
fn closed_form_share(sim: &Simulation) -> f64 {
    sim.ticks_closed_form() as f64 / (sim.ticks_closed_form() + sim.ticks_executed()) as f64
}

/// Runs the same topology exact and event-driven; asserts closed-form
/// coverage (when expected), matching backpressure verdicts and sink
/// throughput within 0.1 %. Returns both runs.
fn assert_event_within_tolerance(
    topology: Topology,
    expect_closed_form: bool,
) -> ((Simulation, SimMetrics), (Simulation, SimMetrics)) {
    let exact_cfg = SimConfig {
        metric_noise: 0.0,
        ..SimConfig::default()
    };
    let event_cfg = SimConfig {
        event_mode: true,
        ..exact_cfg.clone()
    };
    let minutes = 30;
    let warmup_ms = 5 * 60_000;
    let mut exact = Simulation::new(topology.clone(), exact_cfg).unwrap();
    let mut fast = Simulation::new(topology, event_cfg).unwrap();
    let exact_metrics = exact.run_minutes(minutes);
    let fast_metrics = fast.run_minutes(minutes);
    assert_eq!(exact.ticks_closed_form(), 0);
    if expect_closed_form {
        assert!(
            fast.ticks_closed_form() > 60,
            "relaxed run should advance mostly in closed form, covered only {}",
            fast.ticks_closed_form()
        );
        assert!(
            fast.sim_events() > 0,
            "closed-form spans are bounded by scheduler events"
        );
    }
    let (exact_sink, exact_bp) = sink_and_bp(&exact_metrics, exact.topology(), warmup_ms);
    let (fast_sink, fast_bp) = sink_and_bp(&fast_metrics, fast.topology(), warmup_ms);
    assert!(
        (fast_sink - exact_sink).abs() <= 1e-3 * exact_sink.max(1.0),
        "sink rate diverged beyond 0.1%: exact {exact_sink} vs event {fast_sink}"
    );
    let tolerance = 1.0;
    assert_eq!(
        exact_bp > tolerance,
        fast_bp > tolerance,
        "backpressure verdicts diverged: exact {exact_bp} ms vs event {fast_bp} ms"
    );
    ((exact, exact_metrics), (fast, fast_metrics))
}

#[test]
fn event_mode_matches_exact_on_steady_wordcount() {
    let topology = wordcount_topology(WordCountParallelism::default(), 8.0e6);
    assert_event_within_tolerance(topology, true);
}

#[test]
fn event_mode_matches_exact_on_steady_diamond() {
    let topology = diamond_topology(DiamondParallelism::default(), 12.0e6);
    assert_event_within_tolerance(topology, true);
}

#[test]
fn event_mode_matches_exact_on_ramping_diamond() {
    let topology = diamond_topology_with(
        DiamondParallelism::default(),
        RateProfile::Ramp {
            from: 6.0e6 / 60.0,
            to: 24.0e6 / 60.0,
            duration_secs: 1200,
        },
    );
    assert_event_within_tolerance(topology, true);
}

#[test]
fn event_mode_matches_exact_on_diurnal_wordcount() {
    // A compressed day: the sinusoid sweeps 5.6–10.4 M words/min inside
    // the 30-minute run, so breakpoint events fire throughout.
    let diurnal = DiurnalTraffic {
        base_rate: 8.0e6 / 60.0,
        amplitude: 0.3,
        period_secs: 1200,
        phase_secs: 0,
        knots_per_period: 12,
    };
    let topology = wordcount_topology_with(
        WordCountParallelism::default(),
        diurnal.to_profile(30 * 60),
        None,
    );
    assert_event_within_tolerance(topology, true);
}

#[test]
fn event_mode_matches_exact_on_flash_crowd() {
    // The crowd peaks at 2x the splitter knee: the run enters sustained
    // backpressure mid-flight and recovers. The scheduler must fall back
    // to exact ticks through the congested stretch yet still cover the
    // relaxed head and tail in closed form.
    let topology = wordcount_topology_with(
        WordCountParallelism::default(),
        flash_crowd(8.0e6 / 60.0, 22.0e6 / 60.0, 360, 120, 420),
        None,
    );
    assert_event_within_tolerance(topology, true);
}

#[test]
fn event_mode_matches_exact_under_sustained_backpressure() {
    // Permanently overloaded: the relaxed probe never passes, but each
    // backpressure episode drains in closed form between its onset and
    // release ticks — which run exactly, so every minute's backpressure
    // time matches the exact kernel.
    let topology = wordcount_topology(WordCountParallelism::default(), 22.0e6);
    let ((_, exact_metrics), (fast, fast_metrics)) = assert_event_within_tolerance(topology, false);
    let bp_ticks = assert_backpressure_identical(&exact_metrics, &fast_metrics);
    assert!(bp_ticks > 0, "overload run must actually backpressure");
    assert!(
        closed_form_share(&fast) >= 0.9,
        "throttled drains should advance in closed form, share {}",
        closed_form_share(&fast)
    );
}

#[test]
fn event_mode_matches_exact_on_an_onboarding_cycle() {
    // The onboarding shape: medium WordCount on a diurnal cycle whose
    // peak (×1.6) overloads the splitters for hours, compressed to six
    // hours. Noise stays on, as when onboarding.
    for scale in [1.0, 0.9] {
        let diurnal = DiurnalTraffic {
            base_rate: 64.0e6 * scale / 60.0,
            amplitude: 0.6,
            period_secs: 360 * 60,
            phase_secs: 0,
            knots_per_period: 24,
        };
        let parallelism = WordCountParallelism {
            spout: 32,
            splitter: 8,
            counter: 12,
        };
        let topology = wordcount_topology_with(parallelism, diurnal.to_profile(360 * 60), None);
        let run = |event_mode: bool| {
            let config = SimConfig {
                event_mode,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(topology.clone(), config).unwrap();
            let metrics = sim.run_minutes(360);
            (sim, metrics)
        };
        let (_, exact_metrics) = run(false);
        let (fast, fast_metrics) = run(true);
        let sink_total = |m: &SimMetrics| {
            let series = m.component_sum(metric::EXECUTE_COUNT, Some("counter"), 0, i64::MAX);
            Aggregation::Sum.apply(series.iter().map(|s| s.value))
        };
        let (exact_sink, fast_sink) = (sink_total(&exact_metrics), sink_total(&fast_metrics));
        assert!(
            (fast_sink - exact_sink).abs() <= 1e-9 * exact_sink,
            "scale {scale}: sink total exact {exact_sink} vs event {fast_sink}"
        );
        let bp_ticks = assert_backpressure_identical(&exact_metrics, &fast_metrics);
        assert!(bp_ticks > 1000, "scale {scale}: the peak must backpressure");
        let edge = fast.exact_ticks(ExactTickReason::BackpressureEdge);
        assert!(
            edge * 20 <= bp_ticks,
            "scale {scale}: {edge} exact backpressure ticks out of {bp_ticks}"
        );
    }
}

/// A pooled simulation rewound through healthy windows, as the planner's
/// replay drives it, advances every tick in closed form: event mode runs
/// no exact tick at all. Windows sweep 0.75x..1.10x of each deployment's
/// base rate; the wide WordCount follows a diurnal spout whose rate never
/// settles.
#[test]
fn event_mode_runs_no_exact_tick_on_pooled_healthy_windows() {
    const WINDOWS: usize = 8;
    const MINUTES: u64 = 30;
    let rates = |base: f64| (0..WINDOWS).map(move |w| base * (0.75 + 0.05 * w as f64));
    let config = SimConfig {
        event_mode: true,
        ..SimConfig::default()
    };
    let assert_all_closed_form = |sim: &Simulation, label: &str| {
        assert_eq!(sim.ticks_executed(), 0, "{label}: exact ticks");
        assert_eq!(
            sim.ticks_closed_form(),
            WINDOWS as u64 * MINUTES * 60,
            "{label}: closed-form ticks"
        );
    };

    for (topology, base) in [
        (
            wordcount_topology(WordCountParallelism::default(), 8.0e6),
            8.0e6,
        ),
        (
            diamond_topology(DiamondParallelism::default(), 12.0e6),
            12.0e6,
        ),
    ] {
        let metrics = SimMetrics::new(topology.name.clone());
        let mut sim = Simulation::new(topology, config.clone()).unwrap();
        for rate in rates(base) {
            metrics.db().truncate_before(i64::MAX).unwrap();
            sim.reset_with(&[], rate).unwrap();
            sim.run_minutes_into(MINUTES, &metrics);
        }
        assert_all_closed_form(&sim, &sim.topology().name);
    }

    let wide = WordCountParallelism {
        spout: 256,
        splitter: 64,
        counter: 96,
    };
    let profiles: Vec<RateProfile> = rates(32.0 * 6.0e6)
        .map(|rate| {
            DiurnalTraffic {
                base_rate: rate / 60.0,
                amplitude: 0.25,
                period_secs: 600,
                phase_secs: 0,
                knots_per_period: 12,
            }
            .to_profile(MINUTES * 60)
        })
        .collect();
    let topology = wordcount_topology_with(wide, profiles[0].clone(), None);
    let metrics = SimMetrics::new(topology.name.clone());
    let mut sim = Simulation::new(topology, config).unwrap();
    for profile in &profiles {
        metrics.db().truncate_before(i64::MAX).unwrap();
        sim.reset_with_profile(&[], profile).unwrap();
        sim.run_minutes_into(MINUTES, &metrics);
    }
    assert_all_closed_form(&sim, "wide diurnal wordcount");
}

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
}

/// Digest of everything a simulation produced: every stored sample's
/// `(series key, ts, value bits)` in each store, then the lifetime event
/// and tick counters.
fn digest(sim: &Simulation, stores: &[&SimMetrics]) -> u64 {
    let mut hash = Fnv1a::new();
    for metrics in stores {
        let mut rows = dump(metrics);
        rows.sort();
        for (key, ts, bits) in rows {
            hash.bytes(key.as_bytes());
            hash.u64(ts as u64);
            hash.u64(bits);
        }
    }
    hash.u64(sim.sim_events());
    hash.u64(sim.ticks_closed_form());
    for reason in ExactTickReason::ALL {
        hash.u64(sim.exact_ticks(reason));
    }
    hash.0
}

/// Runs `topology` for `minutes` after `warmup` unrecorded minutes and
/// digests the run.
fn run_digest(topology: Topology, event_mode: bool, warmup: u64, minutes: u64) -> u64 {
    let config = SimConfig {
        event_mode,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(topology, config).unwrap();
    sim.warmup_minutes(warmup);
    let metrics = sim.run_minutes(minutes);
    digest(&sim, &[&metrics])
}

/// Digests of six reference runs. A change that alters any simulated
/// bit, event count or tick split fails here; a change that does so on
/// purpose updates these constants in its own diff (the failure message
/// lists the new ones).
const PINNED_DIGESTS: [(&str, u64); 6] = [
    ("steady", 0x093ba72e7ffb51a7),
    ("ramp", 0xf9d9ac6ce3999ea9),
    ("onboarding", 0xc58a8fab9a5b09c8),
    ("flash crowd", 0x3dae67d0a4debbe3),
    ("sustained overload", 0x2719f063d53c6974),
    ("exact with warmup", 0x04e4ae1306ac2b2a),
];

#[test]
fn simulated_output_matches_pinned_digests() {
    let onboarding = {
        let diurnal = DiurnalTraffic {
            base_rate: 64.0e6 / 60.0,
            amplitude: 0.6,
            period_secs: 360 * 60,
            phase_secs: 0,
            knots_per_period: 24,
        };
        let parallelism = WordCountParallelism {
            spout: 32,
            splitter: 8,
            counter: 12,
        };
        wordcount_topology_with(parallelism, diurnal.to_profile(360 * 60), None)
    };
    let ramp = diamond_topology_with(
        DiamondParallelism::default(),
        RateProfile::Ramp {
            from: 6.0e6 / 60.0,
            to: 24.0e6 / 60.0,
            duration_secs: 1200,
        },
    );
    let flash = wordcount_topology_with(
        WordCountParallelism::default(),
        flash_crowd(8.0e6 / 60.0, 22.0e6 / 60.0, 360, 120, 420),
        None,
    );
    // Overload across a table rebuild: the second run starts from a
    // parallelism change, so the lifetime counters cross `reset_with`.
    let overload = {
        let topology = wordcount_topology(WordCountParallelism::default(), 22.0e6);
        let config = SimConfig {
            event_mode: true,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(topology, config).unwrap();
        let first = sim.run_minutes(20);
        sim.reset_with(&[("splitter", 3)], 40.0e6).unwrap();
        let second = sim.run_minutes(10);
        digest(&sim, &[&first, &second])
    };
    let actual = [
        (
            "steady",
            run_digest(
                wordcount_topology(WordCountParallelism::default(), 8.0e6),
                true,
                0,
                30,
            ),
        ),
        ("ramp", run_digest(ramp, true, 0, 30)),
        ("onboarding", run_digest(onboarding, true, 0, 360)),
        ("flash crowd", run_digest(flash, true, 0, 30)),
        ("sustained overload", overload),
        (
            "exact with warmup",
            run_digest(
                wordcount_topology(WordCountParallelism::default(), 22.0e6),
                false,
                5,
                10,
            ),
        ),
    ];
    let listing: String = actual
        .iter()
        .map(|(name, digest)| format!("    ({name:?}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(actual, PINNED_DIGESTS, "actual digests:\n{listing}");
}

#[derive(Debug, Clone)]
struct EventCase {
    topology: Topology,
    minutes: u64,
    regime: u8,
    load: f64,
    diamond: bool,
}

fn arb_event_case() -> impl Strategy<Value = EventCase> {
    (
        prop::bool::ANY, // wordcount vs diamond
        0u8..4,          // constant / stepped / ramping / diurnal
        0.2f64..1.8,     // offered rate as a fraction of the bottleneck knee
    )
        .prop_map(|(diamond, regime, load)| {
            let knee = if diamond { 30.0e6 } else { 11.0e6 };
            let per_sec = load * knee / 60.0;
            let profile = match regime {
                0 => RateProfile::Constant { rate: per_sec },
                1 => RateProfile::Steps {
                    initial: per_sec,
                    steps: vec![(150, per_sec * 1.5), (330, per_sec * 0.6)],
                },
                2 => RateProfile::Ramp {
                    from: per_sec * 0.5,
                    to: per_sec * 1.4,
                    duration_secs: 420,
                },
                _ => DiurnalTraffic {
                    base_rate: per_sec,
                    amplitude: 0.35,
                    period_secs: 480,
                    phase_secs: 0,
                    knots_per_period: 8,
                }
                .to_profile(12 * 60),
            };
            let topology = if diamond {
                diamond_topology_with(DiamondParallelism::default(), profile)
            } else {
                wordcount_topology_with(WordCountParallelism::default(), profile, None)
            };
            EventCase {
                topology,
                minutes: 12,
                regime,
                load,
                diamond,
            }
        })
}

proptest! {
    /// Event-driven advancement stays within the tolerance contract —
    /// sink rate within 0.1 % of the exact kernel, identical per-minute
    /// backpressure time on every instance — across constant, stepped,
    /// ramping and diurnal profiles on both topologies, above and below
    /// the knee.
    #[test]
    fn event_mode_is_equivalent_across_profile_regimes(case in arb_event_case()) {
        let exact_cfg = SimConfig { metric_noise: 0.0, ..SimConfig::default() };
        let event_cfg = SimConfig { event_mode: true, ..exact_cfg.clone() };
        let warmup_ms = 3 * 60_000;
        let mut exact = Simulation::new(case.topology.clone(), exact_cfg).unwrap();
        let mut fast = Simulation::new(case.topology, event_cfg).unwrap();
        let exact_metrics = exact.run_minutes(case.minutes);
        let fast_metrics = fast.run_minutes(case.minutes);
        let (exact_sink, exact_bp) = sink_and_bp(&exact_metrics, exact.topology(), warmup_ms);
        let (fast_sink, fast_bp) = sink_and_bp(&fast_metrics, fast.topology(), warmup_ms);
        prop_assert!(
            (fast_sink - exact_sink).abs() <= 1e-3 * exact_sink.max(1.0),
            "sink rate diverged beyond 0.1%: exact {} vs event {} (regime {} load {} diamond {})",
            exact_sink,
            fast_sink,
            case.regime,
            case.load,
            case.diamond
        );
        prop_assert!(
            dump_of(&exact_metrics, &[metric::BACKPRESSURE_TIME])
                == dump_of(&fast_metrics, &[metric::BACKPRESSURE_TIME]),
            "per-minute backpressure diverged (regime {} load {} diamond {})",
            case.regime,
            case.load,
            case.diamond
        );
        prop_assert_eq!(
            exact_bp > 1.0,
            fast_bp > 1.0,
            "backpressure verdicts diverged: exact {} ms vs event {} ms (regime {} load {} diamond {})",
            exact_bp,
            fast_bp,
            case.regime,
            case.load,
            case.diamond
        );
    }
}
