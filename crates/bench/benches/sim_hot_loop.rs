//! Simulator hot-loop throughput: SoA kernel vs the retained seed kernel.
//!
//! The engine's per-tick loop was rebuilt as a flat struct-of-arrays
//! kernel (CSR edge tables, hoisted per-instance constants, reusable
//! scratch buffers), and — just as important for planner throughput —
//! made *reusable*: `Simulation::reset_with` rewinds a built simulation
//! to a new window's rate without re-packing or re-routing, and the
//! per-run sink handles are cached across runs against the same store.
//! `heron_sim::reference::ReferenceSimulation` keeps the seed kernel
//! verbatim, which also means the seed's usage model: every window
//! builds a topology, packs it, registers its series and simulates.
//!
//! This bench therefore measures both kernels the way the planner uses
//! them, replaying a sequence of 30-minute windows whose offered rate
//! changes window to window:
//!
//! * `seed` — fresh simulation + fresh store per window (the pre-rewrite
//!   `planner::replay` pattern, and the only mode the seed kernel has);
//! * `soa` — one pooled simulation + one store, truncated between
//!   windows (`planner::replay`'s pattern after the rewrite), with
//!   event mode off: every tick executes exactly and every emitted
//!   sample is bit-identical to the seed kernel's (enforced by
//!   `tests/sim_kernel_equivalence.rs`);
//! * `soa+event` — the same with `SimConfig::event_mode` on (what
//!   `planner::replay` runs), reported as simulated (executed +
//!   closed-form) ticks per second.
//!
//! Acceptance floor for the rewrite: the exact (event mode off) SoA
//! kernel sustains at least 2x the seed kernel's ticks/sec.

use caladrius_bench::{columns, fast_mode, header, repeats, row};
use caladrius_workload::diamond::{diamond_topology, DiamondParallelism};
use caladrius_workload::traffic::DiurnalTraffic;
use caladrius_workload::wordcount::{
    wordcount_topology, wordcount_topology_with, WordCountParallelism,
};
use heron_sim::engine::{SimConfig, Simulation};
use heron_sim::metrics::SimMetrics;
use heron_sim::profiles::RateProfile;
use heron_sim::reference::ReferenceSimulation;
use heron_sim::topology::Topology;
use std::time::Instant;

/// Windows per replay sequence; rates sweep 0.75x..1.10x of the base so
/// every window rewinds the pooled sim to a different (healthy) load.
const WINDOWS: usize = 8;

fn window_rates(base: f64) -> Vec<f64> {
    (0..WINDOWS)
        .map(|w| base * (0.75 + 0.05 * w as f64))
        .collect()
}

/// Best-of-N wall-clock seconds for one closure.
fn best_secs(n: usize, mut f: impl FnMut()) -> f64 {
    (0..n.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

struct Measurement {
    /// Wall-clock ticks/sec actually executed.
    executed_per_sec: f64,
    /// Simulated ticks/sec covered (executed + closed-form).
    simulated_per_sec: f64,
}

/// Seed pattern: every window constructs the topology at the window's
/// rate, packs a fresh simulation and registers a fresh store.
fn measure_reference(
    build: &dyn Fn(f64) -> Topology,
    rates: &[f64],
    minutes: u64,
    reps: usize,
) -> Measurement {
    let ticks = (rates.len() as u64 * minutes * 60) as f64;
    let secs = best_secs(reps, || {
        for &rate in rates {
            let topology = build(rate);
            let metrics = SimMetrics::new(topology.name.clone());
            let mut sim = ReferenceSimulation::new(topology, SimConfig::default()).unwrap();
            sim.run_minutes_into(minutes, &metrics);
        }
    });
    Measurement {
        executed_per_sec: ticks / secs,
        simulated_per_sec: ticks / secs,
    }
}

/// Rewrite pattern: one pooled simulation and store for the whole
/// sequence; each window truncates the store and rewinds via
/// `reset_with` (pool fill — construction + registration — is included
/// in the first window).
fn measure_soa(
    build: &dyn Fn(f64) -> Topology,
    rates: &[f64],
    minutes: u64,
    reps: usize,
    event_mode: bool,
) -> Measurement {
    let config = SimConfig {
        event_mode,
        ..SimConfig::default()
    };
    let mut executed = 0u64;
    let secs = best_secs(reps, || {
        let topology = build(rates[0]);
        let metrics = SimMetrics::new(topology.name.clone());
        let mut sim = Simulation::new(topology, config.clone()).unwrap();
        let before = sim.ticks_executed();
        for &rate in rates {
            metrics.db().truncate_before(i64::MAX).unwrap();
            sim.reset_with(&[], rate).unwrap();
            sim.run_minutes_into(minutes, &metrics);
        }
        executed = sim.ticks_executed() - before;
    });
    Measurement {
        executed_per_sec: executed as f64 / secs,
        simulated_per_sec: (rates.len() as u64 * minutes * 60) as f64 / secs,
    }
}

/// Diurnal pattern: the spout follows a sinusoidal day, so the
/// constant-rate `reset_with` rewind does not apply — each window
/// rewinds the pooled simulation via `reset_with_profile` with the
/// window's scaled profile (the planner's pooled idiom). One priming
/// window runs before the clock starts so the one-time costs every
/// kernel shares — series registration, table packing, the event
/// kernel's flow-term build — don't skew the steady-state comparison.
fn measure_diurnal(
    base: &Topology,
    profiles: &[RateProfile],
    minutes: u64,
    reps: usize,
    config: &SimConfig,
) -> Measurement {
    let metrics = SimMetrics::new(base.name.clone());
    let mut sim = Simulation::new(base.clone(), config.clone()).unwrap();
    sim.run_minutes_into(1, &metrics);
    let mut executed = 0u64;
    let secs = best_secs(reps, || {
        let before = sim.ticks_executed();
        for profile in profiles {
            metrics.db().truncate_before(i64::MAX).unwrap();
            sim.reset_with_profile(&[], profile).unwrap();
            sim.run_minutes_into(minutes, &metrics);
        }
        executed = sim.ticks_executed() - before;
    });
    Measurement {
        executed_per_sec: executed as f64 / secs,
        simulated_per_sec: (profiles.len() as u64 * minutes * 60) as f64 / secs,
    }
}

fn main() {
    header(
        "Simulator hot-loop throughput (SoA kernel vs seed kernel)",
        "extension: the modelling substrate itself must be cheap to evaluate",
    );
    let minutes = if fast_mode() { 5 } else { 30 };
    let reps = repeats();
    println!(
        "{WINDOWS} windows x {minutes} min, best of {reps} repeats; \
         kticks/s = 1000 simulated ticks per wall second\n"
    );

    type BuildFn = Box<dyn Fn(f64) -> Topology>;
    let workloads: [(&str, BuildFn, f64); 2] = [
        (
            "wordcount",
            Box::new(|rate| wordcount_topology(WordCountParallelism::default(), rate)),
            8.0e6,
        ),
        (
            "diamond",
            Box::new(|rate| diamond_topology(DiamondParallelism::default(), rate)),
            12.0e6,
        ),
    ];

    let mut min_speedup = f64::INFINITY;
    for (name, build, base_rate) in &workloads {
        let rates = window_rates(*base_rate);
        println!("[{name}]");
        columns("kernel", &["exec kticks/s", "sim kticks/s", "vs seed"]);
        let seed = measure_reference(build.as_ref(), &rates, minutes, reps);
        row(
            "seed",
            &[
                seed.executed_per_sec / 1e3,
                seed.simulated_per_sec / 1e3,
                1.0,
            ],
        );
        let soa = measure_soa(build.as_ref(), &rates, minutes, reps, false);
        let speedup = soa.executed_per_sec / seed.executed_per_sec;
        min_speedup = min_speedup.min(speedup);
        row(
            "soa",
            &[
                soa.executed_per_sec / 1e3,
                soa.simulated_per_sec / 1e3,
                speedup,
            ],
        );
        let fast = measure_soa(build.as_ref(), &rates, minutes, reps, true);
        row(
            "soa+event",
            &[
                fast.executed_per_sec / 1e3,
                fast.simulated_per_sec / 1e3,
                fast.simulated_per_sec / seed.simulated_per_sec,
            ],
        );
        println!();
    }

    println!("  worst-case SoA speedup vs seed kernel (event mode off): {min_speedup:.2}x");
    assert!(
        min_speedup >= 2.0,
        "SoA kernel must sustain at least 2x the seed kernel (got {min_speedup:.2}x)"
    );

    // Diurnal workload on a wide deployment: the rate never settles, so
    // the speedup is all closed-form advancement between breakpoint
    // events, and it pays most where exact ticks are expensive (tick
    // cost grows with routing pairs, closed form with instances).
    let wide = WordCountParallelism {
        spout: 256,
        splitter: 64,
        counter: 96,
    };
    let diurnal_profile = |rate_per_min: f64| {
        DiurnalTraffic {
            base_rate: rate_per_min / 60.0,
            amplitude: 0.25,
            period_secs: 600,
            phase_secs: 0,
            knots_per_period: 12,
        }
        .to_profile(30 * 60)
    };
    let profiles: Vec<_> = window_rates(32.0 * 6.0e6)
        .into_iter()
        .map(diurnal_profile)
        .collect();
    let base = wordcount_topology_with(wide, profiles[0].clone(), None);
    println!("[wordcount x32, diurnal spout]");
    columns("kernel", &["exec kticks/s", "sim kticks/s", "vs exact"]);
    let exact_cfg = SimConfig::default();
    let event_cfg = SimConfig {
        event_mode: true,
        ..SimConfig::default()
    };
    let exact = measure_diurnal(&base, &profiles, minutes, reps, &exact_cfg);
    row(
        "exact",
        &[
            exact.executed_per_sec / 1e3,
            exact.simulated_per_sec / 1e3,
            1.0,
        ],
    );
    let event = measure_diurnal(&base, &profiles, minutes, reps, &event_cfg);
    let event_speedup = event.simulated_per_sec / exact.simulated_per_sec;
    row(
        "soa+event",
        &[
            event.executed_per_sec / 1e3,
            event.simulated_per_sec / 1e3,
            event_speedup,
        ],
    );
    println!("\n  event-scheduler speedup vs exact kernel on diurnal load: {event_speedup:.2}x");
    assert!(
        event_speedup >= 10.0,
        "event mode must cover the diurnal workload at least 10x faster than \
         exact ticking (got {event_speedup:.2}x)"
    );
    println!("sim_hot_loop: OK");
}
