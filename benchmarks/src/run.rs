//! The measurement loop shared by the workloads.

use crate::boxspeed::{Interval, Reference, NOMINAL_MS};
use crate::catalogue::{ms_per, per_layer};
use crate::probes;
use crate::report::{Metrics, RunResult};
use crate::stats::{median, p10, Summary};
use crate::trace::Tracer;
use crate::workloads::{Ops, Workload};
use crate::Args;
use std::time::{Duration, Instant};

/// A pass measures at least this many rounds however short `--seconds`.
const MIN_ROUNDS: usize = 8;
/// Share of the rounds run first and discarded as warm-up.
const WARMUP_SHARE: f64 = 0.05;

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The reference kernel runs before a round when its last run started
/// at least this long ago: before every round of the compute-bound
/// workloads, before every twentieth request of `whatif_hit` (whose
/// closed-loop client is phase-locked to the accept loop's poll; a
/// request that follows a reference run arrives at a random phase).
const REFERENCE_EVERY: Duration = Duration::from_millis(100);
/// Reference runs before and after each set-up.
const SETUP_REFERENCE_RUNS: usize = 5;

struct Round {
    interval: Interval,
    /// The reference kernel's time around this round.
    reference_ms: f64,
    traced: bool,
}

impl Round {
    fn normalised_ms(&self) -> f64 {
        self.interval.normalised_ms(self.reference_ms)
    }
}

/// The reference kernel's time around round `round`: the median of the
/// two runs before it and the two after it. `runs` is `(rounds run
/// before this reference run, ms)` in order.
fn reference_around(runs: &[(usize, f64)], round: usize) -> f64 {
    let after = runs.partition_point(|(before, _)| *before <= round);
    let window = &runs[after.saturating_sub(2)..(after + 2).min(runs.len())];
    let ms: Vec<f64> = window.iter().map(|(_, ms)| *ms).collect();
    median(&ms).expect("a reference run before the first round and one after the last")
}

/// `runs` runs of the reference kernel, ms each.
fn reference_now(reference: &mut Reference, runs: usize) -> Vec<f64> {
    (0..runs).map(|_| reference.run()).collect()
}

pub fn run<W: Workload>(args: &Args) -> RunResult {
    let mut reference = Reference::new();
    // Warm the kernel's code and the allocator before its first reading.
    reference_now(&mut reference, SETUP_REFERENCE_RUNS);

    // The measured pass sets up several times and reports the median, so
    // one slow set-up (a neighbour's burst) does not move `setup_s`. The
    // traced pass reports no set-up time, so it sets up once.
    let repeats = if args.trace { 1 } else { args.setups };
    let mut setup_raw_secs = Vec::with_capacity(repeats);
    let mut setup_secs = Vec::with_capacity(repeats);
    let mut workload = None;
    for _ in 0..repeats {
        // The previous instance goes first: peak memory is one set-up's.
        drop(workload.take());
        let mut around = reference_now(&mut reference, SETUP_REFERENCE_RUNS);
        let (interval, instance) = Interval::measure(|| W::setup(args.seed));
        around.extend(reference_now(&mut reference, SETUP_REFERENCE_RUNS));
        workload = Some(instance);
        setup_raw_secs.push(interval.wall_ms / 1e3);
        setup_secs.push(interval.normalised_ms(median(&around).expect("reference runs")) / 1e3);
    }
    let mut workload = workload.expect("at least one set-up");

    // Closed loop, one client: the next round starts when this one's
    // outputs are checked. In the traced pass every other round records
    // spans, so traced and untraced rounds see the same data phases.
    let mut tracer = Tracer::new(false);
    let mut intervals: Vec<Interval> = Vec::new();
    // (rounds run before it, ms)
    let mut reference_runs: Vec<(usize, f64)> = Vec::new();
    let mut ops = Ops::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut reference_due = started;
    while started.elapsed() < budget || intervals.len() < MIN_ROUNDS {
        if Instant::now() >= reference_due {
            reference_due = Instant::now() + REFERENCE_EVERY;
            reference_runs.push((intervals.len(), reference.run()));
        }
        tracer.set_enabled(args.trace && intervals.len() % 2 == 1);
        let (interval, output) =
            Interval::measure(|| tracer.round(intervals.len() as u32, |t| workload.round(t)));
        ops += workload.check(output);
        intervals.push(interval);
    }
    reference_runs.push((intervals.len(), reference.run()));
    let rss = peak_rss_mb();
    ops += workload.verify();

    let rounds: Vec<Round> = intervals
        .iter()
        .enumerate()
        .map(|(i, interval)| Round {
            interval: *interval,
            reference_ms: reference_around(&reference_runs, i),
            traced: args.trace && i % 2 == 1,
        })
        .collect();
    let warmup = (rounds.len() as f64 * WARMUP_SHARE).ceil() as usize;
    let measured = &rounds[warmup..];
    let all_ms: Vec<f64> = measured.iter().map(|r| r.interval.wall_ms).collect();
    let normalised_ms: Vec<f64> = measured.iter().map(Round::normalised_ms).collect();
    let summary = Summary::of(&all_ms).expect("at least one measured round");
    let round_norm = median(&normalised_ms).expect("at least one measured round");
    let round_p10 = p10(&all_ms).expect("at least one measured round");
    let rounds_per_s = all_ms.len() as f64 / (all_ms.iter().sum::<f64>() / 1e3);
    let reference_ms: Vec<f64> = measured.iter().map(|r| r.reference_ms).collect();
    let slowdown = median(&reference_ms).expect("at least one measured round") / NOMINAL_MS;

    let mut metrics = Metrics::default();
    if args.trace {
        metrics.set("harness.round_norm_ms", round_norm, summary.samples);
        metrics.set("harness.box_slowdown", slowdown, summary.samples);
        metrics.set("harness.round_p10_ms", round_p10, summary.samples);
        metrics.set("harness.round_p50_ms", summary.p50, summary.samples);
        metrics.set("harness.rounds_per_s", rounds_per_s, summary.samples);
        metrics.set("harness.round_p90_ms", summary.p90, summary.samples);
        metrics.set("harness.round_p99_ms", summary.p99, summary.samples);
        metrics.set("harness.round_max_ms", summary.max, summary.samples);
        let side = |traced: bool, ms: fn(&Round) -> f64| -> Vec<f64> {
            measured
                .iter()
                .filter(|r| r.traced == traced)
                .map(ms)
                .collect()
        };
        // Normalised on both sides: alternate rounds see the same box
        // only on average.
        let (with, without) = (
            side(true, Round::normalised_ms),
            side(false, Round::normalised_ms),
        );
        let untraced_norm = median(&without).expect("untraced rounds");
        metrics.set(
            "harness.trace_overhead_share",
            (median(&with).expect("traced rounds") - untraced_norm) / untraced_norm,
            with.len().min(without.len()),
        );

        tracer.set_enabled(true);
        probes::run(&mut tracer, &workload.shape(), args.seed, &mut metrics);

        // Probes are raw times, so they are compared with the raw round.
        let untraced_p50 = median(&side(false, |r| r.interval.wall_ms)).expect("untraced rounds");
        let explained_ms: f64 = W::RECIPE
            .iter()
            .map(|(name, calls)| {
                let spec = per_layer(name).expect("recipes name catalogued metrics");
                let value = metrics.get(name).expect("probes fill the catalogue").value;
                calls * value * ms_per(spec.unit).expect("recipes name timings")
            })
            .sum();
        metrics.set(
            "harness.unattributed_share",
            1.0 - explained_ms / untraced_p50,
            without.len(),
        );
        if let Err(e) = write_trace(&tracer, args, W::NAME) {
            eprintln!("caladrius-benchmarks: cannot write the span file: {e}");
            ops += Ops::one(false);
        }
    } else {
        metrics.set("round_norm_ms", round_norm, summary.samples);
        metrics.set("peak_rss_mb", rss, 1);
        metrics.set(
            "setup_s",
            median(&setup_secs).expect("at least one set-up"),
            setup_secs.len(),
        );
        eprintln!(
            "{}: {} rounds ({rounds_per_s:.3}/s), normalised {round_norm:.3} ms at box slowdown \
             {slowdown:.2}; raw p10 {round_p10:.3} ms, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, \
             max {:.3} ms; set-ups {:?} s (raw {:?} s); {} of {} operations failed",
            W::NAME,
            summary.samples,
            summary.p50,
            summary.p90,
            summary.p99,
            summary.max,
            setup_secs,
            setup_raw_secs,
            ops.failed,
            ops.attempted
        );
    }
    RunResult {
        workload: W::NAME,
        trace: args.trace,
        ops,
        metrics,
        round_ms: all_ms,
        round_cpu_ms: measured.iter().map(|r| r.interval.cpu_ms).collect(),
        reference_ms,
        setup_raw_secs,
    }
}

fn write_trace(tracer: &Tracer, args: &Args, workload: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join(format!("trace-{workload}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write_jsonl(&mut out)?;
    std::io::Write::flush(&mut out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_takes_the_median_of_the_two_reference_runs_on_either_side() {
        // Compute-bound shape: one run before each of four rounds, one
        // after the last; the third was hit by a spike.
        let runs = [(0, 3.0), (1, 4.0), (2, 50.0), (3, 6.0), (4, 7.0)];
        assert_eq!(reference_around(&runs, 0), 4.0); // 3 | 4, 50
        assert_eq!(reference_around(&runs, 1), 5.0); // 3, 4 | 50, 6
        assert_eq!(reference_around(&runs, 2), 6.5); // 4, 50 | 6, 7
        assert_eq!(reference_around(&runs, 3), 7.0); // 50, 6 | 7
    }

    #[test]
    fn short_rounds_share_the_reference_runs_around_their_block() {
        // `whatif_hit` shape: a run every twenty requests.
        let runs = [(0, 3.0), (20, 5.0), (40, 4.0), (60, 9.0)];
        assert_eq!(reference_around(&runs, 10), 4.0); // 3 | 5, 4
        assert_eq!(reference_around(&runs, 19), 4.0);
        assert_eq!(reference_around(&runs, 20), 4.5); // 3, 5 | 4, 9
        assert_eq!(reference_around(&runs, 59), 5.0); // 5, 4 | 9
    }
}
