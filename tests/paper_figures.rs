//! The paper's evaluation (§V, Figs. 4–12) and four claims from its text
//! (§I, §IV-A, §IV-B1, Eq. 14), reproduced on the simulator: one test per
//! figure or claim.
//!
//! Each test regenerates its series, asserts the claim, and renders the
//! table it would print into a string that must equal, byte for byte, the
//! expected table in `tests/paper_figures/<test name>.txt`. A change that
//! moves a printed number fails here, and the test's captured stdout holds
//! the new table. To move a number on purpose, edit the expected file and
//! explain each changed line. To see every table:
//! `cargo test --test paper_figures -- --nocapture`.

use caladrius::autoscale::harness::{run_to_convergence, ConvergenceResult, HarnessConfig};
use caladrius::autoscale::modelled::{ModelledConfig, ModelledScaler};
use caladrius::autoscale::reactive::ReactiveScaler;
use caladrius::core::model::component::{ComponentModel, ComponentObservation, GroupingKind};
use caladrius::core::model::instance::{InstanceModel, InstanceObservation};
use caladrius::core::model::relative_error;
use caladrius::core::model::topology::BackpressureRisk;
use caladrius::core::providers::tracker::to_logical_spec;
use caladrius::core::providers::{SimMetricsProvider, StaticTracker};
use caladrius::core::Caladrius;
use caladrius::forecast::ar::ArModel;
use caladrius::forecast::eval::{backtest, Accuracy, BacktestConfig};
use caladrius::forecast::prophet::{Prophet, ProphetConfig};
use caladrius::forecast::seasonality::Seasonality;
use caladrius::forecast::stats::StatsSummaryModel;
use caladrius::forecast::{DataPoint, Forecaster};
use caladrius::graph::TopologyDag;
use caladrius::sim::engine::{SimConfig, Simulation};
use caladrius::sim::metrics::{metric, SimMetrics};
use caladrius::sim::packing::PackingAlgorithm;
use caladrius::sim::topology::Topology;
use caladrius::tsdb::Aggregation;
use caladrius::workload::traffic::{with_gaps, with_outliers, SeasonalTraffic};
use caladrius::workload::wordcount::{
    wordcount_topology, WordCountParallelism, ALPHA, COUNTER_CAPACITY_PER_MIN,
    SPLITTER_CAPACITY_PER_MIN,
};
use std::collections::HashMap;
use std::fmt::{Display, Write};
use std::sync::Arc;

/// Observation repeats per sweep point (the paper uses 10).
const REPEATS: u64 = 5;

/// Minutes recorded per run, after the warm-up.
const MEASURE_MINUTES: u64 = 10;

/// A figure's printed report, rendered into a string.
#[derive(Default)]
struct Report(String);

impl Report {
    fn line(&mut self, text: impl Display) {
        writeln!(self.0, "{text}").unwrap();
    }

    fn header(&mut self, figure: &str, claim: &str) {
        let rule = "=".repeat(64);
        self.line("");
        self.line(&rule);
        self.line(figure);
        self.line(format_args!("paper: {claim}"));
        self.line(&rule);
    }

    /// The column header of a [`Report::row`] table.
    fn columns(&mut self, label: &str, names: &[&str]) {
        write!(self.0, "{label:>14}").unwrap();
        for name in names {
            write!(self.0, " {name:>14}").unwrap();
        }
        self.line("");
    }

    /// One table row: a label column followed by `f64` cells.
    fn row(&mut self, label: impl Display, cells: &[f64]) {
        write!(self.0, "{label:>14}").unwrap();
        for cell in cells {
            write!(self.0, " {cell:>14.3}").unwrap();
        }
        self.line("");
    }

    /// A paper-vs-reproduced line; returns whether the reproduction is
    /// within `tolerance` (relative) of the paper's value.
    fn compare(&mut self, what: &str, paper: f64, measured: f64, tolerance: f64) -> bool {
        let ok = relative_error(measured, paper) <= tolerance;
        self.line(format_args!(
            "  {what}: paper {paper:.4}, reproduced {measured:.4} ({:+.1}% vs paper) {}",
            (measured - paper) / paper * 100.0,
            if ok { "[shape OK]" } else { "[DIVERGES]" }
        ));
        ok
    }

    /// Prints the report (shown by `--nocapture`, or when the test fails)
    /// and asserts that it is exactly the expected table.
    fn check(self, expected: &str) {
        print!("{}", self.0);
        assert_eq!(
            self.0, expected,
            "the printed figure moved; the new table is in this test's stdout"
        );
    }
}

/// A yes/no table cell.
fn bit(b: bool) -> f64 {
    f64::from(u8::from(b))
}

/// Mean with a 90 % confidence band over repeated observations.
#[derive(Debug, Clone, Copy)]
struct Ci {
    mean: f64,
    /// 5th percentile.
    lo: f64,
    /// 95th percentile.
    hi: f64,
}

impl Ci {
    fn from_values(values: &[f64]) -> Ci {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let q = |p: f64| -> f64 {
            let pos = p * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
            }
        };
        Ci {
            mean: values.iter().sum::<f64>() / values.len() as f64,
            lo: q(0.05),
            hi: q(0.95),
        }
    }
}

/// Mean per-minute component sum of a metric over a recorded run.
fn component_rate(metrics: &SimMetrics, name: &str, component: &str) -> f64 {
    let series = metrics.component_sum(name, Some(component), 0, i64::MAX);
    Aggregation::Mean.apply(series.iter().map(|s| s.value))
}

/// Bands over [`REPEATS`] runs of `make_topology` (each with its own noise
/// seed) for each `(metric, component)` query. Each run stabilises for
/// `warmup` minutes and records [`MEASURE_MINUTES`] (the paper lets
/// experiments "run for several hours to attain steady state before
/// measurements were retrieved").
fn observe(
    make_topology: impl Fn() -> Topology,
    base_config: &SimConfig,
    queries: &[(&str, &str)],
    warmup: u64,
) -> Vec<Ci> {
    let mut per_query: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
    for rep in 0..REPEATS {
        let config = SimConfig {
            seed: 0xBE + rep,
            ..base_config.clone()
        };
        let mut sim =
            Simulation::new(make_topology(), config).expect("figure topologies are valid");
        sim.warmup_minutes(warmup);
        let metrics = sim.run_minutes(MEASURE_MINUTES);
        for (values, (name, component)) in per_query.iter_mut().zip(queries) {
            values.push(component_rate(&metrics, name, component));
        }
    }
    per_query
        .iter()
        .map(|values| Ci::from_values(values))
        .collect()
}

/// A service fitted on an observation deployment swept through `legs`
/// (source rates, tuples/min): each leg starts 100 minutes after the
/// last, stabilises for `warmup` minutes and records [`MEASURE_MINUTES`].
/// The tracker holds the deployment at `tracked_rate`.
fn fitted_on_sweep(
    deploy: impl Fn(f64) -> Topology,
    config: &SimConfig,
    legs: &[f64],
    warmup: u64,
    tracked_rate: f64,
) -> Caladrius {
    let metrics = SimMetrics::new("wordcount");
    for (leg, &rate) in legs.iter().enumerate() {
        let mut sim = Simulation::new(deploy(rate), config.clone()).unwrap();
        sim.skip_to_minute(leg as u64 * 100);
        sim.warmup_minutes(warmup);
        sim.run_minutes_into(MEASURE_MINUTES, &metrics);
    }
    Caladrius::new(
        Arc::new(SimMetricsProvider::new(metrics)),
        Arc::new(StaticTracker::new().with(deploy(tracked_rate))),
    )
}

/// The single-Splitter deployment of Figs. 4–6.
const SINGLE_SPLITTER: WordCountParallelism = WordCountParallelism {
    spout: 8,
    splitter: 1,
    counter: 3,
};

/// Fig. 4 — instance throughput (input and output) vs topology source
/// throughput (§V-B): Splitter parallelism 1, source swept 1 → 20 M
/// tuples/min. Both series rise linearly to the saturation point (paper:
/// SP ≈ 11 M tuples/min), then flatten at the saturation throughput
/// (paper: ST ≈ 84 M tuples/min ≈ 11 M × 7.63).
#[test]
fn fig04_instance_throughput() {
    let mut r = Report::default();
    r.header(
        "Fig. 4: instance input/output throughput vs source throughput",
        "linear to SP ~ 11 M/min, then flat; output plateau (ST) ~ 84 M/min",
    );
    r.columns(
        "source (M/min)",
        &[
            "in mean",
            "in 0.9lo",
            "in 0.9hi",
            "out mean",
            "out 0.9lo",
            "out 0.9hi",
        ],
    );
    let mut fit_data = Vec::new();
    for m in 1..=20 {
        let rate = f64::from(m) * 1.0e6;
        let stats = observe(
            || wordcount_topology(SINGLE_SPLITTER, rate),
            &SimConfig::default(),
            &[
                (metric::EXECUTE_COUNT, "splitter"),
                (metric::EMIT_COUNT, "splitter"),
                (metric::BACKPRESSURE_TIME, "splitter"),
            ],
            40,
        );
        let (input, output, bp) = (stats[0], stats[1], stats[2]);
        r.row(
            format!("{:.0}", rate / 1e6),
            &[
                input.mean / 1e6,
                input.lo / 1e6,
                input.hi / 1e6,
                output.mean / 1e6,
                output.lo / 1e6,
                output.hi / 1e6,
            ],
        );
        fit_data.push(InstanceObservation {
            source_rate: rate,
            input_rate: input.mean,
            output_rate: output.mean,
            backpressured: bp.mean > 1_000.0,
        });
    }

    // Locate the knee exactly the way Caladrius would: fit the instance
    // model on the sweep.
    let model = InstanceModel::fit(&fit_data).expect("sweep contains both regimes");
    let sat = model.saturation.expect("sweep saturates the instance");
    r.line("");
    let mut ok = true;
    ok &= r.compare(
        "SP (M tuples/min)",
        SPLITTER_CAPACITY_PER_MIN / 1e6,
        sat.input_sp / 1e6,
        0.10,
    );
    ok &= r.compare(
        "ST (M tuples/min)",
        SPLITTER_CAPACITY_PER_MIN * ALPHA / 1e6,
        sat.output_st / 1e6,
        0.10,
    );
    ok &= r.compare("alpha (out/in slope)", ALPHA, model.alpha, 0.02);
    assert!(ok, "figure 4 shape diverges from the paper");
    r.line("fig04: OK");
    r.check(include_str!("paper_figures/fig04_instance_throughput.txt"));
}

/// Fig. 5 — instance output/input ratio vs source throughput. The ratio
/// is the Splitter's I/O coefficient, the corpus's mean sentence length.
/// Paper: between 7.63 and 7.64 everywhere, "can be roughly treated as a
/// constant value".
#[test]
fn fig05_io_ratio() {
    let mut r = Report::default();
    r.header(
        "Fig. 5: instance output/input ratio vs source throughput",
        "ratio ~ 7.63-7.64 (mean sentence length), approximately constant",
    );
    r.columns(
        "source (M/min)",
        &["ratio mean", "ratio 0.9lo", "ratio 0.9hi"],
    );
    let mut ratios = Vec::new();
    for m in 1..=20 {
        let rate = f64::from(m) * 1.0e6;
        // Ratio computed per repeat from the same runs (input & output
        // noise are independent observations, as in a real metrics path).
        let stats = observe(
            || wordcount_topology(SINGLE_SPLITTER, rate),
            &SimConfig::default(),
            &[
                (metric::EMIT_COUNT, "splitter"),
                (metric::EXECUTE_COUNT, "splitter"),
            ],
            40,
        );
        let ratio = stats[0].mean / stats[1].mean;
        r.row(
            format!("{:.0}", rate / 1e6),
            &[ratio, stats[0].lo / stats[1].hi, stats[0].hi / stats[1].lo],
        );
        ratios.push(ratio);
    }

    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    r.line("");
    r.line(format_args!(
        "  ratio range across the sweep: [{min:.4}, {max:.4}]"
    ));
    let mut ok = true;
    ok &= r.compare(
        "mean ratio",
        ALPHA,
        ratios.iter().sum::<f64>() / ratios.len() as f64,
        0.01,
    );
    // The paper's fluctuation band is ~0.05 wide (7.63-7.68 over the
    // whole figure); ours must be comparably tight.
    let spread_ok = (max - min) / ALPHA < 0.02;
    r.line(format_args!(
        "  ratio spread {:.3}% of alpha {}",
        (max - min) / ALPHA * 100.0,
        if spread_ok {
            "[shape OK]"
        } else {
            "[DIVERGES]"
        }
    ));
    ok &= spread_ok;
    assert!(ok, "figure 5 shape diverges from the paper");
    r.line("fig05: OK");
    r.check(include_str!("paper_figures/fig05_io_ratio.txt"));
}

/// Fig. 6 — instance backpressure time vs source throughput. Paper:
/// backpressure appears at the SP (≈ 11 M) and "rises steeply from 0 to
/// around 60000 milliseconds (1 minute) after it is triggered": the
/// metric is bimodal, which is why §IV-B1 treats backpressure as binary.
#[test]
fn fig06_backpressure_time() {
    let mut r = Report::default();
    r.header(
        "Fig. 6: instance backpressure time vs source throughput",
        "0 below SP ~ 11 M/min, then a steep rise towards ~60000 ms/min",
    );
    r.columns(
        "source (M/min)",
        &["bp ms mean", "bp ms 0.9lo", "bp ms 0.9hi"],
    );
    let mut below = Vec::new();
    let mut above = Vec::new();
    for m in 1..=20 {
        let rate = f64::from(m) * 1.0e6;
        let bp = observe(
            || wordcount_topology(SINGLE_SPLITTER, rate),
            &SimConfig::default(),
            &[(metric::BACKPRESSURE_TIME, "splitter")],
            40,
        )[0];
        r.row(format!("{:.0}", rate / 1e6), &[bp.mean, bp.lo, bp.hi]);
        // Collect well away from the knee, where steady state is clean.
        if rate <= 10.0e6 {
            below.push(bp.mean);
        } else if rate >= 13.0e6 {
            above.push(bp.mean);
        }
    }

    let max_below = below.iter().cloned().fold(0.0, f64::max);
    let min_above = above.iter().cloned().fold(f64::INFINITY, f64::min);
    r.line("");
    r.line(format_args!(
        "  below SP: max backpressure time {max_below:.0} ms/min (paper: 0)"
    ));
    r.line(format_args!(
        "  above SP: min backpressure time {min_above:.0} ms/min (paper: ~60000)"
    ));
    assert!(
        max_below == 0.0,
        "no backpressure may appear below the knee"
    );
    assert!(
        min_above > 45_000.0,
        "above the knee the metric must sit near the 60000 ms ceiling (bimodality)"
    );
    r.line("  bimodal step at the SP [shape OK]");
    r.line("fig06: OK");
    r.check(include_str!("paper_figures/fig06_backpressure_time.txt"));
}

/// Measures the Splitter component of Figs. 7–8 at one parallelism and
/// source rate.
fn measure_splitter(splitter_p: u32, rate: f64) -> ComponentObservation {
    let parallelism = WordCountParallelism {
        spout: 8,
        splitter: splitter_p,
        counter: 8,
    };
    let stats = observe(
        || wordcount_topology(parallelism, rate),
        &SimConfig::default(),
        &[
            (metric::EXECUTE_COUNT, "splitter"),
            (metric::EMIT_COUNT, "splitter"),
            (metric::BACKPRESSURE_TIME, "splitter"),
        ],
        40,
    );
    ComponentObservation {
        source_rate: rate,
        input_rate: stats[0].mean,
        output_rate: stats[1].mean,
        per_instance_inputs: vec![stats[0].mean / f64::from(splitter_p); splitter_p as usize],
        backpressured: stats[2].mean > 1_000.0,
    }
}

/// Figs. 7 and 8 — the Splitter component model and its validation at
/// new parallelisms (§V-C).
///
/// Fig. 7: observe the Splitter at parallelism 3 over a source sweep
/// (2 → 68 M tuples/min), fit the piecewise-linear component model, and
/// predict parallelisms 2 and 4 by scaling (Eq. 9). Paper: p=3 knee ≈ 30 M
/// (ours: 33 M; the paper's own p=2/p=4 predictions use 18→22/36→44 M
/// knees, i.e. per-instance SP ≈ 11 M, same as ours).
///
/// Fig. 8: deploy parallelisms 2 and 4 and compare the measured curves
/// with the predictions. Paper ST errors: 2.9 % (p=2) and 2.5 % (p=4).
#[test]
fn fig07_08_component_model() {
    let mut r = Report::default();
    r.header(
        "Fig. 7: Splitter component model at p=3 + p=2/p=4 predictions",
        "piecewise linear; p=3 input knee at 3 x 11 M; predictions scale by gamma",
    );
    let mut rate = 2.0e6;
    let mut observations = Vec::new();
    r.columns(
        "source (M/min)",
        &["input (M/min)", "output (M/min)", "backpressured"],
    );
    while rate <= 68.0e6 {
        let obs = measure_splitter(3, rate);
        r.row(
            format!("{:.0}", rate / 1e6),
            &[
                obs.input_rate / 1e6,
                obs.output_rate / 1e6,
                bit(obs.backpressured),
            ],
        );
        observations.push(obs);
        rate += 6.0e6;
    }

    let model = ComponentModel::fit("splitter", 3, GroupingKind::Shuffle, &observations).unwrap();
    let sat = model.instance.saturation.expect("sweep saturates p=3");
    r.line("");
    let mut ok = true;
    ok &= r.compare("fitted alpha", ALPHA, model.instance.alpha, 0.02);
    ok &= r.compare(
        "p=3 component input knee (M/min)",
        3.0 * SPLITTER_CAPACITY_PER_MIN / 1e6,
        3.0 * sat.input_sp / 1e6,
        0.10,
    );

    // Predicted knees for p=2 and p=4 (paper: input knees 18 and 36 M in
    // its calibration; with SP=11 M/instance: 22 and 44 M).
    for p in [2u32, 4] {
        let knee = model.saturation_source_rate(p).unwrap().unwrap();
        r.line(format_args!(
            "  predicted p={p}: input knee {:.1} M/min, output plateau {:.1} M/min",
            knee / 1e6,
            model.predict(p, knee * 2.0).unwrap().output_rate / 1e6
        ));
    }

    r.header(
        "Fig. 8: validation of the p=2 and p=4 predictions",
        "ST prediction errors 2.9% (p=2) and 2.5% (p=4)",
    );
    r.columns("config", &["predicted ST", "measured ST", "error %"]);
    for (p, probe) in [(2u32, 34.0e6), (4u32, 66.0e6)] {
        let predicted_st = model.predict(p, probe).unwrap().output_rate;
        let measured = measure_splitter(p, probe);
        let err = relative_error(predicted_st, measured.output_rate);
        r.row(
            format!("p={p}"),
            &[predicted_st / 1e6, measured.output_rate / 1e6, err * 100.0],
        );
        assert!(
            err < 0.05,
            "p={p} ST error {:.1}% exceeds the paper-comparable 5% band",
            err * 100.0
        );
        // And the linear region must also match.
        let linear_probe = 4.0e6 * f64::from(p);
        let predicted = model.predict(p, linear_probe).unwrap();
        let measured = measure_splitter(p, linear_probe);
        assert!(relative_error(predicted.output_rate, measured.output_rate) < 0.03);
    }
    assert!(ok, "figure 7 shape diverges from the paper");
    r.line("\nfig07/fig08: OK (errors within the paper's few-percent regime)");
    r.check(include_str!("paper_figures/fig07_08_component_model.txt"));
}

/// Measures the Counter component of Fig. 9. The Counter's source is the
/// Splitter's emission: the Splitter fleet is sized so it never
/// bottlenecks, and the sweep is in Counter source words/min.
fn measure_counter(counter_p: u32, counter_source_words: f64) -> ComponentObservation {
    let sentences = counter_source_words / ALPHA;
    let parallelism = WordCountParallelism {
        spout: 8,
        splitter: 8,
        counter: counter_p,
    };
    // The Counter's word tuples are tiny (8 B), so its 100 MB queue holds
    // only seconds of work at 280 M words/min; a finer tick resolves the
    // drain/refill dynamics that 1 s ticks would alias into starvation.
    let config = SimConfig {
        ticks_per_second: 10,
        ..SimConfig::default()
    };
    let stats = observe(
        || wordcount_topology(parallelism, sentences),
        &config,
        &[
            (metric::EXECUTE_COUNT, "counter"),
            (metric::EMIT_COUNT, "counter"),
            (metric::BACKPRESSURE_TIME, "counter"),
            (metric::EMIT_COUNT, "splitter"),
        ],
        40,
    );
    ComponentObservation {
        source_rate: stats[3].mean, // actual words offered by the splitter
        input_rate: stats[0].mean,
        output_rate: stats[1].mean,
        per_instance_inputs: vec![stats[0].mean / f64::from(counter_p); counter_p as usize],
        backpressured: stats[2].mean > 1_000.0,
    }
}

/// Fig. 9 — Counter input throughput: observed at parallelism 3,
/// predicted for parallelism 4. The Counter sits behind a fields-grouped
/// connection; the paper "observed the test dataset is unbiased
/// fortunately, thus we use Equation 9 for the sink bolt". So: observe
/// p=3 (saturating near 3 × 70 M words/min), check the keys are
/// unbiased, and predict and validate p=4.
#[test]
fn fig09_counter_model() {
    let mut r = Report::default();
    r.header(
        "Fig. 9: Counter input throughput — observed p=3, predicted p=4",
        "p=3 saturates near 3 x 70 M = 210 M words/min; p=4 predicted at 280 M",
    );
    let mut source = 50.0e6;
    let mut observations = Vec::new();
    r.columns("words (M/min)", &["counter in", "backpressured"]);
    while source <= 500.0e6 {
        let obs = measure_counter(3, source);
        r.row(
            format!("{:.0}", source / 1e6),
            &[obs.input_rate / 1e6, bit(obs.backpressured)],
        );
        observations.push(obs);
        source += 50.0e6;
    }

    let model = ComponentModel::fit("counter", 3, GroupingKind::Fields, &observations).unwrap();
    r.line("");
    r.line(format_args!(
        "  observed key bias: {:.2}% (paper: 'the test dataset is unbiased')",
        model.bias() * 100.0
    ));
    assert!(
        model.is_unbiased(),
        "the uniform-key corpus must register as unbiased"
    );
    let sat = model.instance.saturation.expect("sweep saturates p=3");
    let mut ok = true;
    ok &= r.compare(
        "p=3 saturation input (M words/min)",
        3.0 * COUNTER_CAPACITY_PER_MIN / 1e6,
        3.0 * sat.input_sp / 1e6,
        0.10,
    );

    // Prediction for p=4 via Eq. 9 (valid because the keys are unbiased).
    let predicted_knee = model.saturation_source_rate(4).unwrap().unwrap();
    r.line(format_args!(
        "  predicted p=4 saturation: {:.0} M words/min",
        predicted_knee / 1e6
    ));
    ok &= r.compare(
        "p=4 predicted knee (M words/min)",
        4.0 * COUNTER_CAPACITY_PER_MIN / 1e6,
        predicted_knee / 1e6,
        0.10,
    );

    // Validate: deploy p=4 beyond its knee and in the linear regime.
    let saturated = measure_counter(4, predicted_knee * 1.5);
    let err = relative_error(
        model.predict(4, saturated.source_rate).unwrap().input_rate,
        saturated.input_rate,
    );
    r.line(format_args!(
        "  p=4 saturated-input prediction error: {:.1}%",
        err * 100.0
    ));
    assert!(err < 0.05);
    let linear = measure_counter(4, predicted_knee * 0.5);
    let err = relative_error(
        model.predict(4, linear.source_rate).unwrap().input_rate,
        linear.input_rate,
    );
    r.line(format_args!(
        "  p=4 linear-input prediction error: {:.1}%",
        err * 100.0
    ));
    assert!(err < 0.05);
    assert!(ok, "figure 9 shape diverges from the paper");
    r.line("\nfig09: OK");
    r.check(include_str!("paper_figures/fig09_counter_model.txt"));
}

/// Fig. 10 — topology output throughput: critical-path prediction vs
/// measurement (§V-D). The component models are fitted on an observation
/// deployment (Splitter p=3, Counter p=6) swept through both regimes, the
/// paper's "we have built a model for the Splitter ... we did the same
/// for the Counter", and chained along the critical path (Eq. 12) for the
/// Fig. 1 parallelisms (spout 2, Splitter 2, Counter 4); the same
/// configuration is then deployed and measured. Paper: prediction error
/// 2.8 % at the plateau.
#[test]
fn fig10_critical_path() {
    let mut r = Report::default();
    r.header(
        "Fig. 10: topology output (critical path) — predicted vs measured",
        "prediction matches measurement with ~2.8% error at the plateau",
    );
    let observed = WordCountParallelism {
        spout: 8,
        splitter: 3,
        counter: 6,
    };
    let caladrius = fitted_on_sweep(
        |rate| wordcount_topology(observed, rate),
        &SimConfig::default(),
        &[8.0e6, 16.0e6, 24.0e6, 30.0e6, 36.0e6, 42.0e6],
        40,
        30.0e6,
    );
    let model = caladrius.fit_topology_model("wordcount").unwrap();

    // WordCount has one spout→sink path (the count at unit parallelism),
    // so it is a chain: its topological order is the critical path, and
    // the DAG-wide prediction is Eq. 12 along it.
    let mut spec = to_logical_spec(&wordcount_topology(observed, 30.0e6));
    for (_, p) in &mut spec.components {
        *p = 1;
    }
    let dag = TopologyDag::new(&spec).unwrap();
    assert_eq!(dag.instance_path_count(), Ok(1));
    let path: Vec<&str> = dag.order().iter().map(|&v| dag.name(v)).collect();
    r.line(format_args!("critical path candidates: {:?}", [path]));

    // Fig. 1 parallelisms for the prediction and validation runs.
    let fig1 = HashMap::from([
        ("spout".to_string(), 2u32),
        ("splitter".to_string(), 2u32),
        ("counter".to_string(), 4u32),
    ]);
    let deploy = WordCountParallelism {
        spout: 2,
        splitter: 2,
        counter: 4,
    };

    r.columns(
        "source (M/min)",
        &["predicted out", "measured out", "error %"],
    );
    let mut max_err: f64 = 0.0;
    let mut source = 6.0e6;
    let mut plateau_prediction = 0.0;
    let mut plateau_measurement = 0.0;
    while source <= 62.0e6 {
        let predicted = model.predict(&fig1, source).unwrap().sink_output_rate;
        let measured = observe(
            || wordcount_topology(deploy, source),
            &SimConfig::default(),
            &[(metric::EXECUTE_COUNT, "counter")],
            40,
        )[0]
        .mean;
        let err = relative_error(predicted, measured);
        r.row(
            format!("{:.0}", source / 1e6),
            &[predicted / 1e6, measured / 1e6, err * 100.0],
        );
        max_err = max_err.max(err);
        if source > 40.0e6 {
            plateau_prediction = predicted;
            plateau_measurement = measured;
        }
        source += 8.0e6;
    }

    r.line("");
    let plateau_err = relative_error(plateau_prediction, plateau_measurement);
    r.line(format_args!(
        "  plateau: predicted {:.1} M, measured {:.1} M, error {:.1}% (paper: 2.8%)",
        plateau_prediction / 1e6,
        plateau_measurement / 1e6,
        plateau_err * 100.0
    ));
    // The plateau itself is set by the splitter knee at p=2.
    let plateau_ok = r.compare(
        "plateau output (M words/min)",
        2.0 * SPLITTER_CAPACITY_PER_MIN * ALPHA / 1e6,
        plateau_measurement / 1e6,
        0.10,
    );
    assert!(plateau_ok, "the plateau is not the p=2 splitter knee");
    assert!(
        max_err < 0.07,
        "max error {:.1}% exceeds the paper-comparable band",
        max_err * 100.0
    );
    r.line(format_args!(
        "fig10: OK (max error {:.1}%)",
        max_err * 100.0
    ));
    r.check(include_str!("paper_figures/fig10_critical_path.txt"));
}

/// Figs. 11 and 12 — CPU load: observation, prediction and validation
/// (§V-E).
///
/// Fig. 11: the Splitter's CPU load at parallelism 3 is linear in the
/// source rate until saturation; fitting `cpu = base + psi * input_rate`
/// and chaining it behind the throughput model yields predicted CPU lines
/// for parallelisms 2 and 4.
///
/// Fig. 12: deploy parallelisms 2 and 4 and compare. Paper errors: 4.8 %
/// (p=2) and 3 % (p=4), "higher than the output rate prediction error ...
/// because error has accumulated for the chained prediction steps".
#[test]
fn fig11_12_cpu_model() {
    let mut r = Report::default();
    r.header(
        "Fig. 11: Splitter CPU load at p=3 with p=2/p=4 predicted lines",
        "CPU ~ linear in source rate until saturation, then flat",
    );
    let deploy = |splitter: u32, rate: f64| {
        let parallelism = WordCountParallelism {
            spout: 8,
            splitter,
            counter: 6,
        };
        wordcount_topology(parallelism, rate)
    };
    // Observation deployment at p=3 over a sweep.
    let legs = [6.0e6, 12.0e6, 18.0e6, 24.0e6, 30.0e6, 40.0e6];
    let caladrius = fitted_on_sweep(
        |rate| deploy(3, rate),
        &SimConfig::default(),
        &legs,
        35,
        30.0e6,
    );
    let throughput = caladrius.fit_topology_model("wordcount").unwrap();
    let splitter = throughput.component_model("splitter").unwrap();
    let cpu = caladrius.fit_cpu_models("wordcount").unwrap()["splitter"];
    r.line(format_args!(
        "fitted CPU model: cpu = {:.3} + {:.3e} * input_rate (cores/instance)",
        cpu.base, cpu.psi
    ));
    // The observed p=3 CPU curve with predicted lines for p=2 and p=4.
    r.columns(
        "source (M/min)",
        &["p=3 observed", "p=2 predicted", "p=4 predicted"],
    );
    for rate in legs {
        let [p3, p2, p4] = [3, 2, 4].map(|p| cpu.predict_component(splitter, p, rate).unwrap());
        r.row(format!("{:.0}", rate / 1e6), &[p3, p2, p4]);
    }

    r.header(
        "Fig. 12: validation of the CPU predictions at p=2 and p=4",
        "errors 4.8% (p=2) and 3% (p=4): chained predictions accumulate error",
    );
    r.columns(
        "config",
        &["rate (M/min)", "predicted", "measured", "error %"],
    );
    let mut worst: f64 = 0.0;
    for p in [2u32, 4] {
        for rate in [8.0e6, 16.0e6, 28.0e6] {
            let predicted = cpu.predict_component(splitter, p, rate).unwrap();
            let measured = observe(
                || deploy(p, rate),
                &SimConfig::default(),
                &[(metric::CPU_LOAD, "splitter")],
                35,
            )[0]
            .mean;
            let err = relative_error(predicted, measured);
            worst = worst.max(err);
            r.row(
                format!("p={p}"),
                &[rate / 1e6, predicted, measured, err * 100.0],
            );
        }
    }
    r.line("");
    r.line(format_args!(
        "  worst CPU prediction error: {:.1}% (paper: up to 4.8%)",
        worst * 100.0
    ));
    assert!(
        worst < 0.10,
        "CPU error {:.1}% outside the paper-comparable band",
        worst * 100.0
    );
    r.line("fig11/fig12: OK");
    r.check(include_str!("paper_figures/fig11_12_cpu_model.txt"));
}

/// Backtests `model` and adds its accuracy row; a model that cannot be
/// backtested gets a "skipped" line instead.
fn backtest_row<F: Forecaster>(
    r: &mut Report,
    name: &str,
    model: &mut F,
    data: &[DataPoint],
    config: BacktestConfig,
) -> Accuracy {
    let acc = backtest(model, data, config).unwrap_or_else(|e| panic!("{name} fits: {e}"));
    r.row(
        name,
        &[
            acc.mape,
            acc.mae / 1e6,
            acc.rmse / 1e6,
            acc.coverage * 100.0,
            acc.n as f64,
        ],
    );
    acc
}

/// Traffic-forecast evaluation (§IV-A, an extension). The paper relies on
/// Prophet for the source-throughput forecast and does not evaluate it;
/// this repository substitutes its own Prophet-style model, so this
/// validates the substitution: rolling-origin backtests on strongly
/// seasonal synthetic traffic with production pathologies, the additive
/// model against the statistics-summary model the paper suggests for
/// stable traffic, plus an AR baseline that must beat the summary too.
#[test]
fn traffic_forecast_eval() {
    let mut r = Report::default();
    r.header(
        "Traffic forecast evaluation (Prophet-substitute validation)",
        "seasonal traffic 'lends itself well to prediction'; additive model beats naive summaries",
    );
    let step_minutes = 10u32;
    let days = 21;
    let raw = SeasonalTraffic {
        base: 8.0e6,
        daily_amplitude: 0.4,
        weekend_delta: -0.25,
        growth_per_day: 0.01,
        noise: 0.03,
        seed: 0xF0CA,
    }
    .generate(days, step_minutes);
    // Production pathologies: 2% outlier spikes, 5% missing windows.
    let data: Vec<DataPoint> = with_gaps(with_outliers(raw, 0.02, 4.0, 7), 0.05, 11)
        .into_iter()
        .map(|p| DataPoint::new(p.ts, p.tuples_per_min))
        .collect();
    let per_day = (1440 / step_minutes) as usize;
    let config = BacktestConfig {
        initial_train: per_day * (days as usize - 3),
        horizon: per_day / 2, // 12-hour horizon
        step: per_day / 2,
    };
    r.line(format_args!(
        "{} days of {}-minute data, {} observations; 12h rolling-origin horizon\n",
        days,
        step_minutes,
        data.len()
    ));
    r.columns(
        "model",
        &["MAPE %", "MAE (M)", "RMSE (M)", "coverage %", "n"],
    );

    let mut prophet = Prophet::new(ProphetConfig {
        seasonalities: vec![Seasonality::daily(6), Seasonality::weekly(3)],
        ..ProphetConfig::default()
    });
    let prophet_acc = backtest_row(&mut r, "prophet", &mut prophet, &data, config);
    let mut mean_model = StatsSummaryModel::mean();
    let mean_acc = backtest_row(&mut r, "stats_mean", &mut mean_model, &data, config);
    let mut ar = ArModel::new(per_day, 0.9);
    let ar_acc = backtest_row(&mut r, "ar", &mut ar, &data, config);

    r.line("");
    r.line(format_args!(
        "  prophet MAPE {:.1}% vs stats-summary MAPE {:.1}%",
        prophet_acc.mape, mean_acc.mape
    ));
    assert!(
        prophet_acc.mape < mean_acc.mape * 0.6,
        "the seasonal model must clearly beat the flat summary on seasonal traffic"
    );
    assert!(
        prophet_acc.mape < 12.0,
        "prophet MAPE {:.1}% too high",
        prophet_acc.mape
    );
    assert!(
        prophet_acc.coverage > 0.6,
        "interval coverage {:.0}% too low",
        prophet_acc.coverage * 100.0
    );
    // AR is not a paper model: it earns its registry slot by beating the
    // statistics summary on every error column.
    for (what, ar, mean) in [
        ("MAPE", ar_acc.mape, mean_acc.mape),
        ("MAE", ar_acc.mae, mean_acc.mae),
        ("RMSE", ar_acc.rmse, mean_acc.rmse),
    ] {
        assert!(ar < mean, "ar {what} {ar} must beat stats_mean {mean}");
    }
    r.line("traffic_forecast_eval: OK");
    r.check(include_str!("paper_figures/traffic_forecast_eval.txt"));
}

/// Backpressure-risk classification (Eq. 14, an extension: the paper
/// defines the rule but plots no figure for it). Offered rates swept
/// around the topology's predicted saturation point `t'0` are classified
/// and checked against the simulator's ground truth: below the knee no
/// backpressure may appear; above it, backpressure must.
#[test]
fn risk_classification() {
    let mut r = Report::default();
    r.header(
        "Backpressure risk classification (Eq. 14)",
        "risk is low for t0 < t'0 and high for t0 ~ t'0 or beyond",
    );
    let parallelism = WordCountParallelism {
        spout: 8,
        splitter: 2,
        counter: 3,
    };
    // Fit over a sweep of the deployed config.
    let caladrius = fitted_on_sweep(
        |rate| wordcount_topology(parallelism, rate),
        &SimConfig::default(),
        &[8.0e6, 14.0e6, 20.0e6, 26.0e6],
        40,
        20.0e6,
    );
    let model = caladrius.fit_topology_model("wordcount").unwrap();
    let none = HashMap::new();
    let knee = model
        .saturation_source_rate(&none)
        .unwrap()
        .expect("sweep saturates");
    r.line(format_args!(
        "predicted topology saturation t'0 = {:.2} M tuples/min\n",
        knee / 1e6
    ));

    let simulated_backpressure = |rate: f64| {
        let mut sim =
            Simulation::new(wordcount_topology(parallelism, rate), SimConfig::default()).unwrap();
        sim.warmup_minutes(45);
        let metrics = sim.run_minutes(MEASURE_MINUTES);
        let series = metrics.component_sum(metric::BACKPRESSURE_TIME, None, 0, i64::MAX);
        Aggregation::Max.apply(series.iter().map(|s| s.value)) > 1_000.0
    };
    r.columns("t0/t'0", &["risk(Eq.14)", "sim backpressure", "agree"]);
    let mut agreements = 0usize;
    let mut decisive = 0usize;
    for factor in [0.5, 0.7, 0.85, 0.9, 0.97, 1.03, 1.1, 1.25, 1.5] {
        let rate = knee * factor;
        let (risk, _) = model.backpressure_risk(&none, rate).unwrap();
        let truth = simulated_backpressure(rate);
        let risk_high = risk == BackpressureRisk::High;
        let agree = risk_high == truth;
        r.row(
            format!("{factor:.2}"),
            &[bit(risk_high), bit(truth), bit(agree)],
        );
        // Near the knee (within 10%) the call is genuinely ambiguous —
        // Eq. 14's margin exists exactly for that band. Score only the
        // decisive region.
        if (factor - 1.0f64).abs() > 0.10 {
            decisive += 1;
            if agree {
                agreements += 1;
            }
        }
    }
    r.line("");
    r.line(format_args!(
        "  decisive-region agreement: {agreements}/{decisive}"
    ));
    assert_eq!(
        agreements, decisive,
        "Eq. 14 must agree with simulated ground truth away from the knee"
    );
    r.line("risk_classification: OK");
    r.check(include_str!("paper_figures/risk_classification.txt"));
}

/// Adds a scaling policy's convergence row and its final parallelisms.
fn convergence_row(r: &mut Report, result: &ConvergenceResult) {
    r.row(
        &result.policy,
        &[
            result.deployments as f64,
            result.simulated_minutes as f64,
            bit(result.converged),
            result.final_sink_output / 1e6,
        ],
    );
    let parallelisms: Vec<String> = result
        .final_parallelisms
        .iter()
        .map(|(n, p)| format!("{n}={p}"))
        .collect();
    r.line(format_args!(
        "{:>14}  final: {}",
        "",
        parallelisms.join(", ")
    ));
}

/// Scaling convergence (§I, an extension). The introduction motivates
/// Caladrius with the cost of trial-based tuning: reactive systems like
/// Dhalion "use several scaling rounds to converge on the users' expected
/// throughput SLO", while a dry-run model evaluation replaces the trial
/// ladder. Both policies start from the same undersized WordCount
/// deployment and must reach an SLO at the target rate; deployments and
/// simulated stabilisation time are counted.
#[test]
fn scaling_convergence() {
    let mut r = Report::default();
    r.header(
        "Scaling convergence: Dhalion-style trials vs Caladrius dry-run",
        "reactive scalers 'use several scaling rounds to converge'; modelling needs ~one planned redeploy",
    );
    let target = 60.0e6;
    // Splitter p=1 (11 M/min) and Counter p=4 (280 M words/min) against a
    // 60 M/min target that needs roughly splitter 6-7 and counter 7-8.
    let undersized = || {
        let parallelism = WordCountParallelism {
            spout: 8,
            splitter: 1,
            counter: 4,
        };
        wordcount_topology(parallelism, target)
    };
    let config = HarnessConfig {
        stabilize_minutes: 30,
        observe_minutes: 10,
        max_rounds: 20,
    };
    r.line(format_args!(
        "target {:.0} M tuples/min; each round costs {} simulated minutes\n",
        target / 1e6,
        config.stabilize_minutes + config.observe_minutes
    ));
    r.columns(
        "policy",
        &["deployments", "sim minutes", "converged", "sink (M/min)"],
    );

    let mut reactive = ReactiveScaler::default();
    let reactive_result = run_to_convergence(&mut reactive, undersized(), target, config).unwrap();
    convergence_row(&mut r, &reactive_result);

    let mut modelled = ModelledScaler::new(ModelledConfig {
        target_rate: target,
        headroom: 1.1,
        max_parallelism: 64,
    });
    let modelled_result = run_to_convergence(&mut modelled, undersized(), target, config).unwrap();
    convergence_row(&mut r, &modelled_result);

    r.line("");
    assert!(
        reactive_result.converged,
        "reactive must converge eventually"
    );
    assert!(modelled_result.converged, "modelled must converge");
    assert!(
        modelled_result.deployments < reactive_result.deployments,
        "modelling must beat trial-and-error: {} vs {}",
        modelled_result.deployments,
        reactive_result.deployments
    );
    let speedup =
        reactive_result.simulated_minutes as f64 / modelled_result.simulated_minutes as f64;
    r.line(format_args!(
        "  tuning-loop speedup from modelling: {speedup:.1}x fewer stabilisation minutes \
         ({} vs {} deployments)",
        modelled_result.deployments, reactive_result.deployments
    ));
    r.line("scaling_convergence: OK");
    r.check(include_str!("paper_figures/scaling_convergence.txt"));
}

/// Stream-manager routing capacity of the ablation: ample for one or two
/// instances per container, saturating when 14 instances share one.
const STMGR_CAPACITY: f64 = 2.0e6; // tuples/sec

/// Stream-manager bottleneck ablation (§IV-B1, an extension). The paper's
/// first modelling assumption is that "the throughput bottleneck is not
/// the stream manager", justified because "almost all users in the field
/// allocate a large number of containers to their topologies". With
/// finite-capacity stream managers:
///
/// * a **spread** deployment (many containers, few instances each) is
///   predicted accurately by the instance-level model;
/// * a **consolidated** one (everything on one container) saturates the
///   shared stream manager first, and the model overpredicts — showing
///   when the assumption, and the practice behind it, is load-bearing.
#[test]
fn stmgr_ablation() {
    let mut r = Report::default();
    r.header(
        "Stream-manager bottleneck ablation (paper assumption §IV-B1)",
        "'the stream manager is not a bottleneck' holds with few instances per container",
    );
    let parallelism = WordCountParallelism {
        spout: 8,
        splitter: 3,
        counter: 3,
    };
    let packed = |containers: usize| SimConfig {
        packing: Some(PackingAlgorithm::RoundRobin {
            num_containers: containers,
        }),
        stmgr_capacity: Some(STMGR_CAPACITY),
        ..SimConfig::default()
    };
    // 20 M sentences/min: below the splitter knee (33 M at p=3), so the
    // only possible bottleneck is the stream manager.
    let rate = 20.0e6;
    // The instance-level model, fitted on a spread deployment (the regime
    // the paper's models are built for).
    let caladrius = fitted_on_sweep(
        |rate| wordcount_topology(parallelism, rate),
        &packed(14),
        &[8.0e6, 16.0e6, 24.0e6, 30.0e6, 40.0e6],
        40,
        rate,
    );
    let predicted = caladrius
        .fit_topology_model("wordcount")
        .unwrap()
        .predict(&HashMap::new(), rate)
        .unwrap()
        .sink_output_rate;
    r.line(format_args!(
        "instance-level model prediction at {:.0} M/min: {:.1} M words/min\n",
        rate / 1e6,
        predicted / 1e6
    ));

    r.columns(
        "containers",
        &["splitter in (M)", "counter in (M)", "model error %"],
    );
    let mut spread_err = 0.0;
    let mut consolidated_err = 0.0;
    for containers in [14usize, 7, 2, 1] {
        let mut sim = Simulation::new(wordcount_topology(parallelism, rate), packed(containers))
            .expect("ablation topology is valid");
        sim.warmup_minutes(40);
        let metrics = sim.run_minutes(MEASURE_MINUTES);
        let splitter_in = component_rate(&metrics, metric::EXECUTE_COUNT, "splitter");
        let counter_in = component_rate(&metrics, metric::EXECUTE_COUNT, "counter");
        let err = relative_error(predicted, counter_in);
        r.row(
            containers,
            &[splitter_in / 1e6, counter_in / 1e6, err * 100.0],
        );
        if containers == 14 {
            spread_err = err;
        }
        if containers == 1 {
            consolidated_err = err;
        }
    }

    r.line("");
    r.line(format_args!(
        "  spread (14 containers): model error {:.1}% — assumption holds",
        spread_err * 100.0
    ));
    r.line(format_args!(
        "  consolidated (1 container): model error {:.0}% — the shared stream \
         manager is the real bottleneck and the instance model overpredicts",
        consolidated_err * 100.0
    ));
    assert!(spread_err < 0.05, "spread deployment must match the model");
    assert!(
        consolidated_err > 0.2,
        "consolidation must break the assumption measurably (got {:.0}%)",
        consolidated_err * 100.0
    );
    // Sanity: the unthrottled expectation for reference.
    r.line(format_args!(
        "  (unthrottled counter input would be {:.1} M words/min)",
        rate * ALPHA / 1e6
    ));
    r.line("stmgr_ablation: OK");
    r.check(include_str!("paper_figures/stmgr_ablation.txt"));
}
