//! A run's result: the one-line object the driver reads and the full
//! document kept under `benchmarks/out/`.

use crate::catalogue::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::Ops;
use crate::Args;
use caladrius_api::Value;
use std::collections::BTreeMap;

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub samples: usize,
}

#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Metric>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let previous = self.0.insert(name, Metric { value, samples });
        assert!(previous.is_none(), "{name} measured twice");
    }

    pub fn get(&self, name: &str) -> Option<Metric> {
        self.0.get(name).copied()
    }
}

pub struct RunResult {
    pub workload: &'static str,
    pub trace: bool,
    pub ops: Ops,
    pub metrics: Metrics,
    /// Wall time (ms) of every measured round, in order, after the
    /// discarded warm-up. Kept in the document so a reader can see what
    /// the machine did during the pass.
    pub round_ms: Vec<f64>,
    /// CPU time (ms) the process spent inside each of those rounds.
    pub round_cpu_ms: Vec<f64>,
    /// The reference kernel's time (ms) around each of those rounds.
    pub reference_ms: Vec<f64>,
    /// Wall time (s) of each set-up, before normalisation.
    pub setup_raw_secs: Vec<f64>,
}

/// The catalogue's metrics of one pass.
fn listed(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

impl RunResult {
    /// Every listed metric present and finite.
    fn complete(&self) -> bool {
        listed(self.trace).iter().all(|spec| {
            let found = self
                .metrics
                .get(spec.name)
                .is_some_and(|m| m.value.is_finite());
            if !found {
                eprintln!(
                    "caladrius-benchmarks: metric {} missing or not finite",
                    spec.name
                );
            }
            found
        })
    }

    pub fn correct(&self) -> bool {
        self.ops.failed == 0 && self.ops.attempted > 0 && self.complete()
    }

    fn metric_objects(&self, with_samples: bool) -> Value {
        Value::Object(
            listed(self.trace)
                .iter()
                .filter_map(|spec| Some((spec, self.metrics.get(spec.name)?)))
                .map(|(spec, m)| {
                    let mut fields = vec![
                        ("value", Value::from(m.value)),
                        ("unit", Value::from(spec.unit)),
                    ];
                    if with_samples {
                        fields.push(("samples", Value::from(m.samples)));
                        fields.push(("better", Value::from(spec.better.as_str())));
                    }
                    (spec.name.to_string(), Value::object(fields))
                })
                .collect(),
        )
    }

    /// Median, tails and throughput of the pass's rounds, with their
    /// sample count: what a user of the service saw, interference and
    /// all.
    fn round_summary(&self) -> Value {
        let Some(summary) = Summary::of(&self.round_ms) else {
            return Value::Null;
        };
        Value::object([
            ("samples", Value::from(summary.samples)),
            ("p50_ms", Value::from(summary.p50)),
            ("p90_ms", Value::from(summary.p90)),
            ("p99_ms", Value::from(summary.p99)),
            ("max_ms", Value::from(summary.max)),
            (
                "per_s",
                Value::from(summary.samples as f64 / (self.round_ms.iter().sum::<f64>() / 1e3)),
            ),
        ])
    }

    /// The last line of stdout: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> String {
        Value::object([
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.ops.attempted as f64)),
            ("failed", Value::from(self.ops.failed as f64)),
            ("metrics", self.metric_objects(false)),
        ])
        .to_json()
    }

    /// Writes the full document: the result plus sample counts, the
    /// failed share and host facts.
    pub fn write_document(&self, args: &Args) -> std::io::Result<()> {
        std::fs::create_dir_all(&args.out_dir)?;
        let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
        let array = |values: &[f64]| Value::Array(values.iter().map(|v| Value::from(*v)).collect());
        let document = Value::object([
            ("workload", Value::from(self.workload)),
            ("trace", Value::from(self.trace)),
            ("seed", Value::from(args.seed as f64)),
            ("seconds", Value::from(args.seconds)),
            (
                "loop",
                Value::from("closed, 1 client, 1 load-generating thread"),
            ),
            ("rounds", self.round_summary()),
            ("round_ms", array(&self.round_ms)),
            ("round_cpu_ms", array(&self.round_cpu_ms)),
            ("reference_ms", array(&self.reference_ms)),
            ("setup_raw_s", array(&self.setup_raw_secs)),
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.ops.attempted as f64)),
            ("failed", Value::from(self.ops.failed as f64)),
            (
                "failed_share",
                Value::from(self.ops.failed as f64 / self.ops.attempted.max(1) as f64),
            ),
            ("metrics", self.metric_objects(true)),
            (
                "host",
                Value::object([
                    (
                        "nproc",
                        Value::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
                    ),
                    (
                        "caladrius_threads",
                        Value::from(caladrius_exec::configured_threads()),
                    ),
                    ("rustc", Value::from(env("CALADRIUS_BENCH_RUSTC"))),
                    ("commit", Value::from(env("CALADRIUS_BENCH_COMMIT"))),
                ]),
            ),
        ]);
        let pass = if self.trace { "traced" } else { "measured" };
        let path = args
            .out_dir
            .join(format!("{}-{pass}-seed{}.json", self.workload, args.seed));
        std::fs::write(path, document.to_json() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(trace: bool, failed: u64) -> RunResult {
        let mut metrics = Metrics::default();
        for spec in listed(trace) {
            metrics.set(spec.name, 1.25, 10);
        }
        RunResult {
            workload: "whatif_hit",
            trace,
            ops: Ops {
                attempted: 100,
                failed,
            },
            metrics,
            round_ms: vec![1.25; 95],
            round_cpu_ms: vec![0.25; 95],
            reference_ms: vec![5.0; 95],
            setup_raw_secs: vec![1.25; 3],
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_the_listed_metrics() {
        let line = result(false, 0).contract_line();
        let parsed = caladrius_api::json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(setup.as_object().unwrap().len(), 2);
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.25));
    }

    #[test]
    fn a_failed_operation_or_a_missing_metric_makes_the_run_incorrect() {
        assert!(result(true, 0).correct());
        assert!(!result(true, 1).correct());
        let mut missing = result(false, 0);
        missing.metrics = Metrics::default();
        assert!(!missing.correct());
    }
}
