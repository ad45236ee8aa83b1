//! The Caladrius benchmark: the service loop itself (new minute → refit
//! → what-if → plan → validate), driven from outside through the public
//! APIs of the crates, on four workloads.
//!
//! One invocation runs one workload:
//!
//! ```text
//! caladrius-benchmarks --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` is the measured pass: set-up (repeated, median reported),
//! then closed-loop rounds for `S` seconds, then the output checks; it
//! prints the end-to-end metrics. `--trace 1` is the traced pass: the
//! same rounds with the harness's span recorder on every other round,
//! then the layer probes; it prints the per-layer metrics and writes the
//! span file. The last line of stdout is the result object; the full
//! document (sample counts, host facts) goes to `benchmarks/out/`.

mod boxspeed;
mod catalogue;
mod fixture;
mod planning;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use workloads::fleet_drift::FleetDrift;
use workloads::minute_round::MinuteRound;
use workloads::onboard_replay::OnboardReplay;
use workloads::whatif_hit::WhatIfHit;
use workloads::Workload;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per measured pass (the median is reported). One is enough
    /// for a smoke run.
    pub setups: usize,
    /// Directory for the result document and the span file.
    pub out_dir: std::path::PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        seconds: f64::from(catalogue::RUN_SECONDS),
        trace: false,
        setups: 3,
        out_dir: "benchmarks/out".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.to_string(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--setups" => {
                parsed.setups = value
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| bad("a positive whole number"))?
            }
            "--out" => parsed.out_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--catalogue", "json"] => return print!("{}", catalogue::benchmark_json()),
        ["--catalogue", "markdown"] => return print!("{}", catalogue::catalogue_markdown()),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("caladrius-benchmarks: {message}");
            eprintln!(
                "usage: caladrius-benchmarks --workload <{}> [--seed N] [--seconds S] \
                 [--trace 0|1] [--setups N] [--out DIR]\n       caladrius-benchmarks --catalogue <json|markdown>",
                catalogue::WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        WhatIfHit::NAME => run::run::<WhatIfHit>(&args),
        MinuteRound::NAME => run::run::<MinuteRound>(&args),
        FleetDrift::NAME => run::run::<FleetDrift>(&args),
        OnboardReplay::NAME => run::run::<OnboardReplay>(&args),
        other => {
            eprintln!("caladrius-benchmarks: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let correct = result.correct();
    if let Err(e) = result.write_document(&args) {
        eprintln!("caladrius-benchmarks: cannot write the result document: {e}");
        std::process::exit(1);
    }
    println!("{}", result.contract_line());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let parsed = args(&[
            "--workload",
            "minute_round",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload, "minute_round");
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.seconds, 12.0);
        assert!(parsed.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "x", "--seed", "-1"]).is_err());
        assert!(args(&["--workload", "x", "--setups", "0"]).is_err());
        assert!(args(&["--workload", "x", "--bogus", "1"]).is_err());
    }
}
