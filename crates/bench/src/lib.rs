//! Shared helpers for the perf benches in `benches/`: sweep sizing and
//! table printing. The paper's figures are tests, in the workspace root's
//! `tests/paper_figures.rs`.
//!
//! Environment knobs:
//! * `CALADRIUS_BENCH_REPEATS` — repeats per measured point (default 5).
//! * `CALADRIUS_BENCH_FAST=1` — shrink sweeps for smoke runs.

/// Number of repeats per sweep point.
pub fn repeats() -> usize {
    std::env::var("CALADRIUS_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

/// True when sweeps should be shrunk for a smoke run.
pub fn fast_mode() -> bool {
    std::env::var("CALADRIUS_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Prints a benchmark header.
pub fn header(figure: &str, claim: &str) {
    println!("\n================================================================");
    println!("{figure}");
    println!("paper: {claim}");
    println!("================================================================");
}

/// Prints one table row: a label column followed by `f64` cells.
pub fn row(label: impl std::fmt::Display, cells: &[f64]) {
    print!("{label:>14}");
    for c in cells {
        print!(" {c:>14.3}");
    }
    println!();
}

/// Prints the column header for [`row`] tables.
pub fn columns(label: &str, names: &[&str]) {
    print!("{label:>14}");
    for n in names {
        print!(" {n:>14}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_is_positive() {
        assert!(repeats() >= 1);
    }
}
