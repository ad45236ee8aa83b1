//! Order statistics over the benchmark's timing samples.
//!
//! Probe timings are medians (never a mean of a short run): medians
//! repeat between runs of the same code where means follow the one slow
//! call a shared box produces. The gated round time is the median of
//! rounds normalised for the box's speed, see `boxspeed`.

/// Sorts a sample set ascending. Timings are finite by construction, so
/// a NaN here is a harness bug.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    out
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending sample set, linearly
/// interpolated between the two nearest ranks; `None` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of an unsorted sample set; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile_sorted(&sorted(values), 0.5)
}

/// The 10th percentile of an unsorted sample set; `None` when empty.
///
/// Interference on a shared box only ever makes a round slower, so the
/// fast rounds of a pass are the ones that ran undisturbed, and the
/// 10th percentile of the raw rounds says what the round costs in the
/// pass's calmest moments. It is reported ungated: a slow regime can
/// outlast a pass, and then no order statistic of the pass sees the
/// calm box (over ten 15-second passes of the same code the 10th
/// percentile spread 10-57 %, the median 22-37 %). Not lower than the
/// 10th: where a round can get lucky (a request that arrives just as a
/// polling accept loop wakes), the few fastest rounds are the unsteady
/// ones.
pub fn p10(values: &[f64]) -> Option<f64> {
    quantile_sorted(&sorted(values), 0.1)
}

/// Median, tails and size of one sample set, as the result files print
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        let s = sorted(values);
        Some(Summary {
            samples: s.len(),
            p50: quantile_sorted(&s, 0.5)?,
            p90: quantile_sorted(&s, 0.9)?,
            p99: quantile_sorted(&s, 0.99)?,
            max: *s.last()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = sorted(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(quantile_sorted(&s, 0.0), Some(10.0));
        assert_eq!(quantile_sorted(&s, 1.0), Some(50.0));
        assert_eq!(quantile_sorted(&s, 0.25), Some(20.0));
        // Rank 3.6 of 0..=4: 40 + 0.6 * (50 - 40).
        assert!((quantile_sorted(&s, 0.9).unwrap() - 46.0).abs() < 1e-12);
        // Out-of-range quantiles clamp instead of indexing out of bounds.
        assert_eq!(quantile_sorted(&s, 1.5), Some(50.0));
        assert_eq!(quantile_sorted(&s, -0.5), Some(10.0));
    }

    #[test]
    fn p10_ignores_a_slow_burst_and_a_few_lucky_rounds() {
        // 40 rounds at 100–103 ms, two lucky ones, then 50 at twice that.
        let mut rounds: Vec<f64> = (0..40).map(|i| 100.0 + (i % 4) as f64).collect();
        let calm = p10(&rounds).unwrap();
        rounds.extend([20.0, 30.0]);
        rounds.extend((0..50).map(|i| 200.0 + i as f64));
        let disturbed = p10(&rounds).unwrap();
        assert!((disturbed - calm).abs() <= 1.0, "{calm} vs {disturbed}");
        // The median of the same rounds has moved into the burst.
        assert!(median(&rounds).unwrap() >= 200.0);
        assert_eq!(p10(&[]), None);
    }

    #[test]
    fn a_rare_slow_round_moves_the_tail_not_the_median() {
        let mut rounds = vec![100.0; 99];
        rounds.push(900.0);
        let summary = Summary::of(&rounds).unwrap();
        assert_eq!(summary.samples, 100);
        assert_eq!(summary.p50, 100.0);
        assert_eq!(summary.p90, 100.0);
        assert!(summary.p99 > 100.0 && summary.p99 < 900.0);
        assert_eq!(summary.max, 900.0);
    }
}
