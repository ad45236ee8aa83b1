//! The compensated sum every fit that accumulates floats shares.
//!
//! A fit's result must be a function of its observations and their
//! order alone, so that a model refitted over a sliding window equals a
//! fresh fit over the same window bit for bit. Fits that sum many terms
//! (the stats summary's mean; in `caladrius-core` the throughput and CPU
//! fits) add them through [`KahanSum`] in the order they are given.

/// Kahan (compensated) summation accumulator.
///
/// Adding the same terms in the same order gives the same bits, however
/// the additions are split across calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one term.
    pub fn add(&mut self, v: f64) {
        let y = v - self.compensation;
        let t = self.sum + y;
        self.compensation = (t - self.sum) - y;
        self.sum = t;
    }

    /// Current compensated total.
    pub fn value(&self) -> f64 {
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kahan_matches_split_accumulation() {
        let values: Vec<f64> = (0..1000).map(|i| 0.1 + i as f64 * 1e-7).collect();
        let mut all = KahanSum::new();
        for v in &values {
            all.add(*v);
        }
        let mut split = KahanSum::new();
        for v in &values[..400] {
            split.add(*v);
        }
        for v in &values[400..] {
            split.add(*v);
        }
        assert_eq!(all.value().to_bits(), split.value().to_bits());
    }

    #[test]
    fn kahan_beats_naive_on_small_terms() {
        let mut k = KahanSum::new();
        let mut naive = 0.0f64;
        k.add(1e16);
        naive += 1e16;
        for _ in 0..10_000 {
            k.add(1.0);
            naive += 1.0;
        }
        assert!((k.value() - (1e16 + 10_000.0)).abs() <= (naive - (1e16 + 10_000.0)).abs());
        assert_eq!(k.value(), 1e16 + 10_000.0);
    }
}
