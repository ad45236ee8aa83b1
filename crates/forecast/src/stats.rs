//! The "statistics summary" traffic model.
//!
//! For topologies with stable traffic the paper notes that "a simple
//! statistical summary (mean, median, etc.) of a given period of historic
//! data may be sufficient for a reasonable forecast" (§IV-A). This model
//! forecasts a constant level (the chosen statistic of the training
//! window) with quantile-based uncertainty bounds.

use crate::streaming::KahanSum;
use crate::{clean, DataPoint, ForecastError, ForecastPoint, Forecaster};

/// Which statistic of the history becomes the point forecast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SummaryStatistic {
    /// Arithmetic mean.
    Mean,
    /// Median.
    Median,
    /// Arbitrary quantile in `[0, 1]` — e.g. `0.95` for conservative
    /// capacity planning.
    Quantile(f64),
}

/// Statistics-summary forecaster; see the module docs.
#[derive(Debug, Clone)]
pub struct StatsSummaryModel {
    statistic: SummaryStatistic,
    /// Central coverage of the uncertainty interval.
    interval_width: f64,
    stats: Option<SummaryStats>,
    fitted: Option<FittedSummary>,
}

#[derive(Debug, Clone, Copy)]
struct FittedSummary {
    level: f64,
    lower: f64,
    upper: f64,
}

/// Streaming moment/order statistics: a compensated mean accumulator
/// (pushed in timestamp order, so `fit` and `update` sums are bitwise
/// identical) plus a maintained sorted-value vector for quantiles.
#[derive(Debug, Clone)]
struct SummaryStats {
    sum: KahanSum,
    n: usize,
    /// All values, sorted ascending; new values binary-insert in O(log n)
    /// search + shift.
    sorted: Vec<f64>,
    last_ts: i64,
}

impl SummaryStats {
    fn push_sum(&mut self, ts: i64, y: f64) {
        self.sum.add(y);
        self.n += 1;
        self.last_ts = ts;
    }

    fn insert_sorted(&mut self, y: f64) {
        let idx = self.sorted.partition_point(|v| *v < y);
        self.sorted.insert(idx, y);
    }
}

impl StatsSummaryModel {
    /// Creates a model forecasting `statistic` with `interval_width`
    /// central quantile coverage (e.g. `0.9`).
    pub fn new(statistic: SummaryStatistic, interval_width: f64) -> Self {
        Self {
            statistic,
            interval_width,
            stats: None,
            fitted: None,
        }
    }

    /// Rebuilds the fitted summary from the accumulated statistics.
    fn refresh(&mut self) {
        let stats = self.stats.as_ref().expect("refresh requires stats");
        let level = match self.statistic {
            SummaryStatistic::Mean => stats.sum.value() / stats.n as f64,
            SummaryStatistic::Median => quantile(&stats.sorted, 0.5),
            SummaryStatistic::Quantile(q) => quantile(&stats.sorted, q),
        };
        let tail = (1.0 - self.interval_width) / 2.0;
        self.fitted = Some(FittedSummary {
            level,
            lower: quantile(&stats.sorted, tail),
            upper: quantile(&stats.sorted, 1.0 - tail),
        });
    }

    /// Absorbs points observed after the fitted history into the
    /// streaming sums, and afterwards predicts bitwise as if
    /// [`Forecaster::fit`] had been run over the extended history.
    /// `Ok(false)` leaves the model untouched: it was never fitted, or
    /// the points are not strictly newer than the fitted history.
    ///
    /// Nothing in the service calls this: its forecasters are refitted
    /// over the training window. It stays only because the benchmark's
    /// `forecast.stats_summary_update` probe times it; once that probe
    /// goes, so do this method and `SummaryStats`.
    pub fn update(&mut self, new_points: &[DataPoint]) -> Result<bool, ForecastError> {
        let Some(stats) = self.stats.as_mut() else {
            return Ok(false);
        };
        let mut pts = clean(new_points);
        pts.sort_by_key(|p| p.ts);
        if pts.is_empty() {
            return Ok(true);
        }
        if pts[0].ts <= stats.last_ts {
            return Ok(false);
        }
        for p in &pts {
            stats.push_sum(p.ts, p.y);
            stats.insert_sorted(p.y);
        }
        self.refresh();
        Ok(true)
    }

    /// Mean forecast with a 90 % interval.
    pub fn mean() -> Self {
        Self::new(SummaryStatistic::Mean, 0.9)
    }

    /// Median forecast with a 90 % interval.
    pub fn median() -> Self {
        Self::new(SummaryStatistic::Median, 0.9)
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }
}

impl Forecaster for StatsSummaryModel {
    fn fit(&mut self, history: &[DataPoint]) -> Result<(), ForecastError> {
        let data = clean(history);
        if data.is_empty() {
            return Err(ForecastError::NotEnoughData { needed: 1, got: 0 });
        }
        if !(0.0..1.0).contains(&self.interval_width) {
            return Err(ForecastError::InvalidParameter(format!(
                "interval_width must be in [0, 1), got {}",
                self.interval_width
            )));
        }
        if let SummaryStatistic::Quantile(q) = self.statistic {
            if !(0.0..=1.0).contains(&q) {
                return Err(ForecastError::InvalidParameter(format!(
                    "quantile must be in [0, 1], got {q}"
                )));
            }
        }
        // Accumulate the mean in timestamp order — the same order
        // `update` sees the points in — so the two sums are bitwise
        // identical.
        let mut data = data;
        data.sort_by_key(|p| p.ts);
        let mut sorted: Vec<f64> = data.iter().map(|p| p.y).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("cleaned values are finite"));
        let mut stats = SummaryStats {
            sum: KahanSum::new(),
            n: 0,
            sorted,
            last_ts: 0,
        };
        for p in &data {
            stats.push_sum(p.ts, p.y);
        }
        self.stats = Some(stats);
        self.refresh();
        Ok(())
    }

    fn predict(&self, timestamps: &[i64]) -> Result<Vec<ForecastPoint>, ForecastError> {
        let f = self
            .fitted
            .ok_or(ForecastError::NotEnoughData { needed: 1, got: 0 })?;
        Ok(timestamps
            .iter()
            .map(|ts| ForecastPoint {
                ts: *ts,
                yhat: f.level,
                lower: f.lower,
                upper: f.upper,
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "stats_summary"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> Vec<DataPoint> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| DataPoint::new(i as i64 * 60_000, *v))
            .collect()
    }

    #[test]
    fn mean_forecast_is_flat() {
        let mut m = StatsSummaryModel::mean();
        m.fit(&series(&[10.0, 20.0, 30.0])).unwrap();
        let pred = m.predict(&[1_000_000, 2_000_000]).unwrap();
        assert_eq!(pred[0].yhat, 20.0);
        assert_eq!(pred[1].yhat, 20.0);
        assert_eq!(pred[0].ts, 1_000_000);
    }

    #[test]
    fn median_ignores_skew() {
        let mut m = StatsSummaryModel::median();
        m.fit(&series(&[1.0, 2.0, 3.0, 1000.0])).unwrap();
        assert_eq!(m.predict(&[0]).unwrap()[0].yhat, 2.5);
    }

    #[test]
    fn quantile_statistic() {
        let mut m = StatsSummaryModel::new(SummaryStatistic::Quantile(1.0), 0.9);
        m.fit(&series(&[5.0, 1.0, 9.0])).unwrap();
        assert_eq!(m.predict(&[0]).unwrap()[0].yhat, 9.0);
    }

    #[test]
    fn interval_bounds_from_quantiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut m = StatsSummaryModel::new(SummaryStatistic::Mean, 0.8);
        m.fit(&series(&values)).unwrap();
        let p = m.predict(&[0]).unwrap()[0];
        assert!((p.lower - 10.9).abs() < 0.5);
        assert!((p.upper - 90.1).abs() < 0.5);
        assert!(p.lower < p.yhat && p.yhat < p.upper);
    }

    #[test]
    fn nan_values_skipped() {
        let mut m = StatsSummaryModel::mean();
        m.fit(&series(&[10.0, f64::NAN, 20.0])).unwrap();
        assert_eq!(m.predict(&[0]).unwrap()[0].yhat, 15.0);
    }

    #[test]
    fn empty_history_errors() {
        let mut m = StatsSummaryModel::mean();
        assert!(matches!(
            m.fit(&[]),
            Err(ForecastError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn invalid_params_rejected() {
        let mut m = StatsSummaryModel::new(SummaryStatistic::Quantile(1.5), 0.9);
        assert!(matches!(
            m.fit(&series(&[1.0])),
            Err(ForecastError::InvalidParameter(_))
        ));
        let mut m = StatsSummaryModel::new(SummaryStatistic::Mean, 1.0);
        assert!(matches!(
            m.fit(&series(&[1.0])),
            Err(ForecastError::InvalidParameter(_))
        ));
    }

    #[test]
    fn predict_before_fit_errors() {
        let m = StatsSummaryModel::mean();
        assert!(m.predict(&[0]).is_err());
    }

    #[test]
    fn incremental_update_matches_batch_exactly() {
        let values: Vec<f64> = (0..500)
            .map(|i| 100.0 + ((i * 2654435761u64 as usize) % 97) as f64 * 0.37)
            .collect();
        let hist = series(&values);
        for statistic in [
            SummaryStatistic::Mean,
            SummaryStatistic::Median,
            SummaryStatistic::Quantile(0.95),
        ] {
            for split in [1, 250, 499] {
                let mut incremental = StatsSummaryModel::new(statistic, 0.8);
                incremental.fit(&hist[..split]).unwrap();
                assert!(incremental.update(&hist[split..]).unwrap());
                let mut batch = StatsSummaryModel::new(statistic, 0.8);
                batch.fit(&hist).unwrap();
                let (fi, fb) = (incremental.fitted.unwrap(), batch.fitted.unwrap());
                assert_eq!(fi.level.to_bits(), fb.level.to_bits(), "split {split}");
                assert_eq!(fi.lower.to_bits(), fb.lower.to_bits(), "split {split}");
                assert_eq!(fi.upper.to_bits(), fb.upper.to_bits(), "split {split}");
            }
        }
    }

    #[test]
    fn update_fallbacks() {
        let mut m = StatsSummaryModel::mean();
        assert!(!m.update(&[DataPoint::new(0, 1.0)]).unwrap());
        m.fit(&series(&[1.0, 2.0, 3.0])).unwrap();
        // Not strictly newer than the fitted history → refuse.
        assert!(!m.update(&[DataPoint::new(60_000, 9.0)]).unwrap());
        assert_eq!(m.predict(&[0]).unwrap()[0].yhat, 2.0);
        // Strictly newer → absorbed.
        assert!(m.update(&[DataPoint::new(180_000, 6.0)]).unwrap());
        assert_eq!(m.predict(&[0]).unwrap()[0].yhat, 3.0);
    }
}
