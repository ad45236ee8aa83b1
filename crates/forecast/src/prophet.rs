//! The Prophet-style additive time-series model.
//!
//! `y(t) = g(t) + s(t) + ε` — a piecewise-linear trend `g` over
//! automatically placed changepoints plus Fourier seasonalities `s`,
//! fitted jointly by (optionally Huber-robust) ridge-regularised least
//! squares. Like the original, the model:
//!
//! * tolerates missing data (observations are simply rows; gaps need no
//!   imputation),
//! * resists outliers (IRLS down-weights large residuals),
//! * adapts to trend shifts (changepoint deltas),
//! * produces uncertainty intervals that widen with the horizon by
//!   simulating future trend changepoints (Laplace-distributed deltas at
//!   the historical changepoint rate).

use crate::linalg::{ridge_weighted, Matrix};
use crate::seasonality::{total_width, Seasonality};
use crate::trend::{changepoint_locations, eval_trend, trend_features, trend_width, TrendConfig};
use crate::{clean, DataPoint, ForecastError, ForecastPoint, Forecaster};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Prophet model configuration.
#[derive(Debug, Clone)]
pub struct ProphetConfig {
    /// Trend / changepoint settings.
    pub trend: TrendConfig,
    /// Seasonal components. Defaults to daily (order 4) + weekly (order 3),
    /// the components that dominate the paper's "strong seasonality"
    /// topologies.
    pub seasonalities: Vec<Seasonality>,
    /// Central coverage of the uncertainty interval (e.g. `0.9`).
    pub interval_width: f64,
    /// Number of trend simulations used for future uncertainty.
    pub uncertainty_samples: usize,
    /// Enables Huber-robust IRLS fitting.
    pub robust: bool,
    /// RNG seed for the uncertainty simulation (deterministic forecasts).
    pub seed: u64,
}

impl Default for ProphetConfig {
    fn default() -> Self {
        Self {
            trend: TrendConfig::default(),
            seasonalities: vec![Seasonality::daily(4), Seasonality::weekly(3)],
            interval_width: 0.9,
            uncertainty_samples: 200,
            robust: true,
            seed: 42,
        }
    }
}

#[derive(Debug, Clone)]
struct FittedProphet {
    t_start: f64,
    t_scale: f64,
    y_scale: f64,
    changepoints: Vec<f64>,
    /// Trend coefficients followed by seasonal coefficients, on scaled y.
    coeffs: Vec<f64>,
    /// Residual standard deviation on scaled y.
    sigma: f64,
    /// Mean |changepoint delta|: the Laplace scale for simulated future
    /// changepoints.
    delta_scale: f64,
}

/// The Prophet-analog forecaster. See the module docs.
#[derive(Debug, Clone)]
pub struct Prophet {
    config: ProphetConfig,
    fitted: Option<FittedProphet>,
}

impl Prophet {
    /// Creates an unfitted model.
    pub fn new(config: ProphetConfig) -> Self {
        Self {
            config,
            fitted: None,
        }
    }

    /// Creates a model with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ProphetConfig::default())
    }

    /// Borrow of the configuration.
    pub fn config(&self) -> &ProphetConfig {
        &self.config
    }

    /// Appends the design row for `ts` — trend columns, then each
    /// seasonality's — to `out`. Fitting and predicting both build their
    /// rows here, so a column can only ever mean one thing.
    fn push_design_row(
        &self,
        fitted_t: (f64, f64),
        changepoints: &[f64],
        ts: i64,
        out: &mut Vec<f64>,
    ) {
        let (t_start, t_scale) = fitted_t;
        let t = (ts as f64 - t_start) / t_scale;
        trend_features(t, changepoints, out);
        for s in &self.config.seasonalities {
            s.features(ts as f64, out);
        }
    }

    /// Point forecast of the deseasonalised trend component at `ts`,
    /// in original units. Useful for diagnostics.
    pub fn trend_at(&self, ts: i64) -> Result<f64, ForecastError> {
        let f = self
            .fitted
            .as_ref()
            .ok_or(ForecastError::NotEnoughData { needed: 4, got: 0 })?;
        let t = (ts as f64 - f.t_start) / f.t_scale;
        Ok(eval_trend(
            t,
            &f.changepoints,
            &f.coeffs[..trend_width(&f.changepoints)],
        ) * f.y_scale)
    }

    /// Splits the fitted model's point forecast into its additive
    /// components (trend plus each named seasonality) at the given
    /// timestamps — the inspection tool behind "why does the model think
    /// Tuesday 3pm is the peak".
    pub fn decompose(&self, timestamps: &[i64]) -> Result<Vec<Decomposition>, ForecastError> {
        let f = self
            .fitted
            .as_ref()
            .ok_or(ForecastError::NotEnoughData { needed: 4, got: 0 })?;
        let trend_cols = trend_width(&f.changepoints);
        let mut out = Vec::with_capacity(timestamps.len());
        for ts in timestamps {
            let trend = self.trend_at(*ts)?;
            let mut seasonal = Vec::with_capacity(self.config.seasonalities.len());
            let mut col = trend_cols;
            for s in &self.config.seasonalities {
                let mut features = Vec::with_capacity(s.width());
                s.features(*ts as f64, &mut features);
                let contribution: f64 = features
                    .iter()
                    .zip(&f.coeffs[col..col + s.width()])
                    .map(|(x, c)| x * c)
                    .sum();
                seasonal.push((s.name.clone(), contribution * f.y_scale));
                col += s.width();
            }
            out.push(Decomposition {
                ts: *ts,
                trend,
                seasonal,
            });
        }
        Ok(out)
    }
}

/// One timestamp's additive breakdown (original units).
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Timestamp (ms).
    pub ts: i64,
    /// Trend component.
    pub trend: f64,
    /// `(seasonality name, contribution)` in configuration order. The
    /// point forecast is `trend + Σ contributions`.
    pub seasonal: Vec<(String, f64)>,
}

impl Decomposition {
    /// Reassembled point forecast.
    pub fn total(&self) -> f64 {
        self.trend + self.seasonal.iter().map(|(_, v)| v).sum::<f64>()
    }
}

/// Two-sided standard-normal quantile for central coverage `width`,
/// computed with the Acklam rational approximation (|error| < 1.15e-9).
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0, 1)");
    // Coefficients for the Acklam approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// The element a full sort would leave at `len / 2` (the upper median),
/// found by selection. `total_cmp` orders the non-negative residuals it
/// is given exactly as `<` does, and puts a NaN last instead of
/// panicking.
fn upper_median(values: &mut [f64]) -> f64 {
    let mid = values.len() / 2;
    *values.select_nth_unstable_by(mid, f64::total_cmp).1
}

fn laplace_sample(rng: &mut StdRng, scale: f64) -> f64 {
    let u: f64 = rng.random_range(-0.5..0.5);
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

impl Forecaster for Prophet {
    fn fit(&mut self, history: &[DataPoint]) -> Result<(), ForecastError> {
        let mut data = clean(history);
        data.sort_by_key(|p| p.ts);
        let needed = 4;
        if data.len() < needed {
            return Err(ForecastError::NotEnoughData {
                needed,
                got: data.len(),
            });
        }
        if !(0.0..1.0).contains(&self.config.interval_width.abs()) {
            return Err(ForecastError::InvalidParameter(format!(
                "interval_width must be in (0, 1), got {}",
                self.config.interval_width
            )));
        }

        let t_start = data.first().expect("non-empty").ts as f64;
        let t_end = data.last().expect("non-empty").ts as f64;
        let t_scale = (t_end - t_start).max(1.0);
        let y_abs_max = data.iter().map(|p| p.y.abs()).fold(0.0, f64::max);
        let y_scale = if y_abs_max > 0.0 { y_abs_max } else { 1.0 };

        let changepoints = changepoint_locations(&self.config.trend, data.len());
        let n_cols = trend_width(&changepoints) + total_width(&self.config.seasonalities);

        let mut rows = Vec::with_capacity(data.len() * n_cols);
        for p in &data {
            self.push_design_row((t_start, t_scale), &changepoints, p.ts, &mut rows);
        }
        let design = Matrix::from_rows(data.len(), n_cols, rows);
        let y: Vec<f64> = data.iter().map(|p| p.y / y_scale).collect();

        let mut penalties = vec![0.0; n_cols];
        for p in penalties
            .iter_mut()
            .take(trend_width(&changepoints))
            .skip(2)
        {
            *p = self.config.trend.delta_penalty;
        }
        let mut col = trend_width(&changepoints);
        for s in &self.config.seasonalities {
            for p in penalties.iter_mut().skip(col).take(s.width()) {
                *p = s.penalty;
            }
            col += s.width();
        }

        // IRLS with Huber weights; the first pass is unweighted.
        let mut weights: Option<Vec<f64>> = None;
        let mut coeffs = Vec::new();
        let iterations = if self.config.robust { 6 } else { 1 };
        for _ in 0..iterations {
            coeffs = ridge_weighted(&design, &y, weights.as_deref(), &penalties)?;
            if !self.config.robust {
                break;
            }
            let fitted = design.mul_vec(&coeffs);
            let mut abs_res: Vec<f64> = y.iter().zip(&fitted).map(|(a, b)| (a - b).abs()).collect();
            let mad = upper_median(&mut abs_res);
            if !mad.is_finite() {
                // A non-finite residual scale would turn every weight
                // into NaN or zero: the solve has already gone wrong.
                return Err(ForecastError::SingularSystem);
            }
            let sigma = 1.4826 * mad.max(1e-12);
            const HUBER_C: f64 = 1.345;
            weights = Some(
                y.iter()
                    .zip(&fitted)
                    .map(|(a, b)| {
                        let r = (a - b).abs() / sigma;
                        if r <= HUBER_C {
                            1.0
                        } else {
                            HUBER_C / r
                        }
                    })
                    .collect(),
            );
        }

        let fitted_vals = design.mul_vec(&coeffs);
        let residual_var = y
            .iter()
            .zip(&fitted_vals)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / (y.len().saturating_sub(1).max(1)) as f64;
        let deltas = &coeffs[2..trend_width(&changepoints)];
        let delta_scale = if deltas.is_empty() {
            0.0
        } else {
            deltas.iter().map(|d| d.abs()).sum::<f64>() / deltas.len() as f64
        };

        self.fitted = Some(FittedProphet {
            t_start,
            t_scale,
            y_scale,
            changepoints,
            coeffs,
            sigma: residual_var.sqrt(),
            delta_scale,
        });
        Ok(())
    }

    fn predict(&self, timestamps: &[i64]) -> Result<Vec<ForecastPoint>, ForecastError> {
        let f = self
            .fitted
            .as_ref()
            .ok_or(ForecastError::NotEnoughData { needed: 4, got: 0 })?;
        let z = normal_quantile(0.5 + self.config.interval_width / 2.0);
        let n_cp = f.changepoints.len().max(1) as f64;

        // Pre-simulate future trend deviations once per sample so that the
        // per-timestamp work is a dot product.
        let t_norms: Vec<f64> = timestamps
            .iter()
            .map(|ts| (*ts as f64 - f.t_start) / f.t_scale)
            .collect();
        let max_t = t_norms.iter().copied().fold(1.0, f64::max);
        let mut deviations: Vec<Vec<(f64, f64)>> = Vec::new(); // per sample: (s_j, delta_j)
        if max_t > 1.0 && f.delta_scale > 0.0 && self.config.uncertainty_samples > 0 {
            let mut rng = StdRng::seed_from_u64(self.config.seed);
            let rate = n_cp / self.config.trend.changepoint_range.max(1e-9);
            let horizon = max_t - 1.0;
            let expected = rate * horizon;
            for _ in 0..self.config.uncertainty_samples {
                // Poisson(expected) via Knuth; expected is small (<~ 30).
                let threshold = (-expected).exp();
                let mut k = 0usize;
                let mut prod: f64 = 1.0;
                loop {
                    prod *= rng.random_range(0.0..1.0f64);
                    if prod <= threshold {
                        break;
                    }
                    k += 1;
                    if k > 10_000 {
                        break;
                    }
                }
                let cps: Vec<(f64, f64)> = (0..k)
                    .map(|_| {
                        (
                            rng.random_range(1.0..1.0 + horizon.max(1e-9)),
                            laplace_sample(&mut rng, f.delta_scale),
                        )
                    })
                    .collect();
                deviations.push(cps);
            }
        }

        let mut out = Vec::with_capacity(timestamps.len());
        let mut row = Vec::with_capacity(f.coeffs.len());
        for (i, ts) in timestamps.iter().enumerate() {
            row.clear();
            self.push_design_row((f.t_start, f.t_scale), &f.changepoints, *ts, &mut row);
            let yhat_scaled: f64 = row.iter().zip(&f.coeffs).map(|(a, b)| a * b).sum();
            let t = t_norms[i];

            // Trend uncertainty: spread of simulated future-changepoint
            // deviations at this horizon.
            let trend_sd = if t > 1.0 && !deviations.is_empty() {
                let devs: Vec<f64> = deviations
                    .iter()
                    .map(|cps| cps.iter().map(|(s, d)| d * (t - s).max(0.0)).sum::<f64>())
                    .collect();
                let mean = devs.iter().sum::<f64>() / devs.len() as f64;
                (devs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / devs.len() as f64)
                    .sqrt()
            } else {
                0.0
            };
            let sd = (f.sigma * f.sigma + trend_sd * trend_sd).sqrt();
            out.push(ForecastPoint {
                ts: *ts,
                yhat: yhat_scaled * f.y_scale,
                lower: (yhat_scaled - z * sd) * f.y_scale,
                upper: (yhat_scaled + z * sd) * f.y_scale,
            });
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "prophet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future_timestamps;
    use proptest::strategy::Strategy;

    const MINUTE: i64 = 60_000;
    const HOUR: i64 = 3_600_000;
    const DAY: i64 = 86_400_000;

    fn linear_series(n: i64, slope_per_min: f64) -> Vec<DataPoint> {
        (0..n)
            .map(|i| DataPoint::new(i * MINUTE, 100.0 + slope_per_min * i as f64))
            .collect()
    }

    fn no_seasonality() -> ProphetConfig {
        ProphetConfig {
            seasonalities: Vec::new(),
            ..ProphetConfig::default()
        }
    }

    #[test]
    fn recovers_linear_trend() {
        let mut m = Prophet::new(no_seasonality());
        let hist = linear_series(200, 2.0);
        m.fit(&hist).unwrap();
        let fut = future_timestamps(&hist, 10, MINUTE);
        let pred = m.predict(&fut).unwrap();
        for (i, p) in pred.iter().enumerate() {
            let expected = 100.0 + 2.0 * (200 + i as i64) as f64;
            assert!(
                (p.yhat - expected).abs() / expected < 0.02,
                "t+{i}: predicted {} expected {expected}",
                p.yhat
            );
        }
    }

    #[test]
    fn recovers_daily_seasonality() {
        // 14 days of hourly data with a clear daily cycle.
        let hist: Vec<DataPoint> = (0..14 * 24)
            .map(|h| {
                let ts = h * HOUR;
                let phase = std::f64::consts::TAU * (h % 24) as f64 / 24.0;
                DataPoint::new(ts, 1000.0 + 300.0 * phase.sin())
            })
            .collect();
        let cfg = ProphetConfig {
            seasonalities: vec![Seasonality::daily(4)],
            ..ProphetConfig::default()
        };
        let mut m = Prophet::new(cfg);
        m.fit(&hist).unwrap();
        let fut = future_timestamps(&hist, 48, HOUR);
        let pred = m.predict(&fut).unwrap();
        for (i, p) in pred.iter().enumerate() {
            let h = 14 * 24 + i as i64;
            let expected = 1000.0 + 300.0 * (std::f64::consts::TAU * (h % 24) as f64 / 24.0).sin();
            assert!(
                (p.yhat - expected).abs() < 60.0,
                "h+{i}: predicted {:.1} expected {expected:.1}",
                p.yhat
            );
        }
    }

    #[test]
    fn adapts_to_trend_changepoint() {
        // Flat for 150 minutes, then rising at 5/minute.
        let hist: Vec<DataPoint> = (0..300)
            .map(|i| {
                let y = if i < 150 {
                    500.0
                } else {
                    500.0 + 5.0 * (i - 150) as f64
                };
                DataPoint::new(i * MINUTE, y)
            })
            .collect();
        let mut cfg = no_seasonality();
        cfg.trend.delta_penalty = 0.1; // allow the trend to bend
        let mut m = Prophet::new(cfg);
        m.fit(&hist).unwrap();
        let fut = future_timestamps(&hist, 5, MINUTE);
        let pred = m.predict(&fut).unwrap();
        // Must extrapolate the NEW slope, not the average slope.
        let expected_last = 500.0 + 5.0 * (304 - 150) as f64;
        assert!(
            (pred[4].yhat - expected_last).abs() / expected_last < 0.1,
            "predicted {:.1}, expected {expected_last:.1}",
            pred[4].yhat
        );
    }

    #[test]
    fn robust_to_outliers() {
        let mut hist = linear_series(200, 1.0);
        hist[50].y = 1e5;
        hist[120].y = -1e5;
        let mut robust = Prophet::new(no_seasonality());
        robust.fit(&hist).unwrap();
        let fut = future_timestamps(&hist, 1, MINUTE);
        let p = robust.predict(&fut).unwrap()[0];
        let expected = 100.0 + 200.0;
        assert!(
            (p.yhat - expected).abs() / expected < 0.05,
            "robust fit off: {} vs {expected}",
            p.yhat
        );
    }

    #[test]
    fn tolerates_missing_data() {
        // Drop a third of the observations and insert NaNs.
        let mut hist: Vec<DataPoint> = linear_series(300, 2.0)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, p)| p)
            .collect();
        hist.push(DataPoint::new(301 * MINUTE, f64::NAN));
        let mut m = Prophet::new(no_seasonality());
        m.fit(&hist).unwrap();
        let pred = m.predict(&[310 * MINUTE]).unwrap()[0];
        let expected = 100.0 + 2.0 * 310.0;
        assert!((pred.yhat - expected).abs() / expected < 0.03);
    }

    #[test]
    fn intervals_widen_with_horizon() {
        let hist: Vec<DataPoint> = (0..500)
            .map(|i| DataPoint::new(i * MINUTE, 1000.0 + (i % 7) as f64 * 3.0))
            .collect();
        let mut m = Prophet::new(no_seasonality());
        m.fit(&hist).unwrap();
        let near = m.predict(&[510 * MINUTE]).unwrap()[0];
        let far = m.predict(&[2000 * MINUTE]).unwrap()[0];
        let near_width = near.upper - near.lower;
        let far_width = far.upper - far.lower;
        assert!(
            far_width > near_width,
            "far interval ({far_width}) must be wider than near ({near_width})"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let hist = linear_series(100, 1.5);
        let mut a = Prophet::new(no_seasonality());
        let mut b = Prophet::new(no_seasonality());
        a.fit(&hist).unwrap();
        b.fit(&hist).unwrap();
        let ts = [150 * MINUTE, 300 * MINUTE];
        assert_eq!(a.predict(&ts).unwrap(), b.predict(&ts).unwrap());
    }

    /// `Prophet::fit` as it stood before the fit was made cheaper: every
    /// design row its own `Vec`, the normal equations through the indexed
    /// reference kernels, the MAD read off a full sort.
    fn reference_fit(config: &ProphetConfig, history: &[DataPoint]) -> FittedProphet {
        use crate::linalg::{reference, solve_spd};
        let mut data = clean(history);
        data.sort_by_key(|p| p.ts);
        let t_start = data[0].ts as f64;
        let t_scale = (data[data.len() - 1].ts as f64 - t_start).max(1.0);
        let y_scale = data.iter().map(|p| p.y.abs()).fold(0.0, f64::max);
        let changepoints = changepoint_locations(&config.trend, data.len());
        let trend_cols = trend_width(&changepoints);
        let n_cols = trend_cols + total_width(&config.seasonalities);
        let mut rows = Vec::new();
        for p in &data {
            let mut row = Vec::new();
            trend_features((p.ts as f64 - t_start) / t_scale, &changepoints, &mut row);
            for s in &config.seasonalities {
                s.features(p.ts as f64, &mut row);
            }
            rows.extend(row);
        }
        let design = Matrix::from_rows(data.len(), n_cols, rows);
        let y: Vec<f64> = data.iter().map(|p| p.y / y_scale).collect();
        let mut penalties = vec![0.0; n_cols];
        penalties[2..trend_cols].fill(config.trend.delta_penalty);
        let mut col = trend_cols;
        for s in &config.seasonalities {
            penalties[col..col + s.width()].fill(s.penalty);
            col += s.width();
        }
        let mut weights: Option<Vec<f64>> = None;
        let mut coeffs = Vec::new();
        for _ in 0..6 {
            let mut gram = reference::gram_weighted(&design, weights.as_deref());
            for (i, p) in penalties.iter().enumerate() {
                gram[(i, i)] += p;
            }
            let rhs = reference::tr_mul_vec_weighted(&design, &y, weights.as_deref());
            coeffs = solve_spd(&gram, &rhs).unwrap();
            let fitted = reference::mul_vec(&design, &coeffs);
            let mut abs_res: Vec<f64> = y.iter().zip(&fitted).map(|(a, b)| (a - b).abs()).collect();
            abs_res.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let sigma = 1.4826 * abs_res[abs_res.len() / 2].max(1e-12);
            weights = Some(
                y.iter()
                    .zip(&fitted)
                    .map(|(a, b)| {
                        let r = (a - b).abs() / sigma;
                        if r <= 1.345 {
                            1.0
                        } else {
                            1.345 / r
                        }
                    })
                    .collect(),
            );
        }
        let fitted = reference::mul_vec(&design, &coeffs);
        let residual_var = y
            .iter()
            .zip(&fitted)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / (y.len() - 1) as f64;
        let deltas = &coeffs[2..trend_cols];
        let delta_scale = deltas.iter().map(|d| d.abs()).sum::<f64>() / deltas.len() as f64;
        FittedProphet {
            t_start,
            t_scale,
            y_scale,
            changepoints,
            coeffs,
            sigma: residual_var.sqrt(),
            delta_scale,
        }
    }

    #[test]
    fn fit_equals_the_reference_fit_bit_for_bit() {
        // The service's shape: one day of minutes, diurnal, noisy, with
        // spikes and dips large enough for the Huber weights to bite.
        let mut noise = 0x2545_f491_4f6c_dd1du64;
        let history: Vec<DataPoint> = (0..1440)
            .map(|i| {
                noise ^= noise << 13;
                noise ^= noise >> 7;
                noise ^= noise << 17;
                let jitter = (noise >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                let phase = std::f64::consts::TAU * i as f64 / 1440.0;
                let spike = match i % 97 {
                    0 => 3.0,
                    50 => 0.2,
                    _ => 1.0,
                };
                let y = 1.0e6 * (1.0 + 0.4 * phase.sin() + 0.1 * jitter) * spike;
                DataPoint::new(1_700_000_000_000 + i * MINUTE, y)
            })
            .collect();
        let mut m = Prophet::with_defaults();
        m.fit(&history).unwrap();
        let reference = reference_fit(m.config(), &history);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let fitted = m.fitted.as_ref().unwrap();
        assert_eq!(bits(&fitted.coeffs), bits(&reference.coeffs));
        assert_eq!(fitted.sigma.to_bits(), reference.sigma.to_bits());
        assert_eq!(
            fitted.delta_scale.to_bits(),
            reference.delta_scale.to_bits()
        );

        // And so the forecast a caller sees is the same, interval and all.
        let horizon = future_timestamps(&history, 60, MINUTE);
        let served = m.predict(&horizon).unwrap();
        let expected = Prophet {
            config: m.config().clone(),
            fitted: Some(reference),
        }
        .predict(&horizon)
        .unwrap();
        for (a, b) in served.iter().zip(&expected) {
            assert_eq!(
                (a.ts, a.yhat.to_bits(), a.lower.to_bits(), a.upper.to_bits()),
                (b.ts, b.yhat.to_bits(), b.lower.to_bits(), b.upper.to_bits())
            );
        }
    }

    proptest::proptest! {
        /// Selection finds the element a full sort leaves at `len / 2`,
        /// ties and all.
        #[test]
        fn upper_median_is_the_sorted_middle(
            residuals in proptest::collection::vec(
                proptest::prop_oneof![(0u32..8).prop_map(|v| f64::from(v) / 4.0), 0.0f64..2.0],
                1..200usize,
            ),
        ) {
            let mut sorted = residuals.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut residuals = residuals;
            assert_eq!(
                upper_median(&mut residuals).to_bits(),
                sorted[sorted.len() / 2].to_bits()
            );
        }
    }

    #[test]
    fn a_nan_residual_orders_last_instead_of_panicking() {
        // `partial_cmp(..).expect(..)` panicked here; `fit` turns the NaN
        // median this yields into `SingularSystem`.
        let mut mostly_nan = [0.5, f64::NAN, f64::NAN, 0.1];
        assert!(upper_median(&mut mostly_nan).is_nan());
        let mut one_nan = [0.5, f64::NAN, 0.25, 0.1];
        assert_eq!(upper_median(&mut one_nan), 0.5);
    }

    #[test]
    fn too_few_points_errors() {
        let mut m = Prophet::with_defaults();
        let err = m.fit(&linear_series(3, 1.0)).unwrap_err();
        assert_eq!(err, ForecastError::NotEnoughData { needed: 4, got: 3 });
    }

    #[test]
    fn predict_before_fit_errors() {
        let m = Prophet::with_defaults();
        assert!(m.predict(&[0]).is_err());
    }

    #[test]
    fn invalid_interval_width_rejected() {
        let cfg = ProphetConfig {
            interval_width: 1.5,
            ..ProphetConfig::default()
        };
        let mut m = Prophet::new(cfg);
        assert!(matches!(
            m.fit(&linear_series(100, 1.0)),
            Err(ForecastError::InvalidParameter(_))
        ));
    }

    #[test]
    fn unsorted_history_is_sorted_internally() {
        let mut hist = linear_series(100, 2.0);
        hist.reverse();
        let mut m = Prophet::new(no_seasonality());
        m.fit(&hist).unwrap();
        let pred = m.predict(&[120 * MINUTE]).unwrap()[0];
        let expected = 100.0 + 2.0 * 120.0;
        assert!((pred.yhat - expected).abs() / expected < 0.05);
    }

    #[test]
    fn trend_at_reports_deseasonalised_level() {
        let hist = linear_series(100, 1.0);
        let mut m = Prophet::new(no_seasonality());
        m.fit(&hist).unwrap();
        let trend = m.trend_at(50 * MINUTE).unwrap();
        assert!((trend - 150.0).abs() < 5.0);
    }

    #[test]
    fn decomposition_sums_to_forecast() {
        let hist: Vec<DataPoint> = (0..14 * 24)
            .map(|h| {
                let phase = std::f64::consts::TAU * (h % 24) as f64 / 24.0;
                DataPoint::new(h * HOUR, 1000.0 + 5.0 * h as f64 + 200.0 * phase.sin())
            })
            .collect();
        let cfg = ProphetConfig {
            seasonalities: vec![Seasonality::daily(4)],
            uncertainty_samples: 0,
            ..ProphetConfig::default()
        };
        let mut m = Prophet::new(cfg);
        m.fit(&hist).unwrap();
        let ts: Vec<i64> = (14 * 24..14 * 24 + 12).map(|h| h * HOUR).collect();
        let forecasts = m.predict(&ts).unwrap();
        let parts = m.decompose(&ts).unwrap();
        assert_eq!(parts.len(), 12);
        for (f, d) in forecasts.iter().zip(&parts) {
            assert_eq!(f.ts, d.ts);
            assert!(
                (d.total() - f.yhat).abs() < 1e-6 * f.yhat.abs().max(1.0),
                "decomposition must reassemble the forecast: {} vs {}",
                d.total(),
                f.yhat
            );
            assert_eq!(d.seasonal.len(), 1);
            assert_eq!(d.seasonal[0].0, "daily");
        }
        // The daily component actually carries the cycle: its amplitude
        // over a day is near the true 2x200.
        let day: Vec<f64> = m
            .decompose(&(0..24).map(|h| (14 * 24 + h) * HOUR).collect::<Vec<_>>())
            .unwrap()
            .iter()
            .map(|d| d.seasonal[0].1)
            .collect();
        let amplitude = day.iter().cloned().fold(f64::MIN, f64::max)
            - day.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            (amplitude - 400.0).abs() < 60.0,
            "daily amplitude {amplitude}"
        );
    }

    #[test]
    fn decompose_before_fit_errors() {
        let m = Prophet::with_defaults();
        assert!(m.decompose(&[0]).is_err());
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.95) - 1.644854).abs() < 1e-4);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.001) + 3.090232).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "in (0, 1)")]
    fn normal_quantile_rejects_bounds() {
        normal_quantile(0.0);
    }

    #[test]
    fn constant_series_predicts_constant() {
        let hist: Vec<DataPoint> = (0..100)
            .map(|i| DataPoint::new(i * MINUTE, 777.0))
            .collect();
        let mut m = Prophet::new(no_seasonality());
        m.fit(&hist).unwrap();
        let p = m.predict(&[200 * MINUTE]).unwrap()[0];
        assert!((p.yhat - 777.0).abs() < 1.0);
        assert!(p.lower <= p.yhat && p.yhat <= p.upper);
    }

    #[test]
    fn diurnal_plus_weekly_combined() {
        // 4 weeks of hourly data: weekday/weekend level shift + daily cycle.
        let hist: Vec<DataPoint> = (0..28 * 24)
            .map(|h| {
                let day = (h / 24) % 7;
                let weekend = if day >= 5 { -200.0 } else { 0.0 };
                let daily = 250.0 * (std::f64::consts::TAU * (h % 24) as f64 / 24.0).sin();
                DataPoint::new(h * HOUR, 1000.0 + weekend + daily)
            })
            .collect();
        let mut m = Prophet::with_defaults();
        m.fit(&hist).unwrap();
        // Predict the next Monday noon vs the next Saturday noon.
        let monday_noon = 28 * DAY + 12 * HOUR;
        let saturday_noon = 33 * DAY + 12 * HOUR;
        let pred = m.predict(&[monday_noon, saturday_noon]).unwrap();
        assert!(
            pred[0].yhat - pred[1].yhat > 100.0,
            "weekday ({:.0}) must sit well above weekend ({:.0})",
            pred[0].yhat,
            pred[1].yhat
        );
    }
}
