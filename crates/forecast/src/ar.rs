//! Autoregressive AR(p) baseline, fitted with Yule-Walker equations via
//! the Levinson-Durbin recursion — one of the classical network-traffic
//! predictors the paper's related-work section cites (ARIMA family).
//!
//! A fit is a function of the history it is given: the mean, the sample
//! autocovariances γ₀..γₚ of the demeaned series, Levinson-Durbin over
//! them, and the sampling step as the median gap.

use crate::{clean, DataPoint, ForecastError, ForecastPoint, Forecaster};

/// AR(p) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArConfig {
    /// Model order (number of lags).
    pub order: usize,
    /// Central coverage of the uncertainty interval.
    pub interval_width: f64,
}

/// The AR(p) forecaster; see the module docs.
#[derive(Debug, Clone)]
pub struct ArModel {
    config: ArConfig,
    fitted: Option<FittedAr>,
}

#[derive(Debug, Clone)]
struct FittedAr {
    mean: f64,
    /// AR coefficients φ₁..φₚ.
    phi: Vec<f64>,
    /// Innovation standard deviation.
    sigma: f64,
    /// The last `p` demeaned observations, newest last.
    tail: Vec<f64>,
    last_ts: i64,
    step_ms: i64,
}

impl ArModel {
    /// Creates an AR(p) model.
    pub fn new(order: usize, interval_width: f64) -> Self {
        Self {
            config: ArConfig {
                order,
                interval_width,
            },
            fitted: None,
        }
    }

    /// Levinson-Durbin recursion: solves the Yule-Walker system, returning
    /// `(phi, innovation variance)`.
    fn levinson_durbin(gamma: &[f64]) -> Option<(Vec<f64>, f64)> {
        let p = gamma.len() - 1;
        if gamma[0] <= 0.0 {
            return None; // zero-variance series
        }
        let mut phi = vec![0.0; p];
        let mut prev = vec![0.0; p];
        let mut err = gamma[0];
        for k in 0..p {
            let mut acc = gamma[k + 1];
            for j in 0..k {
                acc -= prev[j] * gamma[k - j];
            }
            let reflection = acc / err;
            phi[k] = reflection;
            for j in 0..k {
                phi[j] = prev[j] - reflection * prev[k - 1 - j];
            }
            err *= 1.0 - reflection * reflection;
            if err <= 0.0 {
                err = f64::EPSILON;
            }
            prev[..=k].copy_from_slice(&phi[..=k]);
        }
        Some((phi, err))
    }
}

impl Forecaster for ArModel {
    fn fit(&mut self, history: &[DataPoint]) -> Result<(), ForecastError> {
        if self.config.order == 0 {
            return Err(ForecastError::InvalidParameter("order must be >= 1".into()));
        }
        let mut data = clean(history);
        data.sort_by_key(|p| p.ts);
        let p = self.config.order;
        let needed = p * 3 + 1;
        if data.len() < needed {
            return Err(ForecastError::NotEnoughData {
                needed,
                got: data.len(),
            });
        }
        let n = data.len() as f64;
        let mean = data.iter().map(|d| d.y).sum::<f64>() / n;
        let centred: Vec<f64> = data.iter().map(|d| d.y - mean).collect();
        let gamma: Vec<f64> = (0..=p)
            .map(|lag| {
                let products = centred[lag..].iter().zip(&centred).map(|(a, b)| a * b);
                products.sum::<f64>() / n
            })
            .collect();
        let (phi, var) = Self::levinson_durbin(&gamma).unwrap_or((vec![0.0; p], 0.0));
        let mut gaps: Vec<i64> = data
            .windows(2)
            .map(|w| w[1].ts - w[0].ts)
            .filter(|gap| *gap > 0)
            .collect();
        gaps.sort_unstable();
        self.fitted = Some(FittedAr {
            mean,
            phi,
            sigma: var.max(0.0).sqrt(),
            tail: centred[centred.len() - p..].to_vec(),
            last_ts: data[data.len() - 1].ts,
            step_ms: gaps.get(gaps.len() / 2).copied().unwrap_or(60_000).max(1),
        });
        Ok(())
    }

    fn predict(&self, timestamps: &[i64]) -> Result<Vec<ForecastPoint>, ForecastError> {
        let f = self
            .fitted
            .as_ref()
            .ok_or(ForecastError::NotEnoughData { needed: 1, got: 0 })?;
        let z = crate::prophet::normal_quantile(0.5 + self.config.interval_width / 2.0);
        let max_h = timestamps
            .iter()
            .map(|ts| (((ts - f.last_ts) as f64 / f.step_ms as f64).round() as i64).max(1))
            .max()
            .unwrap_or(1) as usize;

        // Iterate the recursion once up to the furthest horizon.
        let p = f.phi.len();
        let mut window = f.tail.clone();
        let mut path = Vec::with_capacity(max_h);
        for _ in 0..max_h {
            let next: f64 = f
                .phi
                .iter()
                .enumerate()
                .map(|(j, c)| c * window[window.len() - 1 - j])
                .sum();
            window.push(next);
            if window.len() > p {
                window.remove(0);
            }
            path.push(next);
        }

        Ok(timestamps
            .iter()
            .map(|ts| {
                let h =
                    (((ts - f.last_ts) as f64 / f.step_ms as f64).round() as i64).max(1) as usize;
                let yhat = f.mean + path[h - 1];
                let sd = f.sigma * (h as f64).sqrt();
                ForecastPoint {
                    ts: *ts,
                    yhat,
                    lower: yhat - z * sd,
                    upper: yhat + z * sd,
                }
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "ar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINUTE: i64 = 60_000;

    /// Simulates a stationary AR(1) with coefficient `phi`.
    fn ar1_series(n: usize, phi: f64, seed: u64) -> Vec<DataPoint> {
        let mut state = seed;
        let mut next_noise = move || {
            // xorshift* pseudo-noise in [-0.5, 0.5)
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut x = 0.0;
        (0..n)
            .map(|i| {
                x = phi * x + next_noise();
                DataPoint::new(i as i64 * MINUTE, 100.0 + x)
            })
            .collect()
    }

    #[test]
    fn recovers_ar1_coefficient() {
        let hist = ar1_series(5000, 0.7, 12345);
        let mut m = ArModel::new(1, 0.9);
        m.fit(&hist).unwrap();
        let phi = m.fitted.as_ref().unwrap().phi[0];
        assert!((phi - 0.7).abs() < 0.08, "estimated phi = {phi}");
    }

    #[test]
    fn forecast_decays_to_mean() {
        let hist = ar1_series(2000, 0.9, 999);
        let mut m = ArModel::new(1, 0.9);
        m.fit(&hist).unwrap();
        let last = hist.last().unwrap().ts;
        let far = m.predict(&[last + 500 * MINUTE]).unwrap()[0];
        let mean = m.fitted.as_ref().unwrap().mean;
        assert!(
            (far.yhat - mean).abs() < 0.05,
            "long-run forecast must approach the mean"
        );
    }

    #[test]
    fn higher_order_fits() {
        let hist = ar1_series(1000, 0.5, 7);
        let mut m = ArModel::new(5, 0.9);
        m.fit(&hist).unwrap();
        let pred = m.predict(&[hist.last().unwrap().ts + MINUTE]).unwrap();
        assert!(pred[0].yhat.is_finite());
        assert!(pred[0].lower < pred[0].upper);
    }

    #[test]
    fn constant_series_forecasts_constant() {
        let hist: Vec<DataPoint> = (0..100).map(|i| DataPoint::new(i * MINUTE, 42.0)).collect();
        let mut m = ArModel::new(2, 0.9);
        m.fit(&hist).unwrap();
        let p = m.predict(&[101 * MINUTE]).unwrap()[0];
        assert!((p.yhat - 42.0).abs() < 1e-9);
    }

    #[test]
    fn order_zero_rejected() {
        let mut m = ArModel::new(0, 0.9);
        assert!(matches!(
            m.fit(&[]),
            Err(ForecastError::InvalidParameter(_))
        ));
    }

    #[test]
    fn too_little_data_rejected() {
        let mut m = ArModel::new(10, 0.9);
        let hist = ar1_series(20, 0.5, 1);
        assert!(matches!(
            m.fit(&hist),
            Err(ForecastError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn intervals_widen_with_horizon() {
        let hist = ar1_series(1000, 0.6, 3);
        let mut m = ArModel::new(1, 0.9);
        m.fit(&hist).unwrap();
        let last = hist.last().unwrap().ts;
        let near = m.predict(&[last + MINUTE]).unwrap()[0];
        let far = m.predict(&[last + 50 * MINUTE]).unwrap()[0];
        assert!(far.upper - far.lower > near.upper - near.lower);
    }

    #[test]
    fn a_refit_forgets_the_previous_history() {
        // One model refitted as its window slides equals a fresh fit on
        // each window, whatever it was fitted on before.
        let hist = ar1_series(600, 0.6, 42);
        let mut sliding = ArModel::new(5, 0.9);
        for start in [0, 1, 7, 300] {
            let window = &hist[start..start + 240];
            sliding.fit(window).unwrap();
            let mut fresh = ArModel::new(5, 0.9);
            fresh.fit(window).unwrap();
            let (fs, ff) = (
                sliding.fitted.as_ref().unwrap(),
                fresh.fitted.as_ref().unwrap(),
            );
            assert_eq!(fs.mean.to_bits(), ff.mean.to_bits(), "start {start}");
            assert_eq!(fs.sigma.to_bits(), ff.sigma.to_bits(), "start {start}");
            assert_eq!((fs.last_ts, fs.step_ms), (ff.last_ts, ff.step_ms));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fs.phi), bits(&ff.phi), "start {start}");
            assert_eq!(bits(&fs.tail), bits(&ff.tail), "start {start}");
        }
    }

    #[test]
    fn step_is_the_median_gap() {
        // Handed out of order, with a duplicate timestamp: the positive
        // gaps sorted are [1, 1, 1, 2, 2, 5] minutes, index 3 is 2.
        let ts = [0, 60, 120, 240, 240, 360, 660, 720];
        let mut hist: Vec<DataPoint> = ts
            .iter()
            .enumerate()
            .map(|(i, t)| DataPoint::new(t * 1_000, 100.0 + (i % 3) as f64))
            .collect();
        hist.swap(2, 5);
        let mut m = ArModel::new(2, 0.9);
        m.fit(&hist).unwrap();
        assert_eq!(m.fitted.as_ref().unwrap().step_ms, 2 * MINUTE);
    }

    #[test]
    fn levinson_durbin_known_system() {
        // For AR(1) with phi=0.5, sigma^2=1: gamma0 = 1/(1-0.25), gamma1 = 0.5*gamma0.
        let g0 = 1.0 / 0.75;
        let (phi, var) = ArModel::levinson_durbin(&[g0, 0.5 * g0]).unwrap();
        assert!((phi[0] - 0.5).abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }
}
