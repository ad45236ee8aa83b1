//! # caladrius-forecast
//!
//! Time-series modelling substrate standing in for Facebook Prophet, which
//! the Caladrius paper uses to forecast topology source throughput
//! (§IV-A). The paper treats Prophet as a black box; this crate implements
//! the same model family from scratch:
//!
//! * [`prophet`] — an additive model `y(t) = g(t) + s(t) + ε` with a
//!   piecewise-linear trend over automatically placed changepoints
//!   (ridge-regularised deltas), Fourier-basis seasonalities, Huber-robust
//!   IRLS fitting (outlier tolerance), native missing-data handling and
//!   simulation-based uncertainty intervals,
//! * [`stats`] — the paper's "statistics summary traffic model" for stable
//!   traffic (mean / median / quantile forecasts),
//! * [`ar`] — autoregressive AR(p) baseline via Levinson–Durbin,
//! * [`eval`] — rolling-origin backtesting with MAE / RMSE / MAPE and
//!   interval-coverage metrics,
//! * [`linalg`] — the dense least-squares machinery everything is built on.
//!
//! All models implement the [`Forecaster`] trait so Caladrius's traffic
//! model registry can switch between them by name.

#![warn(missing_docs)]

pub mod ar;
pub mod eval;
pub mod linalg;
pub mod prophet;
pub mod seasonality;
pub mod stats;
pub mod streaming;
pub mod trend;

use serde::{Deserialize, Serialize};

/// One training observation: timestamp (milliseconds) and value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataPoint {
    /// Milliseconds since epoch (or simulation start).
    pub ts: i64,
    /// Observed value. NaN values are treated as missing by all models.
    pub y: f64,
}

impl DataPoint {
    /// Creates a data point.
    pub fn new(ts: i64, y: f64) -> Self {
        Self { ts, y }
    }
}

/// One forecast value with an uncertainty interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForecastPoint {
    /// Forecast timestamp (milliseconds).
    pub ts: i64,
    /// Point forecast.
    pub yhat: f64,
    /// Lower bound of the uncertainty interval.
    pub lower: f64,
    /// Upper bound of the uncertainty interval.
    pub upper: f64,
}

/// Errors shared by all forecasting models.
#[derive(Debug, Clone, PartialEq)]
pub enum ForecastError {
    /// The training series has too few usable (finite) observations.
    NotEnoughData {
        /// Minimum number of points the model needs.
        needed: usize,
        /// Usable points actually provided.
        got: usize,
    },
    /// A model hyper-parameter is out of range.
    InvalidParameter(String),
    /// The normal equations were singular even after regularisation.
    SingularSystem,
}

impl std::fmt::Display for ForecastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForecastError::NotEnoughData { needed, got } => {
                write!(
                    f,
                    "not enough data: need at least {needed} points, got {got}"
                )
            }
            ForecastError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            ForecastError::SingularSystem => write!(f, "linear system is singular"),
        }
    }
}

impl std::error::Error for ForecastError {}

/// Common interface over all traffic forecasting models.
///
/// A `Forecaster` is fit on a history and can then be queried for any
/// set of future timestamps. This is the seam Caladrius's traffic-model
/// tier plugs into (paper Fig. 2: "Prophet Traffic Model", "Statistic
/// Summary Traffic Model").
///
/// There is no incremental update: a fit is a function of the history it
/// is given and nothing else, so a model refitted as its training window
/// slides predicts exactly what a fresh model fitted on that window
/// predicts. Keeping the window is the caller's job.
pub trait Forecaster {
    /// Fits the model to history. Non-finite observations are ignored.
    fn fit(&mut self, history: &[DataPoint]) -> Result<(), ForecastError>;

    /// Predicts at the given future (or past, for in-sample inspection)
    /// timestamps. Must be called after a successful [`Forecaster::fit`].
    fn predict(&self, timestamps: &[i64]) -> Result<Vec<ForecastPoint>, ForecastError>;

    /// Human-readable model name used by the registry.
    fn name(&self) -> &'static str;
}

/// Drops non-finite observations, the shared missing-data policy.
pub(crate) fn clean(history: &[DataPoint]) -> Vec<DataPoint> {
    history
        .iter()
        .copied()
        .filter(|p| p.y.is_finite())
        .collect()
}

/// Generates `n` equally spaced future timestamps continuing `history`'s
/// last timestamp with `step_ms` spacing.
pub fn future_timestamps(history: &[DataPoint], n: usize, step_ms: i64) -> Vec<i64> {
    let last = history.last().map_or(0, |p| p.ts);
    (1..=n as i64).map(|i| last + i * step_ms).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_drops_nan_and_inf() {
        let pts = vec![
            DataPoint::new(0, 1.0),
            DataPoint::new(1, f64::NAN),
            DataPoint::new(2, f64::INFINITY),
            DataPoint::new(3, 2.0),
        ];
        let cleaned = clean(&pts);
        assert_eq!(cleaned.len(), 2);
        assert_eq!(cleaned[1].y, 2.0);
    }

    #[test]
    fn future_timestamps_continue_history() {
        let pts = vec![DataPoint::new(0, 1.0), DataPoint::new(60_000, 1.0)];
        assert_eq!(
            future_timestamps(&pts, 3, 60_000),
            vec![120_000, 180_000, 240_000]
        );
        assert_eq!(future_timestamps(&[], 2, 10), vec![10, 20]);
    }

    #[test]
    fn error_display() {
        let e = ForecastError::NotEnoughData { needed: 10, got: 2 };
        assert!(e.to_string().contains("10"));
        assert!(ForecastError::SingularSystem
            .to_string()
            .contains("singular"));
    }
}
