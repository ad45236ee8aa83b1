//! The traffic-model tier (paper §IV-A).
//!
//! Wraps the `caladrius-forecast` substrate behind a name-keyed registry
//! of forecaster factories (Prophet-style, statistics summary, AR) and
//! produces the summary the performance tier consumes: predicted source
//! rates over a future window, with the summary statistics the paper says
//! the model produces "for the predicted source rate at the future
//! instances".

use crate::error::{CoreError, Result};
use caladrius_forecast::ar::ArModel;
use caladrius_forecast::prophet::{Prophet, ProphetConfig};
use caladrius_forecast::seasonality::Seasonality;
use caladrius_forecast::stats::StatsSummaryModel;
use caladrius_forecast::{DataPoint, ForecastPoint, Forecaster};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A traffic forecast over a future window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficForecast {
    /// Model that produced the forecast.
    pub model: String,
    /// Per-timestamp forecasts (tuples/min).
    pub points: Vec<ForecastPoint>,
    /// Mean of the point forecasts.
    pub mean: f64,
    /// Maximum point forecast — the planning-relevant peak.
    pub peak: f64,
    /// Maximum upper bound — the conservative worst case.
    pub peak_upper: f64,
}

impl TrafficForecast {
    pub(crate) fn from_points(model: &str, points: Vec<ForecastPoint>) -> Result<Self> {
        if points.is_empty() {
            return Err(CoreError::InvalidRequest(
                "forecast horizon must contain at least one timestamp".into(),
            ));
        }
        let mean = points.iter().map(|p| p.yhat).sum::<f64>() / points.len() as f64;
        let peak = points.iter().map(|p| p.yhat).fold(f64::MIN, f64::max);
        let peak_upper = points.iter().map(|p| p.upper).fold(f64::MIN, f64::max);
        Ok(Self {
            model: model.into(),
            points,
            mean,
            peak,
            peak_upper,
        })
    }
}

/// Factory signature: a fresh, unfitted forecaster.
type ForecasterFactory = Box<dyn Fn() -> Box<dyn Forecaster + Send> + Send + Sync>;

/// Name-keyed registry of traffic models.
pub struct TrafficModelRegistry {
    factories: HashMap<String, ForecasterFactory>,
}

impl std::fmt::Debug for TrafficModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrafficModelRegistry")
            .field("models", &self.names())
            .finish()
    }
}

impl TrafficModelRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self {
            factories: HashMap::new(),
        }
    }

    /// The default registry: `prophet` (daily+weekly seasonality),
    /// `stats_summary` (mean) and `ar` (order 10).
    pub fn with_defaults() -> Self {
        let mut r = Self::empty();
        r.register("prophet", || {
            Box::new(Prophet::new(ProphetConfig {
                seasonalities: vec![Seasonality::daily(4), Seasonality::weekly(3)],
                ..ProphetConfig::default()
            }))
        });
        r.register("stats_summary", || Box::new(StatsSummaryModel::mean()));
        r.register("ar", || Box::new(ArModel::new(10, 0.9)));
        r
    }

    /// Registers (or replaces) a factory under a name.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Forecaster + Send> + Send + Sync + 'static,
    ) {
        self.factories.insert(name.into(), Box::new(factory));
    }

    /// Instantiates a fresh, unfitted forecaster for the named model.
    pub fn create(&self, name: &str) -> Result<Box<dyn Forecaster + Send>> {
        let factory = self
            .factories
            .get(name)
            .ok_or_else(|| CoreError::UnknownModel(name.to_string()))?;
        Ok(factory())
    }

    /// Sorted model names.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.factories.keys().cloned().collect();
        names.sort();
        names
    }

    /// Fits the named model on `history` and forecasts at `horizon`
    /// timestamps.
    pub fn forecast(
        &self,
        name: &str,
        history: &[DataPoint],
        horizon: &[i64],
    ) -> Result<TrafficForecast> {
        let mut model = self.create(name)?;
        model.fit(history)?;
        let points = model.predict(horizon)?;
        TrafficForecast::from_points(name, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINUTE: i64 = 60_000;

    fn history(n: i64) -> Vec<DataPoint> {
        (0..n)
            .map(|i| DataPoint::new(i * MINUTE, 1000.0 + (i % 10) as f64))
            .collect()
    }

    #[test]
    fn default_registry_names() {
        let r = TrafficModelRegistry::with_defaults();
        assert_eq!(r.names(), vec!["ar", "prophet", "stats_summary"]);
    }

    #[test]
    fn stats_summary_forecast_summarises() {
        let r = TrafficModelRegistry::with_defaults();
        let f = r
            .forecast("stats_summary", &history(100), &[200 * MINUTE])
            .unwrap();
        assert_eq!(f.model, "stats_summary");
        assert!((f.mean - 1004.5).abs() < 0.1);
        assert!(f.peak_upper >= f.peak);
        assert_eq!(f.points.len(), 1);
    }

    #[test]
    fn prophet_forecast_over_horizon() {
        let r = TrafficModelRegistry::with_defaults();
        let horizon: Vec<i64> = (101..=110).map(|i| i * MINUTE).collect();
        let f = r.forecast("prophet", &history(100), &horizon).unwrap();
        assert_eq!(f.points.len(), 10);
        assert!(f.mean > 900.0 && f.mean < 1100.0);
    }

    #[test]
    fn unknown_model_rejected() {
        let r = TrafficModelRegistry::with_defaults();
        for name in ["nope", "holt_winters"] {
            assert!(
                matches!(
                    r.forecast(name, &history(10), &[0]),
                    Err(CoreError::UnknownModel(_))
                ),
                "{name}"
            );
        }
    }

    #[test]
    fn empty_horizon_rejected() {
        let r = TrafficModelRegistry::with_defaults();
        assert!(matches!(
            r.forecast("stats_summary", &history(10), &[]),
            Err(CoreError::InvalidRequest(_))
        ));
    }

    #[test]
    fn custom_factory_registration() {
        let mut r = TrafficModelRegistry::empty();
        r.register("median", || Box::new(StatsSummaryModel::median()));
        let f = r.forecast("median", &history(11), &[100 * MINUTE]).unwrap();
        assert_eq!(f.model, "median");
    }

    #[test]
    fn peak_reflects_maximum() {
        let r = TrafficModelRegistry::with_defaults();
        let hist: Vec<DataPoint> = (0..200)
            .map(|i| DataPoint::new(i * MINUTE, 100.0 + i as f64))
            .collect();
        let horizon: Vec<i64> = (201..=220).map(|i| i * MINUTE).collect();
        let f = r.forecast("prophet", &hist, &horizon).unwrap();
        let last = f.points.last().unwrap().yhat;
        assert!((f.peak - last).abs() < 1.0, "rising trend peaks at the end");
    }
}
