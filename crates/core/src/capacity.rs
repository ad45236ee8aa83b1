//! Bridge between the fitted Caladrius models and the
//! `caladrius-planner` horizon search: the model-backed
//! [`CapacityOracle`] plus forecast-to-window chunking.

use crate::error::CoreError;
use crate::model::cpu::CpuModel;
use crate::model::topology::{BackpressureRisk, TopologyModel};
use crate::traffic::TrafficForecast;
use caladrius_obs::Counter;
use caladrius_planner::{Assessment, CapacityOracle, PlanError, PlannerConfig, WindowSpec};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Parameters of a [`crate::service::Caladrius::plan_capacity`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapacityPlanRequest {
    /// Traffic model to forecast with (defaults to the first
    /// configured).
    pub traffic_model: Option<String>,
    /// Plan each window against the forecast interval's upper bound
    /// instead of the point forecast.
    pub conservative: bool,
    /// Planner search/cost knobs.
    pub planner: PlannerConfig,
}

/// Chunks a traffic forecast into planning windows of
/// `window_minutes`, taking each window's peak (point forecast, or
/// upper bound when `conservative`).
pub fn forecast_windows(
    forecast: &TrafficForecast,
    window_minutes: u64,
    conservative: bool,
) -> Result<Vec<WindowSpec>, CoreError> {
    if window_minutes == 0 {
        return Err(CoreError::InvalidRequest(
            "window_minutes must be positive".into(),
        ));
    }
    if forecast.points.is_empty() {
        return Err(CoreError::Unpredictable(
            "traffic forecast produced no points".into(),
        ));
    }
    let mut windows = Vec::new();
    for chunk in forecast.points.chunks(window_minutes as usize) {
        let peak = chunk
            .iter()
            .map(|p| if conservative { p.upper } else { p.yhat })
            .fold(f64::MIN, f64::max)
            .max(0.0);
        let start_ts = chunk.first().expect("chunks are non-empty").ts;
        // Forecast points are minute-spaced; the window covers through
        // the end of its last minute.
        let end_ts = chunk.last().expect("chunks are non-empty").ts + 60_000;
        windows.push(WindowSpec {
            start_ts,
            end_ts,
            peak_rate: peak,
        });
    }
    Ok(windows)
}

/// [`CapacityOracle`] over a fitted topology model and its per-bolt CPU
/// models. Components are the modelled bolts (spouts have no component
/// model — their output *is* the source rate, so scaling them is
/// meaningless to the model).
///
/// The oracle shares the fitted models by `Arc` — the same handles the
/// service's watermark-keyed cache holds — so it is freely `Sync` and
/// the planner can probe it from many worker threads at once.
pub struct ModelOracle {
    model: Arc<TopologyModel>,
    cpu_models: Arc<HashMap<String, CpuModel>>,
    components: Vec<String>,
}

impl ModelOracle {
    /// Builds the oracle. `components` must be the modelled bolts in a
    /// stable (topological or declaration) order.
    pub fn new(
        model: Arc<TopologyModel>,
        cpu_models: Arc<HashMap<String, CpuModel>>,
        components: Vec<String>,
    ) -> Self {
        Self {
            model,
            cpu_models,
            components,
        }
    }
}

fn oracle_err(e: CoreError) -> PlanError {
    PlanError::Oracle(e.to_string())
}

impl CapacityOracle for ModelOracle {
    fn components(&self) -> Vec<String> {
        self.components.clone()
    }

    fn assess(&self, parallelisms: &[(String, u32)], rate: f64) -> Result<Assessment, PlanError> {
        let proposal: HashMap<String, u32> = parallelisms.iter().cloned().collect();
        let saturation = self
            .model
            .saturation_source_rate(&proposal)
            .map_err(oracle_err)?;
        let feasible = BackpressureRisk::classify(saturation, rate) == BackpressureRisk::Low;
        let bottleneck = if feasible {
            None
        } else {
            // The limiting component shows up as the first saturated
            // component when predicting just past the saturation point.
            let probe = saturation.map_or(rate, |t| t.max(rate) * 1.001);
            self.model
                .predict(&proposal, probe)
                .map_err(oracle_err)?
                .bottleneck
        };
        let prediction = self.model.predict(&proposal, rate).map_err(oracle_err)?;
        let mut cpu_per_instance = Vec::new();
        for report in &prediction.per_component {
            let Some(cpu) = self.cpu_models.get(&report.name) else {
                continue;
            };
            // Hottest instance: headroom must hold for every instance,
            // not just the average one.
            let hottest = report
                .per_instance_inputs
                .iter()
                .map(|input| cpu.predict_instance(*input))
                .fold(0.0, f64::max);
            cpu_per_instance.push((report.name.clone(), hottest));
        }
        Ok(Assessment {
            feasible,
            bottleneck,
            saturation_rate: saturation.unwrap_or(f64::INFINITY),
            cpu_per_instance,
        })
    }
}

/// Memoizing decorator over any [`CapacityOracle`]: repeated
/// `(parallelisms, rate)` assessments — the planner's binary searches
/// revisiting a configuration, hysteresis smoothing re-probing a plan
/// some window already solved, adjacent windows sharing a forecast
/// level — are answered from an interior cache instead of re-running
/// the models.
///
/// The decorator is semantically transparent: the inner oracle must be
/// pure (same inputs → same assessment), so a cached answer is
/// indistinguishable from a computed one and the planner's determinism
/// contract is preserved whatever the thread interleaving. Only the
/// hit/miss telemetry depends on scheduling (two workers may race to
/// compute the same miss), which is why it lives in counters and not
/// in planner output.
pub struct CachedOracle<O> {
    inner: O,
    #[allow(clippy::type_complexity)]
    cache: Mutex<HashMap<(Vec<(String, u32)>, u64), Assessment>>,
    hits: Counter,
    misses: Counter,
}

impl<O: CapacityOracle> CachedOracle<O> {
    /// Wraps `inner` with detached hit/miss counters.
    pub fn new(inner: O) -> Self {
        Self::with_counters(inner, Counter::detached(), Counter::detached())
    }

    /// Wraps `inner`, reporting hits and misses to the given counters
    /// (the service wires its registry-backed `caladrius_oracle_cache_*`
    /// series here).
    pub fn with_counters(inner: O, hits: Counter, misses: Counter) -> Self {
        Self {
            inner,
            cache: Mutex::new(HashMap::new()),
            hits,
            misses,
        }
    }

    /// Assessments answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Assessments computed by the inner oracle.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }
}

impl<O: CapacityOracle> CapacityOracle for CachedOracle<O> {
    fn components(&self) -> Vec<String> {
        self.inner.components()
    }

    fn assess(&self, parallelisms: &[(String, u32)], rate: f64) -> Result<Assessment, PlanError> {
        let key = (parallelisms.to_vec(), rate.to_bits());
        if let Some(hit) = self.cache.lock().get(&key) {
            self.hits.inc();
            return Ok(hit.clone());
        }
        // Computed outside the lock: concurrent workers may duplicate a
        // miss, but never block each other on model evaluation.
        let assessment = self.inner.assess(parallelisms, rate)?;
        self.misses.inc();
        self.cache.lock().insert(key, assessment.clone());
        Ok(assessment)
    }
}

/// FNV-1a 64-bit. Local copy — core must not depend on the fleet crate's
/// hashing module, and the request key must stay stable across builds
/// (unlike `DefaultHasher`).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Hash of the request-side plan inputs: resolved traffic-model name,
/// the conservative flag, and the full [`PlannerConfig`] including
/// [`caladrius_planner::ResourceLimits`]. Entries under different
/// request keys coexist in the cache, so changing any knob (e.g. a
/// budget-constrained `max_containers`) can never serve a plan searched
/// under different constraints.
pub fn plan_request_key(model_name: &str, conservative: bool, planner: &PlannerConfig) -> u64 {
    let mut bytes = Vec::with_capacity(64 + model_name.len());
    bytes.extend_from_slice(model_name.as_bytes());
    bytes.push(0xff); // separator: model name is the only var-length field
    bytes.push(u8::from(conservative));
    bytes.extend_from_slice(&planner.headroom.to_bits().to_le_bytes());
    bytes.extend_from_slice(&planner.cpu_utilization_cap.to_bits().to_le_bytes());
    bytes.extend_from_slice(&planner.window_minutes.to_le_bytes());
    bytes.extend_from_slice(&(planner.hysteresis_windows as u64).to_le_bytes());
    let l = &planner.limits;
    bytes.extend_from_slice(&l.cores_per_instance.to_bits().to_le_bytes());
    bytes.extend_from_slice(&l.ram_mb_per_instance.to_le_bytes());
    bytes.extend_from_slice(&l.container_cpu.to_bits().to_le_bytes());
    bytes.extend_from_slice(&l.container_ram_mb.to_le_bytes());
    bytes.extend_from_slice(&l.max_parallelism.to_le_bytes());
    bytes.extend_from_slice(&l.max_containers.to_le_bytes());
    fnv1a64(&bytes)
}

impl From<PlanError> for CoreError {
    fn from(e: PlanError) -> Self {
        match e {
            PlanError::InvalidConfig(msg) => CoreError::InvalidRequest(msg),
            PlanError::Oracle(msg) => CoreError::Substrate(format!("planner oracle: {msg}")),
            infeasible @ PlanError::Infeasible { .. } => {
                CoreError::Unpredictable(infeasible.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caladrius_forecast::ForecastPoint;

    fn forecast(rates: &[(f64, f64)]) -> TrafficForecast {
        let points: Vec<ForecastPoint> = rates
            .iter()
            .enumerate()
            .map(|(i, (yhat, upper))| ForecastPoint {
                ts: i as i64 * 60_000,
                yhat: *yhat,
                lower: yhat * 0.9,
                upper: *upper,
            })
            .collect();
        TrafficForecast {
            model: "test".into(),
            mean: points.iter().map(|p| p.yhat).sum::<f64>() / points.len() as f64,
            peak: points.iter().map(|p| p.yhat).fold(f64::MIN, f64::max),
            peak_upper: points.iter().map(|p| p.upper).fold(f64::MIN, f64::max),
            points,
        }
    }

    #[test]
    fn windows_take_per_chunk_peaks() {
        let f = forecast(&[(1.0, 2.0), (5.0, 9.0), (3.0, 4.0), (2.0, 8.0)]);
        let windows = forecast_windows(&f, 2, false).unwrap();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].peak_rate, 5.0);
        assert_eq!(windows[1].peak_rate, 3.0);
        assert_eq!(windows[0].start_ts, 0);
        assert_eq!(windows[0].end_ts, 120_000);
        let conservative = forecast_windows(&f, 2, true).unwrap();
        assert_eq!(conservative[0].peak_rate, 9.0);
        assert_eq!(conservative[1].peak_rate, 8.0);
    }

    struct CountingOracle {
        calls: std::sync::atomic::AtomicU64,
    }

    impl CapacityOracle for CountingOracle {
        fn components(&self) -> Vec<String> {
            vec!["a".into()]
        }

        fn assess(
            &self,
            parallelisms: &[(String, u32)],
            rate: f64,
        ) -> Result<Assessment, PlanError> {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let sat = f64::from(parallelisms[0].1) * 1.0e6;
            Ok(Assessment {
                feasible: rate <= sat,
                bottleneck: Some("a".into()),
                saturation_rate: sat,
                cpu_per_instance: vec![("a".into(), 0.1)],
            })
        }
    }

    #[test]
    fn cached_oracle_dedupes_identical_assessments() {
        let oracle = CachedOracle::new(CountingOracle { calls: 0.into() });
        let ps = vec![("a".to_string(), 3u32)];
        let first = oracle.assess(&ps, 2.0e6).unwrap();
        let again = oracle.assess(&ps, 2.0e6).unwrap();
        assert_eq!(first, again, "cached answers must be transparent");
        assert_eq!((oracle.hits(), oracle.misses()), (1, 1));
        // A different rate or parallelism is a distinct key.
        oracle.assess(&ps, 3.0e6).unwrap();
        oracle.assess(&[("a".to_string(), 4)], 2.0e6).unwrap();
        assert_eq!((oracle.hits(), oracle.misses()), (1, 3));
        assert_eq!(
            oracle
                .inner
                .calls
                .load(std::sync::atomic::Ordering::Relaxed),
            3,
            "the inner oracle must only see misses"
        );
    }

    #[test]
    fn request_key_covers_limits_and_model() {
        use caladrius_planner::PlannerConfig;
        let cfg = PlannerConfig::default();
        let base = plan_request_key("prophet", false, &cfg);
        assert_eq!(base, plan_request_key("prophet", false, &cfg));
        assert_ne!(base, plan_request_key("ar", false, &cfg));
        assert_ne!(base, plan_request_key("prophet", true, &cfg));
        let mut constrained = cfg;
        constrained.limits.max_containers = 3;
        assert_ne!(base, plan_request_key("prophet", false, &constrained));
    }

    #[test]
    fn windows_reject_degenerate_input() {
        let f = forecast(&[(1.0, 2.0)]);
        assert!(forecast_windows(&f, 0, false).is_err());
        let empty = TrafficForecast {
            model: "test".into(),
            points: Vec::new(),
            mean: 0.0,
            peak: 0.0,
            peak_upper: 0.0,
        };
        assert!(forecast_windows(&empty, 5, false).is_err());
    }
}
