//! The forecast-accuracy self-monitor: the paper's validation loop,
//! running continuously inside the service.
//!
//! Every `evaluate`/`plan_capacity` run registers what it predicted
//! (traffic peaks, sink throughput) keyed by the horizon window it
//! predicted *for*. Once the metrics watermark passes a window's end —
//! the future the model spoke about has been observed — a scoring pass
//! compares the prediction against what the tsdb actually recorded and
//! feeds the absolute percentage error into per-(topology, model, kind)
//! histograms, so `/metrics/service` continuously answers the paper's
//! central question: how wrong are the models, per model.

use caladrius_obs::{Counter, Histogram, HistogramSnapshot};
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Upper bound on outstanding predictions; the oldest are dropped first
/// (a stuck watermark must not grow the queue without bound).
const MAX_PENDING: usize = 4096;

/// Guard against division by ~zero when the realized value vanishes.
const APE_EPSILON: f64 = 1e-9;

/// A scored prediction is "good" for the per-model accuracy SLO when
/// its absolute percentage error stays within this bound (25 %).
const APE_SLO_THRESHOLD: f64 = 0.25;

/// What a pending prediction claims about the future.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictionKind {
    /// Peak offered source rate over the window (traffic model output).
    Traffic,
    /// Sink output rate at the evaluated source rate (topology model).
    Throughput,
}

impl PredictionKind {
    /// Stable label value for the exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            PredictionKind::Traffic => "traffic",
            PredictionKind::Throughput => "throughput",
        }
    }
}

/// One not-yet-scoreable prediction, waiting for its window to close.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingPrediction {
    /// Topology the prediction is about.
    pub topology: String,
    /// Model that produced it (traffic model name, or the topology
    /// model identifier for throughput predictions).
    pub model: String,
    /// What quantity was predicted.
    pub kind: PredictionKind,
    /// Window start (ms, inclusive).
    pub window_start: i64,
    /// Window end (ms, exclusive); scoreable once the metrics watermark
    /// reaches it.
    pub window_end: i64,
    /// The predicted value (tuples/min).
    pub predicted: f64,
}

/// Summary of one (topology, model, kind) error distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracySummary {
    /// Topology.
    pub topology: String,
    /// Model name.
    pub model: String,
    /// Predicted quantity.
    pub kind: PredictionKind,
    /// Scored predictions.
    pub count: u64,
    /// Mean absolute percentage error (1.0 = 100 %).
    pub mean_ape: f64,
    /// 90th-percentile absolute percentage error.
    pub p90_ape: f64,
}

/// Absolute percentage error of `predicted` against `realized`.
pub fn absolute_percentage_error(predicted: f64, realized: f64) -> f64 {
    (predicted - realized).abs() / realized.abs().max(APE_EPSILON)
}

/// The monitor: a bounded queue of [`PendingPrediction`]s plus the APE
/// histograms of everything scored so far.
///
/// The monitor itself is provider-agnostic — the owning service drains
/// due predictions with [`AccuracyMonitor::take_due`], computes the
/// realized value from its kept training window, and feeds the result back
/// through [`AccuracyMonitor::score`] (or
/// [`AccuracyMonitor::drop_unrealizable`] when the window can no longer
/// be reconstructed).
/// The pending queue plus its per-topology score watermark: the minimum
/// pending `window_end` per topology. Both live under one lock so the
/// index can never drift from the queue.
#[derive(Default)]
struct PendingQueue {
    queue: VecDeque<PendingPrediction>,
    earliest_end: HashMap<String, i64>,
}

impl PendingQueue {
    /// Recomputes the per-topology minimums from the queue (after any
    /// removal that might have dropped a topology's earliest window).
    fn rebuild_earliest(&mut self) {
        self.earliest_end.clear();
        for p in &self.queue {
            note_end(&mut self.earliest_end, &p.topology, p.window_end);
        }
    }
}

/// Lowers a topology's earliest pending window end to `window_end`,
/// copying the name only the first time the topology is seen.
fn note_end(earliest_end: &mut HashMap<String, i64>, topology: &str, window_end: i64) {
    match earliest_end.get_mut(topology) {
        Some(end) => *end = (*end).min(window_end),
        None => {
            earliest_end.insert(topology.to_string(), window_end);
        }
    }
}

/// Records pending forecasts and scores them against realized data once
/// each prediction window closes (the paper's model-validation loop).
pub struct AccuracyMonitor {
    service_label: String,
    pending: Mutex<PendingQueue>,
    /// APE histograms per (topology, model, kind) — held here (not only
    /// in the global registry) so summaries stay exact per service
    /// instance even when many instances share one process.
    histograms: Mutex<HashMap<(String, String, PredictionKind), Histogram>>,
    recorded: Counter,
    scored: Counter,
    dropped: Counter,
}

impl std::fmt::Debug for AccuracyMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccuracyMonitor")
            .field("pending", &self.pending_len())
            .field("scored", &self.scored.get())
            .field("dropped", &self.dropped.get())
            .finish_non_exhaustive()
    }
}

impl AccuracyMonitor {
    /// A monitor registering its series under `service="service_label"`;
    /// they go with every other series of that label when the owning
    /// [`crate::Caladrius`] is dropped.
    pub fn new(service_label: &str) -> Self {
        let registry = caladrius_obs::global_registry();
        registry.describe(
            "caladrius_forecast_ape",
            "Absolute percentage error of scored predictions (1 = 100%)",
        );
        registry.describe(
            "caladrius_forecast_predictions_recorded_total",
            "Predictions registered for future scoring",
        );
        registry.describe(
            "caladrius_forecast_predictions_scored_total",
            "Predictions scored against realized metrics",
        );
        registry.describe(
            "caladrius_forecast_predictions_dropped_total",
            "Predictions dropped unscored (queue overflow or unrealizable window)",
        );
        let labels: [(&str, &str); 1] = [("service", service_label)];
        Self {
            service_label: service_label.to_string(),
            pending: Mutex::new(PendingQueue::default()),
            histograms: Mutex::new(HashMap::new()),
            recorded: registry.counter("caladrius_forecast_predictions_recorded_total", &labels),
            scored: registry.counter("caladrius_forecast_predictions_scored_total", &labels),
            dropped: registry.counter("caladrius_forecast_predictions_dropped_total", &labels),
        }
    }

    /// Registers a prediction for future scoring. Degenerate windows
    /// (`end <= start`) and non-finite predictions are ignored.
    pub fn record(&self, prediction: PendingPrediction) {
        if prediction.window_end <= prediction.window_start || !prediction.predicted.is_finite() {
            return;
        }
        let mut pending = self
            .pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if pending.queue.len() == MAX_PENDING {
            let evicted = pending.queue.pop_front();
            self.dropped.inc();
            // The evicted entry may have carried its topology's
            // earliest window end.
            if evicted.is_some() {
                pending.rebuild_earliest();
            }
        }
        note_end(
            &mut pending.earliest_end,
            &prediction.topology,
            prediction.window_end,
        );
        pending.queue.push_back(prediction);
        self.recorded.inc();
    }

    /// Drains every pending prediction whose window has closed according
    /// to `watermark` (newest observed minute per topology; `None` means
    /// the topology currently has no data and its predictions stay
    /// queued).
    ///
    /// The common case — nothing due yet — is answered from the
    /// per-topology score watermark in O(#topologies) without touching
    /// the queue, so calling this at the top of every evaluation stays
    /// cheap even with thousands of outstanding horizon windows.
    pub fn take_due<F>(&self, mut watermark: F) -> Vec<PendingPrediction>
    where
        F: FnMut(&str) -> Option<i64>,
    {
        let mut pending = self
            .pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let pending = &mut *pending;
        // One watermark per topology per pass, and only the topologies
        // whose earliest window it has reached can have anything due.
        let closed: HashMap<&str, i64> = pending
            .earliest_end
            .iter()
            .filter_map(|(topology, end)| {
                let w = watermark(topology).filter(|w| w >= end)?;
                Some((topology.as_str(), w))
            })
            .collect();
        if closed.is_empty() {
            return Vec::new();
        }
        let mut due = Vec::new();
        pending.queue.retain(|p| {
            let is_due = closed
                .get(p.topology.as_str())
                .is_some_and(|w| *w >= p.window_end);
            if is_due {
                due.push(p.clone());
            }
            !is_due
        });
        pending.rebuild_earliest();
        due
    }

    /// Scores one drained prediction against its realized value.
    ///
    /// Besides the APE histogram, every score feeds the per-model
    /// `forecast-ape:<model>` SLO objective — a prediction is good when
    /// its error stays within `APE_SLO_THRESHOLD` (25 %) — so model drift
    /// shows up on `/slo/status` as burn rate, not just as a histogram
    /// someone has to go look at.
    pub fn score(&self, prediction: &PendingPrediction, realized: f64) {
        let ape = absolute_percentage_error(prediction.predicted, realized);
        self.histogram(prediction).record(ape);
        self.scored.inc();
        caladrius_obs::global_slos()
            .objective(
                &format!("forecast-ape:{}", prediction.model),
                caladrius_obs::SloConfig::with_target(0.9),
            )
            .record(ape <= APE_SLO_THRESHOLD);
    }

    /// Marks a drained prediction as unscoreable (e.g. the window's data
    /// was truncated before scoring, or it starts before the service's
    /// kept training window does).
    pub fn drop_unrealizable(&self, _prediction: &PendingPrediction) {
        self.dropped.inc();
    }

    /// Predictions still waiting on their windows.
    pub fn pending_len(&self) -> usize {
        self.pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .queue
            .len()
    }

    /// Number of predictions scored so far.
    pub fn scored_count(&self) -> u64 {
        self.scored.get()
    }

    /// Per-(topology, model, kind) APE summaries, sorted for
    /// determinism.
    pub fn summaries(&self) -> Vec<AccuracySummary> {
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out: Vec<AccuracySummary> = histograms
            .iter()
            .map(|((topology, model, kind), h)| {
                let snapshot: HistogramSnapshot = h.snapshot();
                AccuracySummary {
                    topology: topology.clone(),
                    model: model.clone(),
                    kind: *kind,
                    count: snapshot.count,
                    mean_ape: snapshot.mean(),
                    p90_ape: snapshot.quantile(0.9),
                }
            })
            .collect();
        out.sort_by(|a, b| {
            (&a.topology, &a.model, a.kind.as_str()).cmp(&(&b.topology, &b.model, b.kind.as_str()))
        });
        out
    }

    /// The APE histogram for one prediction's key, shared with the
    /// global registry.
    fn histogram(&self, prediction: &PendingPrediction) -> Histogram {
        let key = (
            prediction.topology.clone(),
            prediction.model.clone(),
            prediction.kind,
        );
        let mut histograms = self
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        histograms
            .entry(key)
            .or_insert_with(|| {
                caladrius_obs::global_registry().histogram(
                    "caladrius_forecast_ape",
                    &[
                        ("topology", &prediction.topology),
                        ("model", &prediction.model),
                        ("kind", prediction.kind.as_str()),
                        ("service", &self.service_label),
                    ],
                )
            })
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(model: &str, window_end: i64, predicted: f64) -> PendingPrediction {
        PendingPrediction {
            topology: "wc".into(),
            model: model.into(),
            kind: PredictionKind::Traffic,
            window_start: 0,
            window_end,
            predicted,
        }
    }

    fn monitor() -> AccuracyMonitor {
        AccuracyMonitor::new(&format!("accuracy-test-{}", caladrius_obs::next_scope_id()))
    }

    #[test]
    fn due_predictions_drain_once_watermark_passes() {
        let m = monitor();
        m.record(pending("a", 60_000, 10.0));
        m.record(pending("a", 120_000, 10.0));
        assert_eq!(m.pending_len(), 2);
        // Watermark short of both windows: nothing due.
        assert!(m.take_due(|_| Some(30_000)).is_empty());
        let due = m.take_due(|_| Some(60_000));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].window_end, 60_000);
        assert_eq!(m.pending_len(), 1);
        // Unknown topology keeps predictions queued.
        assert!(m.take_due(|_| None).is_empty());
        assert_eq!(m.pending_len(), 1);
    }

    #[test]
    fn scoring_feeds_ape_histograms_and_summaries() {
        let m = monitor();
        let p = pending("stats", 60_000, 110.0);
        m.record(p.clone());
        for due in m.take_due(|_| Some(i64::MAX)) {
            m.score(&due, 100.0);
        }
        assert_eq!(m.scored_count(), 1);
        let summaries = m.summaries();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].count, 1);
        // APE = |110-100|/100 = 0.1, within its bucket's ~19 % width.
        assert!((summaries[0].mean_ape - 0.1).abs() < 0.03);
    }

    #[test]
    fn degenerate_predictions_are_ignored_and_queue_is_bounded() {
        let m = monitor();
        m.record(pending("a", 0, 1.0)); // end == start
        m.record(pending("a", 60_000, f64::NAN));
        assert_eq!(m.pending_len(), 0);
        for i in 0..(MAX_PENDING + 10) {
            m.record(pending("a", 60_000 + i as i64, 1.0));
        }
        assert_eq!(m.pending_len(), MAX_PENDING);
    }

    #[test]
    fn nothing_due_is_answered_from_the_score_watermark() {
        let m = monitor();
        for i in 0..100 {
            m.record(pending("a", 60_000 + i, 10.0));
        }
        let mut calls = 0;
        let due = m.take_due(|_| {
            calls += 1;
            Some(30_000)
        });
        assert!(due.is_empty());
        assert_eq!(
            calls, 1,
            "nothing-due must probe the watermark once per topology, not per pending item"
        );
        // Draining rebuilds the per-topology watermark index.
        let due = m.take_due(|_| Some(60_010));
        assert_eq!(due.len(), 11);
        let mut calls = 0;
        assert!(m
            .take_due(|_| {
                calls += 1;
                Some(60_010)
            })
            .is_empty());
        assert_eq!(calls, 1);
        assert_eq!(m.pending_len(), 89);
    }

    #[test]
    fn a_pass_asks_for_each_topology_watermark_once() {
        let m = monitor();
        // A mixed queue: 4 topologies interleaved, window ends scattered
        // around their watermarks, several models per topology.
        let watermark_of = |topology: &str| match topology {
            "t0" => Some(60_000 * 200),
            "t1" => Some(60_000 * 50),
            "t2" => None,
            _ => Some(0),
        };
        let mut queued = Vec::new();
        for i in 0..1_000i64 {
            let p = PendingPrediction {
                topology: format!("t{}", i % 4),
                model: format!("m{}", i % 3),
                window_end: 60_000 * (1 + (i * 37) % 300),
                ..pending("", 0, i as f64)
            };
            m.record(p.clone());
            queued.push(p);
        }
        let mut calls = 0;
        let due = m.take_due(|topology| {
            calls += 1;
            watermark_of(topology)
        });
        assert!(calls <= 4, "{calls} watermark reads for 4 topologies");
        // The drained predictions are the ones a watermark read per entry
        // picks, in queue order; the rest stay queued in theirs.
        let is_due =
            |p: &PendingPrediction| watermark_of(&p.topology).is_some_and(|w| w >= p.window_end);
        let expected: Vec<PendingPrediction> =
            queued.iter().filter(|p| is_due(p)).cloned().collect();
        assert!(!expected.is_empty() && expected.len() < queued.len());
        assert_eq!(due, expected);
        assert_eq!(m.pending_len(), queued.len() - expected.len());
        // Nothing is left due, and the rebuilt index still answers that
        // from one read per topology.
        let mut calls = 0;
        assert!(m
            .take_due(|topology| {
                calls += 1;
                watermark_of(topology)
            })
            .is_empty());
        assert!(calls <= 4);
        // Once the watermarks move on, the remainder drains in queue order.
        let rest: Vec<PendingPrediction> = queued.into_iter().filter(|p| !is_due(p)).collect();
        assert_eq!(m.take_due(|_| Some(i64::MAX)), rest);
    }

    #[test]
    fn ape_guards_zero_realized() {
        assert!(absolute_percentage_error(5.0, 0.0).is_finite());
        assert_eq!(absolute_percentage_error(100.0, 100.0), 0.0);
        assert!((absolute_percentage_error(50.0, 100.0) - 0.5).abs() < 1e-12);
    }
}
