//! Flight recorder: a bounded ring of periodic metrics snapshots plus
//! the most recent SLO state transitions.
//!
//! Scrape infrastructure answers "what is happening now"; the flight
//! recorder answers "what happened in the minutes before this SLO
//! breach / replan stall" without any external collector. Request paths
//! call [`FlightRecorder::maybe_snapshot`] opportunistically — it is a
//! single atomic compare until the snapshot interval elapses — and
//! `GET /debug/flight` dumps the whole recorder as JSON.

use crate::clock::{coarse_now_secs, unix_now_ms};
use crate::registry::{MetricHandle, MetricsRegistry};
use crate::slo::SloState;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bounds and cadence of a [`FlightRecorder`].
#[derive(Debug, Clone, Copy)]
pub struct FlightConfig {
    /// Minimum seconds between periodic snapshots.
    pub snapshot_interval_secs: u64,
    /// Snapshots retained (oldest evicted first).
    pub max_snapshots: usize,
    /// SLO transitions retained.
    pub max_events: usize,
}

impl Default for FlightConfig {
    /// Snapshot every 10 s, keep 32 snapshots (~5 minutes) and the last
    /// 128 transitions.
    fn default() -> Self {
        FlightConfig {
            snapshot_interval_secs: 10,
            max_snapshots: 32,
            max_events: 128,
        }
    }
}

/// One flattened metric sample inside a [`FlightSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlightSample {
    /// Sample name; histograms contribute `<name>_count` and
    /// `<name>_p99` rows, windowed histograms additionally
    /// `<name>_windowed_p99`.
    pub name: String,
    /// The series' label pairs.
    pub labels: Vec<(String, String)>,
    /// Sampled value.
    pub value: f64,
}

/// A point-in-time flattening of a whole metrics registry.
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    pub ts_unix_ms: i64,
    /// Coarse process uptime at capture, seconds.
    pub uptime_secs: u64,
    /// Every sampled series.
    pub samples: Vec<FlightSample>,
}

/// An SLO objective changing state between two evaluations.
#[derive(Debug, Clone)]
pub struct SloTransition {
    /// Wall-clock transition time, milliseconds since the Unix epoch.
    pub ts_unix_ms: i64,
    /// Objective name.
    pub objective: String,
    /// State before.
    pub from: SloState,
    /// State after.
    pub to: SloState,
    /// Fast-window burn rate at evaluation time.
    pub fast_burn: f64,
    /// Slow-window burn rate at evaluation time.
    pub slow_burn: f64,
}

/// Tag value marking "no snapshot taken yet".
const NEVER: u64 = u64::MAX;

/// The bounded recorder; see the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    config: FlightConfig,
    /// Interval number of the last periodic snapshot ([`NEVER`] at start).
    last_interval: AtomicU64,
    snapshots: Mutex<VecDeque<FlightSnapshot>>,
    transitions: Mutex<VecDeque<SloTransition>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FlightConfig::default())
    }
}

fn push_bounded<T>(queue: &Mutex<VecDeque<T>>, cap: usize, item: T) {
    let mut guard = queue
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if guard.len() >= cap.max(1) {
        guard.pop_front();
    }
    guard.push_back(item);
}

fn drain<T: Clone>(queue: &Mutex<VecDeque<T>>) -> Vec<T> {
    queue
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .cloned()
        .collect()
}

impl FlightRecorder {
    /// A recorder with the given bounds.
    pub fn new(config: FlightConfig) -> Self {
        FlightRecorder {
            config,
            last_interval: AtomicU64::new(NEVER),
            snapshots: Mutex::new(VecDeque::new()),
            transitions: Mutex::new(VecDeque::new()),
        }
    }

    /// The recorder's bounds and cadence.
    pub fn config(&self) -> FlightConfig {
        self.config
    }

    /// Takes a periodic snapshot of `registry` if the snapshot interval
    /// has elapsed since the last one; returns whether it captured.
    /// Cheap when not due (one relaxed load + compare).
    pub fn maybe_snapshot(&self, registry: &MetricsRegistry) -> bool {
        let interval = coarse_now_secs() / self.config.snapshot_interval_secs.max(1);
        let prev = self.last_interval.load(Ordering::Relaxed);
        if prev != NEVER && interval <= prev {
            return false;
        }
        if self
            .last_interval
            .compare_exchange(prev, interval, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return false; // another thread is capturing this interval
        }
        self.force_snapshot(registry);
        true
    }

    /// Unconditionally captures a snapshot of `registry`.
    pub fn force_snapshot(&self, registry: &MetricsRegistry) {
        let mut samples = Vec::new();
        for family in registry.families() {
            for row in &family.rows {
                match &row.handle {
                    MetricHandle::Counter(c) => samples.push(FlightSample {
                        name: family.name.clone(),
                        labels: row.labels.clone(),
                        value: c.get() as f64,
                    }),
                    MetricHandle::Gauge(g) => samples.push(FlightSample {
                        name: family.name.clone(),
                        labels: row.labels.clone(),
                        value: g.get(),
                    }),
                    MetricHandle::Histogram(h) => {
                        let snapshot = h.snapshot();
                        samples.push(FlightSample {
                            name: format!("{}_count", family.name),
                            labels: row.labels.clone(),
                            value: snapshot.count as f64,
                        });
                        samples.push(FlightSample {
                            name: format!("{}_p99", family.name),
                            labels: row.labels.clone(),
                            value: snapshot.quantile(0.99),
                        });
                    }
                    MetricHandle::Windowed(w) => {
                        samples.push(FlightSample {
                            name: format!("{}_count", family.name),
                            labels: row.labels.clone(),
                            value: w.count() as f64,
                        });
                        samples.push(FlightSample {
                            name: format!("{}_windowed_p99", family.name),
                            labels: row.labels.clone(),
                            value: w.windowed_quantile(0.99),
                        });
                    }
                }
            }
        }
        push_bounded(
            &self.snapshots,
            self.config.max_snapshots,
            FlightSnapshot {
                ts_unix_ms: unix_now_ms(),
                uptime_secs: coarse_now_secs(),
                samples,
            },
        );
    }

    /// Appends an SLO state transition (oldest evicted at capacity).
    pub fn record_slo_transition(&self, transition: SloTransition) {
        push_bounded(&self.transitions, self.config.max_events, transition);
    }

    /// Retained snapshots, oldest first.
    pub fn snapshots(&self) -> Vec<FlightSnapshot> {
        drain(&self.snapshots)
    }

    /// Retained SLO transitions, oldest first.
    pub fn transitions(&self) -> Vec<SloTransition> {
        drain(&self.transitions)
    }

    /// Number of retained snapshots.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_flatten_every_metric_kind() {
        let registry = MetricsRegistry::new();
        registry.counter("reqs_total", &[("route", "/x")]).add(3);
        registry.gauge("depth", &[]).set(2.5);
        registry.histogram("lat_seconds", &[]).record(0.5);
        registry
            .windowed_histogram("lat_w_seconds", &[])
            .record(1.0);
        let flight = FlightRecorder::default();
        flight.force_snapshot(&registry);
        let snapshots = flight.snapshots();
        assert_eq!(snapshots.len(), 1);
        let find = |name: &str| {
            snapshots[0]
                .samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing sample {name}"))
                .value
        };
        assert_eq!(find("reqs_total"), 3.0);
        assert_eq!(find("depth"), 2.5);
        assert_eq!(find("lat_seconds_count"), 1.0);
        assert!(find("lat_seconds_p99") > 0.0);
        assert_eq!(find("lat_w_seconds_count"), 1.0);
        assert!(find("lat_w_seconds_windowed_p99") > 0.0);
    }

    #[test]
    fn rings_are_bounded() {
        let flight = FlightRecorder::new(FlightConfig {
            snapshot_interval_secs: 10,
            max_snapshots: 2,
            max_events: 3,
        });
        let registry = MetricsRegistry::new();
        for _ in 0..5 {
            flight.force_snapshot(&registry);
        }
        assert_eq!(flight.snapshot_count(), 2);
        for i in 0..5 {
            flight.record_slo_transition(SloTransition {
                ts_unix_ms: 0,
                objective: format!("o{i}"),
                from: SloState::Ok,
                to: SloState::Firing,
                fast_burn: f64::from(i),
                slow_burn: 0.0,
            });
        }
        let transitions = flight.transitions();
        assert_eq!(transitions.len(), 3);
        assert_eq!(transitions[0].objective, "o2", "oldest evicted first");
        assert_eq!(transitions[2].objective, "o4");
        assert_eq!(transitions[2].fast_burn, 4.0);
    }

    #[test]
    fn maybe_snapshot_captures_once_per_interval() {
        let flight = FlightRecorder::new(FlightConfig {
            snapshot_interval_secs: 3600, // far beyond any test run
            ..FlightConfig::default()
        });
        let registry = MetricsRegistry::new();
        assert!(flight.maybe_snapshot(&registry), "first call captures");
        assert!(!flight.maybe_snapshot(&registry), "same interval skips");
        assert_eq!(flight.snapshot_count(), 1);
    }
}
