//! Watermark-based backpressure (paper §IV-B1).
//!
//! Heron triggers backpressure when the data pending at any instance
//! exceeds a high watermark (default 100 MB) and resolves it only when the
//! pending data at every triggering instance falls below a low watermark
//! (default 50 MB). While backpressure is active, every spout in the
//! topology stops emitting. The hysteresis between the two watermarks is
//! what makes the observed per-minute "backpressure time" metric bimodal
//! ("either close to 60 (seconds) or 0"), an assumption the paper's models
//! lean on.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Watermark configuration in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WatermarkConfig {
    /// Queue size that triggers backpressure (Heron default: 100 MB).
    pub high_bytes: f64,
    /// Queue size below which a triggering instance releases backpressure
    /// (Heron default: 50 MB).
    pub low_bytes: f64,
}

impl Default for WatermarkConfig {
    fn default() -> Self {
        Self {
            high_bytes: 100.0 * 1024.0 * 1024.0,
            low_bytes: 50.0 * 1024.0 * 1024.0,
        }
    }
}

impl WatermarkConfig {
    /// Validates that `0 <= low < high`.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.low_bytes >= 0.0 && self.low_bytes < self.high_bytes) {
            return Err(format!(
                "watermarks must satisfy 0 <= low < high, got low={} high={}",
                self.low_bytes, self.high_bytes
            ));
        }
        Ok(())
    }

    /// Seconds until a queue at `queue_bytes`, filling at a constant
    /// `fill_bytes_per_sec`, first *exceeds* the high watermark (the
    /// trigger condition is strict `>`), or `None` if it never will.
    /// Used by the event-driven core to jump straight to the crossing
    /// instead of probing tick-by-tick.
    pub fn secs_to_high(&self, queue_bytes: f64, fill_bytes_per_sec: f64) -> Option<f64> {
        if queue_bytes > self.high_bytes {
            return Some(0.0);
        }
        if fill_bytes_per_sec <= 0.0 {
            return None;
        }
        Some((self.high_bytes - queue_bytes) / fill_bytes_per_sec)
    }

    /// Seconds until a queue at `queue_bytes`, draining at a constant
    /// `drain_bytes_per_sec`, first falls *below* the low watermark (the
    /// release condition is strict `<`), or `None` if it never will.
    pub fn secs_to_low(&self, queue_bytes: f64, drain_bytes_per_sec: f64) -> Option<f64> {
        if queue_bytes < self.low_bytes {
            return Some(0.0);
        }
        if drain_bytes_per_sec <= 0.0 {
            return None;
        }
        Some((queue_bytes - self.low_bytes) / drain_bytes_per_sec)
    }
}

/// Tracks which instances currently hold the topology in backpressure.
#[derive(Debug, Clone)]
pub struct BackpressureTracker {
    config: WatermarkConfig,
    /// Instances (by flat id) that crossed the high watermark and have not
    /// yet drained below the low watermark.
    triggering: BTreeSet<usize>,
}

impl BackpressureTracker {
    /// Creates a tracker.
    pub fn new(config: WatermarkConfig) -> Self {
        Self {
            config,
            triggering: BTreeSet::new(),
        }
    }

    /// Feeds the current queue size of one instance, updating its
    /// triggering state with watermark hysteresis.
    pub fn observe(&mut self, instance: usize, queue_bytes: f64) {
        if queue_bytes > self.config.high_bytes {
            self.triggering.insert(instance);
        } else if queue_bytes < self.config.low_bytes {
            self.triggering.remove(&instance);
        }
        // Between the watermarks the previous state persists (hysteresis).
    }

    /// True while any instance holds backpressure — spouts must not emit.
    pub fn active(&self) -> bool {
        !self.triggering.is_empty()
    }

    /// Flat ids of the instances currently triggering backpressure.
    pub fn triggering_instances(&self) -> impl Iterator<Item = usize> + '_ {
        self.triggering.iter().copied()
    }

    /// True if this specific instance is currently triggering.
    pub fn is_triggering(&self, instance: usize) -> bool {
        self.triggering.contains(&instance)
    }

    /// The configured watermarks.
    pub fn config(&self) -> WatermarkConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1024.0 * 1024.0;

    fn tracker() -> BackpressureTracker {
        BackpressureTracker::new(WatermarkConfig::default())
    }

    #[test]
    fn default_watermarks_match_heron() {
        let c = WatermarkConfig::default();
        assert_eq!(c.high_bytes, 100.0 * MB);
        assert_eq!(c.low_bytes, 50.0 * MB);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_inverted_watermarks() {
        assert!(WatermarkConfig {
            high_bytes: 10.0,
            low_bytes: 20.0
        }
        .validate()
        .is_err());
        assert!(WatermarkConfig {
            high_bytes: 10.0,
            low_bytes: -1.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn triggers_above_high_watermark() {
        let mut t = tracker();
        assert!(!t.active());
        t.observe(0, 99.0 * MB);
        assert!(!t.active());
        t.observe(0, 101.0 * MB);
        assert!(t.active());
        assert!(t.is_triggering(0));
    }

    #[test]
    fn hysteresis_between_watermarks() {
        let mut t = tracker();
        t.observe(0, 150.0 * MB);
        assert!(t.active());
        // Draining to 70 MB (between watermarks) keeps backpressure on —
        // this is exactly the "forced to continue in backpressure" regime
        // the paper describes.
        t.observe(0, 70.0 * MB);
        assert!(t.active());
        // Only below the low watermark does it release.
        t.observe(0, 49.0 * MB);
        assert!(!t.active());
    }

    #[test]
    fn resolves_only_when_all_triggering_instances_drain() {
        let mut t = tracker();
        t.observe(0, 150.0 * MB);
        t.observe(1, 150.0 * MB);
        assert!(t.active());
        t.observe(0, 10.0 * MB);
        assert!(t.active(), "instance 1 still holds backpressure");
        t.observe(1, 10.0 * MB);
        assert!(!t.active());
    }

    #[test]
    fn non_triggering_instance_between_watermarks_stays_clear() {
        let mut t = tracker();
        // 70 MB without ever crossing high: not triggering.
        t.observe(0, 70.0 * MB);
        assert!(!t.active());
    }

    #[test]
    fn crossing_time_to_high_watermark() {
        let c = WatermarkConfig::default();
        // 10 MB short of the high mark, filling at 2 MB/s → 5 s.
        let t = c.secs_to_high(90.0 * MB, 2.0 * MB).unwrap();
        assert!((t - 5.0).abs() < 1e-9);
        // Already above: crossing is immediate.
        assert_eq!(c.secs_to_high(150.0 * MB, 0.0), Some(0.0));
        // Exactly at the mark with no fill: strict `>` never fires.
        assert_eq!(c.secs_to_high(100.0 * MB, 0.0), None);
        // Draining queues never reach the high mark.
        assert_eq!(c.secs_to_high(90.0 * MB, -MB), None);
    }

    #[test]
    fn crossing_time_to_low_watermark() {
        let c = WatermarkConfig::default();
        // 20 MB above the low mark, draining at 4 MB/s → 5 s.
        let t = c.secs_to_low(70.0 * MB, 4.0 * MB).unwrap();
        assert!((t - 5.0).abs() < 1e-9);
        // Already below: release is immediate.
        assert_eq!(c.secs_to_low(10.0 * MB, 0.0), Some(0.0));
        // Exactly at the mark with no drain: strict `<` never fires.
        assert_eq!(c.secs_to_low(50.0 * MB, 0.0), None);
        // Filling queues never release.
        assert_eq!(c.secs_to_low(70.0 * MB, -MB), None);
    }

    #[test]
    fn triggering_instances_listed() {
        let mut t = tracker();
        t.observe(3, 200.0 * MB);
        t.observe(7, 200.0 * MB);
        let ids: Vec<usize> = t.triggering_instances().collect();
        assert_eq!(ids, vec![3, 7]);
    }
}
