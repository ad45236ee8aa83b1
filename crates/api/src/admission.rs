//! Admission control and load shedding at the HTTP edge.
//!
//! The fleet tier exposes one host to thousands of topologies, so the
//! API must protect its own latency SLO instead of queueing without
//! bound. Admission combines three signals, all read from handles that
//! already exist in `caladrius-obs`:
//!
//! 1. **p99 route latency** — when the per-route latency histogram's
//!    p99 exceeds the configured SLO, the route is overloaded.
//! 2. **Job-queue depth** — when the async job queue crosses a
//!    watermark, accepted work would only wait.
//! 3. **Token bucket** — a smooth rate limit under normal operation.
//!
//! High-priority requests (header `x-priority: high`) always pass:
//! shedding is for the long tail of low-priority replans. Shed requests
//! get `429 Too Many Requests` with a `Retry-After` hint, and every
//! shed increments `caladrius_fleet_shed_total{route,priority}`.

use parking_lot::Mutex;
use std::time::Instant;

/// Header carrying request priority (lower-case, as parsed).
pub const PRIORITY_HEADER: &str = "x-priority";

/// Request priority for admission: high-priority requests bypass load
/// shedding entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Must be served if at all possible (`x-priority: high`).
    High,
    /// Sheddable under overload (the default).
    Low,
}

impl Priority {
    /// Parses the `x-priority` header value; anything but `high` is low.
    pub fn from_header(value: Option<&str>) -> Priority {
        match value {
            Some(v) if v.eq_ignore_ascii_case("high") => Priority::High,
            _ => Priority::Low,
        }
    }

    /// The metric label value.
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Low => "low",
        }
    }
}

/// Knobs of the admission layer. The default is **disabled** (admit
/// everything), and no shipped caller turns it on: [`crate::FrontDoor::new`]
/// uses the default for one service and for a fleet alike. A caller
/// opts in through [`crate::FrontDoor::with_admission`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Master switch; when false every request is admitted.
    pub enabled: bool,
    /// Latency SLO: shed low-priority work while the route's observed
    /// p99 exceeds this many seconds.
    pub slo_p99_seconds: f64,
    /// Queue watermark: shed low-priority work while the async job
    /// queue is deeper than this.
    pub queue_depth_watermark: f64,
    /// Token bucket burst size (tokens).
    pub bucket_capacity: f64,
    /// Token bucket refill rate (tokens per second). Zero freezes the
    /// bucket, which makes tests deterministic.
    pub refill_per_second: f64,
    /// `Retry-After` hint (seconds) attached to shed responses.
    pub retry_after_seconds: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            slo_p99_seconds: 2.0,
            queue_depth_watermark: 64.0,
            bucket_capacity: 64.0,
            refill_per_second: 32.0,
            retry_after_seconds: 1,
        }
    }
}

/// Verdict of one admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Serve the request.
    Admit,
    /// Shed the request with `429` and this `Retry-After` hint.
    Shed {
        /// Seconds the client should wait before retrying.
        retry_after_seconds: u32,
    },
}

struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

/// Token-bucket + SLO + queue-watermark admission controller (see the
/// module docs for the decision order).
pub struct AdmissionController {
    config: AdmissionConfig,
    bucket: Mutex<TokenBucket>,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl AdmissionController {
    /// Builds a controller; describes the shed counter on the global
    /// registry.
    pub fn new(config: AdmissionConfig) -> Self {
        caladrius_obs::global_registry().describe(
            "caladrius_fleet_shed_total",
            "Requests shed by admission control, by route and priority",
        );
        let bucket = TokenBucket {
            tokens: config.bucket_capacity,
            last_refill: Instant::now(),
        };
        Self {
            config,
            bucket: Mutex::new(bucket),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Decides admission for one request given the route's observed p99
    /// (None while the histogram is empty) and the current job-queue
    /// depth. Records sheds to `caladrius_fleet_shed_total`.
    pub fn decide(
        &self,
        route: &str,
        priority: Priority,
        p99_seconds: Option<f64>,
        queue_depth: f64,
    ) -> AdmissionDecision {
        if !self.config.enabled || priority == Priority::High {
            return AdmissionDecision::Admit;
        }
        let over_slo = p99_seconds.is_some_and(|p99| p99 > self.config.slo_p99_seconds);
        let over_watermark = queue_depth > self.config.queue_depth_watermark;
        let reason = if over_slo {
            Some("slo")
        } else if over_watermark {
            Some("queue")
        } else if !self.take_token() {
            Some("tokens")
        } else {
            None
        };
        if let Some(reason) = reason {
            self.record_shed(route, priority, reason);
            return AdmissionDecision::Shed {
                retry_after_seconds: self.config.retry_after_seconds,
            };
        }
        AdmissionDecision::Admit
    }

    fn take_token(&self) -> bool {
        let mut bucket = self.bucket.lock();
        let now = Instant::now();
        let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
        bucket.last_refill = now;
        bucket.tokens = (bucket.tokens + elapsed * self.config.refill_per_second)
            .min(self.config.bucket_capacity);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn record_shed(&self, route: &str, priority: Priority, reason: &str) {
        caladrius_obs::global_registry()
            .counter(
                "caladrius_fleet_shed_total",
                &[("route", route), ("priority", priority.as_str())],
            )
            .inc();
        // The flight recorder keeps the last N individual decisions so
        // a shed storm can be reconstructed after the fact.
        caladrius_obs::global_flight().record_shed(route, priority.as_str(), reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled(config: AdmissionConfig) -> AdmissionConfig {
        AdmissionConfig {
            enabled: true,
            ..config
        }
    }

    #[test]
    fn disabled_controller_admits_everything() {
        let c = AdmissionController::new(AdmissionConfig::default());
        for _ in 0..1000 {
            assert_eq!(
                c.decide("/r", Priority::Low, Some(1.0e9), 1.0e9),
                AdmissionDecision::Admit
            );
        }
    }

    #[test]
    fn p99_over_slo_sheds_low_priority_only() {
        let c = AdmissionController::new(enabled(AdmissionConfig {
            slo_p99_seconds: 0.5,
            ..AdmissionConfig::default()
        }));
        assert_eq!(
            c.decide("/r", Priority::Low, Some(0.6), 0.0),
            AdmissionDecision::Shed {
                retry_after_seconds: 1
            }
        );
        // High priority bypasses the SLO check entirely.
        assert_eq!(
            c.decide("/r", Priority::High, Some(0.6), 0.0),
            AdmissionDecision::Admit
        );
        // Back under the SLO, low priority is admitted again.
        assert_eq!(
            c.decide("/r", Priority::Low, Some(0.4), 0.0),
            AdmissionDecision::Admit
        );
        // An empty histogram (no observed latency yet) never sheds.
        assert_eq!(
            c.decide("/r", Priority::Low, None, 0.0),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn queue_watermark_sheds() {
        let c = AdmissionController::new(enabled(AdmissionConfig {
            queue_depth_watermark: 4.0,
            ..AdmissionConfig::default()
        }));
        assert_eq!(
            c.decide("/r", Priority::Low, None, 5.0),
            AdmissionDecision::Shed {
                retry_after_seconds: 1
            }
        );
        assert_eq!(
            c.decide("/r", Priority::Low, None, 4.0),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn token_bucket_bounds_admitted_burst() {
        // Frozen bucket (no refill): exactly `capacity` admits, then shed.
        let c = AdmissionController::new(enabled(AdmissionConfig {
            bucket_capacity: 3.0,
            refill_per_second: 0.0,
            retry_after_seconds: 7,
            ..AdmissionConfig::default()
        }));
        for _ in 0..3 {
            assert_eq!(
                c.decide("/r", Priority::Low, None, 0.0),
                AdmissionDecision::Admit
            );
        }
        assert_eq!(
            c.decide("/r", Priority::Low, None, 0.0),
            AdmissionDecision::Shed {
                retry_after_seconds: 7
            }
        );
        // High priority ignores the bucket (and does not drain it).
        assert_eq!(
            c.decide("/r", Priority::High, None, 0.0),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn sheds_are_counted_by_route_and_priority() {
        let c = AdmissionController::new(enabled(AdmissionConfig {
            queue_depth_watermark: 0.0,
            ..AdmissionConfig::default()
        }));
        let counter = caladrius_obs::global_registry().counter(
            "caladrius_fleet_shed_total",
            &[("route", "/shed-count-test"), ("priority", "low")],
        );
        let before = counter.get();
        c.decide("/shed-count-test", Priority::Low, None, 1.0);
        c.decide("/shed-count-test", Priority::Low, None, 1.0);
        assert_eq!(counter.get(), before + 2);
    }

    #[test]
    fn windowed_p99_recovers_after_burst_while_lifetime_would_still_shed() {
        use caladrius_obs::WindowedHistogram;
        let c = AdmissionController::new(enabled(AdmissionConfig {
            slo_p99_seconds: 0.5,
            ..AdmissionConfig::default()
        }));
        // 6 × 10 s ring, driven through the deterministic clock hooks.
        let h = WindowedHistogram::with_window(6, 10);
        // A latency burst: both the recent and lifetime p99 blow the SLO
        // and admission sheds.
        for _ in 0..100 {
            h.record_at(5.0, 0);
        }
        let recent = h.quantile_at(0.99, 0);
        assert!(recent > 0.5, "{recent}");
        assert!(matches!(
            c.decide("/plan", Priority::Low, Some(recent), 0.0),
            AdmissionDecision::Shed { .. }
        ));
        // 70 s later the burst has rotated out of the 60 s horizon and
        // recent traffic is healthy: shedding stops.
        for _ in 0..100 {
            h.record_at(0.05, 70);
        }
        let recent = h.quantile_at(0.99, 70);
        assert!(recent < 0.5, "{recent}");
        assert_eq!(
            c.decide("/plan", Priority::Low, Some(recent), 0.0),
            AdmissionDecision::Admit
        );
        // The lifetime p99 still remembers the burst: feeding it instead
        // would keep shedding forever, which is exactly why the routes
        // feed the windowed quantile.
        let lifetime = h.snapshot().quantile(0.99);
        assert!(lifetime > 0.5, "{lifetime}");
        assert!(matches!(
            c.decide("/plan", Priority::Low, Some(lifetime), 0.0),
            AdmissionDecision::Shed { .. }
        ));
    }

    #[test]
    fn sheds_land_in_the_flight_recorder() {
        let c = AdmissionController::new(enabled(AdmissionConfig {
            queue_depth_watermark: 0.0,
            ..AdmissionConfig::default()
        }));
        c.decide("/flight-shed-test", Priority::Low, None, 1.0);
        let sheds = caladrius_obs::global_flight().sheds();
        assert!(
            sheds.iter().any(|s| s.route == "/flight-shed-test"
                && s.priority == "low"
                && s.reason == "queue"),
            "{sheds:?}"
        );
    }

    #[test]
    fn priority_parses_from_header() {
        assert_eq!(Priority::from_header(Some("high")), Priority::High);
        assert_eq!(Priority::from_header(Some("HIGH")), Priority::High);
        assert_eq!(Priority::from_header(Some("low")), Priority::Low);
        assert_eq!(Priority::from_header(Some("urgent")), Priority::Low);
        assert_eq!(Priority::from_header(None), Priority::Low);
        assert_eq!(Priority::High.as_str(), "high");
        assert_eq!(Priority::Low.as_str(), "low");
    }
}
