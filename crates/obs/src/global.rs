//! Process-wide default registry and trace ring.
//!
//! Components may also construct private [`MetricsRegistry`] /
//! [`TraceRing`] instances (tests do), but production code records into
//! these singletons so one `/metrics/service` scrape sees everything.
//! Because the registry is shared across every service instance in the
//! process, components that need exact per-instance counts register
//! their series with an instance-id label from [`next_scope_id`], and
//! remove them with [`MetricsRegistry::forget_labelled`] when dropped.

use crate::flight::FlightRecorder;
use crate::registry::MetricsRegistry;
use crate::slo::{SloRegistry, SloStatus};
use crate::span::{SpanGuard, TraceRing};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default capacity of the global trace ring.
const TRACE_RING_CAPACITY: usize = 2048;

static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
static TRACER: OnceLock<TraceRing> = OnceLock::new();
static SLOS: OnceLock<SloRegistry> = OnceLock::new();
static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();
static NEXT_SCOPE_ID: AtomicU64 = AtomicU64::new(0);

/// The process-wide metrics registry.
pub fn registry() -> &'static MetricsRegistry {
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// The process-wide trace ring (capacity 2048, oldest overwritten).
pub fn tracer() -> &'static TraceRing {
    TRACER.get_or_init(|| TraceRing::new(TRACE_RING_CAPACITY))
}

/// Starts a span recording into the global ring when dropped.
pub fn span(name: &'static str) -> SpanGuard<'static> {
    tracer().span(name)
}

/// The process-wide SLO objective directory.
pub fn slos() -> &'static SloRegistry {
    SLOS.get_or_init(SloRegistry::new)
}

/// The process-wide flight recorder (default bounds).
pub fn flight() -> &'static FlightRecorder {
    FLIGHT.get_or_init(FlightRecorder::default)
}

/// Evaluates every global SLO objective: refreshes the
/// `caladrius_slo_burn_rate` gauges in the global registry and records
/// state transitions into the global flight recorder.
pub fn evaluate_slos() -> Vec<SloStatus> {
    slos().evaluate(Some(registry()), Some(flight()))
}

/// Mints a process-unique id for labelling per-instance metric series
/// (e.g. `service="3"`), so exact per-instance counts survive many
/// instances sharing the global registry (tests run in one process).
pub fn next_scope_id() -> u64 {
    NEXT_SCOPE_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_and_tracer_are_singletons() {
        let c = registry().counter("obs_selftest_total", &[]);
        c.inc();
        assert!(registry().counter("obs_selftest_total", &[]).get() >= 1);
        let before = tracer().total_recorded();
        drop(span("obs.selftest"));
        assert!(tracer().total_recorded() > before);
        assert_ne!(next_scope_id(), next_scope_id());
    }
}
