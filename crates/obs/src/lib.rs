//! Zero-dependency observability substrate for Caladrius.
//!
//! Three pieces, each usable standalone:
//!
//! * [`registry`] — a sharded [`MetricsRegistry`] of atomic
//!   [`Counter`]s, [`Gauge`]s and lock-free log-bucketed
//!   [`Histogram`]s (p50/p90/p99/max at read time).
//! * [`span`] — [`RequestId`] propagation via thread-local
//!   [`RequestScope`]s, RAII [`SpanGuard`] timing, and a bounded
//!   [`TraceRing`] of recent [`SpanEvent`]s.
//! * [`prom`] — Prometheus text-format exposition of a registry
//!   snapshot.
//! * [`windowed`] — sliding-window [`WindowedHistogram`]s answering
//!   recent-horizon quantiles next to the lifetime view.
//! * [`slo`] — multi-window SLO burn-rate engine
//!   ([`SloRegistry`]/[`SloObjective`], Google-SRE style alerts).
//! * [`flight`] — a bounded [`FlightRecorder`] of periodic metric
//!   snapshots and SLO transitions.
//!
//! [`global::registry()`](global::registry) and
//! [`global::tracer()`](global::tracer) are the process-wide instances
//! everything in the workspace records into; `GET /metrics/service`
//! and `GET /trace/recent` in `caladrius-api` read them back out.

#![warn(missing_docs)]

pub mod clock;
pub mod flight;
pub mod global;
pub mod prom;
pub mod registry;
pub mod slo;
pub mod span;
pub mod windowed;

pub use flight::{FlightConfig, FlightRecorder, FlightSample, FlightSnapshot, SloTransition};
pub use global::{
    evaluate_slos, flight as global_flight, next_scope_id, registry as global_registry,
    slos as global_slos, span as global_span, tracer,
};
pub use prom::{render as render_prometheus, PROMETHEUS_CONTENT_TYPE};
pub use registry::{
    BucketCount, Counter, Gauge, Histogram, HistogramSnapshot, MetricFamily, MetricHandle,
    MetricKind, MetricRow, MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use slo::{SloConfig, SloObjective, SloRegistry, SloState, SloStatus, BURN_RATE_METRIC};
pub use span::{
    current_request_id, current_span_id, next_request_id, ParentSpanScope, RequestId, RequestScope,
    SpanEvent, SpanGuard, TraceRing,
};
pub use windowed::{WindowedHistogram, DEFAULT_WINDOW_SECS, DEFAULT_WINDOW_SLOTS};
