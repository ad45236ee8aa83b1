//! # caladrius-tsdb
//!
//! An embedded, in-memory time-series metrics database.
//!
//! This crate is the substrate standing in for the metrics stores used by the
//! Caladrius paper (Twitter's Cuckoo time-series database and Heron's
//! `MetricsCache`). It provides everything Caladrius's *metrics provider
//! interface* needs:
//!
//! * tagged series identified by a metric name plus `tag=value` pairs
//!   (topology, component, instance, container, ...),
//! * append-mostly ingestion with out-of-order tolerance,
//! * Gorilla-style compression of sealed chunks (delta-of-delta timestamps,
//!   XOR-encoded floats),
//! * range queries, bucketed (down-sampled) aggregation, group-by-tag
//!   queries and rate conversion,
//! * retention enforcement.
//!
//! The database is safe for concurrent use: ingestion and queries take the
//! catalog lock briefly and then operate on per-series locks.
//!
//! ```
//! use caladrius_tsdb::{MetricsDb, SeriesKey, query::{Aggregation, TagFilter}};
//!
//! let db = MetricsDb::new();
//! let key = SeriesKey::new("emit-count")
//!     .with_tag("topology", "wordcount")
//!     .with_tag("component", "splitter")
//!     .with_tag("instance", "0");
//! let handle = db.register(&key);
//! for minute in 0..10 {
//!     db.append(&handle, minute * 60_000, 1000.0 + minute as f64);
//! }
//! let out = db
//!     .select("emit-count", &[TagFilter::eq("component", "splitter")], 0, i64::MAX)
//!     .unwrap();
//! assert_eq!(out.len(), 1);
//! assert_eq!(out[0].1.len(), 10);
//! let total = Aggregation::Sum.apply(out[0].1.iter().map(|s| s.value));
//! assert!((total - 10_045.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod db;
pub mod encoding;
pub mod error;
pub mod query;
pub mod retention;
pub mod series;

pub use catalog::{Catalog, SeriesId};
pub use db::{IngestStats, MetricBatch, MetricsDb, SeriesHandle, TailCacheStats};
pub use error::{Error, Result};
pub use query::{Aggregation, TagFilter};
pub use series::{Sample, Series, SeriesKey};
