//! # caladrius-graph
//!
//! The topology graph layer the Caladrius paper builds on Apache TinkerPop
//! (§III-C1). The paper uses it for path calculations over a topology, and
//! that is all this crate does:
//!
//! * [`LogicalSpec`] — a topology description: named components with
//!   parallelism, joined by grouped streams;
//! * [`TopologyDag`] — the spec validated once into an index-based DAG
//!   (components in declaration order, out-edges in CSR form, spouts,
//!   sinks and a topological order);
//! * [`TopologyDag::instance_path_count`] — the instance-level path count
//!   (the "16 possible paths" of the paper's Fig. 1c) as a checked DP over
//!   components, never an enumeration;
//! * [`TopologyDag::spout_sink_paths`] — the component-level critical-path
//!   candidates of Fig. 10, for offline analysis.
//!
//! ```
//! use caladrius_graph::topology_graph::{LogicalSpec, TopologyDag};
//!
//! let spec = LogicalSpec::new("wordcount")
//!     .component("spout", 2)
//!     .component("splitter", 2)
//!     .component("counter", 4)
//!     .edge("spout", "splitter", "shuffle")
//!     .edge("splitter", "counter", "fields");
//! let dag = TopologyDag::new(&spec).unwrap();
//! assert_eq!(dag.len(), 3);
//! assert_eq!(dag.spout_sink_paths(), vec![vec![0, 1, 2]]);
//! // Instance-level path count through the physical topology: 2 * 2 * 4.
//! assert_eq!(dag.instance_path_count().unwrap(), 16);
//! ```

#![warn(missing_docs)]

pub mod topology_graph;

pub use topology_graph::{LogicalSpec, TopologyDag, TopologyGraphError};
