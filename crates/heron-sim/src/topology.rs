//! Topology specification: components, parallelism, resources, edges.

use crate::error::{Result, SimError};
use crate::grouping::Grouping;
use crate::profiles::RateProfile;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};

/// Per-instance resource request. The paper's evaluation allocates
/// "1 CPU core and 2 GB RAM per instance" (§V-A); those are the defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Resources {
    /// CPU cores allocated to each instance (cgroup limit).
    pub cpu_cores: f64,
    /// RAM in megabytes.
    pub ram_mb: u64,
}

impl Default for Resources {
    fn default() -> Self {
        Self {
            cpu_cores: 1.0,
            ram_mb: 2048,
        }
    }
}

/// The processing characteristics of one instance of a component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkProfile {
    /// Tuples per second one instance processes at exactly one core.
    /// Capacity scales linearly with allocated cores.
    pub capacity_per_core: f64,
    /// Output tuples emitted per input tuple processed (the paper's I/O
    /// coefficient α, e.g. ≈7.63 words per sentence for the Splitter).
    pub selectivity: f64,
    /// Size of each emitted tuple in bytes (drives queue byte accounting
    /// downstream).
    pub out_tuple_bytes: u32,
    /// Fraction of processing capacity lost to the instance's gateway
    /// thread at full input load. Models the small, input-rate-dependent
    /// throughput dip the paper observes in Fig. 5 ("competition for
    /// resources within the instances").
    pub gateway_overhead: f64,
    /// Fraction of processed tuples failed by user logic (the "errors"
    /// golden signal). Failed tuples are executed but emit nothing.
    pub fail_rate: f64,
}

impl WorkProfile {
    /// Creates a work profile with the default 1 % gateway overhead and no
    /// failures.
    pub fn new(capacity_per_core: f64, selectivity: f64, out_tuple_bytes: u32) -> Self {
        Self {
            capacity_per_core,
            selectivity,
            out_tuple_bytes,
            gateway_overhead: 0.01,
            fail_rate: 0.0,
        }
    }

    /// Overrides the gateway overhead fraction.
    pub fn with_gateway_overhead(mut self, overhead: f64) -> Self {
        self.gateway_overhead = overhead;
        self
    }

    /// Sets the user-logic failure rate.
    pub fn with_fail_rate(mut self, fail_rate: f64) -> Self {
        self.fail_rate = fail_rate;
        self
    }
}

/// What a component does: pull data in (spout) or process it (bolt).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ComponentKind {
    /// A source component. Its offered load comes from `profile`; `work`
    /// bounds its emission capacity and drives its CPU accounting.
    Spout {
        /// Offered load over time (the external source).
        profile: RateProfile,
        /// Emission capacity / CPU characteristics.
        work: WorkProfile,
    },
    /// A processing component.
    Bolt {
        /// Processing capacity, selectivity and output sizing.
        work: WorkProfile,
    },
}

impl ComponentKind {
    /// This component's work profile.
    pub fn work(&self) -> &WorkProfile {
        match self {
            ComponentKind::Spout { work, .. } | ComponentKind::Bolt { work } => work,
        }
    }

    /// True for spouts.
    pub fn is_spout(&self) -> bool {
        matches!(self, ComponentKind::Spout { .. })
    }
}

/// One logical component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Component {
    /// Unique component name.
    pub name: String,
    /// Spout or bolt behaviour.
    pub kind: ComponentKind,
    /// Number of parallel instances.
    pub parallelism: u32,
    /// Per-instance resource request.
    pub resources: Resources,
}

impl Component {
    /// Checks the component's own inputs: positive parallelism, finite
    /// positive capacity and CPU request, finite non-negative
    /// selectivity, gateway overhead in `[0, 1)`, fail rate in `[0, 1]`
    /// and, for spouts, a valid rate profile ([`RateProfile::validate`]).
    pub(crate) fn validate(&self) -> Result<()> {
        let invalid = |what: String| {
            Err(SimError::InvalidTopology(format!(
                "component {:?} {what}",
                self.name
            )))
        };
        if self.parallelism == 0 {
            return invalid("has zero parallelism".into());
        }
        let work = self.kind.work();
        if !(work.capacity_per_core > 0.0 && work.capacity_per_core.is_finite()) {
            return invalid("must have positive processing capacity".into());
        }
        if !(work.selectivity >= 0.0 && work.selectivity.is_finite()) {
            return invalid("has invalid selectivity".into());
        }
        if !(0.0..1.0).contains(&work.gateway_overhead) {
            return invalid("gateway overhead must be in [0, 1)".into());
        }
        if !(0.0..=1.0).contains(&work.fail_rate) {
            return invalid("fail rate must be in [0, 1]".into());
        }
        if !(self.resources.cpu_cores > 0.0 && self.resources.cpu_cores.is_finite()) {
            return invalid("must request positive, finite CPU".into());
        }
        if let ComponentKind::Spout { profile, .. } = &self.kind {
            if let Err(why) = profile.validate() {
                return invalid(format!("has an invalid rate profile: {why}"));
            }
        }
        Ok(())
    }
}

/// One stream between two components.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// Index of the upstream component in [`Topology::components`].
    pub from: usize,
    /// Index of the downstream component.
    pub to: usize,
    /// How tuples are partitioned across downstream instances.
    pub grouping: Grouping,
}

/// A validated topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Topology name.
    pub name: String,
    /// Components in declaration order.
    pub components: Vec<Component>,
    /// Streams.
    pub edges: Vec<EdgeSpec>,
}

impl Topology {
    /// Index of a component by name.
    pub fn component_index(&self, name: &str) -> Result<usize> {
        self.components
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| SimError::UnknownComponent(name.to_string()))
    }

    /// Borrow of a component by name.
    pub fn component(&self, name: &str) -> Result<&Component> {
        Ok(&self.components[self.component_index(name)?])
    }

    /// Total number of instances across all components.
    pub fn total_instances(&self) -> u32 {
        self.components.iter().map(|c| c.parallelism).sum()
    }

    /// `component name → parallelism` map.
    pub fn parallelisms(&self) -> HashMap<String, u32> {
        self.components
            .iter()
            .map(|c| (c.name.clone(), c.parallelism))
            .collect()
    }

    /// Returns a copy with one component's parallelism changed — the
    /// simulator-side analog of Heron's `update` command.
    pub fn with_parallelism(&self, component: &str, parallelism: u32) -> Result<Topology> {
        if parallelism == 0 {
            return Err(SimError::InvalidTopology(format!(
                "parallelism of {component:?} must be positive"
            )));
        }
        let idx = self.component_index(component)?;
        let mut out = self.clone();
        out.components[idx].parallelism = parallelism;
        Ok(out)
    }

    /// Returns a copy with several parallelism updates applied.
    pub fn with_parallelisms(&self, updates: &[(&str, u32)]) -> Result<Topology> {
        let mut out = self.clone();
        for (name, p) in updates {
            out = out.with_parallelism(name, *p)?;
        }
        Ok(out)
    }

    /// Returns a copy whose spouts offer a constant topology-level
    /// `rate_per_min` (split evenly across spout components) — the
    /// replay-at-a-forecast-rate operation capacity planning validation
    /// needs.
    pub fn with_source_rate(&self, rate_per_min: f64) -> Result<Topology> {
        if !(rate_per_min.is_finite() && rate_per_min >= 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "source rate must be non-negative, got {rate_per_min}"
            )));
        }
        let spouts = self.spout_indices();
        if spouts.is_empty() {
            return Err(SimError::InvalidTopology("topology has no spout".into()));
        }
        let spout_share = rate_per_min / spouts.len() as f64;
        let mut out = self.clone();
        for idx in spouts {
            if let ComponentKind::Spout { profile, .. } = &mut out.components[idx].kind {
                *profile = RateProfile::constant_per_min(spout_share);
            }
        }
        Ok(out)
    }

    /// A copy of this topology with every spout following `source`
    /// (each spout component offers the full profile; split the rate
    /// beforehand for multi-spout topologies).
    pub fn with_source_profile(&self, source: &RateProfile) -> Result<Topology> {
        source.validate().map_err(SimError::InvalidConfig)?;
        let spouts = self.spout_indices();
        if spouts.is_empty() {
            return Err(SimError::InvalidTopology("topology has no spout".into()));
        }
        let mut out = self.clone();
        for idx in spouts {
            if let ComponentKind::Spout { profile, .. } = &mut out.components[idx].kind {
                *profile = source.clone();
            }
        }
        Ok(out)
    }

    /// Edges leaving component `idx`.
    pub fn out_edges(&self, idx: usize) -> impl Iterator<Item = &EdgeSpec> {
        self.edges.iter().filter(move |e| e.from == idx)
    }

    /// Edges entering component `idx`.
    pub fn in_edges(&self, idx: usize) -> impl Iterator<Item = &EdgeSpec> {
        self.edges.iter().filter(move |e| e.to == idx)
    }

    /// Indices of spout components.
    pub fn spout_indices(&self) -> Vec<usize> {
        self.components
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.is_spout())
            .map(|(i, _)| i)
            .collect()
    }

    /// Components in a topological order (spouts first). A cyclic
    /// topology yields fewer than `components.len()` entries — the
    /// components on or behind a cycle are missing — which is how
    /// [`Topology::validate`] detects one.
    pub fn topo_order(&self) -> Vec<usize> {
        let n = self.components.len();
        let mut in_deg = vec![0usize; n];
        for e in &self.edges {
            in_deg[e.to] += 1;
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|i| in_deg[*i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for e in self.out_edges(v) {
                in_deg[e.to] -= 1;
                if in_deg[e.to] == 0 {
                    queue.push_back(e.to);
                }
            }
        }
        order
    }

    /// Checks the whole topology: every component's own inputs, unique
    /// names, at least one spout, edge endpoints in range, no stream into
    /// a spout, no cycle, and every component reachable from a spout.
    /// [`TopologyBuilder::build`] and `Simulation::new` both call it, so
    /// a topology edited through its public fields is held to the same
    /// rules as a built one.
    pub fn validate(&self) -> Result<()> {
        let invalid = |why: String| Err(SimError::InvalidTopology(why));
        let mut names = HashSet::new();
        for c in &self.components {
            c.validate()?;
            if !names.insert(c.name.as_str()) {
                return invalid(format!("duplicate component name {:?}", c.name));
            }
        }
        let n = self.components.len();
        if !self.components.iter().any(|c| c.kind.is_spout()) {
            return invalid("topology has no spout".into());
        }
        for e in &self.edges {
            if e.from >= n || e.to >= n {
                return invalid(format!(
                    "edge {} -> {} names a component outside 0..{n}",
                    e.from, e.to
                ));
            }
            if self.components[e.to].kind.is_spout() {
                return invalid(format!(
                    "spout {:?} cannot have incoming streams",
                    self.components[e.to].name
                ));
            }
        }
        if self.topo_order().len() != n {
            return invalid("topology contains a cycle".into());
        }
        // Every bolt must be reachable from a spout (otherwise it would
        // starve forever, which is almost certainly a specification bug).
        // In a DAG every component is reachable from some component
        // without inputs, so it suffices that every bolt has an input.
        let fed = |i: usize| self.in_edges(i).next().is_some();
        if let Some(c) = (0..n).find(|&i| !self.components[i].kind.is_spout() && !fed(i)) {
            return invalid(format!(
                "component {:?} is not reachable from any spout",
                self.components[c].name
            ));
        }
        Ok(())
    }
}

/// Fluent builder for [`Topology`], performing full validation in
/// [`TopologyBuilder::build`].
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    components: Vec<Component>,
    edges: Vec<(String, String, Grouping)>,
}

impl TopologyBuilder {
    /// Starts a new topology.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            components: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a spout with default resources and effectively unbounded
    /// emission capacity (the paper's rate-controlled benchmark spout).
    pub fn spout(
        self,
        name: impl Into<String>,
        parallelism: u32,
        profile: RateProfile,
        tuple_bytes: u32,
    ) -> Self {
        // A very high capacity per core keeps the spout off the critical
        // path, matching the paper's experimental setup; CPU accounting
        // still scales with the emitted volume.
        let work = WorkProfile::new(1.0e9, 1.0, tuple_bytes).with_gateway_overhead(0.0);
        self.spout_with(name, parallelism, profile, work, Resources::default())
    }

    /// Adds a spout with full control over work profile and resources.
    pub fn spout_with(
        mut self,
        name: impl Into<String>,
        parallelism: u32,
        profile: RateProfile,
        work: WorkProfile,
        resources: Resources,
    ) -> Self {
        self.components.push(Component {
            name: name.into(),
            kind: ComponentKind::Spout { profile, work },
            parallelism,
            resources,
        });
        self
    }

    /// Adds a bolt with default resources (1 core, 2 GB).
    pub fn bolt(self, name: impl Into<String>, parallelism: u32, work: WorkProfile) -> Self {
        self.bolt_with(name, parallelism, work, Resources::default())
    }

    /// Adds a bolt with explicit resources.
    pub fn bolt_with(
        mut self,
        name: impl Into<String>,
        parallelism: u32,
        work: WorkProfile,
        resources: Resources,
    ) -> Self {
        self.components.push(Component {
            name: name.into(),
            kind: ComponentKind::Bolt { work },
            parallelism,
            resources,
        });
        self
    }

    /// Connects two components with a grouping.
    pub fn edge(
        mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        grouping: Grouping,
    ) -> Self {
        self.edges.push((from.into(), to.into(), grouping));
        self
    }

    /// Resolves the edges' component names and builds the topology,
    /// checked by [`Topology::validate`].
    pub fn build(self) -> Result<Topology> {
        let index = |name: &str| {
            self.components
                .iter()
                .position(|c| c.name == name)
                .ok_or_else(|| SimError::UnknownComponent(name.to_string()))
        };
        let edges = self
            .edges
            .iter()
            .map(|(from, to, grouping)| {
                Ok(EdgeSpec {
                    from: index(from)?,
                    to: index(to)?,
                    grouping: grouping.clone(),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let topo = Topology {
            name: self.name,
            components: self.components,
            edges,
        };
        topo.validate()?;
        Ok(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wordcount() -> Topology {
        TopologyBuilder::new("wc")
            .spout("spout", 2, RateProfile::constant(100.0), 60)
            .bolt("splitter", 2, WorkProfile::new(1000.0, 7.63, 8))
            .bolt("counter", 4, WorkProfile::new(5000.0, 1.0, 16))
            .edge("spout", "splitter", Grouping::shuffle())
            .edge("splitter", "counter", Grouping::fields_uniform())
            .build()
            .unwrap()
    }

    #[test]
    fn builds_valid_topology() {
        let t = wordcount();
        assert_eq!(t.components.len(), 3);
        assert_eq!(t.edges.len(), 2);
        assert_eq!(t.total_instances(), 8);
        assert_eq!(t.spout_indices(), vec![0]);
    }

    #[test]
    fn lookup_by_name() {
        let t = wordcount();
        assert_eq!(t.component_index("counter").unwrap(), 2);
        assert_eq!(t.component("splitter").unwrap().parallelism, 2);
        assert!(matches!(
            t.component_index("nope"),
            Err(SimError::UnknownComponent(_))
        ));
    }

    #[test]
    fn topo_order_spouts_first() {
        let t = wordcount();
        assert_eq!(t.topo_order(), vec![0, 1, 2]);
    }

    #[test]
    fn with_parallelism_is_a_dry_run_update() {
        let t = wordcount();
        let t2 = t.with_parallelism("splitter", 4).unwrap();
        assert_eq!(t2.component("splitter").unwrap().parallelism, 4);
        // Original unchanged (dry-run semantics).
        assert_eq!(t.component("splitter").unwrap().parallelism, 2);
        assert!(t.with_parallelism("splitter", 0).is_err());
        assert!(t.with_parallelism("ghost", 1).is_err());
    }

    #[test]
    fn with_parallelisms_batch() {
        let t = wordcount()
            .with_parallelisms(&[("spout", 3), ("counter", 8)])
            .unwrap();
        assert_eq!(t.component("spout").unwrap().parallelism, 3);
        assert_eq!(t.component("counter").unwrap().parallelism, 8);
    }

    #[test]
    fn rejects_no_spout() {
        let err = TopologyBuilder::new("t")
            .bolt("b", 1, WorkProfile::new(1.0, 1.0, 8))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(msg) if msg.contains("spout")));
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = TopologyBuilder::new("t")
            .spout("a", 1, RateProfile::constant(1.0), 8)
            .bolt("a", 1, WorkProfile::new(1.0, 1.0, 8))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(msg) if msg.contains("duplicate")));
    }

    #[test]
    fn rejects_zero_parallelism() {
        let err = TopologyBuilder::new("t")
            .spout("a", 0, RateProfile::constant(1.0), 8)
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(msg) if msg.contains("parallelism")));
    }

    #[test]
    fn rejects_edge_into_spout() {
        let err = TopologyBuilder::new("t")
            .spout("a", 1, RateProfile::constant(1.0), 8)
            .bolt("b", 1, WorkProfile::new(1.0, 1.0, 8))
            .edge("a", "b", Grouping::shuffle())
            .edge("b", "a", Grouping::shuffle())
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(msg) if msg.contains("incoming")));
    }

    #[test]
    fn rejects_cycle() {
        let err = TopologyBuilder::new("t")
            .spout("s", 1, RateProfile::constant(1.0), 8)
            .bolt("a", 1, WorkProfile::new(1.0, 1.0, 8))
            .bolt("b", 1, WorkProfile::new(1.0, 1.0, 8))
            .edge("s", "a", Grouping::shuffle())
            .edge("a", "b", Grouping::shuffle())
            .edge("b", "a", Grouping::shuffle())
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(msg) if msg.contains("cycle")));
    }

    #[test]
    fn rejects_unreachable_bolt() {
        let err = TopologyBuilder::new("t")
            .spout("s", 1, RateProfile::constant(1.0), 8)
            .bolt("a", 1, WorkProfile::new(1.0, 1.0, 8))
            .bolt("orphan", 1, WorkProfile::new(1.0, 1.0, 8))
            .edge("s", "a", Grouping::shuffle())
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(msg) if msg.contains("reachable")));
    }

    #[test]
    fn rejects_bad_work_profiles() {
        let err = TopologyBuilder::new("t")
            .spout("s", 1, RateProfile::constant(1.0), 8)
            .bolt("b", 1, WorkProfile::new(0.0, 1.0, 8))
            .edge("s", "b", Grouping::shuffle())
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(msg) if msg.contains("capacity")));

        let err = TopologyBuilder::new("t")
            .spout("s", 1, RateProfile::constant(1.0), 8)
            .bolt("b", 1, WorkProfile::new(1.0, -1.0, 8))
            .edge("s", "b", Grouping::shuffle())
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(msg) if msg.contains("selectivity")));
    }

    #[test]
    fn rejects_unknown_edge_endpoint() {
        let err = TopologyBuilder::new("t")
            .spout("s", 1, RateProfile::constant(1.0), 8)
            .edge("s", "ghost", Grouping::shuffle())
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownComponent(name) if name == "ghost"));
    }

    #[test]
    fn default_resources_match_paper() {
        let r = Resources::default();
        assert_eq!(r.cpu_cores, 1.0);
        assert_eq!(r.ram_mb, 2048);
    }

    #[test]
    fn in_and_out_edges() {
        let t = wordcount();
        assert_eq!(t.out_edges(0).count(), 1);
        assert_eq!(t.in_edges(2).count(), 1);
        assert_eq!(t.in_edges(0).count(), 0);
    }
}
