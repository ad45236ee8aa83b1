//! A topology description and the typed DAG Caladrius runs its path
//! calculations over (paper §III-C1).
//!
//! The spec type here is deliberately independent of the simulator so that
//! this crate stays a generic substrate; `caladrius-core` adapts simulator
//! topologies into [`LogicalSpec`]s and builds a [`TopologyDag`] from one
//! whenever it needs the structure.

use std::collections::HashMap;

/// Errors from topology graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyGraphError {
    /// An edge references a component that was never declared.
    UnknownComponent(String),
    /// A component was declared twice.
    DuplicateComponent(String),
    /// A component has zero parallelism.
    ZeroParallelism(String),
    /// The logical graph has a directed cycle.
    NotADag,
    /// The instance-level path count exceeds the `u64` range (deep
    /// topologies multiply per-layer parallelism).
    PathCountOverflow,
}

impl std::fmt::Display for TopologyGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyGraphError::UnknownComponent(c) => write!(f, "unknown component {c:?}"),
            TopologyGraphError::DuplicateComponent(c) => write!(f, "duplicate component {c:?}"),
            TopologyGraphError::ZeroParallelism(c) => {
                write!(f, "component {c:?} has zero parallelism")
            }
            TopologyGraphError::NotADag => write!(f, "topology graph is not a DAG"),
            TopologyGraphError::PathCountOverflow => {
                write!(f, "instance path count exceeds the u64 range")
            }
        }
    }
}

impl std::error::Error for TopologyGraphError {}

/// A minimal logical topology description: named components with
/// parallelism, connected by grouped streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalSpec {
    /// Topology name.
    pub name: String,
    /// `(component name, parallelism)` in declaration order.
    pub components: Vec<(String, u32)>,
    /// `(from, to, grouping)` streams.
    pub edges: Vec<(String, String, String)>,
}

impl LogicalSpec {
    /// Creates an empty spec.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            components: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Declares a component.
    pub fn component(mut self, name: impl Into<String>, parallelism: u32) -> Self {
        self.components.push((name.into(), parallelism));
        self
    }

    /// Declares a stream between two components.
    pub fn edge(
        mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        grouping: impl Into<String>,
    ) -> Self {
        self.edges.push((from.into(), to.into(), grouping.into()));
        self
    }
}

/// A validated logical topology. Components are numbered in declaration
/// order and edges in spec order; every method speaks those indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyDag {
    names: Vec<String>,
    parallelism: Vec<u32>,
    /// `(from, to)` of every spec edge, in spec order.
    edges: Vec<(usize, usize)>,
    /// Successors of component `v` are `targets[offsets[v]..offsets[v + 1]]`,
    /// in spec edge order.
    offsets: Vec<usize>,
    targets: Vec<usize>,
    spouts: Vec<usize>,
    sinks: Vec<usize>,
    order: Vec<usize>,
}

impl TopologyDag {
    /// Validates `spec` and builds its DAG. Checks run in a fixed order:
    /// each component's parallelism and uniqueness in declaration order,
    /// then each edge's endpoints (source first) in spec order, then
    /// acyclicity.
    pub fn new(spec: &LogicalSpec) -> Result<Self, TopologyGraphError> {
        let mut index: HashMap<&str, usize> = HashMap::with_capacity(spec.components.len());
        for (v, (name, p)) in spec.components.iter().enumerate() {
            if *p == 0 {
                return Err(TopologyGraphError::ZeroParallelism(name.clone()));
            }
            if index.insert(name.as_str(), v).is_some() {
                return Err(TopologyGraphError::DuplicateComponent(name.clone()));
            }
        }
        let endpoint = |c: &String| {
            index
                .get(c.as_str())
                .copied()
                .ok_or_else(|| TopologyGraphError::UnknownComponent(c.clone()))
        };
        let edges = spec
            .edges
            .iter()
            .map(|(from, to, _)| Ok((endpoint(from)?, endpoint(to)?)))
            .collect::<Result<Vec<_>, _>>()?;

        // Out-edges as CSR: a counting sort by source keeps spec order.
        let n = spec.components.len();
        let mut offsets = vec![0; n + 1];
        let mut in_degree = vec![0usize; n];
        for &(from, to) in &edges {
            offsets[from + 1] += 1;
            in_degree[to] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0; edges.len()];
        for &(from, to) in &edges {
            targets[fill[from]] = to;
            fill[from] += 1;
        }

        let spouts: Vec<usize> = (0..n).filter(|&v| in_degree[v] == 0).collect();
        let sinks: Vec<usize> = (0..n).filter(|&v| offsets[v] == offsets[v + 1]).collect();

        // Kahn's algorithm, seeded in declaration order. `order` is its
        // own FIFO queue: every component enters it once.
        let mut order = spouts.clone();
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            for &w in &targets[offsets[v]..offsets[v + 1]] {
                in_degree[w] -= 1;
                if in_degree[w] == 0 {
                    order.push(w);
                }
            }
        }
        if order.len() < n {
            return Err(TopologyGraphError::NotADag);
        }

        Ok(Self {
            names: spec
                .components
                .iter()
                .map(|(name, _)| name.clone())
                .collect(),
            parallelism: spec.components.iter().map(|(_, p)| *p).collect(),
            edges,
            offsets,
            targets,
            spouts,
            sinks,
            order,
        })
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True for a topology without components.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of component `v`.
    pub fn name(&self, v: usize) -> &str {
        &self.names[v]
    }

    /// Parallelism of component `v`.
    pub fn parallelism(&self, v: usize) -> u32 {
        self.parallelism[v]
    }

    /// `(from, to)` of every spec edge, in spec order.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Where `v`'s streams lead, one entry per out-edge in spec order.
    pub fn successors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Components without incoming edges, in declaration order.
    pub fn spouts(&self) -> &[usize] {
        &self.spouts
    }

    /// Components without outgoing edges, in declaration order.
    pub fn sinks(&self) -> &[usize] {
        &self.sinks
    }

    /// Every component in topological order: Kahn's algorithm with a FIFO
    /// queue seeded with the spouts in declaration order, successors
    /// released in edge order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Number of distinct instance-level paths through the topology — the
    /// quantity the paper's Fig. 1c discusses ("there are 16 possible
    /// paths").
    ///
    /// Stream managers are excluded (the paper notes they do not increase
    /// the number of possible paths): every instance of a component feeds
    /// every instance of each downstream component. Counted by a DP in
    /// reverse topological order, `paths(v) = p_v · (1 if v is a sink,
    /// else Σ paths(w) over its successors)`, summed over the spouts.
    /// Every partial result is at most the total, so the count is `Ok`
    /// exactly when it fits in a `u64`.
    pub fn instance_path_count(&self) -> Result<u64, TopologyGraphError> {
        let overflow = || TopologyGraphError::PathCountOverflow;
        let mut paths = vec![0u64; self.len()];
        for &v in self.order.iter().rev() {
            let successors = self.successors(v);
            let onward = if successors.is_empty() {
                1
            } else {
                successors
                    .iter()
                    .try_fold(0u64, |sum, &w| sum.checked_add(paths[w]))
                    .ok_or_else(overflow)?
            };
            paths[v] = onward
                .checked_mul(u64::from(self.parallelism[v]))
                .ok_or_else(overflow)?;
        }
        self.spouts
            .iter()
            .try_fold(0u64, |sum, &s| sum.checked_add(paths[s]))
            .ok_or_else(overflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wordcount() -> LogicalSpec {
        LogicalSpec::new("wc")
            .component("spout", 2)
            .component("splitter", 2)
            .component("counter", 4)
            .edge("spout", "splitter", "shuffle")
            .edge("splitter", "counter", "fields")
    }

    fn diamond() -> LogicalSpec {
        LogicalSpec::new("d")
            .component("a", 1)
            .component("b", 1)
            .component("c", 1)
            .component("d", 1)
            .edge("a", "b", "shuffle")
            .edge("a", "c", "shuffle")
            .edge("b", "d", "shuffle")
            .edge("c", "d", "shuffle")
    }

    #[test]
    fn dag_structure() {
        let dag = TopologyDag::new(&wordcount()).unwrap();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(dag.name(1), "splitter");
        assert_eq!(dag.parallelism(2), 4);
        assert_eq!(dag.successors(0), &[1]);
        assert!(dag.successors(2).is_empty());
        assert_eq!(dag.spouts(), &[0]);
        assert_eq!(dag.sinks(), &[2]);
        assert_eq!(dag.order(), &[0, 1, 2]);
    }

    #[test]
    fn order_is_fifo_kahn() {
        // Declared sink-first: Kahn's queue starts at the spout and
        // releases b before c (edge order), then d.
        let spec = LogicalSpec::new("d")
            .component("d", 1)
            .component("c", 1)
            .component("a", 1)
            .component("b", 1)
            .edge("a", "b", "shuffle")
            .edge("a", "c", "shuffle")
            .edge("b", "d", "shuffle")
            .edge("c", "d", "shuffle");
        assert_eq!(TopologyDag::new(&spec).unwrap().order(), &[2, 3, 1, 0]);
    }

    #[test]
    fn validation_unknown_component() {
        let spec = LogicalSpec::new("bad")
            .component("a", 1)
            .edge("a", "b", "shuffle");
        assert_eq!(
            TopologyDag::new(&spec).unwrap_err(),
            TopologyGraphError::UnknownComponent("b".into())
        );
    }

    #[test]
    fn validation_duplicate_component() {
        let spec = LogicalSpec::new("bad").component("a", 1).component("a", 2);
        assert_eq!(
            TopologyDag::new(&spec).unwrap_err(),
            TopologyGraphError::DuplicateComponent("a".into())
        );
    }

    #[test]
    fn validation_zero_parallelism() {
        let spec = LogicalSpec::new("bad").component("a", 0);
        assert_eq!(
            TopologyDag::new(&spec).unwrap_err(),
            TopologyGraphError::ZeroParallelism("a".into())
        );
    }

    #[test]
    fn validation_cycle() {
        let spec = LogicalSpec::new("bad")
            .component("a", 1)
            .component("b", 1)
            .edge("a", "b", "shuffle")
            .edge("b", "a", "shuffle");
        assert_eq!(
            TopologyDag::new(&spec).unwrap_err(),
            TopologyGraphError::NotADag
        );
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let spec = LogicalSpec::new("bad")
            .component("a", 1)
            .edge("a", "a", "shuffle");
        assert_eq!(
            TopologyDag::new(&spec).unwrap_err(),
            TopologyGraphError::NotADag
        );
    }

    #[test]
    fn paper_fig1_has_16_paths() {
        let dag = TopologyDag::new(&wordcount()).unwrap();
        assert_eq!(dag.instance_path_count().unwrap(), 16);
    }

    #[test]
    fn path_count_overflow_is_an_error() {
        // A 40-layer chain at parallelism 4 has 4^40 instance paths, far
        // past u64::MAX (~1.8e19): the count must error, not wrap.
        let mut spec = LogicalSpec::new("deep");
        for layer in 0..40 {
            spec = spec.component(format!("c{layer}"), 4);
            if layer > 0 {
                spec = spec.edge(format!("c{}", layer - 1), format!("c{layer}"), "shuffle");
            }
        }
        assert_eq!(
            TopologyDag::new(&spec).unwrap().instance_path_count(),
            Err(TopologyGraphError::PathCountOverflow)
        );
    }

    #[test]
    fn path_count_is_exact_at_the_u64_edge() {
        // A chain of k diamonds has 2^k paths: 63 fit, 64 do not.
        let chain = |k: usize| {
            let mut spec = LogicalSpec::new("diamonds").component("j0", 1);
            for i in 0..k {
                let (join, next) = (format!("j{i}"), format!("j{}", i + 1));
                for branch in ["l", "r"] {
                    let b = format!("{branch}{i}");
                    spec = spec
                        .component(b.clone(), 1)
                        .edge(join.clone(), b.clone(), "shuffle")
                        .edge(b, next.clone(), "shuffle");
                }
                spec = spec.component(next, 1);
            }
            TopologyDag::new(&spec).unwrap().instance_path_count()
        };
        assert_eq!(chain(63), Ok(1u64 << 63));
        assert_eq!(chain(64), Err(TopologyGraphError::PathCountOverflow));
    }

    #[test]
    fn path_count_single_chain() {
        let spec = LogicalSpec::new("c")
            .component("a", 1)
            .component("b", 1)
            .edge("a", "b", "shuffle");
        assert_eq!(
            TopologyDag::new(&spec).unwrap().instance_path_count(),
            Ok(1)
        );
    }

    #[test]
    fn lone_component_is_its_own_path() {
        let spec = LogicalSpec::new("one").component("a", 3);
        let dag = TopologyDag::new(&spec).unwrap();
        assert_eq!(dag.instance_path_count(), Ok(3));
    }

    #[test]
    fn diamond_has_two_paths() {
        let dag = TopologyDag::new(&diamond()).unwrap();
        assert_eq!(dag.instance_path_count(), Ok(2));
    }

    #[test]
    fn empty_spec_has_no_paths() {
        let dag = TopologyDag::new(&LogicalSpec::new("empty")).unwrap();
        assert!(dag.is_empty());
        assert_eq!(dag.instance_path_count(), Ok(0));
    }
}
