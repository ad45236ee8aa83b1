//! Property tests for the topology DAG: its order against a reference
//! Kahn over the spec, and the path-count DP against a brute-force count
//! over the explicit instance DAG and against a depth-first enumeration
//! of the component paths.

use caladrius_graph::topology_graph::{LogicalSpec, TopologyDag};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A random acyclic spec whose declaration order is not a topological
/// order: edges run up a random ranking of the components. Streams may
/// repeat.
fn arb_spec(max_parallelism: u32) -> BoxedStrategy<LogicalSpec> {
    BoxedStrategy::from_fn(move |rng| {
        let n = 1 + rng.below(6);
        // Fisher-Yates over the identity gives each component a rank.
        let mut rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank.swap(i, rng.below(i + 1));
        }
        let mut spec = LogicalSpec::new("random");
        for v in 0..n {
            let p = 1 + rng.below(max_parallelism as usize) as u32;
            spec = spec.component(format!("c{v}"), p);
        }
        for _ in 0..rng.below(12) {
            let (a, b) = (rng.below(n), rng.below(n));
            if rank[a] < rank[b] {
                spec = spec.edge(format!("c{a}"), format!("c{b}"), "shuffle");
            }
        }
        spec
    })
}

fn index_of(spec: &LogicalSpec, name: &str) -> usize {
    spec.components.iter().position(|(n, _)| n == name).unwrap()
}

/// Kahn's algorithm straight off the spec: FIFO queue seeded in
/// declaration order, successors released in edge order.
fn reference_kahn(spec: &LogicalSpec) -> Vec<usize> {
    let n = spec.components.len();
    let mut in_degree = vec![0usize; n];
    for (_, to, _) in &spec.edges {
        in_degree[index_of(spec, to)] += 1;
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&v| in_degree[v] == 0).collect();
    let mut order = Vec::new();
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for (from, to, _) in &spec.edges {
            if index_of(spec, from) == v {
                let w = index_of(spec, to);
                in_degree[w] -= 1;
                if in_degree[w] == 0 {
                    queue.push_back(w);
                }
            }
        }
    }
    order
}

/// Paths through the explicit instance DAG, where every instance of a
/// component feeds every instance of each downstream component (once per
/// declared stream), counted by walking every one of them.
fn brute_force_instance_paths(spec: &LogicalSpec) -> u64 {
    let mut instances: Vec<usize> = Vec::new();
    for (v, (_, p)) in spec.components.iter().enumerate() {
        instances.extend(std::iter::repeat_n(v, *p as usize));
    }
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); instances.len()];
    let mut has_input = vec![false; instances.len()];
    for (from, to, _) in &spec.edges {
        let (from, to) = (index_of(spec, from), index_of(spec, to));
        for (a, &ca) in instances.iter().enumerate() {
            for (b, &cb) in instances.iter().enumerate() {
                if ca == from && cb == to {
                    out[a].push(b);
                    has_input[b] = true;
                }
            }
        }
    }
    fn walk(at: usize, out: &[Vec<usize>]) -> u64 {
        if out[at].is_empty() {
            return 1;
        }
        out[at].iter().map(|&next| walk(next, out)).sum()
    }
    (0..instances.len())
        .filter(|&i| !has_input[i])
        .map(|i| walk(i, &out))
        .sum()
}

/// Every spout→sink component path, depth first: by (spout, sink) in
/// declaration order, then in edge order. Exponential in depth, so it
/// lives here, as the reference the path-count DP is checked against.
fn spout_sink_paths(dag: &TopologyDag) -> Vec<Vec<usize>> {
    fn extend(dag: &TopologyDag, sink: usize, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let at = *path.last().unwrap();
        if at == sink {
            out.push(path.clone());
            return;
        }
        for &next in dag.successors(at) {
            path.push(next);
            extend(dag, sink, path, out);
            path.pop();
        }
    }
    let mut out = Vec::new();
    for &spout in dag.spouts() {
        for &sink in dag.sinks() {
            extend(dag, sink, &mut vec![spout], &mut out);
        }
    }
    out
}

/// A random layered topology spec: a chain of components with random
/// parallelisms.
fn arb_chain_spec() -> impl Strategy<Value = LogicalSpec> {
    prop::collection::vec(1u32..6, 1..6).prop_map(|parallelisms| {
        let mut spec = LogicalSpec::new("chain");
        for (i, p) in parallelisms.iter().enumerate() {
            spec = spec.component(format!("c{i}"), *p);
        }
        for i in 1..parallelisms.len() {
            spec = spec.edge(format!("c{}", i - 1), format!("c{i}"), "shuffle");
        }
        spec
    })
}

proptest! {
    /// The DAG's order respects every edge and is exactly the reference
    /// Kahn's.
    #[test]
    fn order_respects_edges_and_matches_reference_kahn(spec in arb_spec(4)) {
        let dag = TopologyDag::new(&spec).unwrap();
        let order = dag.order();
        prop_assert_eq!(order, reference_kahn(&spec).as_slice());
        let mut position = vec![0; dag.len()];
        for (i, &v) in order.iter().enumerate() {
            position[v] = i;
        }
        for &(from, to) in dag.edges() {
            prop_assert!(position[from] < position[to]);
        }
    }

    /// The DP instance path count equals a brute-force count over the
    /// explicit instance DAG.
    #[test]
    fn instance_path_count_matches_brute_force(spec in arb_spec(4)) {
        let dag = TopologyDag::new(&spec).unwrap();
        prop_assert_eq!(dag.instance_path_count().unwrap(), brute_force_instance_paths(&spec));
    }

    /// With every parallelism at 1 an instance path is a component path,
    /// so the DP counts exactly the enumerated critical-path candidates.
    #[test]
    fn unit_parallelism_count_matches_enumeration(spec in arb_spec(1)) {
        let dag = TopologyDag::new(&spec).unwrap();
        prop_assert_eq!(
            dag.instance_path_count().unwrap(),
            spout_sink_paths(&dag).len() as u64
        );
    }

    /// Every enumerated path runs from a spout to a sink along real edges.
    #[test]
    fn enumerated_paths_run_spout_to_sink_along_edges(spec in arb_spec(4)) {
        let dag = TopologyDag::new(&spec).unwrap();
        for path in spout_sink_paths(&dag) {
            prop_assert!(dag.spouts().contains(&path[0]));
            prop_assert!(dag.sinks().contains(path.last().unwrap()));
            for hop in path.windows(2) {
                prop_assert!(dag.successors(hop[0]).contains(&hop[1]));
            }
        }
    }

    /// For a layered chain topology the instance-level path count is the
    /// product of the parallelisms (the paper's Fig. 1c arithmetic).
    #[test]
    fn chain_instance_paths_are_parallelism_product(spec in arb_chain_spec()) {
        let product: u64 =
            spec.components.iter().map(|(_, p)| u64::from(*p)).product();
        let dag = TopologyDag::new(&spec).unwrap();
        prop_assert_eq!(dag.instance_path_count().unwrap(), product);
    }
}
