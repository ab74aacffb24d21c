//! Topological orderings and ranks on DAGs.
//!
//! The hierarchical landmark index (§5.1) relies on the *topological rank*
//! `v.r` of every DAG node: `v.r = 0` if `v` has no child, else
//! `v.r = max(child ranks) + 1`. Ranks give the pruning guard of Lemma 5(2):
//! a landmark subtree whose rank range cannot straddle the query endpoints'
//! ranks can be skipped entirely.

use crate::graph::Graph;
use crate::types::NodeId;
use std::collections::VecDeque;

/// Kahn topological order (sources first). Returns `None` if `g` has a cycle.
pub fn topological_order(g: &Graph) -> Option<Vec<NodeId>> {
    let n = g.node_count();
    let mut indeg: Vec<usize> = (0..n).map(|i| g.deg_in(NodeId::new(i))).collect();
    let mut queue: VecDeque<NodeId> = g.nodes().filter(|&v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in g.out(v) {
            indeg[w.index()] -= 1;
            if indeg[w.index()] == 0 {
                queue.push_back(w);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Whether `g` is acyclic.
pub fn is_acyclic(g: &Graph) -> bool {
    topological_order(g).is_some()
}

/// Topological ranks `v.r` as defined in §5.1: sinks have rank 0; otherwise
/// `v.r = 1 + max(rank of children)`.
///
/// # Panics
/// Panics if `g` is cyclic (call on the condensation of a cyclic graph).
pub fn topological_ranks(g: &Graph) -> Vec<u32> {
    // invariant: documented `# Panics` contract — callers pass the (acyclic)
    // condensation, never a raw possibly-cyclic graph.
    let order = topological_order(g).expect("topological_ranks requires a DAG");
    let mut rank = vec![0u32; g.node_count()];
    // Process in reverse topological order so children are ranked first.
    for &v in order.iter().rev() {
        let r = g
            .out(v)
            .iter()
            .map(|&w| rank[w.index()] + 1)
            .max()
            .unwrap_or(0);
        rank[v.index()] = r;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn order_of_chain() {
        let g = graph_from_edges(&["A"; 4], &[(0, 1), (1, 2), (2, 3)]);
        let order = topological_order(&g).unwrap();
        assert_eq!(order, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn cycle_detected() {
        let g = graph_from_edges(&["A"; 3], &[(0, 1), (1, 2), (2, 0)]);
        assert!(topological_order(&g).is_none());
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn self_loop_is_cycle() {
        let g = graph_from_edges(&["A"; 2], &[(0, 0), (0, 1)]);
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn ranks_of_chain() {
        let g = graph_from_edges(&["A"; 4], &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(topological_ranks(&g), vec![3, 2, 1, 0]);
    }

    #[test]
    fn ranks_of_diamond() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3: rank(0)=2 via either branch.
        let g = graph_from_edges(&["A"; 4], &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let r = topological_ranks(&g);
        assert_eq!(r[3], 0);
        assert_eq!(r[1], 1);
        assert_eq!(r[2], 1);
        assert_eq!(r[0], 2);
    }

    #[test]
    fn ranks_respect_max_not_min() {
        // 0 -> 3 directly, and 0 -> 1 -> 2 -> 3: rank(0) must be 3, not 1.
        let g = graph_from_edges(&["A"; 4], &[(0, 3), (0, 1), (1, 2), (2, 3)]);
        let r = topological_ranks(&g);
        assert_eq!(r[0], 3);
    }

    #[test]
    fn isolated_nodes_rank_zero() {
        let g = graph_from_edges(&["A"; 3], &[]);
        assert_eq!(topological_ranks(&g), vec![0, 0, 0]);
    }

    #[test]
    fn rank_strictly_greater_than_children() {
        let g = graph_from_edges(&["A"; 6], &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)]);
        let r = topological_ranks(&g);
        for (u, v) in g.edges() {
            assert!(r[u.index()] > r[v.index()], "rank({u:?}) !> rank({v:?})");
        }
    }
}
