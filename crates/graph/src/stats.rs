//! Graph statistics used by the accuracy bound of Theorem 3.
//!
//! Theorem 3(b) guarantees 100% accuracy when
//! `α ≥ 2((l·f)^d − 1) / ((l·f − 1)·|G|)`, where over the neighborhood
//! `G_dQ(v_p)`:
//! * `l` — number of distinct labels in the *query*,
//! * `f` — max number of nodes sharing the same label **and** a common
//!   parent or child,
//! * `d` — diameter of the query as an undirected graph,
//! * `d_G` — max node degree (the visiting coefficient `c`).

use crate::types::Label;
use crate::view::GraphView;
use rustc_hash::FxHashMap;

/// Summary degree statistics of a graph or subgraph view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Maximum total degree `d_G`.
    pub max_degree: usize,
    /// Average total degree.
    pub avg_degree: f64,
    /// Number of nodes considered.
    pub nodes: usize,
}

/// Compute degree statistics over any view.
pub fn degree_stats<V: GraphView + ?Sized>(g: &V) -> DegreeStats {
    let mut max_degree = 0usize;
    let mut sum = 0usize;
    let mut nodes = 0usize;
    for v in g.node_ids() {
        let d = g.degree(v);
        max_degree = max_degree.max(d);
        sum += d;
        nodes += 1;
    }
    DegreeStats {
        max_degree,
        avg_degree: if nodes == 0 {
            0.0
        } else {
            sum as f64 / nodes as f64
        },
        nodes,
    }
}

/// The paper's `f` over a view: the maximum, over all nodes `v` and labels
/// `ℓ`, of the number of neighbors of `v` (parents and children pooled)
/// carrying label `ℓ`.
pub fn max_label_fanout<V: GraphView + ?Sized>(g: &V) -> usize {
    let mut best = 0usize;
    let mut counts: FxHashMap<Label, usize> = FxHashMap::default();
    for v in g.node_ids() {
        counts.clear();
        for &w in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
            *counts.entry(g.label(w)).or_insert(0) += 1;
        }
        for &c in counts.values() {
            best = best.max(c);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::graph::Graph;
    use crate::types::NodeId;

    fn sample() -> Graph {
        // 0(A) -> 1(B), 0 -> 2(B), 0 -> 3(C), 3 -> 0
        graph_from_edges(&["A", "B", "B", "C"], &[(0, 1), (0, 2), (0, 3), (3, 0)])
    }

    #[test]
    fn degree_stats_basic() {
        let g = sample();
        let s = degree_stats(&g);
        assert_eq!(s.max_degree, 4); // node 0: out 3 + in 1
        assert_eq!(s.nodes, 4);
        assert!((s.avg_degree - 2.0).abs() < 1e-9); // 8 endpoints / 4 nodes
    }

    #[test]
    fn label_fanout_counts_same_label_neighbors() {
        let g = sample();
        // Node 0 has two B-children -> f = 2.
        assert_eq!(max_label_fanout(&g), 2);
    }

    #[test]
    fn degree_stats_on_induced_view() {
        use crate::subgraph::DynamicSubgraph;
        let g = sample();
        let s = DynamicSubgraph::induced(&g, [NodeId(0), NodeId(1)]);
        let st = degree_stats(&s);
        assert_eq!(st.nodes, 2);
        assert_eq!(st.max_degree, 1);
    }
}
