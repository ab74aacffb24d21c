//! Reachability-preserving DAG condensation.
//!
//! Collapses each SCC of `G` into a single node, producing `G_DAG` such that
//! for all reachability queries `Q`, `Q(G) = Q(G_DAG)` after mapping
//! endpoints through the SCC partition. This is the first half of the
//! query-preserving compression the paper applies before building the
//! hierarchical landmark index (§5 "Preprocessing").

use crate::graph::Graph;
use crate::scc::{scc_with, SccPartition};
use crate::types::NodeId;

/// A condensed graph together with the node mapping.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// The condensed DAG. Node `c` of `dag` represents SCC `c` of the
    /// original graph, so ids are reverse-topological (every edge `a -> b`
    /// has `a > b`); its label is the label of the SCC's smallest member
    /// (labels are irrelevant for reachability).
    pub dag: Graph,
    /// Mapping `original node -> condensed node`.
    pub partition: SccPartition,
}

impl Condensation {
    /// The condensed node representing original node `v`.
    #[inline]
    pub fn map(&self, v: NodeId) -> NodeId {
        NodeId(self.partition.component_of(v))
    }
}

/// Condense `g` into its SCC DAG.
///
/// Runs in `O(|V| + |E|)` plus a sort of each condensed row, in one SCC
/// walk: components complete in id order, each with the ids its edges
/// leave to, so each row is sorted, deduplicated and appended as its
/// component completes.
pub fn condense(g: &Graph) -> Condensation {
    let mut node_labels = Vec::new();
    let mut offsets = vec![0usize];
    let mut targets = Vec::new();
    let mut row: Vec<u32> = Vec::new();
    let partition = scc_with(g, |members, out| {
        // Parallel edges between the same SCC pair collapse here.
        row.clear();
        row.extend_from_slice(out);
        row.sort_unstable();
        row.dedup();
        targets.extend(row.iter().map(|&c| NodeId(c)));
        offsets.push(targets.len());
        // invariant: a component holds at least its root.
        let smallest = members.iter().min().expect("a component has a member");
        node_labels.push(g.node_label(NodeId(*smallest)));
    });
    Condensation {
        dag: Graph::from_out_csr(g.labels().clone(), node_labels, offsets, targets),
        partition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::topo::is_acyclic;
    use crate::traverse::reaches;

    #[test]
    fn dag_stays_identical_in_shape() {
        let g = graph_from_edges(&["A", "B", "C"], &[(0, 1), (1, 2)]);
        let c = condense(&g);
        assert_eq!(c.dag.node_count(), 3);
        assert_eq!(c.dag.edge_count(), 2);
        assert!(is_acyclic(&c.dag));
    }

    #[test]
    fn cycle_collapses_to_point() {
        let g = graph_from_edges(&["A"; 4], &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = condense(&g);
        assert_eq!(c.dag.node_count(), 2);
        assert_eq!(c.dag.edge_count(), 1);
        assert!(is_acyclic(&c.dag));
    }

    #[test]
    fn condensation_preserves_reachability() {
        // Two cycles bridged, plus an isolated node.
        let g = graph_from_edges(
            &["A"; 7],
            &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2), (5, 0)],
        );
        let c = condense(&g);
        for s in 0..7u32 {
            for t in 0..7u32 {
                let orig = reaches(&g, NodeId(s), NodeId(t)).0;
                let cond = reaches(&c.dag, c.map(NodeId(s)), c.map(NodeId(t))).0;
                assert_eq!(orig, cond, "reachability differs for {s}->{t}");
            }
        }
    }

    #[test]
    fn parallel_scc_edges_deduplicated() {
        // Both 0->2 and 1->2 connect SCC {0,1} to SCC {2}.
        let g = graph_from_edges(&["A"; 3], &[(0, 1), (1, 0), (0, 2), (1, 2)]);
        let c = condense(&g);
        assert_eq!(c.dag.node_count(), 2);
        assert_eq!(c.dag.edge_count(), 1);
    }

    #[test]
    fn rows_are_sorted_and_labels_come_from_the_smallest_member() {
        // SCCs {0,3} ("X"/"Y") -> {1,2} ("Z"/"W") -> {4}, and {0,3} -> {4};
        // every cross edge exists twice.
        let g = graph_from_edges(
            &["X", "Z", "W", "Y", "S"],
            &[
                (0, 3),
                (3, 0),
                (1, 2),
                (2, 1),
                (3, 1),
                (0, 2),
                (2, 4),
                (0, 4),
                (3, 4),
            ],
        );
        let c = condense(&g);
        assert_eq!(c.dag.node_count(), 3);
        let (a, b, s) = (c.map(NodeId(0)), c.map(NodeId(1)), c.map(NodeId(4)));
        // Reverse-topological ids: sources last.
        assert!(a > b && b > s);
        assert_eq!(c.dag.out(a), &[s, b]);
        assert_eq!(c.dag.out(b), &[s]);
        assert_eq!(c.dag.inn(s), &[b, a]);
        assert_eq!(c.dag.inn(b), &[a]);
        assert_eq!(c.dag.node_label_str(a), "X");
        assert_eq!(c.dag.node_label_str(b), "Z");
        assert_eq!(c.dag.node_label_str(s), "S");
    }

    #[test]
    fn compression_ratio_on_cyclic_graph() {
        // A graph that is one big cycle compresses to a single node.
        let n = 100u32;
        let labels = vec!["A"; n as usize];
        let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.push((0, 50));
        let g = graph_from_edges(&labels, &edges);
        let c = condense(&g);
        assert_eq!(c.dag.node_count(), 1);
        assert_eq!(c.dag.edge_count(), 0);
    }
}
