//! The [`GraphView`] abstraction.
//!
//! Resource-bounded query answering evaluates the *same* matching algorithms
//! on the full graph `G` (baselines) and on the dynamically reduced `G_Q`
//! (paper Fig. 2). Making the matchers generic over a read-only view lets
//! one implementation serve both, without copying `G_Q` into a fresh graph.
//!
//! Adjacency is a borrowed `&[NodeId]`: both views — [`crate::Graph`] (CSR
//! rows, or an overlay's merged rows) and [`crate::DynamicSubgraph`]
//! (per-member lists) — store the neighbors of a node contiguously, so every
//! kernel iterates one plain slice with no per-element branch and no
//! allocation per probe (the matching fixpoints probe adjacency millions of
//! times per query).

use crate::types::{Direction, Label, NodeId};

/// Node ids of a view, in ascending order. Concrete (non-boxed) so
/// `node_ids()` costs nothing for either view.
#[derive(Debug, Clone)]
pub enum NodeIds<'a> {
    /// Dense id range `0..n` (a full [`crate::Graph`]).
    Range(std::ops::Range<u32>),
    /// Sorted member slice (subgraph views).
    Slice(std::slice::Iter<'a, NodeId>),
}

impl Iterator for NodeIds<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self {
            NodeIds::Range(r) => r.next().map(NodeId),
            NodeIds::Slice(it) => it.next().copied(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            NodeIds::Range(r) => r.size_hint(),
            NodeIds::Slice(it) => it.size_hint(),
        }
    }
}

/// A read-only view of a node-labeled directed graph.
///
/// Node ids are those of the *underlying* base graph; a view over a subgraph
/// simply exposes fewer of them. Implementations must be consistent:
/// `out_neighbors`/`in_neighbors` only yield nodes for which
/// [`GraphView::contains`] is true, and every edge yielded by
/// `out_neighbors(u)` appears as `u` in `in_neighbors(v)`.
pub trait GraphView {
    /// Whether node `v` is present in this view.
    fn contains(&self, v: NodeId) -> bool;

    /// The label of `v`. May panic if `!self.contains(v)`.
    fn label(&self, v: NodeId) -> Label;

    /// Children of `v`: targets of edges `v -> w` present in the view.
    fn out_neighbors(&self, v: NodeId) -> &[NodeId];

    /// Parents of `v`: sources of edges `w -> v` present in the view.
    fn in_neighbors(&self, v: NodeId) -> &[NodeId];

    /// All node ids present in the view, in ascending order.
    fn node_ids(&self) -> NodeIds<'_>;

    /// Number of nodes in the view.
    fn num_nodes(&self) -> usize;

    /// Number of edges in the view.
    fn num_edges(&self) -> usize;

    /// Neighbors in the given direction.
    fn neighbors(&self, v: NodeId, dir: Direction) -> &[NodeId] {
        match dir {
            Direction::Out => self.out_neighbors(v),
            Direction::In => self.in_neighbors(v),
        }
    }

    /// Graph size `|G| = |V| + |E|` — the unit in which the resource ratio
    /// `α` is expressed throughout the paper (§2).
    fn size(&self) -> usize {
        self.num_nodes() + self.num_edges()
    }

    /// Out-degree of `v` within the view.
    fn out_degree(&self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v` within the view.
    fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Total degree (in + out) of `v` within the view — the `d(v)` used by
    /// the dynamic-reduction weights (§4.1).
    fn degree(&self, v: NodeId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Whether the view has an edge `u -> v`.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).contains(&v)
    }

    /// Visit every node of the view carrying label `l`, in ascending id
    /// order. The default scans all nodes; [`crate::Graph`] overrides it
    /// with its label partition index (`O(1)` + output).
    fn for_each_node_with_label(&self, l: Label, f: &mut dyn FnMut(NodeId)) {
        for v in self.node_ids() {
            if self.label(v) == l {
                f(v);
            }
        }
    }

    /// Number of nodes carrying label `l`. The default scans; [`crate::Graph`]
    /// answers from the label partition in constant time.
    fn count_nodes_with_label(&self, l: Label) -> usize {
        let mut n = 0usize;
        self.for_each_node_with_label(l, &mut |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, GraphBuilder};
    use crate::subgraph::DynamicSubgraph;

    #[test]
    fn default_methods_consistent_with_graph() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let c = b.add_node("B");
        let d = b.add_node("A");
        b.add_edge(a, c);
        b.add_edge(c, d);
        b.add_edge(a, d);
        let g = b.build();

        assert_eq!(g.size(), 3 + 3);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.degree(c), 2);
        assert!(g.has_edge(a, c));
        assert!(!g.has_edge(c, a));
    }

    #[test]
    fn neighbors_slice_roundtrip() {
        let g = graph_from_edges(&["A"; 4], &[(0, 1), (0, 3), (2, 0)]);
        let v = NodeId(0);
        assert_eq!(g.out_neighbors(v), [NodeId(1), NodeId(3)]);
        assert_eq!(g.neighbors(v, Direction::Out), g.out(v));
        assert_eq!(g.neighbors(v, Direction::In), [NodeId(2)]);
        assert!(g.out_neighbors(NodeId(1)).is_empty());
    }

    /// The trait's default `out_degree` / `in_degree` / `has_edge` (which
    /// [`crate::Graph`] overrides) on a subgraph view: non-members of the
    /// view never count.
    #[test]
    fn neighbors_filtered_skips_nonmembers() {
        let g = graph_from_edges(&["A"; 5], &[(0, 1), (0, 2), (0, 3), (0, 4), (3, 0)]);
        let s = DynamicSubgraph::induced(&g, [NodeId(0), NodeId(2), NodeId(4)]);
        assert_eq!(s.out_neighbors(NodeId(0)), [NodeId(2), NodeId(4)]);
        assert_eq!((s.out_degree(NodeId(0)), s.in_degree(NodeId(0))), (2, 0));
        assert_eq!(s.degree(NodeId(4)), 1);
        assert!(s.has_edge(NodeId(0), NodeId(2)));
        assert!(!s.has_edge(NodeId(0), NodeId(1)));
        assert!(!s.has_edge(NodeId(3), NodeId(0)));
    }

    #[test]
    fn node_ids_variants_iterate() {
        let ids = [NodeId(2), NodeId(7)];
        assert_eq!(NodeIds::Range(0..3).count(), 3);
        let got: Vec<NodeId> = NodeIds::Slice(ids.iter()).collect();
        assert_eq!(got, ids);
    }
}
