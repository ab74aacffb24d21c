//! Mutable graph construction.
//!
//! [`GraphBuilder`] accumulates nodes and edges, then [`GraphBuilder::build`]
//! freezes them into the immutable CSR [`Graph`]. Duplicate edges are
//! deduplicated and self-loops are allowed (real web/social snapshots contain
//! them; none of the paper's algorithms forbid them).

use crate::graph::Graph;
use crate::labels::LabelInterner;
use crate::types::{Label, NodeId};

/// Builder for [`Graph`].
///
/// ```
/// use rbq_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// let michael = b.add_node("Michael");
/// let cc = b.add_node("CC");
/// b.add_edge(michael, cc);
/// let g = b.build();
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    labels: LabelInterner,
    node_labels: Vec<Label>,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a builder with pre-reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            labels: LabelInterner::new(),
            node_labels: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a node with the given label string; returns its id.
    pub fn add_node(&mut self, label: &str) -> NodeId {
        let l = self.labels.intern(label);
        self.add_node_with_label(l)
    }

    /// Add a node with an already-interned label; returns its id.
    fn add_node_with_label(&mut self, l: Label) -> NodeId {
        debug_assert!(l.index() < self.labels.len(), "label not interned");
        let id = NodeId::new(self.node_labels.len());
        self.node_labels.push(l);
        id
    }

    /// Intern a label without creating a node.
    pub fn intern_label(&mut self, name: &str) -> Label {
        self.labels.intern(name)
    }

    /// Add a directed edge `u -> v`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `u` or `v` has not been added.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        debug_assert!(u.index() < self.node_labels.len(), "unknown source node");
        debug_assert!(v.index() < self.node_labels.len(), "unknown target node");
        self.edges.push((u, v));
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Access the interner built so far.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Freeze into an immutable [`Graph`].
    ///
    /// Runs in `O(|V| + |E|)` (counting-sort CSR construction) plus a final
    /// per-list sort for deterministic, binary-searchable adjacency.
    pub fn build(mut self) -> Graph {
        let n = self.node_labels.len();

        // Deduplicate edges.
        self.edges.sort_unstable();
        self.edges.dedup();
        let m = self.edges.len();

        // Counting-sort into CSR, both directions.
        let mut out_offsets = vec![0usize; n + 1];
        let mut in_offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            out_offsets[u.index() + 1] += 1;
            in_offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut out_targets = vec![NodeId(0); m];
        let mut in_targets = vec![NodeId(0); m];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for &(u, v) in &self.edges {
            out_targets[out_cursor[u.index()]] = v;
            out_cursor[u.index()] += 1;
            in_targets[in_cursor[v.index()]] = u;
            in_cursor[v.index()] += 1;
        }
        // Edges were globally sorted by (u, v), so each out list is already
        // sorted; in-lists need sorting per node.
        for i in 0..n {
            in_targets[in_offsets[i]..in_offsets[i + 1]].sort_unstable();
        }

        Graph::from_parts(
            self.labels,
            self.node_labels,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
        )
    }
}

/// Convenience: build a graph from `(label_of_node_i)` and `(u, v)` index
/// pairs. Primarily for tests and examples.
pub fn graph_from_edges(labels: &[&str], edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(labels.len(), edges.len());
    for l in labels {
        b.add_node(l);
    }
    for &(u, v) in edges {
        b.add_edge(NodeId(u), NodeId(v));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = graph_from_edges(&["A", "B"], &[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out(NodeId(0)), &[NodeId(1)]);
        // Repeated self-loops collapse too, on both adjacency sides.
        let g = graph_from_edges(&["A", "B"], &[(0, 1), (0, 1), (1, 1), (1, 1)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out(NodeId(1)), &[NodeId(1)]);
        assert_eq!(g.inn(NodeId(1)), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn self_loops_allowed() {
        let g = graph_from_edges(&["A"], &[(0, 0)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out(NodeId(0)), &[NodeId(0)]);
        assert_eq!(g.inn(NodeId(0)), &[NodeId(0)]);
    }

    #[test]
    fn adjacency_is_sorted() {
        let g = graph_from_edges(&["A"; 5], &[(0, 4), (0, 2), (0, 3), (0, 1), (2, 0), (4, 0)]);
        assert_eq!(
            g.out(NodeId(0)),
            &[NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        assert_eq!(g.inn(NodeId(0)), &[NodeId(2), NodeId(4)]);
    }

    #[test]
    fn shared_labels_intern_once() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("same");
        let y = b.add_node("same");
        let g = b.build();
        assert_eq!(g.node_label(x), g.node_label(y));
        assert_eq!(g.labels().len(), 1);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = GraphBuilder::with_capacity(10, 10);
        let a = b.add_node("A");
        let c = b.add_node("B");
        b.add_edge(a, c);
        let g = b.build();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn add_node_with_interned_label() {
        let mut b = GraphBuilder::new();
        let l = b.intern_label("X");
        let v = b.add_node_with_label(l);
        let g = b.build();
        assert_eq!(g.node_label(v), l);
        assert_eq!(g.node_label_str(v), "X");
    }

    #[test]
    fn larger_csr_roundtrip() {
        // Star: center 0 -> 1..=9, plus back edges from odd nodes.
        let labels: Vec<&str> = (0..10).map(|i| if i == 0 { "C" } else { "S" }).collect();
        let mut edges: Vec<(u32, u32)> = (1..10).map(|i| (0, i)).collect();
        edges.extend((1..10).filter(|i| i % 2 == 1).map(|i| (i, 0)));
        let g = graph_from_edges(&labels, &edges);
        assert_eq!(g.deg_out(NodeId(0)), 9);
        assert_eq!(g.deg_in(NodeId(0)), 5);
        for i in 1..10u32 {
            assert!(g.edge(NodeId(0), NodeId(i)));
            assert_eq!(g.edge(NodeId(i), NodeId(0)), i % 2 == 1);
        }
    }
}

#[cfg(test)]
mod panic_tests {
    use super::*;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unknown source node")]
    fn edge_from_unknown_node_panics_in_debug() {
        let mut b = GraphBuilder::new();
        let v = b.add_node("A");
        b.add_edge(NodeId(99), v);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unknown target node")]
    fn edge_to_unknown_node_panics_in_debug() {
        let mut b = GraphBuilder::new();
        let v = b.add_node("A");
        b.add_edge(v, NodeId(99));
    }

    #[test]
    fn build_empty_then_query() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edges().count(), 0);
    }
}
