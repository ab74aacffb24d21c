//! Immutable CSR graph storage, with a delta overlay for live updates.
//!
//! [`Graph`] stores a node-labeled directed graph in compressed sparse row
//! form, with *both* out-adjacency and in-adjacency materialized: pattern
//! matching by (strong) simulation must preserve both child and parent
//! relationships (§2, conditions (a)/(b)), so reverse edges are consulted as
//! often as forward ones.
//!
//! The CSR arrays live behind a shared [`Arc`], so applying a
//! [`crate::delta::DeltaBatch`] produces a *new* `Graph` value that shares
//! every untouched adjacency row with its parent and carries the changed
//! rows in a small `Overlay` (see [`crate::delta`]). Reads stay plain
//! sorted slices either way — the matching hot paths never learn whether a
//! row came from the base CSR or the overlay — and cost the same: an
//! overlay row is found by one probe of a dense per-node slot array, so a
//! graph with live deltas reads like a compacted one.

use crate::labels::LabelInterner;
use crate::types::{Direction, Label, NodeId};
use crate::view::{GraphView, NodeIds};
use std::sync::Arc;

/// The frozen CSR arrays, shared (via [`Arc`]) between a graph and every
/// overlaid descendant produced by delta application.
#[derive(Debug)]
pub(crate) struct Csr {
    pub(crate) out_offsets: Vec<usize>,
    pub(crate) out_targets: Vec<NodeId>,
    pub(crate) in_offsets: Vec<usize>,
    pub(crate) in_targets: Vec<NodeId>,
    pub(crate) label_offsets: Vec<usize>,
    pub(crate) label_nodes: Vec<NodeId>,
}

/// Merged adjacency rows for the nodes a delta touched, one direction.
///
/// The per-node add/remove side-lists of a [`crate::delta::DeltaBatch`] are
/// merged against the base CSR row once at apply time; reads then consult
/// this table first (one probe of the dense `slot` array) and fall back to
/// the shared base row. Rows are sorted and deduplicated, exactly like base
/// CSR rows.
#[derive(Debug, Clone, Default)]
pub(crate) struct SideTable {
    /// Per node of the overlaid graph: the index of its row, or
    /// [`SideTable::UNTOUCHED`] when the base CSR row is current.
    pub(crate) slot: Vec<u32>,
    /// Row `i` is `targets[offsets[i]..offsets[i + 1]]`.
    pub(crate) offsets: Vec<u32>,
    pub(crate) targets: Vec<NodeId>,
}

impl SideTable {
    /// The `slot` of a node this table carries no row for.
    pub(crate) const UNTOUCHED: u32 = u32::MAX;

    /// `v`'s merged row, or `None` when `v` is untouched (or past the table).
    // rbq-lint: hot
    #[inline]
    pub(crate) fn row(&self, v: NodeId) -> Option<&[NodeId]> {
        let i = *self.slot.get(v.index())?;
        if i == Self::UNTOUCHED {
            return None;
        }
        let i = i as usize;
        Some(&self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }
}

/// Uncompacted delta state layered over the shared base CSR.
#[derive(Debug, Clone)]
pub(crate) struct Overlay {
    /// Node count of the base CSR; ids at or above this are overlay-only
    /// nodes whose adjacency lives entirely in the side tables.
    pub(crate) base_nodes: usize,
    /// Cumulative effective edge churn (adds + removes) since the last
    /// compaction — the trigger for [`Graph::compact`].
    pub(crate) churn: usize,
    /// Effective `|E|` of the overlaid graph.
    pub(crate) edge_count: usize,
    pub(crate) out: SideTable,
    pub(crate) inn: SideTable,
    /// Full label partition over *all* nodes (new ones included), rebuilt
    /// at apply time so label seeding stays `O(1)` + output.
    pub(crate) label_offsets: Vec<usize>,
    pub(crate) label_nodes: Vec<NodeId>,
}

/// An immutable node-labeled directed graph in CSR form.
///
/// Construct via [`crate::GraphBuilder`]. Adjacency lists are sorted by
/// target id and deduplicated, enabling `O(log d)` edge tests via binary
/// search and cache-friendly sequential scans. A third CSR partition maps
/// each label to its (sorted) node list, so candidate seeding by label is
/// `O(1)` + output instead of an `O(|V|)` scan per query node.
///
/// Live updates: [`Graph::apply_delta`] layers a batch of edge/node changes
/// over the shared base CSR without rebuilding it; [`Graph::compact`]
/// rebuilds a fresh overlay-free CSR (triggered automatically once churn
/// passes a threshold). See [`crate::delta`].
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) labels: LabelInterner,
    pub(crate) node_labels: Vec<Label>,
    pub(crate) csr: Arc<Csr>,
    pub(crate) overlay: Option<Box<Overlay>>,
}

impl Graph {
    pub(crate) fn from_parts(
        labels: LabelInterner,
        node_labels: Vec<Label>,
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<usize>,
        in_targets: Vec<NodeId>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), node_labels.len() + 1);
        debug_assert_eq!(in_offsets.len(), node_labels.len() + 1);
        debug_assert_eq!(out_targets.len(), in_targets.len());
        let (label_offsets, label_nodes) = label_partition(&labels, &node_labels);
        Graph {
            labels,
            node_labels,
            csr: Arc::new(Csr {
                out_offsets,
                out_targets,
                in_offsets,
                in_targets,
                label_offsets,
                label_nodes,
            }),
            overlay: None,
        }
    }

    pub(crate) fn with_overlay(
        labels: LabelInterner,
        node_labels: Vec<Label>,
        csr: Arc<Csr>,
        overlay: Overlay,
    ) -> Self {
        Graph {
            labels,
            node_labels,
            csr,
            overlay: Some(Box::new(overlay)),
        }
    }

    pub(crate) fn node_labels(&self) -> &[Label] {
        &self.node_labels
    }

    /// The label interner (string ↔ id mapping).
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        match &self.overlay {
            Some(ov) => ov.edge_count,
            None => self.csr.out_targets.len(),
        }
    }

    #[inline]
    fn base_out(&self, v: NodeId) -> &[NodeId] {
        &self.csr.out_targets[self.csr.out_offsets[v.index()]..self.csr.out_offsets[v.index() + 1]]
    }

    #[inline]
    fn base_in(&self, v: NodeId) -> &[NodeId] {
        &self.csr.in_targets[self.csr.in_offsets[v.index()]..self.csr.in_offsets[v.index() + 1]]
    }

    /// Children of `v` as a slice (sorted, deduplicated).
    // rbq-lint: hot
    #[inline]
    pub fn out(&self, v: NodeId) -> &[NodeId] {
        if let Some(ov) = &self.overlay {
            if let Some(row) = ov.out.row(v) {
                return row;
            }
            if v.index() >= ov.base_nodes {
                return &[];
            }
        }
        self.base_out(v)
    }

    /// Parents of `v` as a slice (sorted, deduplicated).
    // rbq-lint: hot
    #[inline]
    pub fn inn(&self, v: NodeId) -> &[NodeId] {
        if let Some(ov) = &self.overlay {
            if let Some(row) = ov.inn.row(v) {
                return row;
            }
            if v.index() >= ov.base_nodes {
                return &[];
            }
        }
        self.base_in(v)
    }

    /// Neighbors of `v` in direction `dir` as a slice.
    #[inline]
    pub fn adj(&self, v: NodeId, dir: Direction) -> &[NodeId] {
        match dir {
            Direction::Out => self.out(v),
            Direction::In => self.inn(v),
        }
    }

    /// The label of node `v`.
    #[inline]
    pub fn node_label(&self, v: NodeId) -> Label {
        self.node_labels[v.index()]
    }

    /// The label string of node `v`.
    pub fn node_label_str(&self, v: NodeId) -> &str {
        self.labels.name(self.node_labels[v.index()])
    }

    /// Out-degree of `v`, in constant time (overlaid or not).
    #[inline]
    pub fn deg_out(&self, v: NodeId) -> usize {
        self.out(v).len()
    }

    /// In-degree of `v`, in constant time (overlaid or not).
    #[inline]
    pub fn deg_in(&self, v: NodeId) -> usize {
        self.inn(v).len()
    }

    /// Total degree `d(v) = deg_out(v) + deg_in(v)`.
    #[inline]
    pub fn deg(&self, v: NodeId) -> usize {
        self.deg_out(v) + self.deg_in(v)
    }

    /// Edge test `u -> v` in `O(log deg_out(u))`.
    #[inline]
    pub fn edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out(u).binary_search(&v).is_ok()
    }

    /// Iterate all node ids `0..|V|`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterate all edges as `(source, target)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out(u).iter().map(move |&v| (u, v)))
    }

    /// Nodes carrying label `l`, as a sorted slice of the label partition
    /// index — `O(1)` + output. Unknown labels yield the empty slice.
    #[inline]
    pub fn nodes_with_label(&self, l: Label) -> &[NodeId] {
        let (offsets, nodes): (&[usize], &[NodeId]) = match &self.overlay {
            Some(ov) => (&ov.label_offsets, &ov.label_nodes),
            None => (&self.csr.label_offsets, &self.csr.label_nodes),
        };
        if l.index() + 1 >= offsets.len() {
            return &[];
        }
        &nodes[offsets[l.index()]..offsets[l.index() + 1]]
    }

    /// Maximum total degree over all nodes (the paper's `d_G` when applied to
    /// a neighborhood subgraph; see Theorem 3).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.deg(v)).max().unwrap_or(0)
    }

    /// Whether this graph carries uncompacted delta state.
    pub fn is_overlaid(&self) -> bool {
        self.overlay.is_some()
    }

    /// Cumulative effective edge churn (adds + removes) accumulated in the
    /// overlay since the last compaction; 0 for an overlay-free graph.
    pub fn overlay_churn(&self) -> usize {
        self.overlay.as_ref().map_or(0, |ov| ov.churn)
    }

    /// Assemble a graph from a finished out-adjacency CSR; the in-adjacency
    /// is derived from it by one counting sort, so the two sides cannot
    /// disagree. This is the construction path for code that already holds
    /// sorted rows (compaction, SCC condensation, the reachability
    /// compression) and would only pay [`crate::GraphBuilder`]'s global
    /// edge sort and label interning to throw the work away.
    ///
    /// Row `v` is `out_targets[out_offsets[v]..out_offsets[v + 1]]` and must
    /// be strictly ascending (sorted, no duplicates).
    ///
    /// # Panics
    /// Panics if the offsets do not partition `out_targets` over
    /// `node_labels.len()` rows, or if a target or label id is out of range.
    pub fn from_out_csr(
        labels: LabelInterner,
        node_labels: Vec<Label>,
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
    ) -> Graph {
        let n = node_labels.len();
        let m = out_targets.len();
        assert_eq!(out_offsets.len(), n + 1, "one offset per row plus the end");
        assert!(
            out_offsets[0] == 0
                && out_offsets[n] == m
                && out_offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must partition the targets"
        );
        debug_assert!(
            (0..n).all(|v| out_targets[out_offsets[v]..out_offsets[v + 1]]
                .windows(2)
                .all(|w| w[0] < w[1])),
            "rows must be strictly ascending"
        );
        let mut in_offsets = vec![0usize; n + 1];
        for &w in &out_targets {
            in_offsets[w.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_targets = vec![NodeId(0); m];
        let mut cursor = in_offsets.clone();
        // Sources visited in ascending order, so each in-row is born sorted.
        for v in 0..n {
            for &w in &out_targets[out_offsets[v]..out_offsets[v + 1]] {
                in_targets[cursor[w.index()]] = NodeId::new(v);
                cursor[w.index()] += 1;
            }
        }
        Graph::from_parts(
            labels,
            node_labels,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
        )
    }

    /// Rebuild a fresh overlay-free CSR from the effective adjacency.
    ///
    /// Runs in `O(|V| + |E|)`: effective out-rows are already sorted and
    /// deduplicated, so the out side is a concatenation and the in side a
    /// counting sort. The result answers every query identically.
    pub fn compact(&self) -> Graph {
        let mut out_offsets = Vec::with_capacity(self.node_count() + 1);
        let mut out_targets = Vec::with_capacity(self.edge_count());
        out_offsets.push(0);
        for v in self.nodes() {
            out_targets.extend_from_slice(self.out(v));
            out_offsets.push(out_targets.len());
        }
        Graph::from_out_csr(
            self.labels.clone(),
            self.node_labels.clone(),
            out_offsets,
            out_targets,
        )
    }
}

/// Counting-sort node ids by label; ascending visit order keeps each
/// partition sorted.
pub(crate) fn label_partition(
    labels: &LabelInterner,
    node_labels: &[Label],
) -> (Vec<usize>, Vec<NodeId>) {
    let nl = labels.len();
    let mut label_offsets = vec![0usize; nl + 1];
    for &l in node_labels {
        label_offsets[l.index() + 1] += 1;
    }
    for i in 0..nl {
        label_offsets[i + 1] += label_offsets[i];
    }
    let mut label_nodes = vec![NodeId(0); node_labels.len()];
    let mut cursor = label_offsets.clone();
    for (i, &l) in node_labels.iter().enumerate() {
        label_nodes[cursor[l.index()]] = NodeId::new(i);
        cursor[l.index()] += 1;
    }
    (label_offsets, label_nodes)
}

impl GraphView for Graph {
    #[inline]
    fn contains(&self, v: NodeId) -> bool {
        v.index() < self.node_count()
    }

    #[inline]
    fn label(&self, v: NodeId) -> Label {
        self.node_label(v)
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.out(v)
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.inn(v)
    }

    fn node_ids(&self) -> NodeIds<'_> {
        NodeIds::Range(0..self.node_count() as u32)
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        self.node_count()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.edge_count()
    }

    #[inline]
    fn out_degree(&self, v: NodeId) -> usize {
        self.deg_out(v)
    }

    #[inline]
    fn in_degree(&self, v: NodeId) -> usize {
        self.deg_in(v)
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge(u, v)
    }

    fn for_each_node_with_label(&self, l: Label, f: &mut dyn FnMut(NodeId)) {
        for &v in self.nodes_with_label(l) {
            f(v);
        }
    }

    #[inline]
    fn count_nodes_with_label(&self, l: Label) -> usize {
        self.nodes_with_label(l).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> (Graph, [NodeId; 4]) {
        // a -> b, a -> c, b -> d, c -> d
        let mut b = GraphBuilder::new();
        let na = b.add_node("A");
        let nb = b.add_node("B");
        let nc = b.add_node("C");
        let nd = b.add_node("D");
        b.add_edge(na, nb);
        b.add_edge(na, nc);
        b.add_edge(nb, nd);
        b.add_edge(nc, nd);
        (b.build(), [na, nb, nc, nd])
    }

    #[test]
    fn counts() {
        let (g, _) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.size(), 8);
    }

    #[test]
    fn adjacency_out_and_in() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.out(a), &[b, c]);
        assert_eq!(g.inn(d), &[b, c]);
        assert_eq!(g.out(d), &[]);
        assert_eq!(g.inn(a), &[]);
        assert_eq!(g.adj(a, Direction::Out), &[b, c]);
        assert_eq!(g.adj(d, Direction::In), &[b, c]);
    }

    #[test]
    fn degrees() {
        let (g, [a, b, _c, d]) = diamond();
        assert_eq!(g.deg_out(a), 2);
        assert_eq!(g.deg_in(a), 0);
        assert_eq!(g.deg(a), 2);
        assert_eq!(g.deg(b), 2);
        assert_eq!(g.deg_in(d), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn edge_test_binary_search() {
        let (g, [a, b, c, d]) = diamond();
        assert!(g.edge(a, b));
        assert!(g.edge(c, d));
        assert!(!g.edge(b, a));
        assert!(!g.edge(a, d));
    }

    #[test]
    fn labels_resolve() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(g.node_label_str(a), "A");
        assert_eq!(g.node_label_str(d), "D");
        let la = g.labels().get("A").unwrap();
        assert_eq!(g.node_label(a), la);
        assert_eq!(g.nodes_with_label(la), &[a]);
    }

    #[test]
    fn label_partition_equals_linear_scan() {
        // The label index must agree with a filter over all nodes, for
        // every interned label, and be sorted.
        let g = crate::builder::graph_from_edges(
            &["A", "B", "A", "C", "B", "A"],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        );
        for l in (0..g.labels().len() as u32).map(Label) {
            let scan: Vec<NodeId> = g.nodes().filter(|&v| g.node_label(v) == l).collect();
            assert_eq!(g.nodes_with_label(l), scan.as_slice());
            assert_eq!(g.count_nodes_with_label(l), scan.len());
            assert!(g.nodes_with_label(l).windows(2).all(|w| w[0] < w[1]));
            let mut via_trait = Vec::new();
            g.for_each_node_with_label(l, &mut |v| via_trait.push(v));
            assert_eq!(via_trait, scan);
        }
        assert_eq!(g.nodes_with_label(Label(999)), &[] as &[NodeId]);
        assert_eq!(g.count_nodes_with_label(Label(999)), 0);
    }

    #[test]
    fn edges_iterator_yields_all() {
        let (g, [a, b, c, d]) = diamond();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(a, b), (a, c), (b, d), (c, d)]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn graph_view_trait_consistency() {
        let (g, [a, _, _, d]) = diamond();
        assert!(g.contains(a));
        assert!(!g.contains(NodeId(99)));
        assert_eq!(g.out_neighbors(a).len(), 2);
        assert_eq!(g.in_neighbors(d).len(), 2);
        assert_eq!(g.node_ids().count(), 4);
    }

    #[test]
    fn fresh_graph_has_no_overlay() {
        let (g, _) = diamond();
        assert!(!g.is_overlaid());
        assert_eq!(g.overlay_churn(), 0);
        // Compacting an overlay-free graph is a faithful rebuild.
        let c = g.compact();
        assert_eq!(c.node_count(), g.node_count());
        assert_eq!(c.edge_count(), g.edge_count());
        let es: Vec<_> = g.edges().collect();
        let cs: Vec<_> = c.edges().collect();
        assert_eq!(es, cs);
    }
}
