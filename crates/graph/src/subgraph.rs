//! The subgraph view over a base [`Graph`].
//!
//! [`DynamicSubgraph`] shares the base graph's node-id space and grows one
//! node at a time, always holding exactly the edges of `G` *induced* by its
//! node set (paper §2). The dynamic-reduction procedures (§3) grow it as the
//! reduced graph `G_Q`, charging the resource budget for each addition;
//! [`DynamicSubgraph::induced`] builds `G[V_s]` for a given node set in one
//! call. Its state lives in a reusable [`SubgraphScratch`], so a serving
//! loop evaluating many queries pays no per-query allocation once the
//! buffers are warm.

use crate::graph::Graph;
use crate::stamps::Stamps;
use crate::types::{Label, NodeId};
use crate::view::{GraphView, NodeIds};

/// Reusable state behind [`DynamicSubgraph`]: a dense per-node-id
/// membership table plus a pool of recycled adjacency buffers.
///
/// The dynamic reduction builds one `G_Q` per query; a fresh hash-set /
/// hash-map subgraph per query made membership probes (the innermost test of
/// `Search`/`Pick`) hash lookups and its growth a stream of small
/// allocations. The scratch keeps:
///
/// * `members` — a [`Stamps`] table from a member to its dense slot, which
///   indexes the adjacency pool; starting the next subgraph forgets every
///   member in O(1), no clearing;
/// * per-slot adjacency `Vec`s, recycled across queries (cleared on slot
///   reuse, capacity kept).
///
/// Obtain a subgraph with [`SubgraphScratch::begin`] and recover the
/// buffers with [`DynamicSubgraph::into_scratch`]:
///
/// ```
/// use rbq_graph::{builder::graph_from_edges, subgraph::SubgraphScratch, NodeId};
/// let g = graph_from_edges(&["A"; 3], &[(0, 1), (1, 2)]);
/// let mut gq = SubgraphScratch::new().begin(&g);
/// gq.add_node(NodeId(0));
/// gq.add_node(NodeId(1));
/// let scratch = gq.into_scratch(); // warm buffers, ready for the next query
/// assert_eq!(scratch.begin(&g).num_nodes(), 0);
/// use rbq_graph::GraphView;
/// ```
#[derive(Debug, Clone, Default)]
pub struct SubgraphScratch {
    /// Member node → its dense slot in `nodes` and the adjacency pool.
    members: Stamps<u32>,
    /// Members in insertion order.
    nodes: Vec<NodeId>,
    /// Members in ascending id order (maintained incrementally).
    sorted_nodes: Vec<NodeId>,
    /// Per-slot adjacency, recycled. `out_adj[slot(v)]` are the children
    /// of `v` within the subgraph.
    out_adj: Vec<Vec<NodeId>>,
    in_adj: Vec<Vec<NodeId>>,
}

impl SubgraphScratch {
    /// Fresh scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start an empty [`DynamicSubgraph`] of `base`, reusing warm buffers.
    pub fn begin(mut self, base: &Graph) -> DynamicSubgraph<'_> {
        self.members.reset(base.node_count());
        self.nodes.clear();
        self.sorted_nodes.clear();
        DynamicSubgraph {
            base,
            s: self,
            num_edges: 0,
        }
    }
}

/// An incrementally grown subgraph of a base graph — the reduced graph `G_Q`.
///
/// Invariant maintained by [`DynamicSubgraph::add_node`] /
/// [`DynamicSubgraph::try_add_node`]: the edge set is exactly the base
/// graph's edges induced by the current node set, so [`GraphView::size`] is
/// the `|G_Q|` the resource bound `α|G|` constrains (§3, and Example 2's
/// "14 nodes and edges").
///
/// State lives in a [`SubgraphScratch`]; [`DynamicSubgraph::new`] wraps a
/// fresh one for one-shot use.
#[derive(Debug, Clone)]
pub struct DynamicSubgraph<'g> {
    base: &'g Graph,
    s: SubgraphScratch,
    num_edges: usize,
}

impl<'g> DynamicSubgraph<'g> {
    /// Create an empty subgraph of `base` over a fresh scratch.
    pub fn new(base: &'g Graph) -> Self {
        SubgraphScratch::new().begin(base)
    }

    /// The subgraph of `base` induced by `nodes` (§2): all edges of `base`
    /// with both endpoints in the set. Duplicate ids are ignored.
    pub fn induced(base: &'g Graph, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut d = Self::new(base);
        for v in nodes {
            d.add_node(v);
        }
        d
    }

    /// The base graph.
    pub fn base(&self) -> &'g Graph {
        self.base
    }

    /// Recover the scratch buffers for reuse by the next subgraph.
    pub fn into_scratch(self) -> SubgraphScratch {
        self.s
    }

    /// Add `v` and all base-graph edges between `v` and current members.
    ///
    /// Returns the number of size units added (1 for the node plus 1 per
    /// induced edge), or 0 if `v` was already present. The caller charges
    /// this against the resource budget.
    pub fn add_node(&mut self, v: NodeId) -> usize {
        self.try_add_node(v, usize::MAX)
            // invariant: with `remaining = usize::MAX` the budget check in
            // `try_add_node` can never reject, so the result is `Some`.
            .expect("unbounded add cannot exceed the budget")
    }

    /// Add `v` if its size units (1 + induced edges) fit within `remaining`
    /// budget units, in **one** adjacency scan — the fold of the former
    /// `peek_add_units` probe and `add_node` insertion, so each admitted
    /// node scans its base adjacency once, not twice.
    ///
    /// Returns `Some(units)` on admission (0 if `v` was already present) or
    /// `None` — with the subgraph unchanged — when `units > remaining`.
    pub fn try_add_node(&mut self, v: NodeId, remaining: usize) -> Option<usize> {
        debug_assert!(v.index() < self.base.node_count(), "node outside base");
        if self.contains(v) {
            return Some(0);
        }
        // Optimistically register v so the scans see it as a member (a
        // self-loop becomes an induced edge the moment v joins).
        let slot = self.s.nodes.len();
        self.s.members.insert(v.index(), slot as u32);
        self.s.nodes.push(v);
        if slot == self.s.out_adj.len() {
            self.s.out_adj.push(Vec::new());
            self.s.in_adj.push(Vec::new());
        }
        self.s.out_adj[slot].clear();
        self.s.in_adj[slot].clear();

        let mut units = 1usize;
        for &w in self.base.out(v) {
            if let Some(ws) = self.slot(w) {
                self.s.out_adj[slot].push(w);
                self.s.in_adj[ws].push(v);
                units += 1;
            }
        }
        for &w in self.base.inn(v) {
            if w == v {
                // Self-loop fully handled by the out scan (both adjacency
                // directions were registered there).
                continue;
            }
            if let Some(ws) = self.slot(w) {
                self.s.in_adj[slot].push(w);
                self.s.out_adj[ws].push(v);
                units += 1;
            }
        }

        if units > remaining {
            // Roll back in reverse scan order. `v` is the most recent push
            // on every *other* member's list it touched; its own lists are
            // cleared on slot reuse. Undo the in-scan first (it ran last),
            // then the out-scan — for a self-loop, the out-scan pushed onto
            // v's own `in_adj`, which needs no undo.
            for i in (0..self.s.in_adj[slot].len()).rev() {
                let w = self.s.in_adj[slot][i];
                if let Some(ws) = self.slot(w).filter(|_| w != v) {
                    self.s.out_adj[ws].pop();
                }
            }
            for i in (0..self.s.out_adj[slot].len()).rev() {
                let w = self.s.out_adj[slot][i];
                if let Some(ws) = self.slot(w).filter(|_| w != v) {
                    self.s.in_adj[ws].pop();
                }
            }
            self.s.nodes.pop();
            self.s.members.remove(v.index());
            return None;
        }

        let pos = self.s.sorted_nodes.binary_search(&v).unwrap_err();
        self.s.sorted_nodes.insert(pos, v);
        self.num_edges += units - 1;
        Some(units)
    }

    /// Member nodes in insertion order.
    pub fn members(&self) -> &[NodeId] {
        &self.s.nodes
    }

    #[inline]
    fn slot(&self, v: NodeId) -> Option<usize> {
        self.s.members.get(v.index()).map(|ws| ws as usize)
    }
}

impl GraphView for DynamicSubgraph<'_> {
    #[inline]
    fn contains(&self, v: NodeId) -> bool {
        self.s.members.contains(v.index())
    }

    #[inline]
    fn label(&self, v: NodeId) -> Label {
        self.base.node_label(v)
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        match self.slot(v) {
            Some(i) => &self.s.out_adj[i],
            None => &[],
        }
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        match self.slot(v) {
            Some(i) => &self.s.in_adj[i],
            None => &[],
        }
    }

    fn node_ids(&self) -> NodeIds<'_> {
        NodeIds::Slice(self.s.sorted_nodes.iter())
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        self.s.nodes.len()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn path5() -> Graph {
        graph_from_edges(
            &["A", "B", "C", "D", "E"],
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
        )
    }

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().map(|&i| NodeId(i)).collect()
    }

    /// The definition (§2), checked from `base.edges()` alone: `d` is the
    /// subgraph induced by `picks` iff its node set is `S = set(picks)`, its
    /// out/in adjacency equals `E_S = {(u, v) ∈ E : u, v ∈ S}` as sorted
    /// sets, `size() = |S| + |E_S|` and `node_ids()` ascends.
    fn assert_induced(d: &DynamicSubgraph<'_>, picks: &[NodeId], ctx: &str) {
        let base = d.base();
        let mut set = picks.to_vec();
        set.sort_unstable();
        set.dedup();
        let inside = |v: NodeId| set.binary_search(&v).is_ok();
        let e_s: Vec<(NodeId, NodeId)> = base
            .edges()
            .filter(|&(u, v)| inside(u) && inside(v))
            .collect();
        assert_eq!(d.node_ids().collect::<Vec<_>>(), set, "{ctx}: node_ids");
        assert_eq!(d.num_nodes(), set.len(), "{ctx}: |S|");
        assert_eq!(d.num_edges(), e_s.len(), "{ctx}: |E_S|");
        assert_eq!(d.size(), set.len() + e_s.len(), "{ctx}: size");
        for v in base.nodes() {
            assert_eq!(d.contains(v), inside(v), "{ctx}: contains {v:?}");
            let mut out = d.out_neighbors(v).to_vec();
            let mut inn = d.in_neighbors(v).to_vec();
            out.sort_unstable();
            inn.sort_unstable();
            let mut want_out: Vec<NodeId> = e_s.iter().filter(|e| e.0 == v).map(|e| e.1).collect();
            let mut want_in: Vec<NodeId> = e_s.iter().filter(|e| e.1 == v).map(|e| e.0).collect();
            want_out.sort_unstable();
            want_in.sort_unstable();
            assert_eq!(out, want_out, "{ctx}: out list of {v:?}");
            assert_eq!(inn, want_in, "{ctx}: in list of {v:?}");
        }
    }

    #[test]
    fn induced_subgraph_keeps_inner_edges_only() {
        let g = path5();
        let s = DynamicSubgraph::induced(&g, ids(&[1, 2, 4]));
        assert_eq!(s.num_nodes(), 3);
        assert_eq!(s.num_edges(), 1); // only 1 -> 2
        assert!(s.has_edge(NodeId(1), NodeId(2)));
        assert!(!s.has_edge(NodeId(2), NodeId(3)));
        assert!(!s.contains(NodeId(3)));
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = path5();
        let s = DynamicSubgraph::induced(&g, ids(&[0, 0, 1]));
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.num_edges(), 1);
    }

    #[test]
    fn induced_neighbors_filtered() {
        let g = graph_from_edges(&["A", "B", "C"], &[(0, 1), (0, 2)]);
        let s = DynamicSubgraph::induced(&g, ids(&[0, 2]));
        assert_eq!(s.out_neighbors(NodeId(0)), [NodeId(2)]);
        assert_eq!(s.in_neighbors(NodeId(2)), [NodeId(0)]);
        assert!(s.out_neighbors(NodeId(1)).is_empty()); // non-member
    }

    #[test]
    fn dynamic_subgraph_grows_induced() {
        let g = path5();
        let mut d = DynamicSubgraph::new(&g);
        assert_eq!(d.add_node(NodeId(1)), 1); // node only
        assert_eq!(d.add_node(NodeId(2)), 2); // node + edge 1->2
        assert_eq!(d.add_node(NodeId(2)), 0); // duplicate
        assert_eq!(d.num_nodes(), 2);
        assert_eq!(d.num_edges(), 1);
        assert_eq!(d.size(), 3);
        assert_eq!(d.out_neighbors(NodeId(1)), [NodeId(2)]);
        assert_eq!(d.in_neighbors(NodeId(2)), [NodeId(1)]);
    }

    #[test]
    fn dynamic_subgraph_matches_induced_semantics() {
        // Random S ⊆ V with duplicates, in random insertion order, over a
        // graph with self-loops and 2-cycles: always the induced subgraph.
        let g = graph_from_edges(
            &["A", "B", "C", "D", "A", "B", "C"],
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 3),
                (3, 1),
                (0, 3),
                (3, 3),
                (4, 4),
                (4, 5),
                (5, 6),
                (6, 4),
                (2, 5),
                (6, 0),
            ],
        );
        let mut x = 0x9E37_79B9u32; // xorshift32, fixed seed
        let mut next = |m: u32| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x % m
        };
        for case in 0..200 {
            let picks: Vec<NodeId> = (0..next(10)).map(|_| NodeId(next(7))).collect();
            let d = DynamicSubgraph::induced(&g, picks.iter().copied());
            assert_induced(&d, &picks, &format!("case {case} picks {picks:?}"));
        }
    }

    #[test]
    fn dynamic_subgraph_self_loop_counted_once() {
        let g = graph_from_edges(&["A"], &[(0, 0)]);
        let mut d = DynamicSubgraph::new(&g);
        let added = d.add_node(NodeId(0));
        assert_eq!(added, 2); // node + self loop
        assert_eq!(d.num_edges(), 1);
        assert_eq!(d.out_neighbors(NodeId(0)), [NodeId(0)]);
        assert_eq!(d.in_neighbors(NodeId(0)), [NodeId(0)]);
    }

    #[test]
    fn try_add_node_rejects_over_budget_without_mutation() {
        let g = graph_from_edges(
            &["A", "B", "C", "D"],
            &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (0, 3)],
        );
        let mut d = DynamicSubgraph::new(&g);
        assert_eq!(d.try_add_node(NodeId(0), 1), Some(1));
        assert_eq!(d.try_add_node(NodeId(1), 10), Some(3)); // node + 0->1, 1->0
                                                            // Node 3 would cost 1 + edges 2->? none yet.. 3 edges: 3->1, 0->3.
        assert_eq!(d.try_add_node(NodeId(3), 2), None);
        // The rejection must leave the subgraph byte-identical.
        assert_induced(&d, &ids(&[0, 1]), "after rejection");
        assert_eq!(d.out_neighbors(NodeId(0)), [NodeId(1)]);
        assert_eq!(d.in_neighbors(NodeId(1)), [NodeId(0)]);
        // With enough budget the same node is admitted with the same units.
        assert_eq!(d.try_add_node(NodeId(3), 3), Some(3));
        assert_eq!(d.num_edges(), 4);
    }

    #[test]
    fn try_add_node_rollback_with_self_loop() {
        let g = graph_from_edges(&["A", "B"], &[(0, 0), (0, 1), (1, 0)]);
        let mut d = DynamicSubgraph::new(&g);
        assert_eq!(d.add_node(NodeId(1)), 1);
        // Node 0 costs 1 (node) + 1 (self loop) + 2 (0<->1) = 4.
        assert_eq!(d.try_add_node(NodeId(0), 3), None);
        assert_eq!(d.num_nodes(), 1);
        assert_eq!(d.num_edges(), 0);
        assert!(d.in_neighbors(NodeId(1)).is_empty());
        assert!(d.out_neighbors(NodeId(1)).is_empty());
        assert_eq!(d.try_add_node(NodeId(0), 4), Some(4));
        assert_eq!(d.num_edges(), 3);
    }

    #[test]
    fn scratch_reuse_is_clean_across_subgraphs() {
        let g = graph_from_edges(
            &["A", "B", "C", "D"],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)],
        );
        let mut scratch = SubgraphScratch::new();
        for round in 0..300u32 {
            // Alternate member sets so stale state would be caught.
            let picks = if round % 2 == 0 {
                ids(&[0, 1, 3])
            } else {
                ids(&[2, 1])
            };
            let mut d = scratch.begin(&g);
            for &v in &picks {
                d.add_node(v);
            }
            assert_induced(&d, &picks, &format!("round {round}"));
            scratch = d.into_scratch();
        }
    }

    #[test]
    fn node_ids_are_sorted_regardless_of_insertion_order() {
        let g = path5();
        let d = DynamicSubgraph::induced(&g, ids(&[4, 0, 2, 3, 1]));
        let got: Vec<NodeId> = d.node_ids().collect();
        assert_eq!(got, ids(&[0, 1, 2, 3, 4]));
        // members() stays in insertion order.
        assert_eq!(d.members()[0], NodeId(4));
    }
}
