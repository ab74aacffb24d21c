//! Simulation-preserving compression (related work \[12\], Fan et al.
//! SIGMOD 2012).
//!
//! The paper's related-work section notes that query-preserving compression
//! reduces graphs to ~43% of their size for *simulation* queries and can be
//! combined with resource-bounded querying as a preprocessing step. This
//! module implements that compression: a **forward-and-backward
//! bisimulation quotient**. Nodes are merged when they carry the same label
//! and have children/parents in exactly the same equivalence classes; such
//! nodes are indistinguishable to (dual) simulation, so for every query
//! node `u`, the match set in `G` is exactly the preimage of the match set
//! in the quotient.
//!
//! Computed by iterated partition refinement: start from label classes,
//! split by `(out-block set, in-block set)` signatures until stable.

use crate::dualsim::dual_simulation;
use crate::pattern::ResolvedPattern;
use rbq_graph::{Graph, GraphBuilder, NodeId};
use rustc_hash::{FxHashMap, FxHashSet};

/// A simulation-preserving compressed graph.
#[derive(Debug, Clone)]
pub struct SimCompressed {
    /// The quotient graph: one node per bisimulation class.
    pub quotient: Graph,
    /// `block_of[v]` — quotient node of original node `v`.
    block_of: Vec<u32>,
    /// Members of each block, sorted.
    members: Vec<Vec<NodeId>>,
}

impl SimCompressed {
    /// Quotient node of original node `v`.
    #[inline]
    pub fn block(&self, v: NodeId) -> NodeId {
        NodeId(self.block_of[v.index()])
    }

    /// Original nodes represented by quotient node `b`.
    pub fn members(&self, b: NodeId) -> &[NodeId] {
        &self.members[b.index()]
    }

    /// Number of equivalence classes.
    pub fn block_count(&self) -> usize {
        self.members.len()
    }

    /// Expand quotient-side matches to the original graph (the preimage).
    fn expand(&self, quotient_matches: &[NodeId]) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = quotient_matches
            .iter()
            .flat_map(|&b| self.members[b.index()].iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Compression ratio `|quotient| / |original|` in nodes+edges units.
    pub fn ratio(&self, original: &Graph) -> f64 {
        use rbq_graph::GraphView;
        self.quotient.size() as f64 / original.size().max(1) as f64
    }

    /// Evaluate a dual-simulation query on the quotient and expand the
    /// answer — equivalent to evaluating on the original graph.
    ///
    /// The pattern must resolve against the *quotient* (labels are
    /// preserved; the personalized node's unique label keeps its block a
    /// singleton). The evaluation is unrestricted (no universe); a
    /// ball-restricted quotient evaluation would pass the sorted block-id
    /// slice as the `dual_simulation` universe.
    pub fn dual_sim_via_quotient(&self, q: &ResolvedPattern) -> Option<Vec<NodeId>> {
        let rel = dual_simulation(q, &self.quotient, None)?;
        Some(self.expand(rel.matches(q.uo())))
    }
}

/// Compute the forward-and-backward bisimulation quotient of `g`.
///
/// `O(iterations · (|V| + |E|))` with hashing; iterations are bounded by
/// `|V|` and small in practice.
pub fn bisimulation_compress(g: &Graph) -> SimCompressed {
    let n = g.node_count();
    // Initial partition: by label.
    let mut block_of: Vec<u32> = (0..n).map(|i| g.node_label(NodeId::new(i)).0).collect();
    normalize(&mut block_of);

    loop {
        // Signature: (current block, sorted out-block set, sorted in-block set).
        let mut sig_ids: FxHashMap<(u32, Vec<u32>, Vec<u32>), u32> = FxHashMap::default();
        let mut next: Vec<u32> = vec![0; n];
        for v in g.nodes() {
            let mut outs: Vec<u32> = g.out(v).iter().map(|w| block_of[w.index()]).collect();
            outs.sort_unstable();
            outs.dedup();
            let mut ins: Vec<u32> = g.inn(v).iter().map(|w| block_of[w.index()]).collect();
            ins.sort_unstable();
            ins.dedup();
            let key = (block_of[v.index()], outs, ins);
            let id = sig_ids.len() as u32;
            next[v.index()] = *sig_ids.entry(key).or_insert(id);
        }
        let stable = sig_ids.len() == block_of.iter().copied().collect::<FxHashSet<u32>>().len();
        block_of = next;
        if stable {
            break;
        }
    }
    normalize(&mut block_of);

    // Build quotient.
    let block_count = block_of.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); block_count];
    for v in g.nodes() {
        members[block_of[v.index()] as usize].push(v);
    }
    let mut b = GraphBuilder::with_capacity(block_count, g.edge_count());
    for m in &members {
        b.add_node(g.node_label_str(m[0]));
    }
    for (u, v) in g.edges() {
        let bu = block_of[u.index()];
        let bv = block_of[v.index()];
        b.add_edge(NodeId(bu), NodeId(bv));
    }
    SimCompressed {
        quotient: b.build(),
        block_of,
        members,
    }
}

/// Renumber partition ids densely in first-occurrence order.
fn normalize(block_of: &mut [u32]) {
    let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
    for b in block_of.iter_mut() {
        let id = remap.len() as u32;
        *b = *remap.entry(*b).or_insert(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternBuilder;
    use rbq_graph::builder::graph_from_edges;

    #[test]
    fn identical_twins_merge() {
        // Two B-children of the same parent with identical (empty)
        // neighborhoods beyond it.
        let g = graph_from_edges(&["A", "B", "B"], &[(0, 1), (0, 2)]);
        let c = bisimulation_compress(&g);
        assert_eq!(c.block_count(), 2);
        assert_eq!(c.block(NodeId(1)), c.block(NodeId(2)));
        assert_eq!(c.quotient.node_count(), 2);
        assert_eq!(c.quotient.edge_count(), 1);
    }

    #[test]
    fn different_context_keeps_nodes_apart() {
        // b1 has a C child, b2 does not -> not bisimilar.
        let g = graph_from_edges(&["A", "B", "B", "C"], &[(0, 1), (0, 2), (1, 3)]);
        let c = bisimulation_compress(&g);
        assert_ne!(c.block(NodeId(1)), c.block(NodeId(2)));
    }

    #[test]
    fn backward_direction_matters() {
        // Same children, different parents: must stay apart (dual
        // simulation checks parents).
        let g = graph_from_edges(
            &["A", "X", "B", "B", "T"],
            &[(0, 2), (1, 3), (2, 4), (3, 4)],
        );
        let c = bisimulation_compress(&g);
        assert_ne!(c.block(NodeId(2)), c.block(NodeId(3)));
    }

    #[test]
    fn cascading_refinement() {
        // Chain of B's: b_i distinguished by distance to the end.
        let g = graph_from_edges(&["B"; 4], &[(0, 1), (1, 2), (2, 3)]);
        let c = bisimulation_compress(&g);
        assert_eq!(c.block_count(), 4, "all chain positions distinct");
    }

    #[test]
    fn cycle_of_equal_nodes_merges() {
        // Uniform cycle: all nodes bisimilar.
        let n = 6u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = graph_from_edges(&vec!["A"; n as usize], &edges);
        let c = bisimulation_compress(&g);
        assert_eq!(c.block_count(), 1);
        assert_eq!(c.quotient.node_count(), 1);
    }

    #[test]
    fn expand_returns_preimage() {
        let g = graph_from_edges(&["A", "B", "B"], &[(0, 1), (0, 2)]);
        let c = bisimulation_compress(&g);
        let b = c.block(NodeId(1));
        let expanded = c.expand(&[b]);
        assert_eq!(expanded, vec![NodeId(1), NodeId(2)]);
        assert_eq!(c.members(b), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn dual_simulation_preserved_through_quotient() {
        // Fig.1-like: query answers must be identical via the quotient.
        let g = graph_from_edges(
            &["ME", "CC", "CC", "HG", "CL", "CL", "CL"],
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 4),
                (1, 5),
                (2, 5),
                (3, 4),
                (3, 5),
                (2, 6),
            ],
        );
        let mut pb = PatternBuilder::new();
        let me = pb.add_node("ME");
        let cc = pb.add_node("CC");
        let hg = pb.add_node("HG");
        let cl = pb.add_node("CL");
        pb.add_edge(me, cc)
            .add_edge(me, hg)
            .add_edge(cc, cl)
            .add_edge(hg, cl);
        pb.personalized(me).output(cl);
        let pattern = pb.build();

        let q_orig = pattern.resolve(&g).unwrap();
        let direct = dual_simulation(&q_orig, &g, None)
            .map(|d| d.matches(q_orig.uo()).to_vec())
            .unwrap_or_default();

        let c = bisimulation_compress(&g);
        let q_quot = pattern.resolve(&c.quotient).unwrap();
        let via_quotient = c.dual_sim_via_quotient(&q_quot).unwrap_or_default();

        assert_eq!(direct, via_quotient);
    }

    #[test]
    fn quotient_is_smaller_on_redundant_graphs() {
        // Star with many identical leaves compresses massively.
        let mut labels = vec!["R"];
        labels.extend(std::iter::repeat_n("L", 50));
        let edges: Vec<(u32, u32)> = (1..=50).map(|i| (0, i)).collect();
        let g = graph_from_edges(&labels, &edges);
        let c = bisimulation_compress(&g);
        assert_eq!(c.quotient.node_count(), 2);
        assert!(c.ratio(&g) < 0.1);
    }

    #[test]
    fn empty_graph() {
        let g = graph_from_edges(&[], &[]);
        let c = bisimulation_compress(&g);
        assert_eq!(c.block_count(), 0);
        assert_eq!(c.quotient.node_count(), 0);
    }
}
