//! Query-preserving compression for reachability (§5 "Preprocessing",
//! after Fan et al. SIGMOD 2012 \[12\]).
//!
//! Two reachability-preserving reductions, applied in sequence:
//!
//! 1. **SCC condensation** — mutually reachable nodes collapse to one
//!    (delegated to [`rbq_graph::condense`]);
//! 2. **Equivalence merge** — distinct DAG nodes with *identical* parent
//!    sets and *identical* child sets are merged. Identical neighborhoods
//!    imply reachability-equivalence w.r.t. all other nodes, and in a DAG
//!    two such nodes can never reach each other (a connecting path through a
//!    shared child set would close a cycle), so queries remain answerable:
//!    `s → t` holds iff their representatives are distinct and connected,
//!    or `s, t` share an SCC.
//!
//! One merge pass reaches the fixpoint. Equivalent nodes share their
//! in-sets, so a list that names one member of a class names them all; two
//! lists that agree after members are replaced by their class therefore
//! agreed before, and nodes the pass left apart stay apart.

use rbq_graph::condense::{condense, Condensation};
use rbq_graph::traverse::reaches;
use rbq_graph::{Graph, GraphView, NodeId};
use rustc_hash::FxHasher;
use std::hash::{Hash, Hasher};

/// A reachability-preserving compressed form of a graph.
#[derive(Debug, Clone)]
pub struct CompressedGraph {
    /// The compressed DAG. Node ids are reverse-topological — every edge
    /// `a -> b` has `a > b` — so `0..n` visits children before parents.
    pub dag: Graph,
    /// `scc[v]` — SCC id of original node `v` (ids are reverse-topological).
    scc: Vec<u32>,
    /// `rep[c]` — compressed-DAG node representing SCC `c`.
    rep: Vec<u32>,
}

impl CompressedGraph {
    /// The compressed node representing original node `v`.
    #[inline]
    pub fn map(&self, v: NodeId) -> NodeId {
        NodeId(self.rep[self.scc[v.index()] as usize])
    }

    /// Whether two original nodes share an SCC (mutually reachable).
    #[inline]
    pub fn same_scc(&self, u: NodeId, v: NodeId) -> bool {
        self.scc[u.index()] == self.scc[v.index()]
    }

    /// Answer `s → t` on the original graph via the compressed DAG.
    ///
    /// Exact: the compression is query-preserving. Cost is a BFS on the
    /// (smaller) DAG.
    pub fn query(&self, s: NodeId, t: NodeId) -> bool {
        if s == t || self.same_scc(s, t) {
            return true;
        }
        let cs = self.map(s);
        let ct = self.map(t);
        if cs == ct {
            // Same representative but different SCCs: merged by the
            // equivalence step, which only merges mutually *unreachable*
            // DAG nodes.
            return false;
        }
        reaches(&self.dag, cs, ct).0
    }

    /// Whether `other` is the same compression structure for structure:
    /// the same DAG (adjacency both ways, label strings) behind the same
    /// node maps.
    pub fn structural_eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.dag, &other.dag);
        self.scc == other.scc
            && self.rep == other.rep
            && a.node_count() == b.node_count()
            && a.nodes().all(|v| {
                a.out(v) == b.out(v)
                    && a.inn(v) == b.inn(v)
                    && a.node_label_str(v) == b.node_label_str(v)
            })
    }

    /// Compression ratio `|dag| / |original|` in nodes+edges units.
    pub fn ratio(&self, original: &Graph) -> f64 {
        self.dag.size() as f64 / original.size().max(1) as f64
    }
}

/// SCC condensation only, without the equivalence merge — the ablation
/// baseline for the merge step (and the cheaper preprocessing variant).
pub fn condense_only(g: &Graph) -> CompressedGraph {
    let Condensation { dag, partition } = condense(g);
    let rep = (0..dag.node_count() as u32).collect();
    CompressedGraph {
        dag,
        scc: partition.comp,
        rep,
    }
}

/// Compress `g` for reachability: condense SCCs, then merge
/// neighborhood-identical DAG nodes.
pub fn compress_for_reachability(g: &Graph) -> CompressedGraph {
    compress_with(g, signature_hash)
}

/// 64-bit hash of a node's `(out, in)` signature. Only a grouping hint:
/// [`merge_equivalent`] confirms every candidate pair by slice equality.
fn signature_hash(out: &[NodeId], inn: &[NodeId]) -> u64 {
    let mut h = FxHasher::default();
    (out, inn).hash(&mut h);
    h.finish()
}

pub(crate) fn compress_with(
    g: &Graph,
    hash: impl Fn(&[NodeId], &[NodeId]) -> u64,
) -> CompressedGraph {
    let Condensation { dag, partition } = condense(g);
    let (dag, rep) = merge_equivalent(dag, hash);
    CompressedGraph {
        dag,
        scc: partition.comp,
        rep,
    }
}

/// Merge the nodes of `dag` that share a signature — the pair (sorted out
/// list, sorted in list); CSR rows are already sorted. Returns the merged
/// DAG, renumbered densely in leader-id order (which keeps ids
/// reverse-topological), and the map from old node to merged node.
///
/// Each node is keyed by one word, its signature hash's high half above
/// its id, so one integer sort puts equal signatures in one run, in id
/// order; inside a run each member is compared with the run's leaders so
/// far and joins the first it equals. Runs hold one class unless hashes
/// collide, so a member costs one slice comparison.
fn merge_equivalent(dag: Graph, hash: impl Fn(&[NodeId], &[NodeId]) -> u64) -> (Graph, Vec<u32>) {
    const HIGH_HALF: u64 = !0 << 32;
    let sig = |v: u32| (dag.out(NodeId(v)), dag.inn(NodeId(v)));
    let n = dag.node_count();
    let mut keyed: Vec<u64> = (0..n as u32)
        .map(|v| {
            let (out, inn) = sig(v);
            hash(out, inn) & HIGH_HALF | u64::from(v)
        })
        .collect();
    keyed.sort_unstable();

    // leader[v] — smallest member of v's class: a run lists its members in
    // id order, so the first member of a class leads it.
    let mut leader: Vec<u32> = (0..n as u32).collect();
    let mut leads: Vec<u32> = Vec::new();
    let mut merged = false;
    for run in keyed
        .chunk_by(|a, b| a & HIGH_HALF == b & HIGH_HALF)
        .filter(|run| run.len() > 1)
    {
        leads.clear();
        for v in run.iter().map(|&k| k as u32) {
            match leads.iter().find(|&&l| sig(l) == sig(v)) {
                Some(&l) => {
                    leader[v as usize] = l;
                    merged = true;
                }
                None => leads.push(v),
            }
        }
    }
    if !merged {
        return (dag, leader);
    }

    // Number the leaders densely in id order; a member's leader is smaller
    // than the member, so its class is known by the time it is visited.
    let mut class = vec![0u32; n];
    let mut k = 0u32;
    for v in 0..n {
        if leader[v] == v as u32 {
            class[v] = k;
            k += 1;
        } else {
            class[v] = class[leader[v] as usize];
        }
    }

    // Members of a class have identical neighbors, so a row that lists any
    // member lists the leader too: keeping each leader's leader entries
    // yields the merged row, already sorted and duplicate-free.
    let mut node_labels = Vec::with_capacity(k as usize);
    let mut offsets = Vec::with_capacity(k as usize + 1);
    let mut targets = Vec::with_capacity(dag.edge_count());
    offsets.push(0);
    for v in dag.nodes().filter(|v| leader[v.index()] == v.0) {
        node_labels.push(dag.node_label(v));
        targets.extend(
            dag.out(v)
                .iter()
                .filter(|w| leader[w.index()] == w.0)
                .map(|w| NodeId(class[w.index()])),
        );
        offsets.push(targets.len());
    }
    let merged = Graph::from_out_csr(dag.labels().clone(), node_labels, offsets, targets);
    (merged, class)
}

/// The compression as it was first written — `GraphBuilder` condensation,
/// nodes grouped in a map keyed by cloned `(out, in)` lists, passes repeated
/// until one merges nothing — kept as the reference the fast path is
/// proptested against. `merge = false` is [`condense_only`]'s reference.
#[cfg(test)]
pub(crate) fn compress_reference(g: &Graph, merge: bool) -> CompressedGraph {
    use rbq_graph::GraphBuilder;
    use rustc_hash::FxHashMap;

    let partition = rbq_graph::scc::tarjan_scc(g);
    let mut b = GraphBuilder::new();
    for c in 0..partition.count as u32 {
        let smallest = g.nodes().find(|&v| partition.component_of(v) == c);
        b.add_node(g.node_label_str(smallest.expect("every component has a member")));
    }
    for (u, v) in g.edges() {
        let (cu, cv) = (partition.component_of(u), partition.component_of(v));
        if cu != cv {
            b.add_edge(NodeId(cu), NodeId(cv));
        }
    }
    let mut dag = b.build();
    let mut rep: Vec<u32> = (0..dag.node_count() as u32).collect();

    loop {
        let n = dag.node_count();
        let mut groups: FxHashMap<(Vec<NodeId>, Vec<NodeId>), Vec<NodeId>> = FxHashMap::default();
        for v in dag.nodes() {
            let key = (dag.out(v).to_vec(), dag.inn(v).to_vec());
            groups.entry(key).or_default().push(v);
        }
        if !merge || groups.len() == n {
            break; // merge not wanted, or no two nodes share a signature
        }
        // Build merged graph: leader = smallest member of each group.
        let mut leader: Vec<u32> = (0..n as u32).collect();
        for members in groups.values() {
            let lead = members[0]; // members pushed in ascending id order
            for &m in members {
                leader[m.index()] = lead.0;
            }
        }
        // Re-number leaders densely.
        let mut dense: FxHashMap<u32, u32> = FxHashMap::default();
        let mut b = GraphBuilder::with_capacity(groups.len(), dag.edge_count());
        for v in dag.nodes() {
            if leader[v.index()] == v.0 {
                let new_id = b.add_node(dag.node_label_str(v));
                dense.insert(v.0, new_id.0);
            }
        }
        for (u, v) in dag.edges() {
            let lu = dense[&leader[u.index()]];
            let lv = dense[&leader[v.index()]];
            if lu != lv {
                b.add_edge(NodeId(lu), NodeId(lv));
            }
        }
        // Compose the representative mapping.
        for r in rep.iter_mut() {
            *r = dense[&leader[*r as usize]];
        }
        dag = b.build();
    }

    CompressedGraph {
        dag,
        scc: partition.comp,
        rep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::builder::graph_from_edges;

    #[test]
    fn scc_collapse_preserved() {
        // cycle {0,1,2} -> 3
        let g = graph_from_edges(&["A"; 4], &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = compress_for_reachability(&g);
        assert!(c.query(NodeId(0), NodeId(2))); // same SCC
        assert!(c.query(NodeId(1), NodeId(3)));
        assert!(!c.query(NodeId(3), NodeId(0)));
    }

    #[test]
    fn sibling_merge_does_not_fake_reachability() {
        // 0 -> {1, 2} -> 3: nodes 1 and 2 have identical in/out sets and
        // merge, but 1 must not "reach" 2.
        let g = graph_from_edges(&["A"; 4], &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let c = compress_for_reachability(&g);
        assert!(c.dag.node_count() < 4, "siblings should merge");
        assert!(!c.query(NodeId(1), NodeId(2)));
        assert!(!c.query(NodeId(2), NodeId(1)));
        assert!(c.query(NodeId(0), NodeId(3)));
        assert!(c.query(NodeId(1), NodeId(3)));
        assert!(c.query(NodeId(0), NodeId(2)));
    }

    #[test]
    fn compression_is_exact_on_random_like_graph() {
        // Exhaustively verify query preservation on a structured graph.
        let g = graph_from_edges(
            &["A"; 10],
            &[
                (0, 1),
                (1, 2),
                (2, 0), // cycle
                (2, 3),
                (3, 4),
                (3, 5), // fan
                (4, 6),
                (5, 6), // merge
                (7, 8), // detached chain
                (8, 7), // detached cycle
                (6, 9),
            ],
        );
        let c = compress_for_reachability(&g);
        for s in 0..10u32 {
            for t in 0..10u32 {
                let exact = reaches(&g, NodeId(s), NodeId(t)).0;
                assert_eq!(c.query(NodeId(s), NodeId(t)), exact, "mismatch on {s}->{t}");
            }
        }
    }

    #[test]
    fn dag_is_smaller_or_equal() {
        let g = graph_from_edges(
            &["A"; 6],
            &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (4, 3), (3, 5)],
        );
        let c = compress_for_reachability(&g);
        assert!(c.dag.size() <= g.size());
        assert!(c.ratio(&g) <= 1.0);
    }

    #[test]
    fn multi_pass_merge_converges() {
        // Two parallel chains 0->1->3, 0->2->3: after merging 1,2 the merged
        // node's neighborhoods stay distinct from others; fixpoint reached.
        let g = graph_from_edges(&["A"; 4], &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let c = compress_for_reachability(&g);
        // 4 nodes -> 3 (0, {1,2}, 3).
        assert_eq!(c.dag.node_count(), 3);
        for s in 0..4u32 {
            for t in 0..4u32 {
                assert_eq!(
                    c.query(NodeId(s), NodeId(t)),
                    reaches(&g, NodeId(s), NodeId(t)).0
                );
            }
        }
    }

    #[test]
    fn cascading_merge() {
        // Diamond-of-diamonds: merging inner siblings can enable a second
        // merge round. 0->{1,2}->3->{4,5}->6.
        let g = graph_from_edges(
            &["A"; 7],
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 6),
            ],
        );
        let c = compress_for_reachability(&g);
        assert_eq!(c.dag.node_count(), 5);
        for s in 0..7u32 {
            for t in 0..7u32 {
                assert_eq!(
                    c.query(NodeId(s), NodeId(t)),
                    reaches(&g, NodeId(s), NodeId(t)).0
                );
            }
        }
    }

    #[test]
    fn isolated_nodes_merge_safely() {
        let g = graph_from_edges(&["A"; 3], &[]);
        let c = compress_for_reachability(&g);
        // All three isolated nodes share (empty, empty) signatures.
        assert_eq!(c.dag.node_count(), 1);
        assert!(!c.query(NodeId(0), NodeId(1)));
        assert!(c.query(NodeId(1), NodeId(1)));
    }

    #[test]
    fn self_query_always_true() {
        let g = graph_from_edges(&["A"; 2], &[(0, 1)]);
        let c = compress_for_reachability(&g);
        assert!(c.query(NodeId(0), NodeId(0)));
        assert!(c.query(NodeId(1), NodeId(1)));
    }
}
