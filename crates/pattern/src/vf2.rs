//! Anchored subgraph isomorphism in the style of VF2 (Cordella et al. [11]).
//!
//! A match of `Q` in `G` is an injective mapping `h : V_p → V` with
//! `h(u_p) = v_p`, label-preserving, and edge-preserving: `(u, u') ∈ E_p`
//! implies `(h(u), h(u')) ∈ E` (§2; the matched subgraph `G'` is taken to be
//! the image of `Q`, so the embedding is non-induced). The answer `Q(G)` is
//! the set of images `h(u_o)` over all embeddings.
//!
//! The enumerator is anchored at the personalized pair, explores query nodes
//! in a connectivity-aware order, and prunes by label, degree, and mapped-
//! neighbor consistency. `VF2OPT` — the paper's optimized baseline —
//! restricts the search to the `d_Q`-neighborhood `G_dQ(v_p)` first.

use crate::pattern::{PNode, ResolvedPattern};
use crate::strongsim::ball_nodes;
use rbq_graph::{CancelTicker, CancelToken, Graph, GraphView, NodeId};
use rustc_hash::FxHashSet;

/// Knobs for the VF2 enumerator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Vf2Config {
    /// Stop after this many *search steps* (candidate probes). `None` means
    /// run to exhaustion. A hit is reported in [`Vf2Outcome::truncated`].
    pub max_steps: Option<u64>,
    /// Cooperative deadline, checked alongside the step counter; on expiry
    /// the search unwinds with a [`rbq_graph::CancelPanic`] tagged
    /// `"vf2.step"`.
    pub cancel: CancelToken,
}

/// Result of a VF2 enumeration.
#[derive(Debug, Clone)]
pub struct Vf2Outcome {
    /// Sorted, deduplicated images of the output node across all embeddings.
    pub output_matches: Vec<NodeId>,
    /// Number of complete embeddings found.
    pub embeddings: u64,
    /// Whether the step budget was exhausted before exhaustion.
    pub truncated: bool,
}

/// Enumerate all output-node matches of `q` in `g` by anchored subgraph
/// isomorphism.
pub fn vf2_all_output_matches<V: GraphView + ?Sized>(
    q: &ResolvedPattern,
    g: &V,
    config: Vf2Config,
) -> Vf2Outcome {
    vf2_impl(q, g, config, None)
}

/// The paper's `VF2OPT` baseline: VF2 restricted to the `d_Q`-neighborhood
/// `G_dQ(v_p)` (every match must lie inside it, by data locality of
/// subgraph queries).
pub fn vf2_opt(q: &ResolvedPattern, g: &Graph, config: Vf2Config) -> Vf2Outcome {
    let ball = ball_nodes(g, q.vp(), q.dq());
    vf2_impl(q, g, config, Some(&ball))
}

/// Core backtracking enumerator. `restrict`, when present, confines data
/// nodes to the given **sorted** id slice (membership is a binary search).
fn vf2_impl<V: GraphView + ?Sized>(
    q: &ResolvedPattern,
    g: &V,
    config: Vf2Config,
    restrict: Option<&[NodeId]>,
) -> Vf2Outcome {
    let p = q.pattern();
    let n = p.node_count();
    let vp = q.vp();
    let mut outcome = Vf2Outcome {
        output_matches: Vec::new(),
        embeddings: 0,
        truncated: false,
    };
    let allowed = |v: NodeId| restrict.is_none_or(|r| r.binary_search(&v).is_ok());

    if !g.contains(vp) || g.label(vp) != q.label(q.up()) || !allowed(vp) {
        return outcome;
    }

    // Query-node visit order: BFS over the undirected pattern from u_p so
    // every node (in a connected pattern) has a previously mapped neighbor;
    // stragglers of disconnected patterns are appended arbitrarily.
    let order = connectivity_order(q);

    let mut mapping: Vec<Option<NodeId>> = vec![None; n];
    let mut used: FxHashSet<NodeId> = FxHashSet::default();
    mapping[q.up().index()] = Some(vp);
    used.insert(vp);

    let mut steps: u64 = 0;
    let mut cancel = CancelTicker::new(config.cancel);
    let mut found: FxHashSet<NodeId> = FxHashSet::default();

    // Depth starts at 1: order[0] == u_p is pre-mapped.
    backtrack(
        q,
        g,
        &order,
        1,
        &mut mapping,
        &mut used,
        &mut steps,
        config.max_steps,
        &mut cancel,
        &mut found,
        &mut outcome,
        &allowed,
    );

    outcome.output_matches = found.into_iter().collect();
    outcome.output_matches.sort_unstable();
    outcome
}

/// BFS order over the undirected pattern starting at `u_p`.
fn connectivity_order(q: &ResolvedPattern) -> Vec<PNode> {
    let p = q.pattern();
    let n = p.node_count();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[q.up().index()] = true;
    queue.push_back(q.up());
    // rbq-lint: allow(cancel-coverage, "bounded by pattern size |Vp| (a handful of nodes), not by |G|")
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &w in p.out(u).iter().chain(p.inn(u)) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                queue.push_back(w);
            }
        }
    }
    for u in p.nodes() {
        if !seen[u.index()] {
            order.push(u);
        }
    }
    order
}

#[allow(clippy::too_many_arguments)]
fn backtrack<V: GraphView + ?Sized>(
    q: &ResolvedPattern,
    g: &V,
    order: &[PNode],
    depth: usize,
    mapping: &mut Vec<Option<NodeId>>,
    used: &mut FxHashSet<NodeId>,
    steps: &mut u64,
    max_steps: Option<u64>,
    cancel: &mut CancelTicker,
    found: &mut FxHashSet<NodeId>,
    outcome: &mut Vf2Outcome,
    allowed: &dyn Fn(NodeId) -> bool,
) {
    if outcome.truncated {
        return;
    }
    if depth == order.len() {
        outcome.embeddings += 1;
        // invariant: `depth == order.len()` means every pattern node —
        // including `uo` — was assigned an image on the way down.
        let img = mapping[q.uo().index()].expect("complete mapping");
        found.insert(img);
        return;
    }
    let u = order[depth];
    let p = q.pattern();

    // Candidate generation: prefer expanding from an already-mapped pattern
    // neighbor (its data image's adjacency), falling back to a label scan.
    let mut candidates: Vec<NodeId> = Vec::new();
    let mut anchored = false;
    for &w in p.out(u) {
        if let Some(img) = mapping[w.index()] {
            candidates = g.in_neighbors(img).to_vec();
            anchored = true;
            break;
        }
    }
    if !anchored {
        for &w in p.inn(u) {
            if let Some(img) = mapping[w.index()] {
                candidates = g.out_neighbors(img).to_vec();
                anchored = true;
                break;
            }
        }
    }
    if !anchored {
        // Label-partition seeding (O(1) + output on a full graph).
        let lu = q.label(u);
        g.for_each_node_with_label(lu, &mut |v| candidates.push(v));
    }

    let du_out = p.out(u).len();
    let du_in = p.inn(u).len();

    for v in candidates {
        cancel.tick("vf2.step");
        rbq_graph::faultpoint::fire("vf2.step");
        if let Some(m) = max_steps {
            *steps += 1;
            if *steps > m {
                outcome.truncated = true;
                return;
            }
        }
        if !allowed(v) || used.contains(&v) || g.label(v) != q.label(u) {
            continue;
        }
        if g.out_degree(v) < du_out || g.in_degree(v) < du_in {
            continue;
        }
        // Full consistency with every already-mapped pattern neighbor.
        let mut ok = true;
        for &w in p.out(u) {
            if let Some(img) = mapping[w.index()] {
                if !g.has_edge(v, img) {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            for &w in p.inn(u) {
                if let Some(img) = mapping[w.index()] {
                    if !g.has_edge(img, v) {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if !ok {
            continue;
        }
        mapping[u.index()] = Some(v);
        used.insert(v);
        backtrack(
            q,
            g,
            order,
            depth + 1,
            mapping,
            used,
            steps,
            max_steps,
            cancel,
            found,
            outcome,
            allowed,
        );
        mapping[u.index()] = None;
        used.remove(&v);
        if outcome.truncated {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{fig1_pattern, PatternBuilder};
    use rbq_graph::GraphBuilder;

    fn fig1_graph() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let michael = b.add_node("Michael");
        let hg1 = b.add_node("HG");
        let hgm = b.add_node("HG");
        let cc1 = b.add_node("CC");
        let cc2 = b.add_node("CC");
        let cc3 = b.add_node("CC");
        let cl1 = b.add_node("CL");
        let cln_1 = b.add_node("CL");
        let cln = b.add_node("CL");
        b.add_edge(michael, hg1);
        b.add_edge(michael, hgm);
        b.add_edge(michael, cc1);
        b.add_edge(michael, cc3);
        b.add_edge(cc2, cl1);
        b.add_edge(cc1, cln_1);
        b.add_edge(cc1, cln);
        b.add_edge(cc3, cln);
        b.add_edge(hgm, cln_1);
        b.add_edge(hgm, cln);
        let g = b.build();
        (g, vec![michael, hg1, hgm, cc1, cc2, cc3, cl1, cln_1, cln])
    }

    #[test]
    fn fig1_isomorphism_matches() {
        let (g, ids) = fig1_graph();
        let q = fig1_pattern().resolve(&g).unwrap();
        let out = vf2_all_output_matches(&q, &g, Vf2Config::default());
        // Isomorphic embeddings: Michael->cc1->cln-1<-hgm<-Michael,
        // Michael->cc1->cln<-hgm, Michael->cc3->cln<-hgm.
        assert_eq!(out.output_matches, vec![ids[7], ids[8]]);
        assert_eq!(out.embeddings, 3);
        assert!(!out.truncated);
    }

    #[test]
    fn vf2_opt_agrees_with_unrestricted() {
        let (g, _) = fig1_graph();
        let q = fig1_pattern().resolve(&g).unwrap();
        let a = vf2_all_output_matches(&q, &g, Vf2Config::default());
        let b = vf2_opt(&q, &g, Vf2Config::default());
        assert_eq!(a.output_matches, b.output_matches);
        assert_eq!(a.embeddings, b.embeddings);
    }

    #[test]
    fn injectivity_enforced() {
        // Pattern needs two distinct A children; graph has only one.
        let mut gb = GraphBuilder::new();
        let p = gb.add_node("P");
        let a = gb.add_node("A");
        gb.add_edge(p, a);
        let g = gb.build();
        let mut pb = PatternBuilder::new();
        let qp = pb.add_node("P");
        let qa1 = pb.add_node("A");
        let qa2 = pb.add_node("A");
        pb.add_edge(qp, qa1).add_edge(qp, qa2);
        pb.personalized(qp).output(qa1);
        let q = pb.build().resolve(&g).unwrap();
        let out = vf2_all_output_matches(&q, &g, Vf2Config::default());
        assert!(out.output_matches.is_empty());
        assert_eq!(out.embeddings, 0);
    }

    #[test]
    fn two_distinct_children_found() {
        let mut gb = GraphBuilder::new();
        let p = gb.add_node("P");
        let a1 = gb.add_node("A");
        let a2 = gb.add_node("A");
        gb.add_edge(p, a1);
        gb.add_edge(p, a2);
        let g = gb.build();
        let mut pb = PatternBuilder::new();
        let qp = pb.add_node("P");
        let qa1 = pb.add_node("A");
        let qa2 = pb.add_node("A");
        pb.add_edge(qp, qa1).add_edge(qp, qa2);
        pb.personalized(qp).output(qa1);
        let q = pb.build().resolve(&g).unwrap();
        let out = vf2_all_output_matches(&q, &g, Vf2Config::default());
        assert_eq!(out.output_matches, vec![a1, a2]);
        assert_eq!(out.embeddings, 2);
    }

    #[test]
    fn non_induced_semantics_extra_edges_ok() {
        // Graph has an extra edge a->p not demanded by the pattern.
        let mut gb = GraphBuilder::new();
        let p = gb.add_node("P");
        let a = gb.add_node("A");
        gb.add_edge(p, a);
        gb.add_edge(a, p);
        let g = gb.build();
        let mut pb = PatternBuilder::new();
        let qp = pb.add_node("P");
        let qa = pb.add_node("A");
        pb.add_edge(qp, qa);
        pb.personalized(qp).output(qa);
        let q = pb.build().resolve(&g).unwrap();
        let out = vf2_all_output_matches(&q, &g, Vf2Config::default());
        assert_eq!(out.output_matches, vec![a]);
    }

    #[test]
    fn isomorphism_stricter_than_simulation() {
        // Strong simulation matches a 2-cycle pattern onto a longer even
        // cycle via relation semantics; isomorphism cannot if labels force
        // distinct images. Pattern: p->a->b->p (3-cycle). Data: p->a->b
        // (no closing edge).
        let mut gb = GraphBuilder::new();
        let p = gb.add_node("P");
        let a = gb.add_node("A");
        let b = gb.add_node("B");
        gb.add_edge(p, a);
        gb.add_edge(a, b);
        let g = gb.build();
        let mut pb = PatternBuilder::new();
        let qp = pb.add_node("P");
        let qa = pb.add_node("A");
        let qb = pb.add_node("B");
        pb.add_edge(qp, qa).add_edge(qa, qb).add_edge(qb, qp);
        pb.personalized(qp).output(qb);
        let q = pb.build().resolve(&g).unwrap();
        let out = vf2_all_output_matches(&q, &g, Vf2Config::default());
        assert!(out.output_matches.is_empty());
    }

    #[test]
    fn step_budget_truncates() {
        // A dense-ish bipartite blow-up to force many probes with a tiny cap.
        let mut gb = GraphBuilder::new();
        let p = gb.add_node("P");
        let layer1: Vec<_> = (0..8).map(|_| gb.add_node("A")).collect();
        let layer2: Vec<_> = (0..8).map(|_| gb.add_node("B")).collect();
        for &x in &layer1 {
            gb.add_edge(p, x);
            for &y in &layer2 {
                gb.add_edge(x, y);
            }
        }
        let g = gb.build();
        let mut pb = PatternBuilder::new();
        let qp = pb.add_node("P");
        let qa = pb.add_node("A");
        let qb1 = pb.add_node("B");
        let qb2 = pb.add_node("B");
        pb.add_edge(qp, qa).add_edge(qa, qb1).add_edge(qa, qb2);
        pb.personalized(qp).output(qb1);
        let q = pb.build().resolve(&g).unwrap();
        let full = vf2_all_output_matches(&q, &g, Vf2Config::default());
        assert_eq!(full.output_matches.len(), 8);
        assert!(!full.truncated);
        let capped = vf2_all_output_matches(
            &q,
            &g,
            Vf2Config {
                max_steps: Some(5),
                ..Default::default()
            },
        );
        assert!(capped.truncated);
        assert!(capped.output_matches.len() <= full.output_matches.len());
    }

    #[test]
    fn single_node_pattern_maps_to_vp() {
        let (g, ids) = fig1_graph();
        let mut pb = PatternBuilder::new();
        let m = pb.add_node("Michael");
        pb.personalized(m).output(m);
        let q = pb.build().resolve(&g).unwrap();
        let out = vf2_all_output_matches(&q, &g, Vf2Config::default());
        assert_eq!(out.output_matches, vec![ids[0]]);
        assert_eq!(out.embeddings, 1);
    }

    #[test]
    fn degree_prefilter_does_not_lose_matches() {
        // Candidate with exactly matching degrees must be kept.
        let mut gb = GraphBuilder::new();
        let p = gb.add_node("P");
        let a = gb.add_node("A");
        let b = gb.add_node("B");
        gb.add_edge(p, a);
        gb.add_edge(a, b);
        let g = gb.build();
        let mut pb = PatternBuilder::new();
        let qp = pb.add_node("P");
        let qa = pb.add_node("A");
        let qb = pb.add_node("B");
        pb.add_edge(qp, qa).add_edge(qa, qb);
        pb.personalized(qp).output(qb);
        let q = pb.build().resolve(&g).unwrap();
        let out = vf2_all_output_matches(&q, &g, Vf2Config::default());
        assert_eq!(out.output_matches, vec![b]);
    }
}
