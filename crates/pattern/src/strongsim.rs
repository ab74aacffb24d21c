//! Strong simulation matching (Ma et al., PVLDB 2011 [20]) with the
//! personalized-pattern semantics of §2.
//!
//! `G` matches `Q` at ball center `v0` if the `d_Q`-neighborhood ball
//! `G_dQ(v0)` admits a total dual simulation `R_{v0}` containing the
//! personalized pair `(u_p, v_p)`. The global match relation is the union of
//! all `R_{v0}`, and the answer `Q(G)` is the match set of the output node.
//!
//! Because every valid ball must contain `v_p`, candidate centers are
//! exactly the nodes of `N_dQ(v_p)` — the paper's `MatchOpt` ("only checks
//! subgraphs within `d_Q` hops of `v_p`") is therefore the natural baseline
//! and [`match_opt`] implements it directly. [`strong_simulation`] adds a
//! shared dual-simulation prefilter that
//! preserves the answer set (any ball-restricted relation is contained in
//! the prefilter relation) while skipping doomed balls early; the reduced
//! graph `G_Q` is evaluated with the same code.

use crate::dualsim::{
    candidate_screen_within_into, dual_simulation_screened_with, CandidateScreen, DualSimScratch,
};
use crate::pattern::ResolvedPattern;
use rbq_graph::{BallScratch, Graph, GraphView, NodeId};

/// Node set of the ball `G_r(center)` within an arbitrary view — nodes
/// within `r` hops following edges in either direction — as a **sorted**
/// vector.
///
/// One-shot convenience over [`BallScratch`]; loops evaluating many balls
/// should hold a scratch and call [`BallScratch::ball_into`] to reuse the
/// epoch-stamped visited buffer across centers.
pub fn ball_nodes<V: GraphView + ?Sized>(g: &V, center: NodeId, r: usize) -> Vec<NodeId> {
    let mut out = Vec::new();
    BallScratch::new().ball_into(g, center, r, &mut out);
    out
}

/// The paper's `MatchOpt` baseline: strong simulation evaluated per ball,
/// for every candidate center in `N_dQ(v_p)`, without cross-ball sharing.
///
/// Returns the sorted matches of the output node.
pub fn match_opt(q: &ResolvedPattern, g: &Graph) -> Vec<NodeId> {
    let mut scratch = StrongSimScratch::new();
    let mut out = Vec::new();
    strong_sim_impl(q, g, false, &mut scratch, &mut out);
    out
}

/// Optimized strong simulation over any [`GraphView`]: identical answers to
/// [`match_opt`] on a full graph, with a shared prefilter; on the reduced
/// graph of dynamic reduction it evaluates `Q(G_Q)`.
pub fn strong_simulation<V: GraphView + ?Sized>(q: &ResolvedPattern, g: &V) -> Vec<NodeId> {
    let mut scratch = StrongSimScratch::new();
    let mut out = Vec::new();
    strong_sim_impl(q, g, true, &mut scratch, &mut out);
    out
}

/// [`strong_simulation`] through a reusable [`StrongSimScratch`]:
/// identical answers, written into `out` (cleared first), with zero
/// steady-state allocation. This is the evaluation half of the warm
/// `rbsim` serving path.
// rbq-lint: hot
pub fn strong_simulation_on_view_with<V: GraphView + ?Sized>(
    q: &ResolvedPattern,
    g: &V,
    scratch: &mut StrongSimScratch,
    out: &mut Vec<NodeId>,
) {
    strong_sim_impl(q, g, true, scratch, out);
}

/// Strong simulation for a pattern **without** a personalized node (the
/// paper's §7 future work): the answer is the union over every candidate
/// anchor assignment of the anchored answer. Exact but expensive — the
/// baseline `RBSimAny` is measured against.
pub fn strong_simulation_anonymous(pattern: &crate::pattern::Pattern, g: &Graph) -> Vec<NodeId> {
    let Some(anchor_label) = g.labels().get(pattern.label_str(pattern.personalized())) else {
        return Vec::new();
    };
    let mut scratch = StrongSimScratch::new();
    let mut per_anchor: Vec<NodeId> = Vec::new();
    let mut out: Vec<NodeId> = Vec::new();
    for &v in g.nodes_with_label(anchor_label) {
        if let Ok(q) = pattern.resolve_with_anchor(g, v) {
            strong_sim_impl(&q, g, true, &mut scratch, &mut per_anchor);
            out.extend_from_slice(&per_anchor);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Reusable state for one strong-simulation evaluation loop: the ball
/// scratch, the center/domain/ball buffers, the per-query candidate
/// screen, the dual-simulation scratch, and the per-center universes —
/// everything [`strong_simulation_on_view_with`] touches per query.
///
/// One scratch serves any sequence of queries and views; results are
/// identical to fresh construction.
#[derive(Debug, Default)]
pub struct StrongSimScratch {
    balls: BallScratch,
    centers: Vec<NodeId>,
    domain: Vec<NodeId>,
    ball: Vec<NodeId>,
    restricted: Vec<NodeId>,
    matched: Vec<NodeId>,
    per_center: Vec<Vec<NodeId>>,
    screen: CandidateScreen,
    dual: DualSimScratch,
}

impl StrongSimScratch {
    /// Fresh scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm (or clear) the deadline for every subsequent evaluation through
    /// this scratch — forwarded to the ball BFS and the dual-simulation
    /// fixpoint, the two loops whose work scales with the data graph.
    pub fn set_cancel(&mut self, token: rbq_graph::CancelToken) {
        self.balls.set_cancel(token);
        self.dual.set_cancel(token);
    }
}

fn strong_sim_impl<V: GraphView + ?Sized>(
    q: &ResolvedPattern,
    g: &V,
    prefilter: bool,
    scratch: &mut StrongSimScratch,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    let vp = q.vp();
    if !g.contains(vp) || g.label(vp) != q.label(q.up()) {
        return;
    }
    let dq = q.dq();
    let StrongSimScratch {
        balls,
        centers,
        domain,
        ball,
        restricted,
        matched,
        per_center,
        screen,
        dual,
    } = scratch;

    // One traversal yields both the candidate centers (balls must contain
    // v_p, i.e. centers within d_Q undirected hops of v_p) and the
    // 2·d_Q-neighborhood every per-center ball lies inside — the centers
    // are the depth-≤-d_Q prefix of the same BFS.
    balls.ball_pair_into(g, vp, 2 * dq, dq, domain, centers);

    // Per-query candidate screen over N_{2dQ}(v_p): labels and guards
    // depend only on the data node, so they are evaluated once here
    // instead of once per ball — and only inside the neighborhood the
    // balls can reach, not the whole view. No screen at all means some
    // query node has no candidate anywhere near v_p — no ball can match.
    if !candidate_screen_within_into(q, g, Some(domain), screen, dual) {
        return;
    }

    // Optional shared prefilter: the maximum dual simulation on
    // G_{2dQ}(v_p) contains every ball-restricted relation, so non-members
    // can never match and balls disjoint from it can be skipped. The
    // matched set is a sorted vector (the relation's native
    // representation), copied out of the dual scratch so the per-ball
    // evaluations below can reuse it.
    let use_filter = if prefilter {
        match dual_simulation_screened_with(q, g, domain, screen, dual) {
            Some(rel) => {
                rel.all_matched_into(matched);
                true
            }
            None => return,
        }
    } else {
        false
    };

    match use_filter {
        // Inverted prefiltered evaluation. Every per-center universe is
        // `m ∩ ball(v0, d_Q)`, and undirected distance is symmetric:
        // `v ∈ ball(v0, d_Q) ⇔ v0 ∈ ball(v, d_Q)`. So |m| BFS traversals
        // (one per matched node, recording which centers its ball covers)
        // produce *every* center's universe — instead of one ball BFS per
        // center over neighborhoods that are typically orders of magnitude
        // larger than m. Universes are identical to the direct
        // intersection, so the answers are too.
        true if matched.len() <= centers.len() => {
            crate::dualsim::reuse_pool(per_center, centers.len());
            for &v in matched.iter() {
                balls.ball_into(g, v, dq, ball);
                let (mut i, mut j) = (0usize, 0usize);
                while i < ball.len() && j < centers.len() {
                    match ball[i].cmp(&centers[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            per_center[j].push(v);
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
            // m is iterated in ascending order, so each universe is sorted.
            for (j, &v0) in centers.iter().enumerate() {
                let uni = &mut per_center[j];
                if uni.binary_search(&vp).is_err() {
                    continue;
                }
                // Keep the center in the universe even if unmatched: it is
                // harmless (it will simply not join the relation).
                if let Err(pos) = uni.binary_search(&v0) {
                    uni.insert(pos, v0);
                }
                if let Some(rel) = dual_simulation_screened_with(q, g, uni, screen, dual) {
                    out.extend_from_slice(rel.matches(q.uo()));
                }
            }
        }
        // Per-center evaluation: the unfiltered baseline (`MatchOpt`), and
        // the prefiltered path when m is so large that per-matched-node
        // traversals would cost more than per-center ones.
        _ => {
            for &v0 in centers.iter() {
                balls.ball_into(g, v0, dq, ball);
                let universe: &[NodeId] = if use_filter {
                    // Linear sorted merge of ball ∩ matched filter
                    // (both sorted), tracking v_p / center membership
                    // on the way.
                    let m = &*matched;
                    restricted.clear();
                    let mut has_vp = false;
                    let mut has_center = false;
                    let (mut i, mut j) = (0usize, 0usize);
                    while i < ball.len() && j < m.len() {
                        match ball[i].cmp(&m[j]) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                let v = ball[i];
                                restricted.push(v);
                                has_vp |= v == vp;
                                has_center |= v == v0;
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                    if !has_vp {
                        continue;
                    }
                    if !has_center {
                        let pos = restricted.binary_search(&v0).unwrap_err();
                        restricted.insert(pos, v0);
                    }
                    restricted
                } else {
                    ball
                };
                if let Some(rel) = dual_simulation_screened_with(q, g, universe, screen, dual) {
                    out.extend_from_slice(rel.matches(q.uo()));
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualsim::dual_simulation;
    use crate::pattern::{fig1_pattern, PatternBuilder};
    use rbq_graph::{DynamicSubgraph, GraphBuilder};

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
    fn fig1_answer_is_cln_pair() {
        let (g, ids) = fig1_graph();
        let q = fig1_pattern().resolve(&g).unwrap();
        let ans = match_opt(&q, &g);
        assert_eq!(ans, vec![ids[7], ids[8]]);
    }

    #[test]
    fn optimized_agrees_with_baseline_on_fig1() {
        let (g, _) = fig1_graph();
        let q = fig1_pattern().resolve(&g).unwrap();
        assert_eq!(match_opt(&q, &g), strong_simulation(&q, &g));
    }

    #[test]
    fn no_match_when_vp_absent_from_view() {
        let (g, ids) = fig1_graph();
        let q = fig1_pattern().resolve(&g).unwrap();
        let view = DynamicSubgraph::induced(&g, ids[1..].iter().copied());
        assert!(strong_simulation(&q, &view).is_empty());
    }

    #[test]
    fn works_on_induced_subgraph_view() {
        let (g, ids) = fig1_graph();
        let q = fig1_pattern().resolve(&g).unwrap();
        // Keep exactly the ideal G_Q of Example 2: Michael, cc1, cc3, hgm,
        // cl_{n-1}, cl_n.
        let keep = [ids[0], ids[3], ids[5], ids[2], ids[7], ids[8]];
        let view = DynamicSubgraph::induced(&g, keep);
        let ans = strong_simulation(&q, &view);
        assert_eq!(ans, vec![ids[7], ids[8]]);
    }

    #[test]
    fn ball_nodes_radius_semantics() {
        let (g, ids) = fig1_graph();
        let b0 = ball_nodes(&g, ids[0], 0);
        assert_eq!(b0.len(), 1);
        let b1 = ball_nodes(&g, ids[0], 1);
        // Michael + hg1 + hgm + cc1 + cc3
        assert_eq!(b1.len(), 5);
        let b2 = ball_nodes(&g, ids[0], 2);
        // + cln-1, cln ; not cc2/cl1 (3 hops away)
        assert_eq!(b2.len(), 7);
        assert!(b2.windows(2).all(|w| w[0] < w[1]), "balls are sorted");
    }

    #[test]
    fn prefilter_center_set_equals_direct_dq_ball() {
        // The d_Q center set is derived from the 2·d_Q prefilter BFS (one
        // traversal, depths recorded once); pin that it equals a direct
        // d_Q-ball for every center and radius.
        let (g, _) = fig1_graph();
        let mut scratch = BallScratch::new();
        let (mut outer, mut inner) = (Vec::new(), Vec::new());
        for v in g.nodes() {
            for dq in 0..4usize {
                scratch.ball_pair_into(&g, v, 2 * dq, dq, &mut outer, &mut inner);
                assert_eq!(inner, ball_nodes(&g, v, dq), "center {v:?} dq {dq}");
                assert_eq!(outer, ball_nodes(&g, v, 2 * dq), "center {v:?} dq {dq}");
            }
        }
    }

    #[test]
    fn ball_nodes_missing_center_is_empty() {
        let (g, ids) = fig1_graph();
        let view = DynamicSubgraph::induced(&g, [ids[0]]);
        assert!(ball_nodes(&view, ids[1], 3).is_empty());
    }

    #[test]
    fn chain_pattern_on_chain_graph() {
        // Pattern: p -> a -> b; graph: P -> A -> B and a decoy A without B.
        let mut gb = GraphBuilder::new();
        let p = gb.add_node("P");
        let a1 = gb.add_node("A");
        let b1 = gb.add_node("B");
        let a2 = gb.add_node("A");
        gb.add_edge(p, a1);
        gb.add_edge(a1, b1);
        gb.add_edge(p, a2); // a2 has no B child
        let g = gb.build();
        let mut pb = PatternBuilder::new();
        let qp = pb.add_node("P");
        let qa = pb.add_node("A");
        let qb = pb.add_node("B");
        pb.add_edge(qp, qa).add_edge(qa, qb);
        pb.personalized(qp).output(qb);
        let q = pb.build().resolve(&g).unwrap();
        assert_eq!(match_opt(&q, &g), vec![b1]);
        assert_eq!(strong_simulation(&q, &g), vec![b1]);
    }

    #[test]
    fn single_node_pattern() {
        let (g, ids) = fig1_graph();
        let mut pb = PatternBuilder::new();
        let m = pb.add_node("Michael");
        pb.personalized(m).output(m);
        let q = pb.build().resolve(&g).unwrap();
        assert_eq!(match_opt(&q, &g), vec![ids[0]]);
    }

    #[test]
    fn strong_sim_subset_of_dual_sim() {
        let (g, _) = fig1_graph();
        let q = fig1_pattern().resolve(&g).unwrap();
        let d = dual_simulation(&q, &g, None).unwrap();
        let strong = match_opt(&q, &g);
        for v in &strong {
            assert!(d.contains(q.uo(), *v));
        }
    }

    #[test]
    fn cycle_pattern_matches_cycle() {
        // Pattern p -> a, a -> p (2-cycle); graph has a matching 2-cycle and
        // a dead-end A.
        let mut gb = GraphBuilder::new();
        let p = gb.add_node("P");
        let a1 = gb.add_node("A");
        let a2 = gb.add_node("A");
        gb.add_edge(p, a1);
        gb.add_edge(a1, p);
        gb.add_edge(p, a2); // no back-edge
        let g = gb.build();
        let mut pb = PatternBuilder::new();
        let qp = pb.add_node("P");
        let qa = pb.add_node("A");
        pb.add_edge(qp, qa).add_edge(qa, qp);
        pb.personalized(qp).output(qa);
        let q = pb.build().resolve(&g).unwrap();
        assert_eq!(match_opt(&q, &g), vec![a1]);
        assert_eq!(strong_simulation(&q, &g), vec![a1]);
    }

    // ------------------------------------------------ differential oracles

    use proptest::prelude::*;
    use rbq_graph::builder::graph_from_edges;
    use rbq_graph::BallScratch;
    use rustc_hash::FxHashSet;
    use std::collections::VecDeque;

    /// The pre-`BallScratch` implementation, kept verbatim as the hash-set
    /// oracle for the sorted-slice ball evaluation.
    fn ball_nodes_naive<V: GraphView + ?Sized>(
        g: &V,
        center: NodeId,
        r: usize,
    ) -> FxHashSet<NodeId> {
        let mut seen = FxHashSet::default();
        if !g.contains(center) {
            return seen;
        }
        let mut q = VecDeque::new();
        seen.insert(center);
        q.push_back((center, 0usize));
        while let Some((v, d)) = q.pop_front() {
            if d == r {
                continue;
            }
            for &w in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
                if seen.insert(w) {
                    q.push_back((w, d + 1));
                }
            }
        }
        seen
    }

    fn sorted(set: FxHashSet<NodeId>) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = set.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// A random digraph with ≤ 24 nodes and 4 labels.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        (2usize..24).prop_flat_map(|n| {
            let labels = proptest::collection::vec(0u8..4, n);
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 3);
            (labels, edges).prop_map(|(labels, edges)| {
                let names: Vec<String> = labels.iter().map(|l| format!("L{l}")).collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                graph_from_edges(&refs, &edges)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Sorted-slice `ball_nodes` equals the hash-set BFS oracle on full
        /// graphs, for every center and small radius.
        #[test]
        fn ball_matches_naive_on_full_graph(g in arb_graph(), r in 0usize..5) {
            for v in g.nodes() {
                prop_assert_eq!(ball_nodes(&g, v, r), sorted(ball_nodes_naive(&g, v, r)));
            }
        }

        /// ... and on induced subgraph views.
        #[test]
        fn ball_matches_naive_on_induced_view(
            g in arb_graph(),
            keep in proptest::collection::vec(prop::bool::ANY, 24),
            r in 0usize..5,
        ) {
            let members: Vec<NodeId> = g
                .nodes()
                .filter(|v| keep.get(v.index()).copied().unwrap_or(false))
                .collect();
            let view = DynamicSubgraph::induced(&g, members);
            for v in g.nodes() {
                prop_assert_eq!(
                    ball_nodes(&view, v, r),
                    sorted(ball_nodes_naive(&view, v, r))
                );
            }
        }

        /// Epoch reuse: every ball of the graph through ONE scratch agrees
        /// with a fresh oracle run — no cross-ball contamination.
        #[test]
        fn scratch_reuse_matches_naive(g in arb_graph()) {
            let mut scratch = BallScratch::new();
            let mut ball = Vec::new();
            for r in 0..4usize {
                for v in g.nodes() {
                    scratch.ball_into(&g, v, r, &mut ball);
                    prop_assert_eq!(&ball, &sorted(ball_nodes_naive(&g, v, r)));
                }
            }
        }

        /// The prefiltered evaluator (shared 2·d_Q dual simulation, merged
        /// sorted universes) returns exactly the `MatchOpt` baseline answer
        /// on random graphs and chain patterns.
        #[test]
        fn strong_simulation_equals_match_opt(
            g in arb_graph(),
            extra in proptest::collection::vec((0u8..4, prop::bool::ANY), 1..4),
        ) {
            let mut pb = PatternBuilder::new();
            let me = pb.add_node("L0");
            let mut prev = me;
            for (l, fwd) in extra {
                let u = pb.add_node(&format!("L{l}"));
                if fwd {
                    pb.add_edge(prev, u);
                } else {
                    pb.add_edge(u, prev);
                }
                prev = u;
            }
            pb.personalized(me).output(prev);
            let pattern = pb.build();
            // Anchor at every label-compatible node: each anchor gives one
            // personalized query.
            for v in g.nodes() {
                let Ok(q) = pattern.resolve_with_anchor(&g, v) else {
                    continue;
                };
                prop_assert_eq!(match_opt(&q, &g), strong_simulation(&q, &g));
            }
        }
    }
}
