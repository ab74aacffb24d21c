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
//! subgraphs within `d_Q` hops of `v_p`"), which [`match_opt`] implements
//! directly, one fixpoint per center.
//!
//! ## One fixpoint for a connected pattern
//!
//! *Witness chains.* Let `Q` be connected and `R` a dual simulation of `Q`
//! in a view with `R(u_p) = {v_p}`. For `(u, v) ∈ R`, follow a shortest
//! undirected pattern path from `u` to `u_p`: each pattern edge on it has an
//! `R`-witness adjacent to the current data node, and the walk ends at
//! `v_p`. So `dist(v, v_p) ≤ dist_Q(u, u_p) ≤ d_Q`.
//!
//! Every ball relation `R_{v0}` therefore lies inside `N_dQ(v_p)` and is a
//! dual simulation there, so `R_{v0} ⊆ R_{v_p}`, the maximum dual
//! simulation on `N_dQ(v_p)`. And `v_p` is itself a center. The union over
//! centers is `R_{v_p}`: [`strong_simulation`],
//! [`strong_simulation_on_view_with`] and [`strong_simulation_anonymous`]
//! answer a connected pattern with one ball BFS and one fixpoint.
//!
//! Two callers keep the per-ball loop (one ball and one fixpoint per
//! center, over a candidate screen of `N_{2d_Q}(v_p)`): [`match_opt`], the
//! unchanged reference, and disconnected patterns, whose components
//! without `u_p` have no witness chain back to `v_p`.

use crate::dualsim::{
    candidate_screen_within_into, dual_simulation_screened_with, dual_simulation_with,
    CandidateScreen, DualSimScratch,
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
pub fn match_opt<V: GraphView + ?Sized>(q: &ResolvedPattern, g: &V) -> Vec<NodeId> {
    let mut scratch = StrongSimScratch::new();
    let mut out = Vec::new();
    strong_sim_impl(q, g, true, &mut scratch, &mut out);
    out
}

/// Strong simulation over any [`GraphView`]: identical answers to
/// [`match_opt`], from one fixpoint on `N_dQ(v_p)` for a connected pattern;
/// on the reduced graph of dynamic reduction it evaluates `Q(G_Q)`.
pub fn strong_simulation<V: GraphView + ?Sized>(q: &ResolvedPattern, g: &V) -> Vec<NodeId> {
    let mut scratch = StrongSimScratch::new();
    let mut out = Vec::new();
    strong_sim_impl(q, g, false, &mut scratch, &mut out);
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
    strong_sim_impl(q, g, false, scratch, out);
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
            strong_sim_impl(&q, g, false, &mut scratch, &mut per_anchor);
            out.extend_from_slice(&per_anchor);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Reusable state for one strong-simulation evaluation loop: the ball
/// scratch, the center/domain/ball buffers, the per-query candidate
/// screen and the dual-simulation scratch — everything
/// [`strong_simulation_on_view_with`] touches per query.
///
/// One scratch serves any sequence of queries and views; results are
/// identical to fresh construction.
#[derive(Debug, Default)]
pub struct StrongSimScratch {
    balls: BallScratch,
    centers: Vec<NodeId>,
    domain: Vec<NodeId>,
    ball: Vec<NodeId>,
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

/// Evaluate `Q(g)` into `out`: one fixpoint on `N_dQ(v_p)` for a connected
/// pattern (see the module doc), the per-ball loop when `per_ball` is set
/// or the pattern is disconnected.
// rbq-lint: hot
fn strong_sim_impl<V: GraphView + ?Sized>(
    q: &ResolvedPattern,
    g: &V,
    per_ball: bool,
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
        screen,
        dual,
    } = scratch;

    if !per_ball && q.is_connected() {
        balls.ball_into(g, vp, dq, ball);
        if let Some(rel) = dual_simulation_with(q, g, Some(ball), dual) {
            out.extend_from_slice(rel.matches(q.uo()));
        }
        return;
    }

    // One traversal yields both the candidate centers (balls must contain
    // v_p, i.e. centers within d_Q undirected hops of v_p) and the
    // 2·d_Q-neighborhood every per-center ball lies inside — the centers
    // are the depth-≤-d_Q prefix of the same BFS.
    balls.ball_pair_into(g, vp, 2 * dq, dq, domain, centers);

    // Per-query candidate screen over N_{2dQ}(v_p): labels and guards
    // depend only on the data node, so they are evaluated once here
    // instead of once per ball. No screen at all means some query node has
    // no candidate anywhere near v_p — no ball can match.
    if !candidate_screen_within_into(q, g, Some(domain), screen, dual) {
        return;
    }
    for &v0 in centers.iter() {
        balls.ball_into(g, v0, dq, ball);
        if let Some(rel) = dual_simulation_screened_with(q, g, ball, screen, dual) {
            out.extend_from_slice(rel.matches(q.uo()));
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
        // The per-ball loop derives its d_Q center set from the 2·d_Q
        // screening BFS (one traversal, depths recorded once); pin that it
        // equals a direct d_Q-ball for every center and radius.
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
    fn disconnected_pattern_matches_ball_by_ball() {
        // Graph P -> X -> A -> B; pattern {P} plus {A -> B}, output B, so
        // d_Q = 2. B is three hops from P: outside v_p's d_Q-ball, but
        // inside the ball of center A, which also holds P.
        let mut gb = GraphBuilder::new();
        let p = gb.add_node("P");
        let x = gb.add_node("X");
        let a = gb.add_node("A");
        let b = gb.add_node("B");
        gb.add_edge(p, x);
        gb.add_edge(x, a);
        gb.add_edge(a, b);
        let g = gb.build();
        let mut pb = PatternBuilder::new();
        let qp = pb.add_node("P");
        let qa = pb.add_node("A");
        let qb = pb.add_node("B");
        pb.add_edge(qa, qb);
        pb.personalized(qp).output(qb);
        let q = pb.build().resolve(&g).unwrap();
        assert_eq!((q.dq(), q.is_connected()), (2, false));
        assert_eq!(match_opt(&q, &g), vec![b]);
        assert_eq!(strong_simulation(&q, &g), vec![b]);
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

    thread_local! {
        /// One warm scratch shared by every case of the differential.
        static WARM: std::cell::RefCell<StrongSimScratch> = Default::default();
    }

    /// A pattern over `L0..L3` rooted at an `L0` anchor (node 0): a
    /// random-parent tree of 1–4 more nodes, each edge in a random
    /// direction, plus up to three extra edges (cycles, 2-cycles, self
    /// loops). When `cut == 0` the upper half of the nodes is a second
    /// tree, and extra edges across the cut are dropped. The output is any
    /// node.
    fn arb_pattern() -> impl Strategy<Value = crate::pattern::Pattern> {
        let tree = proptest::collection::vec((0u8..4, 0usize..8, prop::bool::ANY), 1..5);
        let extra = proptest::collection::vec((0usize..8, 0usize..8), 0..4);
        (tree, extra, 0u8..4, 0usize..8).prop_map(|(tree, extra, cut, out)| {
            let n = tree.len() + 1;
            let split = if cut == 0 { (n / 2).max(1) } else { n };
            let side = |v: usize| v >= split;
            let mut pb = PatternBuilder::new();
            let mut ids = vec![pb.add_node("L0")];
            for (i, &(l, parent, fwd)) in tree.iter().enumerate() {
                let v = i + 1;
                ids.push(pb.add_node(&format!("L{l}")));
                if v == split {
                    continue;
                }
                let u = match side(v) {
                    true => split + parent % (v - split),
                    false => parent % v,
                };
                let (a, b) = if fwd { (u, v) } else { (v, u) };
                pb.add_edge(ids[a], ids[b]);
            }
            for (a, b) in extra {
                let (a, b) = (a % n, b % n);
                if side(a) == side(b) {
                    pb.add_edge(ids[a], ids[b]);
                }
            }
            pb.personalized(ids[0]).output(ids[out % n]);
            pb.build()
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

        /// The serving evaluator (one fixpoint on N_dQ(v_p) for a connected
        /// pattern, the per-ball loop otherwise) returns exactly the
        /// per-ball `MatchOpt` reference, on the full graph and on a random
        /// induced view, for patterns with cycles, 2-cycles and (in at
        /// least a quarter of cases) a second component, anchored at every
        /// label-compatible node, through one warm scratch.
        #[test]
        fn strong_simulation_equals_match_opt(
            g in arb_graph(),
            pattern in arb_pattern(),
            keep in proptest::collection::vec(prop::bool::ANY, 24),
        ) {
            let members: Vec<NodeId> = g
                .nodes()
                .filter(|v| keep.get(v.index()).copied().unwrap_or(false))
                .collect();
            let view = DynamicSubgraph::induced(&g, members);
            let mut out = Vec::new();
            for v in g.nodes() {
                let Ok(q) = pattern.resolve_with_anchor(&g, v) else {
                    continue;
                };
                WARM.with_borrow_mut(|scratch| {
                    strong_simulation_on_view_with(&q, &g, scratch, &mut out);
                    prop_assert_eq!(&out, &match_opt(&q, &g));
                    strong_simulation_on_view_with(&q, &view, scratch, &mut out);
                    prop_assert_eq!(&out, &match_opt(&q, &view));
                    Ok(())
                })?;
            }
        }
    }
}
