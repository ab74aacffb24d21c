//! Property-based tests (proptest) over randomly generated graphs and
//! patterns: the invariants the paper's theorems rest on must hold for
//! *every* input, not just the curated examples.

mod support;

use proptest::prelude::*;
use rbq_core::guard::Semantics;
use rbq_core::{
    rbsim, rbsub, search_reduced_graph_scratch, NeighborIndex, ReductionConfig, ReductionScratch,
    ResourceBudget,
};
use rbq_graph::traverse::reaches;
use rbq_graph::{GraphView, NodeId};
use rbq_pattern::{
    match_opt, strong_simulation_on_view_with, vf2_opt, StrongSimScratch, Vf2Config,
};
use rbq_reach::{compress_for_reachability, HierarchicalIndex};
use std::cell::RefCell;
use support::{fold_labels, graphs, graphs_with_chains, hub_graph, shaped, Rng};

thread_local! {
    /// One warm evaluation scratch shared by every case of a property.
    static WARM: RefCell<(ReductionScratch, StrongSimScratch)> = RefCell::default();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Query-preserving compression is exact on every pair (§5 / [12]).
    #[test]
    fn compression_preserves_reachability(g in graphs(2..24)) {
        let c = compress_for_reachability(&g);
        for s in g.nodes() {
            for t in g.nodes() {
                prop_assert_eq!(c.query(s, t), reaches(&g, s, t).0, "mismatch on {}->{}", s, t);
            }
        }
    }

    /// RBReach soundness (Theorem 4(c)): true only if truly reachable —
    /// for every graph, every pair, several alphas.
    #[test]
    fn rbreach_never_false_positive(g in graphs(2..24), alpha in 0.05f64..0.9) {
        let idx = HierarchicalIndex::build(&g, alpha);
        for s in g.nodes() {
            for t in g.nodes() {
                let ans = idx.query(s, t);
                if ans.reachable {
                    prop_assert!(reaches(&g, s, t).0, "false positive {}->{}", s, t);
                }
            }
        }
    }

    /// RBReach visit bound (Theorem 4(a)).
    #[test]
    fn rbreach_visit_bound(g in graphs(2..24), alpha in 0.05f64..0.9) {
        let idx = HierarchicalIndex::build(&g, alpha);
        let cap = ((alpha * g.size() as f64) as usize).max(1);
        for s in g.nodes().take(6) {
            for t in g.nodes().take(6) {
                let ans = idx.query(s, t);
                prop_assert!(ans.visits <= cap + 2, "visits {} > cap {}", ans.visits, cap);
            }
        }
    }

    /// RBSim soundness: approximate matches are a subset of exact matches,
    /// under any budget (precision 1, §4.1 discussion).
    #[test]
    fn rbsim_matches_subset_of_exact(
        (g, p) in graphs_with_chains(2..24, 1..4),
        units in 1usize..64,
    ) {
        let Ok(q) = p.resolve(&g) else { return Ok(()); };
        let idx = NeighborIndex::build(&g);
        let budget = ResourceBudget::from_units(&g, units);
        let ans = rbsim(&g, &idx, &q, &budget);
        prop_assert!(ans.gq_size <= units, "budget violated: {} > {}", ans.gq_size, units);
        let exact = match_opt(&q, &g);
        for v in &ans.matches {
            prop_assert!(exact.contains(v), "spurious match {:?}", v);
        }
    }

    /// RBSim completeness at full budget: Q(G_Q) = Q(G) when α = 1.
    #[test]
    fn rbsim_exact_at_full_budget((g, p) in graphs_with_chains(2..24, 1..4)) {
        let Ok(q) = p.resolve(&g) else { return Ok(()); };
        let idx = NeighborIndex::build(&g);
        let budget = ResourceBudget::from_ratio(&g, 1.0);
        let ans = rbsim(&g, &idx, &q, &budget);
        let exact = match_opt(&q, &g);
        prop_assert_eq!(ans.matches, exact);
    }

    /// Strong simulation on `G_Q`, the view RBSim serves from, equals the
    /// per-ball `MatchOpt` reference on the same view: hub graphs over few
    /// labels, small budgets, patterns with cycles and 2-cycles and, in a
    /// quarter of cases, a second component, all through one warm
    /// scratch. (The differential in `strongsim.rs` covers full graphs and
    /// random induced views.)
    #[test]
    fn strong_simulation_equals_match_opt_on_gq(seed in 0..u64::MAX, units in 1usize..160) {
        let mut rng = Rng(seed);
        let labels = rng.range(1..4);
        let g = hub_graph(&mut rng, labels);
        let Ok(q) = fold_labels(&shaped(&mut rng), labels).resolve(&g) else {
            return Ok(());
        };
        let idx = NeighborIndex::build(&g);
        let budget = ResourceBudget::from_units(&g, units);
        WARM.with_borrow_mut(|(reduction, eval)| {
            let red = search_reduced_graph_scratch(
                &g,
                &idx,
                &q,
                &budget,
                Semantics::Simulation,
                ReductionConfig::default(),
                reduction,
            );
            let mut served = Vec::new();
            strong_simulation_on_view_with(&q, &red.gq, eval, &mut served);
            let reference = match_opt(&q, &red.gq);
            reduction.recycle(red.gq);
            prop_assert_eq!(served, reference);
            Ok(())
        })?;
    }

    /// RBSub soundness under any budget.
    #[test]
    fn rbsub_matches_subset_of_exact(
        (g, p) in graphs_with_chains(2..24, 1..4),
        units in 1usize..64,
    ) {
        let Ok(q) = p.resolve(&g) else { return Ok(()); };
        let idx = NeighborIndex::build(&g);
        let budget = ResourceBudget::from_units(&g, units);
        let ans = rbsub(&g, &idx, &q, &budget);
        prop_assert!(ans.gq_size <= units);
        let exact = vf2_opt(&q, &g, Vf2Config::default());
        for v in &ans.matches {
            prop_assert!(exact.output_matches.contains(v), "spurious {:?}", v);
        }
    }

    /// Isomorphism answers are simulation answers (semantic containment).
    #[test]
    fn iso_subset_of_simulation((g, p) in graphs_with_chains(2..24, 1..4)) {
        let Ok(q) = p.resolve(&g) else { return Ok(()); };
        let iso = vf2_opt(&q, &g, Vf2Config::default());
        let sim = match_opt(&q, &g);
        for v in &iso.output_matches {
            prop_assert!(sim.contains(v), "iso match {:?} not in simulation", v);
        }
    }

    /// The CSR builder and views agree on basic counts for any input.
    #[test]
    fn graph_view_consistency(g in graphs(2..24)) {
        let mut edge_total = 0usize;
        for v in g.nodes() {
            edge_total += g.out(v).len();
            // in/out views agree edge by edge
            for &w in g.out(v) {
                prop_assert!(g.inn(w).contains(&v));
            }
        }
        prop_assert_eq!(edge_total, g.edge_count());
        prop_assert_eq!(g.size(), g.node_count() + g.edge_count());
    }

    /// The flat neighbor index against counts taken straight off the
    /// adjacency lists, every node × every label × both directions.
    #[test]
    fn neighbor_index_equals_naive_counts(g in graphs(2..24)) {
        let idx = NeighborIndex::build(&g);
        prop_assert_eq!(idx.len(), g.node_count());
        for v in g.nodes() {
            let s = idx.summary(v);
            prop_assert_eq!(s.degree as usize, g.deg(v));
            prop_assert_eq!(idx.degree(v) as usize, g.deg(v));
            for list in [s.out_labels, s.in_labels] {
                prop_assert!(list.windows(2).all(|w| w[0].0 < w[1].0));
                prop_assert!(list.iter().all(|&(_, c)| c > 0));
            }
            for (l, _) in g.labels().iter() {
                let count = |adj: &[NodeId]| adj.iter().filter(|&&w| g.node_label(w) == l).count();
                prop_assert_eq!(s.out_count(l) as usize, count(g.out(v)));
                prop_assert_eq!(s.in_count(l) as usize, count(g.inn(v)));
                prop_assert_eq!(s.pooled_count(l) as usize, count(g.out(v)) + count(g.inn(v)));
            }
        }
    }

    /// SCC condensation produces a DAG that preserves reachability.
    #[test]
    fn condensation_is_acyclic_and_preserving(g in graphs(2..24)) {
        let c = rbq_graph::condense::condense(&g);
        prop_assert!(rbq_graph::topo::is_acyclic(&c.dag));
        for s in g.nodes().take(8) {
            for t in g.nodes().take(8) {
                prop_assert_eq!(
                    reaches(&g, s, t).0,
                    reaches(&c.dag, c.map(s), c.map(t)).0
                );
            }
        }
    }

    /// Topological ranks strictly decrease along DAG edges.
    #[test]
    fn ranks_decrease_along_edges(g in graphs(2..24)) {
        let c = rbq_graph::condense::condense(&g);
        let ranks = rbq_graph::topo::topological_ranks(&c.dag);
        for (u, v) in c.dag.edges() {
            prop_assert!(ranks[u.index()] > ranks[v.index()]);
        }
    }

    /// `DynamicSubgraph::induced` is the definition of §2 for any node
    /// list (duplicates, any order, self-loops and parallel input edges):
    /// node set `S`, adjacency exactly `E_S = {(u, v) ∈ E : u, v ∈ S}`
    /// read off `g.edges()`, `size() = |S| + |E_S|`, `node_ids()` ascending.
    #[test]
    fn dynamic_subgraph_always_induced(
        g in graphs(2..24),
        order in proptest::collection::vec(0usize..24, 0..12),
    ) {
        let picks: Vec<NodeId> = order
            .into_iter()
            .filter(|&i| i < g.node_count())
            .map(NodeId::new)
            .collect();
        let d = rbq_graph::DynamicSubgraph::induced(&g, picks.iter().copied());
        let mut set = picks;
        set.sort_unstable();
        set.dedup();
        let inside = |v: NodeId| set.binary_search(&v).is_ok();
        let e_s: Vec<(NodeId, NodeId)> =
            g.edges().filter(|&(u, v)| inside(u) && inside(v)).collect();
        prop_assert_eq!(d.node_ids().collect::<Vec<_>>(), set.clone());
        prop_assert_eq!(d.num_nodes(), set.len());
        prop_assert_eq!(d.size(), set.len() + e_s.len());
        for v in g.nodes() {
            prop_assert_eq!(d.contains(v), inside(v));
            let mut out = d.out_neighbors(v).to_vec();
            let mut inn = d.in_neighbors(v).to_vec();
            out.sort_unstable();
            inn.sort_unstable();
            let mut want_out: Vec<NodeId> =
                e_s.iter().filter(|e| e.0 == v).map(|e| e.1).collect();
            let mut want_in: Vec<NodeId> =
                e_s.iter().filter(|e| e.1 == v).map(|e| e.0).collect();
            want_out.sort_unstable();
            want_in.sort_unstable();
            prop_assert_eq!(out, want_out, "out list of {:?}", v);
            prop_assert_eq!(inn, want_in, "in list of {:?}", v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bisimulation compression preserves dual-simulation answers for any
    /// graph and any anchored chain pattern.
    #[test]
    fn simcompress_preserves_dual_sim((g, p) in graphs_with_chains(2..24, 1..4)) {
        use rbq_pattern::{bisimulation_compress, dual_simulation};
        let Ok(q) = p.resolve(&g) else { return Ok(()); };
        let direct = dual_simulation(&q, &g, None)
            .map(|d| d.matches(q.uo()).to_vec())
            .unwrap_or_default();
        let c = bisimulation_compress(&g);
        let Ok(qc) = p.resolve(&c.quotient) else { return Ok(()); };
        let via = c.dual_sim_via_quotient(&qc).unwrap_or_default();
        prop_assert_eq!(direct, via);
    }

    /// LM vectors never report a false positive on any graph.
    #[test]
    fn lm_vectors_sound(g in graphs(2..24), seed in 0u64..50) {
        use rbq_reach::LandmarkVectors;
        let lm = LandmarkVectors::build(&g, seed);
        for s in g.nodes().take(8) {
            for t in g.nodes().take(8) {
                if lm.query(s, t) {
                    prop_assert!(reaches(&g, s, t).0, "LM false positive {}->{}", s, t);
                }
            }
        }
    }

    /// RBSimAny is sound for anonymous chain patterns under any budget.
    #[test]
    fn rbsim_any_sound(
        (g, p) in graphs_with_chains(2..24, 1..4),
        units in 1usize..64,
        seeds in 1usize..6,
    ) {
        use rbq_core::{rbsim_any, AnyConfig};
        use rbq_pattern::strongsim::strong_simulation_anonymous;
        let idx = NeighborIndex::build(&g);
        let budget = ResourceBudget::from_units(&g, units);
        let ans = rbsim_any(&g, &idx, &p, &budget, AnyConfig { max_seeds: seeds });
        let exact = strong_simulation_anonymous(&p, &g);
        for v in &ans.matches {
            prop_assert!(exact.contains(v), "spurious anonymous match {:?}", v);
        }
    }
}
