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
use rbq_graph::{DeltaBatch, DeltaOp, GraphBuilder, GraphView, NodeId};
use rbq_pattern::{
    match_opt, strong_simulation_on_view_with, vf2_opt, StrongSimScratch, Vf2Config,
};
use rbq_reach::{compress_for_reachability, HierarchicalIndex};
use std::cell::RefCell;
use support::{fold_labels, graph, graphs, graphs_with_chains, hub_graph, shaped, Edges, Rng};

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
        let cap = (alpha * g.size() as f64) as usize;
        for s in g.nodes().take(6) {
            for t in g.nodes().take(6) {
                let ans = idx.query(s, t);
                prop_assert!(ans.visits <= cap, "visits {} > cap {}", ans.visits, cap);
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

    /// `G_Q` grows by prefixes along a budget ladder, for both semantics:
    /// `Search` never reorders on budget — it stops at the first insertion
    /// that does not fit — so the nodes it fetches under a budget are the
    /// first ones it fetches under any larger budget. No visit cap applies.
    #[test]
    fn gq_at_a_budget_is_a_prefix_of_gq_at_a_larger_one(seed in 0..u64::MAX) {
        let mut rng = Rng(seed);
        let labels = rng.range(1..4);
        let g = hub_graph(&mut rng, labels);
        let Ok(q) = fold_labels(&shaped(&mut rng), labels).resolve(&g) else {
            return Ok(());
        };
        let idx = NeighborIndex::build(&g);
        let ladder = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, g.size()];
        WARM.with_borrow_mut(|(reduction, _)| {
            for semantics in [Semantics::Simulation, Semantics::Isomorphism] {
                let mut smaller: Vec<NodeId> = Vec::new();
                for units in ladder {
                    let budget = ResourceBudget::from_units(&g, units);
                    prop_assert_eq!(budget.visit_cap, None);
                    let red = search_reduced_graph_scratch(
                        &g,
                        &idx,
                        &q,
                        &budget,
                        semantics,
                        ReductionConfig::default(),
                        reduction,
                    );
                    let members = red.gq.members().to_vec();
                    reduction.recycle(red.gq);
                    prop_assert!(
                        members.starts_with(&smaller),
                        "{:?} at {} units is no prefix of {:?}",
                        smaller,
                        units,
                        members
                    );
                    smaller = members;
                }
            }
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

    /// An overlaid graph reads exactly like its compaction and like a
    /// from-scratch rebuild, after each of 1–12 stacked batches: adds and
    /// removes, an edge removed and re-added (in one batch and across two),
    /// self-loops, added nodes with edges, and one batch whose churn
    /// crosses the compaction threshold. Every node, both directions, every
    /// edge test.
    #[test]
    fn overlay_rows_equal_compacted_and_rebuilt(seed in 0..u64::MAX) {
        let mut rng = Rng(seed);
        let mut g = graph(&mut rng, 9..40, false);
        let mut labels: Vec<String> = g.nodes().map(|v| g.node_label_str(v).to_string()).collect();
        let mut edges: Edges = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        let batches = rng.range(1..13);
        let big = rng.below(batches);
        let (mut compacted, mut overlaid) = (false, false);
        let mut removed: Vec<(u32, u32)> = Vec::new();
        for i in 0..batches {
            // Cumulative churn ≥ max(64, |E_base| / 4) compacts, and
            // |E_base| ≤ |E| + churn: flipping this many pairs crosses it.
            let flips = match i == big {
                true => 64.max((edges.len() + g.overlay_churn()) / 4),
                false => rng.below(8),
            };
            let batch = overlay_batch(&mut rng, labels.len(), &edges, &removed, flips);
            removed.clear();
            for op in batch.ops() {
                match *op {
                    DeltaOp::AddNode(ref l) => labels.push(l.clone()),
                    DeltaOp::AddEdge(u, v) => {
                        edges.insert((u.0, v.0));
                    }
                    DeltaOp::RemoveEdge(u, v) => {
                        edges.remove(&(u.0, v.0));
                        removed.push((u.0, v.0));
                    }
                }
            }
            let (next, report) = g.apply_delta(&batch).unwrap();
            g = next;
            compacted |= report.compacted;
            overlaid |= g.is_overlaid();
            let mut b = GraphBuilder::new();
            for l in &labels {
                b.add_node(l);
            }
            for &(u, v) in &edges {
                b.add_edge(NodeId(u), NodeId(v));
            }
            let (rebuilt, flat) = (b.build(), g.compact());
            prop_assert_eq!(g.node_count(), rebuilt.node_count());
            prop_assert_eq!(g.edge_count(), rebuilt.edge_count());
            for v in g.nodes() {
                for want in [&flat, &rebuilt] {
                    prop_assert_eq!(g.out(v), want.out(v), "out({:?}) after batch {}", v, i);
                    prop_assert_eq!(g.inn(v), want.inn(v), "inn({:?}) after batch {}", v, i);
                    prop_assert_eq!(g.deg_out(v), want.deg_out(v));
                    prop_assert_eq!(g.deg_in(v), want.deg_in(v));
                }
                for w in g.nodes() {
                    let want = edges.contains(&(v.0, w.0));
                    prop_assert_eq!(g.edge(v, w), want, "edge({:?}, {:?})", v, w);
                    prop_assert_eq!(flat.edge(v, w), want);
                }
            }
        }
        prop_assert!(compacted, "the big batch compacts");
        prop_assert!(overlaid || batches == 1, "some batch leaves an overlay");
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

/// One batch against a graph of `nodes` nodes and `edges`: up to two new
/// nodes each wired to an old node, random adds and removes of pairs and
/// present edges, a self-loop, a present edge removed and re-added, a re-add
/// of an edge in `removed`, then `flips` distinct pairs flipped (the last op
/// on an edge wins, so each flip is an effective change).
fn overlay_batch(
    rng: &mut Rng,
    nodes: usize,
    edges: &Edges,
    removed: &[(u32, u32)],
    flips: usize,
) -> DeltaBatch {
    let mut b = DeltaBatch::new();
    let id = |i: usize| NodeId(i as u32);
    for _ in 0..rng.below(3) {
        let v = nodes + b.add_node(&format!("L{}", rng.below(5)));
        let u = rng.below(nodes);
        match rng.one_in(2) {
            true => b.add_edge(id(u), id(v)),
            false => b.add_edge(id(v), id(u)),
        }
    }
    let total = nodes + b.added_nodes();
    let present: Vec<(u32, u32)> = edges.iter().copied().collect();
    for _ in 0..rng.range(1..8) {
        let (u, v) = match present.is_empty() || rng.one_in(2) {
            true => (rng.below(total) as u32, rng.below(total) as u32),
            false => present[rng.below(present.len())],
        };
        match rng.one_in(2) {
            true => b.add_edge(NodeId(u), NodeId(v)),
            false => b.remove_edge(NodeId(u), NodeId(v)),
        }
    }
    let s = id(rng.below(total));
    match rng.one_in(2) {
        true => b.add_edge(s, s),
        false => b.remove_edge(s, s),
    }
    if let Some(&(u, v)) = present.get(rng.below(present.len().max(1))) {
        b.remove_edge(NodeId(u), NodeId(v));
        b.add_edge(NodeId(u), NodeId(v));
    }
    if let Some(&(u, v)) = removed.get(rng.below(removed.len().max(1))) {
        b.add_edge(NodeId(u), NodeId(v));
    }
    let mut flipped = std::collections::BTreeSet::new();
    while flipped.len() < flips.min(total * total) {
        flipped.insert((rng.below(total) as u32, rng.below(total) as u32));
    }
    for (u, v) in flipped {
        match edges.contains(&(u, v)) {
            true => b.remove_edge(NodeId(u), NodeId(v)),
            false => b.add_edge(NodeId(u), NodeId(v)),
        }
    }
    b
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
