//! Scratch-reuse differential oracles (PR 5): every scratch-threaded entry
//! point must return results **identical** to fresh construction, for any
//! history of prior queries through the same scratch. The scratches under
//! test: `rbq_graph::SubgraphScratch` (the `G_Q` buffers),
//! `rbq_pattern::DualSimScratch` (the fixpoint state), and
//! `rbq_core::PatternScratch` (the full `Search`/`Pick` + evaluation path,
//! including the epoch-stamped pair arrays and guard/potential memos).
//! `Search` through one long-lived scratch is also held to
//! `support::plain_search`, Fig. 3 written plainly.

mod support;

use proptest::prelude::*;
use rbq::rbq_core::guard::Semantics;
use rbq::rbq_core::{
    rbsim, rbsim_with, search_reduced_graph_scratch, search_reduced_graph_with, NeighborIndex,
    PatternAnswer, PatternScratch, PickPolicy, ReductionConfig, ReductionScratch, ResourceBudget,
};
use rbq::rbq_graph::{DynamicSubgraph, GraphView, NodeId, SubgraphScratch};
use rbq::rbq_pattern::{dual_simulation, dual_simulation_with, DualSim, DualSimScratch, Pattern};
use std::cell::RefCell;
use support::{graphs_with_chains, plain_search, reduction_cases, Reduced, Rng};

thread_local! {
    /// The one scratch every case of `search_equals_plain_fig3` reduces
    /// through, whatever graph the previous case left in it.
    static SCRATCH: RefCell<ReductionScratch> = RefCell::default();
}

/// Both runs found no dual simulation, or the same one.
fn same_dual_sim(p: &Pattern, warm: Option<DualSim>, fresh: Option<DualSim>) -> TestCaseResult {
    prop_assert_eq!(warm.is_some(), fresh.is_some(), "existence mismatch");
    if let (Some(a), Some(b)) = (warm, fresh) {
        for u in p.nodes() {
            prop_assert_eq!(a.matches(u), b.matches(u));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `SubgraphScratch` reused across randomized add sequences (with
    /// budget-rejected `try_add_node` probes interleaved) builds subgraphs
    /// identical to fresh `DynamicSubgraph::new` construction.
    #[test]
    fn subgraph_scratch_reuse_equals_fresh(
        (g, _) in graphs_with_chains(3..24, 1..5),
        seqs in proptest::collection::vec(
            proptest::collection::vec((0u32..24, 0usize..8), 0..12),
            1..6,
        ),
    ) {
        let mut scratch = SubgraphScratch::new();
        for seq in &seqs {
            let mut warm = scratch.begin(&g);
            let mut fresh = DynamicSubgraph::new(&g);
            for &(raw, rem) in seq {
                let v = NodeId(raw % g.node_count() as u32);
                let a = warm.try_add_node(v, rem);
                let b = fresh.try_add_node(v, rem);
                prop_assert_eq!(a, b, "admission diverged at {:?}", v);
            }
            prop_assert_eq!(warm.members(), fresh.members());
            prop_assert_eq!(warm.num_edges(), fresh.num_edges());
            prop_assert!(warm.node_ids().eq(fresh.node_ids()));
            for v in g.nodes() {
                prop_assert_eq!(warm.contains(v), fresh.contains(v));
                prop_assert_eq!(warm.out_neighbors(v), fresh.out_neighbors(v), "out of {:?}", v);
                prop_assert_eq!(warm.in_neighbors(v), fresh.in_neighbors(v), "in of {:?}", v);
            }
            scratch = warm.into_scratch();
        }
    }

    /// A `DualSimScratch` reused across a randomized sequence of universes
    /// computes the same maximum dual simulation as the fresh-scratch
    /// convenience wrapper.
    #[test]
    fn dualsim_scratch_reuse_equals_fresh(
        (g, p) in graphs_with_chains(3..24, 1..5),
        keeps in proptest::collection::vec(
            proptest::collection::vec(prop::bool::ANY, 24),
            1..6,
        ),
    ) {
        let Ok(q) = p.resolve(&g) else { return Ok(()); };
        let mut scratch = DualSimScratch::new();
        // Full-graph first, then the universe sequence, all on one scratch.
        let warm_full = dual_simulation_with(&q, &g, None, &mut scratch).map(|r| r.to_dual_sim());
        same_dual_sim(&p, warm_full, dual_simulation(&q, &g, None))?;
        for keep in &keeps {
            let mut uni: Vec<NodeId> = g
                .nodes()
                .filter(|v| keep.get(v.index()).copied().unwrap_or(false))
                .chain(std::iter::once(q.vp()))
                .collect();
            uni.sort_unstable();
            uni.dedup();
            let warm = dual_simulation_with(&q, &g, Some(&uni), &mut scratch)
                .map(|r| r.to_dual_sim());
            same_dual_sim(&p, warm, dual_simulation(&q, &g, Some(&uni)))?;
        }
    }

    /// `Search` through a reused `ReductionScratch` produces the same
    /// `G_Q`, visit account, and termination data as fresh construction,
    /// across random query sequences, budgets, and pick policies.
    #[test]
    fn search_scratch_reuse_equals_fresh(
        (g, p) in graphs_with_chains(3..24, 1..5),
        units in proptest::collection::vec(0usize..80, 1..5),
        policy_pick in 0u8..3,
    ) {
        let Ok(q) = p.resolve(&g) else { return Ok(()); };
        let idx = NeighborIndex::build(&g);
        let policy = match policy_pick {
            0 => PickPolicy::Weighted,
            1 => PickPolicy::Fifo,
            _ => PickPolicy::Random,
        };
        let config = ReductionConfig { pick_policy: policy, ..Default::default() };
        let mut scratch = ReductionScratch::new();
        for &u in &units {
            let budget = ResourceBudget::from_units(&g, u);
            let fresh = search_reduced_graph_with(
                &g, &idx, &q, &budget, Semantics::Simulation, config,
            );
            let warm = search_reduced_graph_scratch(
                &g, &idx, &q, &budget, Semantics::Simulation, config, &mut scratch,
            );
            prop_assert_eq!(warm.gq.members(), fresh.gq.members());
            prop_assert_eq!(warm.gq.num_edges(), fresh.gq.num_edges());
            prop_assert_eq!(warm.visits, fresh.visits);
            prop_assert_eq!(warm.hit_budget, fresh.hit_budget);
            prop_assert_eq!(warm.final_b, fresh.final_b);
            prop_assert_eq!(warm.rounds, fresh.rounds);
            scratch.recycle(warm.gq);
        }
    }

    /// `Search` — candidate lists, top-`b` selection, the allocation-free
    /// Hall check, the memos — returns exactly what Fig. 3 written plainly
    /// returns: the same `G_Q` in the same insertion order, the same visit
    /// account, termination and bound, under both semantics, every pick
    /// policy and budgets of 0, 1, 2..64 units and the whole graph.
    #[test]
    fn search_equals_plain_fig3((g, p) in reduction_cases(), seed in 0..u64::MAX) {
        let resolved = p.resolve(&g);
        prop_assume!(resolved.is_ok());
        let q = resolved.unwrap();
        let idx = NeighborIndex::build(&g);
        let units = Rng(seed).range(2..65);
        let budgets = [
            ResourceBudget::from_units(&g, 0),
            ResourceBudget::from_units(&g, 1),
            ResourceBudget::from_units(&g, units),
            ResourceBudget::from_ratio(&g, 1.0),
        ];
        for semantics in [Semantics::Simulation, Semantics::Isomorphism] {
            for pick_policy in [PickPolicy::Weighted, PickPolicy::Fifo, PickPolicy::Random] {
                let config = ReductionConfig { pick_policy, ..Default::default() };
                for budget in &budgets {
                    let got = SCRATCH.with_borrow_mut(|scratch| {
                        let out = search_reduced_graph_scratch(
                            &g, &idx, &q, budget, semantics, config, scratch,
                        );
                        let got = Reduced::of(&out);
                        scratch.recycle(out.gq);
                        got
                    });
                    let want = plain_search(&g, &q, budget, semantics, config);
                    prop_assert_eq!(
                        got, want,
                        "{:?} {:?} {} units", semantics, pick_policy, budget.max_units
                    );
                }
            }
        }
    }

    /// The full warm `rbsim` pipeline (reduction + evaluation through one
    /// `PatternScratch`) answers exactly like the one-shot entry point,
    /// across random query sequences.
    #[test]
    fn rbsim_scratch_reuse_equals_fresh(
        (g, p) in graphs_with_chains(3..24, 1..5),
        units in proptest::collection::vec(0usize..80, 1..5),
    ) {
        let Ok(q) = p.resolve(&g) else { return Ok(()); };
        let idx = NeighborIndex::build(&g);
        let mut scratch = PatternScratch::new();
        let mut warm = PatternAnswer::default();
        for &u in &units {
            let budget = ResourceBudget::from_units(&g, u);
            let fresh = rbsim(&g, &idx, &q, &budget);
            rbsim_with(&g, &idx, &q, &budget, &mut scratch, &mut warm);
            prop_assert_eq!(&warm.matches, &fresh.matches);
            prop_assert_eq!(warm.gq_size, fresh.gq_size);
            prop_assert_eq!(warm.gq_nodes, fresh.gq_nodes);
            prop_assert_eq!(warm.visits, fresh.visits);
            prop_assert_eq!(warm.hit_budget, fresh.hit_budget);
            prop_assert_eq!(warm.final_b, fresh.final_b);
            prop_assert_eq!(warm.rounds, fresh.rounds);
        }
    }
}
