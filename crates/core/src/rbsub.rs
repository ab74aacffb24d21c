//! **RBSub** — resource-bounded subgraph isomorphism (§4.2).
//!
//! RBSub revises RBSim in two places: the guarded condition and cost
//! estimation are enriched with degree constraints for isomorphism (see
//! [`crate::guard`]), and after `G_Q` is found a subgraph-isomorphism
//! enumerator (VF2, \[11\]) computes `Q(G_Q)`.

use crate::budget::ResourceBudget;
use crate::guard::Semantics;
use crate::neighbor_index::NeighborIndex;
use crate::rbsim::PatternScratch;
use crate::reduction::{search_reduced_graph_scratch, PatternAnswer, ReductionConfig};
use rbq_graph::{Graph, GraphView};
use rbq_pattern::{vf2_all_output_matches, ResolvedPattern, Vf2Config};

/// Run RBSub: dynamic reduction with the isomorphism guard, then VF2 on
/// `G_Q`.
pub fn rbsub(
    g: &Graph,
    idx: &NeighborIndex,
    q: &ResolvedPattern,
    budget: &ResourceBudget,
) -> PatternAnswer {
    rbsub_with(g, idx, q, budget, Vf2Config::default())
}

/// [`rbsub`] with explicit VF2 knobs (step caps for adversarial patterns).
pub fn rbsub_with(
    g: &Graph,
    idx: &NeighborIndex,
    q: &ResolvedPattern,
    budget: &ResourceBudget,
    vf2: Vf2Config,
) -> PatternAnswer {
    let mut scratch = PatternScratch::new();
    let mut out = PatternAnswer::default();
    rbsub_scratch(g, idx, q, budget, vf2, &mut scratch, &mut out);
    out
}

/// [`rbsub_with`] through a reusable [`PatternScratch`], writing the answer
/// into `out`. The reduction half is allocation-free once warm; VF2's
/// enumeration state remains per-call (its size is embedding-dependent).
pub fn rbsub_scratch(
    g: &Graph,
    idx: &NeighborIndex,
    q: &ResolvedPattern,
    budget: &ResourceBudget,
    vf2: Vf2Config,
    scratch: &mut PatternScratch,
    out: &mut PatternAnswer,
) {
    let red = search_reduced_graph_scratch(
        g,
        idx,
        q,
        budget,
        Semantics::Isomorphism,
        ReductionConfig::default(),
        &mut scratch.reduction,
    );
    let outcome = vf2_all_output_matches(q, &red.gq, vf2);
    out.matches = outcome.output_matches;
    out.gq_size = red.gq.size();
    out.gq_nodes = red.gq.num_nodes();
    out.visits = red.visits;
    out.hit_budget = red.hit_budget;
    out.final_b = red.final_b;
    out.rounds = red.rounds;
    scratch.reduction.recycle(red.gq);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::pattern_accuracy;
    use rbq_graph::{GraphBuilder, NodeId};
    use rbq_pattern::pattern::fig1_pattern;
    use rbq_pattern::{vf2_opt, Vf2Config};

    fn example_graph(m: usize, n: usize) -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let michael = b.add_node("Michael");
        let mut hgs = Vec::new();
        for _ in 0..m {
            hgs.push(b.add_node("HG"));
        }
        let cc1 = b.add_node("CC");
        let cc2 = b.add_node("CC");
        let cc3 = b.add_node("CC");
        let mut cls = Vec::new();
        for _ in 0..n {
            cls.push(b.add_node("CL"));
        }
        for &h in &hgs {
            b.add_edge(michael, h);
        }
        b.add_edge(michael, cc1);
        b.add_edge(michael, cc3);
        b.add_edge(cc2, cls[0]);
        let cln_1 = cls[n - 2];
        let cln = cls[n - 1];
        b.add_edge(cc1, cln_1);
        b.add_edge(cc1, cln);
        b.add_edge(cc3, cln);
        let hgm = hgs[m - 1];
        b.add_edge(hgm, cln_1);
        b.add_edge(hgm, cln);
        (b.build(), vec![cln_1, cln])
    }

    #[test]
    fn exact_on_example_graph_with_modest_budget() {
        let (g, answers) = example_graph(10, 20);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let budget = ResourceBudget::from_units(&g, 20);
        let ans = rbsub(&g, &idx, &q, &budget);
        assert_eq!(ans.matches, answers);
        assert!(ans.gq_size <= 20);
    }

    #[test]
    fn agrees_with_vf2opt_at_full_budget() {
        let (g, _) = example_graph(12, 18);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let exact = vf2_opt(&q, &g, Vf2Config::default());
        let budget = ResourceBudget::from_ratio(&g, 1.0);
        let ans = rbsub(&g, &idx, &q, &budget);
        assert_eq!(ans.matches, exact.output_matches);
    }

    #[test]
    fn no_false_positives_under_small_budget() {
        let (g, _) = example_graph(10, 20);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let exact = vf2_opt(&q, &g, Vf2Config::default());
        for units in [2usize, 5, 9, 13] {
            let budget = ResourceBudget::from_units(&g, units);
            let ans = rbsub(&g, &idx, &q, &budget);
            for v in &ans.matches {
                assert!(
                    exact.output_matches.contains(v),
                    "isomorphism on a subgraph must under-report, got {v:?}"
                );
            }
        }
    }

    #[test]
    fn accuracy_reaches_one() {
        let (g, _) = example_graph(30, 40);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let exact = vf2_opt(&q, &g, Vf2Config::default());
        let budget = ResourceBudget::from_units(&g, 64);
        let ans = rbsub(&g, &idx, &q, &budget);
        let acc = pattern_accuracy(&exact.output_matches, &ans.matches);
        assert_eq!(acc.f1, 1.0);
    }

    #[test]
    fn step_capped_vf2_still_bounded() {
        let (g, _) = example_graph(10, 20);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let budget = ResourceBudget::from_units(&g, 30);
        let ans = rbsub_with(
            &g,
            &idx,
            &q,
            &budget,
            Vf2Config {
                max_steps: Some(10),
                ..Default::default()
            },
        );
        assert!(ans.gq_size <= 30);
    }
}
