//! **RBSim** — resource-bounded strong simulation (§4.1, Fig. 3).
//!
//! Given a simulation query `Q`, a graph `G`, and a resource ratio `α`,
//! RBSim fetches a subgraph `G_Q` of `G_dQ(v_p)` with `|G_Q| ≤ α·|G|` via
//! [`crate::reduction::search_reduced_graph`], then evaluates strong
//! simulation on `G_Q` and returns the output node's matches — the
//! approximate answer `Q(G_Q)` of Theorem 3.

use crate::budget::ResourceBudget;
use crate::guard::Semantics;
use crate::neighbor_index::NeighborIndex;
use crate::reduction::{
    search_reduced_graph_scratch, PatternAnswer, ReductionConfig, ReductionScratch,
};
use rbq_graph::{Graph, GraphView};
use rbq_pattern::{strong_simulation_on_view_with, ResolvedPattern, StrongSimScratch};

/// Reusable state for a full bounded pattern evaluation: the reduction's
/// [`ReductionScratch`] plus the evaluation's
/// [`rbq_pattern::StrongSimScratch`]. One per serving worker; with warm
/// buffers a repeat [`rbsim_with`] call performs **zero** heap allocations
/// (pinned by the `alloc_free` integration test).
#[derive(Debug, Default)]
pub struct PatternScratch {
    /// `Search`/`Pick` state.
    pub reduction: ReductionScratch,
    /// `Q(G_Q)` evaluation state.
    pub eval: StrongSimScratch,
}

impl PatternScratch {
    /// Fresh scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm (or clear) the deadline for every subsequent evaluation through
    /// this scratch — forwarded to the reduction's `Search`/`Pick` loop and
    /// the strong-simulation evaluation (ball BFS + dual-sim fixpoint).
    /// VF2's deadline travels separately in [`rbq_pattern::Vf2Config`].
    pub fn set_cancel(&mut self, token: rbq_graph::CancelToken) {
        self.reduction.set_cancel(token);
        self.eval.set_cancel(token);
    }
}

/// Run RBSim: dynamic reduction followed by strong simulation on `G_Q`.
///
/// The `idx` is the once-for-all offline structure ([`NeighborIndex`]);
/// building it is *not* charged against the online budget (§3 "Remarks").
pub fn rbsim(
    g: &Graph,
    idx: &NeighborIndex,
    q: &ResolvedPattern,
    budget: &ResourceBudget,
) -> PatternAnswer {
    let mut scratch = PatternScratch::new();
    let mut out = PatternAnswer::default();
    rbsim_with(g, idx, q, budget, &mut scratch, &mut out);
    out
}

/// [`rbsim`] through a reusable [`PatternScratch`], writing the answer into
/// `out` (its `matches` buffer is recycled). Identical answers to the
/// one-shot entry point; allocation-free once the scratch is warm.
pub fn rbsim_with(
    g: &Graph,
    idx: &NeighborIndex,
    q: &ResolvedPattern,
    budget: &ResourceBudget,
    scratch: &mut PatternScratch,
    out: &mut PatternAnswer,
) {
    let red = search_reduced_graph_scratch(
        g,
        idx,
        q,
        budget,
        Semantics::Simulation,
        ReductionConfig::default(),
        &mut scratch.reduction,
    );
    strong_simulation_on_view_with(q, &red.gq, &mut scratch.eval, &mut out.matches);
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
    use rbq_pattern::match_opt;
    use rbq_pattern::pattern::fig1_pattern;

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
    fn example2_exact_at_sixteen_units() {
        // Example 2: with a 16-unit budget RBSim finds Q(G_Q) = {cl_{n-1},
        // cl_n} at 100% accuracy.
        let (g, answers) = example_graph(10, 20);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let budget = ResourceBudget::from_units(&g, 16);
        let ans = rbsim(&g, &idx, &q, &budget);
        assert_eq!(ans.matches, answers);
        assert!(ans.gq_size <= 16);
        let exact = match_opt(&q, &g);
        let acc = pattern_accuracy(&exact, &ans.matches);
        assert_eq!(acc.f1, 1.0);
    }

    #[test]
    fn accuracy_monotone_in_budget() {
        let (g, _) = example_graph(40, 60);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let exact = match_opt(&q, &g);
        let mut last_f1 = -1.0f64;
        let mut f1s = Vec::new();
        for units in [4usize, 8, 16, 64, 256] {
            let budget = ResourceBudget::from_units(&g, units);
            let ans = rbsim(&g, &idx, &q, &budget);
            let acc = pattern_accuracy(&exact, &ans.matches);
            f1s.push(acc.f1);
            last_f1 = acc.f1;
        }
        // No budget can do worse than a smaller one: `Search` never
        // reorders on budget but stops at the first insertion that does not
        // fit, so `G_Q` at a budget is a prefix of `G_Q` at any larger one
        // (pinned for both semantics in `tests/properties.rs`), and on an
        // induced supergraph the answer only grows. The largest budget
        // reaches exactness on this localized query.
        assert!(
            f1s.windows(2).all(|w| w[0] <= w[1]),
            "f1 trajectory {f1s:?}"
        );
        assert_eq!(last_f1, 1.0, "f1 trajectory {f1s:?}");
    }

    #[test]
    fn answers_subset_of_exact_or_empty_under_tiny_budget() {
        let (g, _) = example_graph(10, 20);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let exact = match_opt(&q, &g);
        let budget = ResourceBudget::from_units(&g, 3);
        let ans = rbsim(&g, &idx, &q, &budget);
        // Strong simulation on an induced subgraph can only under-report
        // (every ball relation embeds in the full graph's).
        for v in &ans.matches {
            assert!(exact.contains(v), "spurious match {v:?}");
        }
    }

    #[test]
    fn theorem3b_large_alpha_gives_exact() {
        // When α exceeds the Theorem 3(b) bound, 100% accuracy is
        // guaranteed. With the full graph budget, RBSim must be exact.
        let (g, _) = example_graph(8, 12);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let exact = match_opt(&q, &g);
        let budget = ResourceBudget::from_ratio(&g, 1.0);
        let ans = rbsim(&g, &idx, &q, &budget);
        assert_eq!(ans.matches, exact);
    }

    #[test]
    fn no_match_graph_returns_empty() {
        let mut b = GraphBuilder::new();
        let michael = b.add_node("Michael");
        let hg = b.add_node("HG");
        b.add_edge(michael, hg);
        b.intern_label("CC");
        b.intern_label("CL");
        let g = b.build();
        let idx = NeighborIndex::build(&g);
        // Pattern resolution fails (labels CC/CL interned but no nodes),
        // so construct the query against a graph where labels exist but the
        // topology doesn't match.
        let mut b2 = GraphBuilder::new();
        let michael2 = b2.add_node("Michael");
        let hg2 = b2.add_node("HG");
        let cc2 = b2.add_node("CC");
        let cl2 = b2.add_node("CL");
        b2.add_edge(michael2, hg2);
        b2.add_edge(cl2, cc2); // wrong direction everywhere
        let g2 = b2.build();
        let idx2 = NeighborIndex::build(&g2);
        let q = fig1_pattern().resolve(&g2).unwrap();
        let budget = ResourceBudget::from_ratio(&g2, 1.0);
        let ans = rbsim(&g2, &idx2, &q, &budget);
        assert!(ans.matches.is_empty());
        let _ = (g, idx, michael);
    }

    #[test]
    fn reports_visits_and_rounds() {
        let (g, _) = example_graph(10, 20);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let budget = ResourceBudget::from_units(&g, 16);
        let ans = rbsim(&g, &idx, &q, &budget);
        assert!(ans.visits.total() > 0);
        assert!(ans.rounds >= 1);
        assert!(ans.final_b >= 2);
        assert!(ans.gq_nodes <= ans.gq_size);
    }
}
