//! **RBSimAny** — resource-bounded matching for patterns *without* a
//! personalized node (the paper's §7, first open topic).
//!
//! Without the unique anchor `v_p`, locality has no fixed center: the
//! answer is the union, over every candidate assignment of some query node
//! to a data node, of the anchored answers. RBSimAny approximates it under
//! a global budget `α|G|`:
//!
//! 1. pick the *seed query node* `u*` — the query node whose label has the
//!    fewest data candidates (the most selective anchor);
//! 2. score each guarded candidate `v` of `u*` with the dynamic-reduction
//!    weight `p(v, u*)/(c(v, u*)+1)` and keep the top `max_seeds`;
//! 3. split the budget evenly across seeds, run the anchored reduction
//!    (Fig. 3) from each, and union the per-seed `Q(G_Q)` answers.
//!
//! The result is sound (a subset of the exact anonymous answer) for the
//! same reason RBSim is, and exact when the budget covers every seed's
//! guarded region.

use crate::budget::ResourceBudget;
use crate::guard::{GuardCtx, GuardScratch, Semantics};
use crate::neighbor_index::NeighborIndex;
use crate::rbsim::PatternScratch;
use crate::reduction::{search_reduced_graph_scratch, ReductionConfig};
use rbq_graph::traverse::VisitStats;
use rbq_graph::{DynamicSubgraph, Graph, GraphView, NodeId};
use rbq_pattern::{strong_simulation_on_view_with, PNode, Pattern};

/// Knobs for [`rbsim_any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyConfig {
    /// Maximum number of seed anchors explored (budget is split across
    /// them).
    pub max_seeds: usize,
}

impl Default for AnyConfig {
    fn default() -> Self {
        AnyConfig { max_seeds: 8 }
    }
}

/// Answer of [`rbsim_any`].
#[derive(Debug, Clone)]
pub struct AnyAnswer {
    /// Sorted union of output-node matches across seeds.
    pub matches: Vec<NodeId>,
    /// Seeds actually explored (data nodes anchoring the seed query node).
    pub seeds: Vec<NodeId>,
    /// The seed query node `u*`.
    pub seed_query_node: PNode,
    /// Total `|G_Q|` units fetched across seeds (≤ the budget).
    pub total_gq_size: usize,
    /// Total data visited.
    pub visits: VisitStats,
}

/// Resource-bounded strong simulation for anonymous patterns.
pub fn rbsim_any(
    g: &Graph,
    idx: &NeighborIndex,
    pattern: &Pattern,
    budget: &ResourceBudget,
    config: AnyConfig,
) -> AnyAnswer {
    let mut scratch = PatternScratch::new();
    rbsim_any_with(g, idx, pattern, budget, config, &mut scratch)
}

/// [`rbsim_any`] through a reusable [`PatternScratch`]: the per-seed
/// reductions and evaluations share warm buffers (within the call and, for
/// serving loops, across calls). Identical answers to the one-shot entry
/// point.
fn rbsim_any_with(
    g: &Graph,
    idx: &NeighborIndex,
    pattern: &Pattern,
    budget: &ResourceBudget,
    config: AnyConfig,
    scratch: &mut PatternScratch,
) -> AnyAnswer {
    let mut visits = VisitStats::default();

    // Seed query node: fewest data candidates by label — a constant-time
    // partition-length lookup per query node, not an O(|V|) scan.
    let seed_u = pattern
        .nodes()
        .min_by_key(|&u| {
            g.labels()
                .get(pattern.label_str(u))
                .map_or(0, |l| g.count_nodes_with_label(l))
        })
        // invariant: `Pattern::build` asserts non-empty, so every resolved
        // pattern has at least one node and `min_by_key` yields `Some`.
        .expect("patterns have nodes");

    // Re-anchor the pattern at u*: reuse the anchored machinery with
    // personalized = u*. Output node is unchanged.
    let reanchored = reanchor(pattern, seed_u);

    let Some(seed_label) = g.labels().get(pattern.label_str(seed_u)) else {
        return AnyAnswer {
            matches: Vec::new(),
            seeds: Vec::new(),
            seed_query_node: seed_u,
            total_gq_size: 0,
            visits,
        };
    };

    // Guarded, weight-ranked seed candidates. The resolved instance is
    // also reused (re-anchored in place) for the per-seed reductions:
    // labels and d_Q are anchor-independent, so one resolve serves all
    // seeds without per-seed pattern clones.
    let mut scored: Vec<(f64, NodeId)> = Vec::new();
    let mut resolved = None;
    if let Some(&first) = g.nodes_with_label(seed_label).first() {
        if let Ok(q0) = reanchored.resolve_with_anchor(g, first) {
            {
                let ctx = GuardCtx::new(g, idx, &q0, Semantics::Simulation);
                let empty = DynamicSubgraph::new(g);
                let mut gs = GuardScratch::default();
                for &v in g.nodes_with_label(seed_label) {
                    if !ctx.guard(v, seed_u, &mut visits, &mut gs) {
                        continue;
                    }
                    let w = ctx.weight(v, seed_u, &empty, &mut visits, &mut gs);
                    scored.push((w, v));
                }
            }
            resolved = Some(q0);
        }
    }
    scored.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    scored.truncate(config.max_seeds.max(1));
    let seeds: Vec<NodeId> = scored.into_iter().map(|(_, v)| v).collect();
    if seeds.is_empty() {
        return AnyAnswer {
            matches: Vec::new(),
            seeds,
            seed_query_node: seed_u,
            total_gq_size: 0,
            visits,
        };
    }

    // Split the budget evenly; remainder to the first seeds. Per-seed
    // answers are sorted vectors; the union is a sort + dedup at the end
    // (no hash set on the matching path).
    // invariant: the empty-seed case returned early above, so the loop ran
    // at least once and `resolved` was set.
    let mut q = resolved.expect("seeds are non-empty, so resolution succeeded");
    let per_seed = (budget.max_units / seeds.len()).max(1);
    let mut matches: Vec<NodeId> = Vec::new();
    let mut per_seed_matches: Vec<NodeId> = Vec::new();
    let mut total_gq = 0usize;
    for &seed in &seeds {
        if !q.set_anchor(g, seed) {
            continue;
        }
        let sub_budget = ResourceBudget::from_units(g, per_seed);
        let red = search_reduced_graph_scratch(
            g,
            idx,
            &q,
            &sub_budget,
            Semantics::Simulation,
            ReductionConfig::default(),
            &mut scratch.reduction,
        );
        visits.add(red.visits);
        total_gq += red.gq.size();
        strong_simulation_on_view_with(&q, &red.gq, &mut scratch.eval, &mut per_seed_matches);
        matches.extend_from_slice(&per_seed_matches);
        scratch.reduction.recycle(red.gq);
    }
    matches.sort_unstable();
    matches.dedup();
    AnyAnswer {
        matches,
        seeds,
        seed_query_node: seed_u,
        total_gq_size: total_gq,
        visits,
    }
}

/// Clone `pattern` with `u` as its personalized node (output unchanged).
fn reanchor(pattern: &Pattern, u: PNode) -> Pattern {
    let mut pb = rbq_pattern::PatternBuilder::new();
    let nodes: Vec<PNode> = pattern
        .nodes()
        .map(|x| pb.add_node(pattern.label_str(x)))
        .collect();
    for &(a, b) in pattern.edges() {
        pb.add_edge(nodes[a.index()], nodes[b.index()]);
    }
    pb.personalized(nodes[u.index()]);
    pb.output(nodes[pattern.output().index()]);
    pb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::GraphBuilder;
    use rbq_pattern::strongsim::strong_simulation_anonymous;
    use rbq_pattern::PatternBuilder;

    /// Graph with two disjoint triangles A->B->C, only one of which also
    /// has the D tail demanded by the pattern.
    fn two_clusters() -> Graph {
        let mut b = GraphBuilder::new();
        // Cluster 1 (complete): a1 -> b1 -> c1, c1 -> d1
        let a1 = b.add_node("A");
        let b1 = b.add_node("B");
        let c1 = b.add_node("C");
        let d1 = b.add_node("D");
        b.add_edge(a1, b1);
        b.add_edge(b1, c1);
        b.add_edge(c1, d1);
        // Cluster 2 (no D): a2 -> b2 -> c2
        let a2 = b.add_node("A");
        let b2 = b.add_node("B");
        let c2 = b.add_node("C");
        b.add_edge(a2, b2);
        b.add_edge(b2, c2);
        b.build()
    }

    fn chain_pattern() -> Pattern {
        let mut pb = PatternBuilder::new();
        let a = pb.add_node("A");
        let bq = pb.add_node("B");
        let c = pb.add_node("C");
        let d = pb.add_node("D");
        pb.add_edge(a, bq).add_edge(bq, c).add_edge(c, d);
        pb.personalized(a).output(d);
        pb.build()
    }

    #[test]
    fn finds_anonymous_matches() {
        let g = two_clusters();
        let idx = NeighborIndex::build(&g);
        let p = chain_pattern();
        let budget = ResourceBudget::from_ratio(&g, 1.0);
        let ans = rbsim_any(&g, &idx, &p, &budget, AnyConfig::default());
        let exact = strong_simulation_anonymous(&p, &g);
        assert_eq!(ans.matches, exact);
        assert!(!ans.matches.is_empty());
        // The D label is rarest -> seed query node is the D node.
        assert_eq!(p.label_str(ans.seed_query_node), "D");
    }

    #[test]
    fn sound_under_small_budget() {
        let g = two_clusters();
        let idx = NeighborIndex::build(&g);
        let p = chain_pattern();
        let exact = strong_simulation_anonymous(&p, &g);
        for units in [2usize, 4, 6, 10] {
            let budget = ResourceBudget::from_units(&g, units);
            let ans = rbsim_any(&g, &idx, &p, &budget, AnyConfig::default());
            assert!(ans.total_gq_size <= units + ans.seeds.len()); // per-seed rounding
            for v in &ans.matches {
                assert!(exact.contains(v), "spurious {v:?} at {units} units");
            }
        }
    }

    #[test]
    fn multiple_seed_regions_are_unioned() {
        // Two D-complete clusters: both answers must appear.
        let mut b = GraphBuilder::new();
        for _ in 0..2 {
            let a = b.add_node("A");
            let bb = b.add_node("B");
            let c = b.add_node("C");
            let d = b.add_node("D");
            b.add_edge(a, bb);
            b.add_edge(bb, c);
            b.add_edge(c, d);
        }
        let g = b.build();
        let idx = NeighborIndex::build(&g);
        let p = chain_pattern();
        let budget = ResourceBudget::from_ratio(&g, 1.0);
        let ans = rbsim_any(&g, &idx, &p, &budget, AnyConfig::default());
        assert_eq!(ans.matches.len(), 2);
        assert_eq!(ans.seeds.len(), 2);
    }

    #[test]
    fn seed_cap_limits_exploration() {
        let mut b = GraphBuilder::new();
        for _ in 0..5 {
            let a = b.add_node("A");
            let d = b.add_node("D");
            b.add_edge(a, d);
        }
        let g = b.build();
        let idx = NeighborIndex::build(&g);
        let mut pb = PatternBuilder::new();
        let a = pb.add_node("A");
        let d = pb.add_node("D");
        pb.add_edge(a, d).personalized(a).output(d);
        let p = pb.build();
        let budget = ResourceBudget::from_ratio(&g, 1.0);
        let ans = rbsim_any(&g, &idx, &p, &budget, AnyConfig { max_seeds: 2 });
        assert_eq!(ans.seeds.len(), 2);
        assert_eq!(ans.matches.len(), 2, "one match per explored seed");
    }

    #[test]
    fn missing_label_returns_empty() {
        let mut b = GraphBuilder::new();
        b.add_node("X");
        let g = b.build();
        let idx = NeighborIndex::build(&g);
        let p = chain_pattern();
        let budget = ResourceBudget::from_ratio(&g, 1.0);
        let ans = rbsim_any(&g, &idx, &p, &budget, AnyConfig::default());
        assert!(ans.matches.is_empty());
        assert!(ans.seeds.is_empty());
    }
}
