//! PR-5 acceptance: a warm repeat `rbsim` query performs **zero** heap
//! allocations, and so does a warm repeat reduction under either semantics
//! — RBSub's reduction half included. A counting `#[global_allocator]`
//! wraps the system allocator; after two warm-up calls populate every
//! scratch buffer, the third identical call must not touch the allocator at
//! all — pinning the "steady-state, allocation-free serving" property the
//! scratch threading exists for. The property is checked on a compacted
//! CSR and again past it: on a graph whose un-compacted delta overlay adds
//! a node, so the scratch tables grow to the new id bound and stay warm.
//!
//! This file deliberately holds a single `#[test]`: the allocator counter
//! is process-global, and a concurrently running sibling test would
//! pollute the delta.

mod counting_alloc;

use counting_alloc::{allocations, CountingAlloc};
use rbq::rbq_core::guard::Semantics;
use rbq::rbq_core::{
    rbsim_with, search_reduced_graph, search_reduced_graph_scratch, NeighborIndex, PatternAnswer,
    PatternScratch, ReductionConfig, ReductionScratch, ResourceBudget,
};
use rbq::rbq_graph::{DeltaBatch, Graph, GraphView, NodeId};
use rbq::rbq_pattern::{Pattern, ResolvedPattern};
use rbq::rbq_workload::{extract_pattern, youtube_like, PatternSpec};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_rbsim_repeat_query_is_allocation_free() {
    // A graph large enough to exercise the real paths (multi-round search,
    // non-trivial balls) and several distinct queries, so the property is
    // not an artifact of one tiny pattern.
    let g = youtube_like(4_000, 42);
    let patterns: Vec<Pattern> = (0..200u64)
        .filter_map(|s| extract_pattern(&g, PatternSpec::new(4, 8), s))
        .filter(|p| p.resolve(&g).is_ok())
        .take(3)
        .collect();
    assert!(!patterns.is_empty(), "no extractable patterns");
    let budget = ResourceBudget::from_units(&g, 300);
    let mut scratch = (PatternScratch::new(), ReductionScratch::new());
    check_warm(&g, &patterns, &budget, &mut scratch, None);

    // Past the base CSR: one batch of a few dozen edges plus a node `x`
    // cloned from a low-degree `G_Q` member `w` next to a query's anchor,
    // so `x` is a candidate wherever `w` is. The batch stays under the
    // compaction threshold, so `x`'s id lies past the compacted CSR's
    // bound and its rows live in the overlay. The same scratch carries
    // over: its tables grow once, then stay warm.
    let (w, g2) = overlay_with_clone(&g, &patterns, &budget);
    let x = NodeId(g.node_count() as u32);
    assert!(g2.is_overlaid(), "the batch compacted");
    assert_eq!(g2.node_count(), g.node_count() + 1);
    assert!(
        check_warm(&g2, &patterns, &budget, &mut scratch, Some(x)),
        "no warm G_Q reached the added node {x:?} (clone of {w:?})"
    );
}

/// Warm `rbsim` and the warm reduction under both semantics allocate
/// nothing on a repeat query. Returns whether some warm `G_Q` holds
/// `probe`.
fn check_warm(
    g: &Graph,
    patterns: &[Pattern],
    budget: &ResourceBudget,
    (sim, scratch): &mut (PatternScratch, ReductionScratch),
    probe: Option<NodeId>,
) -> bool {
    let idx = NeighborIndex::build(g);
    let queries: Vec<ResolvedPattern> = patterns.iter().map(|p| p.resolve(g).unwrap()).collect();
    let mut ans = PatternAnswer::default();
    for q in &queries {
        // Two warm-ups: the first grows every buffer, the second catches
        // anything sized lazily on the first pass.
        rbsim_with(g, &idx, q, budget, sim, &mut ans);
        rbsim_with(g, &idx, q, budget, sim, &mut ans);
        let cold_matches = ans.matches.clone();

        let before = allocations();
        rbsim_with(g, &idx, q, budget, sim, &mut ans);
        let delta = allocations() - before;

        assert_eq!(ans.matches, cold_matches, "warm answer changed");
        assert_eq!(
            delta, 0,
            "warm rbsim allocated {delta} times on a repeat query"
        );
    }

    // The reduction alone, under both semantics: the isomorphism guard's
    // Hall check and the candidate lists run on scratch buffers too.
    let mut hit = false;
    for semantics in [Semantics::Simulation, Semantics::Isomorphism] {
        for q in &queries {
            let mut reduce = || {
                let config = ReductionConfig::default();
                let out =
                    search_reduced_graph_scratch(g, &idx, q, budget, semantics, config, scratch);
                let members = out.gq.members().len();
                let holds_probe = probe.is_some_and(|x| out.gq.contains(x));
                scratch.recycle(out.gq);
                (members, holds_probe)
            };
            reduce();
            let cold = reduce();

            let before = allocations();
            let warm = reduce();
            let delta = allocations() - before;

            assert_eq!(warm, cold, "warm {semantics:?} G_Q changed");
            assert_eq!(
                delta, 0,
                "warm {semantics:?} reduction allocated {delta} times on a repeat query"
            );
            hit |= warm.1;
        }
    }
    hit
}

/// `g` after one batch: a node cloned from a `G_Q` member `w` adjacent to
/// its query's anchor (the clone copies `w`'s label and every edge),
/// padded to 36 edges with edges between `w`'s neighbors. Returns `w` and
/// the new graph.
fn overlay_with_clone(g: &Graph, patterns: &[Pattern], budget: &ResourceBudget) -> (NodeId, Graph) {
    const EDGES: usize = 36;
    let idx = NeighborIndex::build(g);
    let w = patterns
        .iter()
        .find_map(|p| {
            let q = p.resolve(g).unwrap();
            let out = search_reduced_graph(g, &idx, &q, budget, Semantics::Simulation);
            let vp = q.vp();
            let next_to_vp = |v: NodeId| g.out(vp).contains(&v) || g.inn(vp).contains(&v);
            let found = out.gq.members().iter().copied();
            found
                .into_iter()
                .find(|&v| v != vp && g.deg(v) <= EDGES / 2 && next_to_vp(v))
        })
        .expect("no low-degree G_Q member next to an anchor");
    let x = NodeId(g.node_count() as u32);
    let mut batch = DeltaBatch::new();
    batch.add_node(g.node_label_str(w));
    for &c in g.out(w) {
        batch.add_edge(x, c);
    }
    for &p in g.inn(w) {
        batch.add_edge(p, x);
    }
    let nbrs: Vec<NodeId> = g.out(w).iter().chain(g.inn(w)).copied().collect();
    for (i, &a) in nbrs.iter().cycle().enumerate().take(EDGES - nbrs.len()) {
        batch.add_edge(a, nbrs[(i + 1) % nbrs.len()]);
    }
    (w, g.apply_delta(&batch).unwrap().0)
}
