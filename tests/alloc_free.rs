//! PR-5 acceptance: a warm repeat `rbsim` query performs **zero** heap
//! allocations, and so does a warm repeat reduction under either semantics
//! — RBSub's reduction half included. A counting `#[global_allocator]`
//! wraps the system allocator; after two warm-up calls populate every
//! scratch buffer, the third identical call must not touch the allocator at
//! all — pinning the "steady-state, allocation-free serving" property the
//! scratch threading exists for.
//!
//! This file deliberately holds a single `#[test]`: the allocator counter
//! is process-global, and a concurrently running sibling test would
//! pollute the delta.

mod counting_alloc;

use counting_alloc::{allocations, CountingAlloc};
use rbq::rbq_core::guard::Semantics;
use rbq::rbq_core::{
    rbsim_with, search_reduced_graph_scratch, NeighborIndex, PatternAnswer, PatternScratch,
    ReductionConfig, ReductionScratch, ResourceBudget,
};
use rbq::rbq_workload::{extract_pattern, youtube_like, PatternSpec};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_rbsim_repeat_query_is_allocation_free() {
    // A graph large enough to exercise the real paths (multi-round search,
    // non-trivial balls) and several distinct queries, so the property is
    // not an artifact of one tiny pattern.
    let g = youtube_like(4_000, 42);
    let idx = NeighborIndex::build(&g);
    let queries: Vec<_> = (0..200u64)
        .filter_map(|s| extract_pattern(&g, PatternSpec::new(4, 8), s))
        .filter_map(|p| p.resolve(&g).ok())
        .take(3)
        .collect();
    assert!(!queries.is_empty(), "no extractable patterns");
    let budget = ResourceBudget::from_units(&g, 300);

    let mut scratch = PatternScratch::new();
    let mut ans = PatternAnswer::default();
    for q in &queries {
        // Two warm-ups: the first grows every buffer, the second catches
        // anything sized lazily on the first pass.
        rbsim_with(&g, &idx, q, &budget, &mut scratch, &mut ans);
        rbsim_with(&g, &idx, q, &budget, &mut scratch, &mut ans);
        let cold_matches = ans.matches.clone();

        let before = allocations();
        rbsim_with(&g, &idx, q, &budget, &mut scratch, &mut ans);
        let delta = allocations() - before;

        assert_eq!(ans.matches, cold_matches, "warm answer changed");
        assert_eq!(
            delta, 0,
            "warm rbsim allocated {delta} times on a repeat query"
        );
    }

    // The reduction alone, under both semantics: the isomorphism guard's
    // Hall check and the candidate lists run on scratch buffers too.
    let mut scratch = ReductionScratch::new();
    for semantics in [Semantics::Simulation, Semantics::Isomorphism] {
        for q in &queries {
            let mut reduce = || {
                let config = ReductionConfig::default();
                let out = search_reduced_graph_scratch(
                    &g,
                    &idx,
                    q,
                    &budget,
                    semantics,
                    config,
                    &mut scratch,
                );
                let members = out.gq.members().len();
                scratch.recycle(out.gq);
                members
            };
            reduce();
            let cold_members = reduce();

            let before = allocations();
            let members = reduce();
            let delta = allocations() - before;

            assert_eq!(members, cold_members, "warm {semantics:?} G_Q changed");
            assert_eq!(
                delta, 0,
                "warm {semantics:?} reduction allocated {delta} times on a repeat query"
            );
        }
    }
}
