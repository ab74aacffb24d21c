//! A cache hit costs a probe: after two warm-ups, `Engine::run` on a
//! repeated pattern query allocates **at most once** — the `matches` `Vec`
//! the returned `Answer` owns, and not even that when it is empty. The
//! memo key is encoded into a pooled buffer, the canonical form and the
//! answer are found by reference, and nothing is canonicalised, resolved or
//! formatted. `rbq-lint`'s `hot-path-alloc` rule guards the same function
//! (`Engine::probe`) statically.
//!
//! This file deliberately holds a single `#[test]`: the allocator counter
//! is process-global (see `tests/alloc_free.rs`), and a concurrently
//! running sibling test would pollute the delta.

mod counting_alloc;

use counting_alloc::{allocations, CountingAlloc};
use rbq::rbq_engine::{Answer, BudgetSpec, Engine, EngineConfig, Query};
use rbq::rbq_workload::{extract_pattern, youtube_like, PatternSpec};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_cache_hit_allocates_at_most_the_returned_matches() {
    let g = Arc::new(youtube_like(4_000, 42));
    let patterns: Vec<_> = (0..200u64)
        .filter_map(|s| extract_pattern(&g, PatternSpec::new(4, 8), s))
        .filter(|p| p.resolve(&g).is_ok())
        .take(6)
        .collect();
    assert!(!patterns.is_empty(), "no extractable patterns");
    let engine = Engine::new(
        g,
        EngineConfig {
            pattern_budget: BudgetSpec::Units(300),
            threads: 1,
            ..Default::default()
        },
    );

    let mut with_matches = 0;
    for pattern in patterns {
        for q in [
            Query::PatternSim {
                pattern: pattern.clone(),
            },
            Query::PatternIso { pattern },
        ] {
            // Two warm-ups: the first evaluates and fills memo and cache,
            // the second is the first hit and sizes anything lazy.
            let cold = engine.run(&q);
            assert!(engine.run(&q).cached);

            let before = allocations();
            let hit = engine.run(&q);
            let delta = allocations() - before;

            assert!(hit.cached);
            assert_eq!(hit.answer, cold.answer, "hit differs from cold answer");
            let Answer::Pattern { matches, .. } = &hit.answer else {
                panic!("expected a pattern answer, got {:?}", hit.answer);
            };
            let allowed = usize::from(!matches.is_empty());
            with_matches += allowed;
            assert!(
                delta <= allowed,
                "a cache hit allocated {delta} times ({} matches)",
                matches.len()
            );
        }
    }
    assert!(with_matches > 0, "no hit returned matches");
}
