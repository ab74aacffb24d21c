//! A first sight costs what the memo keeps, plus one evaluation. With a
//! warm worker scratch, `Engine::run` on a 4-node pattern it has never
//! seen (memo miss *and* answer-cache miss) allocates at most
//! [`COLD_MISS_MAX`] times beyond what the VF2 kernel allocates for
//! itself (simulation runs allocation-free on the worker scratch; VF2
//! builds its search state per call, and that is measured here by running
//! it on the same `G_Q`). Canonicalisation alone — a raw pattern never
//! seen whose canonical form is already answered, i.e. a memo miss that
//! ends in an answer-cache hit — allocates only what the memo keeps: the
//! `Arc<Canonical>`, its order, its signature and the raw key, plus the
//! copy of the matches the returned `Answer` owns.
//!
//! This file deliberately holds a single `#[test]`: the allocator counter
//! is process-global (see `tests/alloc_free.rs`), and a concurrently
//! running sibling test would pollute the delta.

mod counting_alloc;

use counting_alloc::{allocations, CountingAlloc};
use rbq::rbq_core::guard::Semantics;
use rbq::rbq_core::{search_reduced_graph_scratch, ReductionConfig, ReductionScratch};
use rbq::rbq_engine::{canonical_pattern, Answer, BudgetSpec, Engine, EngineConfig, Query};
use rbq::rbq_pattern::{vf2_all_output_matches, PNode, Pattern, PatternBuilder};
use rbq::rbq_workload::{extract_pattern, youtube_like, PatternSpec};
use std::collections::BTreeSet;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations one cold 4-node pattern miss may make besides VF2's own:
/// canonical form and memo key (4); the canonical relabeling (6: the
/// inverse permutation, labels and their ends, edges, adjacency and its
/// offsets); its resolution (2: interned labels, the BFS buffer); and the
/// matches copied into the cache and into the returned answer (2).
const COLD_MISS_MAX: usize = 14;

/// What `vf2_all_output_matches` allocates for itself on the `G_Q` the
/// engine evaluates `p` on: the canonical relabeling, reduced under the
/// engine's budget for isomorphism.
fn vf2_allocs(engine: &Engine, p: &Pattern, reduction: &mut ReductionScratch) -> usize {
    let g = engine.graph();
    let resolved = canonical_pattern(p).0.resolve(&g).unwrap();
    let red = search_reduced_graph_scratch(
        &g,
        &engine.neighbor_index(),
        &resolved,
        &engine.pattern_budget(),
        Semantics::Isomorphism,
        ReductionConfig::default(),
        reduction,
    );
    let before = allocations();
    let outcome = vf2_all_output_matches(&resolved, &red.gq, engine.config().vf2);
    let n = allocations() - before;
    drop(outcome);
    reduction.recycle(red.gq);
    n
}

/// `p` with its nodes listed in reverse: the same anchored query, so the
/// same canonical form, under different raw bytes.
fn reversed(p: &Pattern) -> Pattern {
    let n = p.node_count();
    let mut b = PatternBuilder::new();
    let ids: Vec<_> = (0..n)
        .rev()
        .map(|i| b.add_node(p.label_str(PNode::new(i))))
        .collect();
    let at = |u: PNode| ids[n - 1 - u.index()];
    for &(u, v) in p.edges() {
        b.add_edge(at(u), at(v));
    }
    b.personalized(at(p.personalized())).output(at(p.output()));
    b.build()
}

fn query(pattern: Pattern, iso: bool) -> Query {
    if iso {
        Query::PatternIso { pattern }
    } else {
        Query::PatternSim { pattern }
    }
}

fn matches_of(a: &Answer) -> usize {
    match a {
        Answer::Pattern { matches, .. } => matches.len(),
        other => panic!("expected a pattern answer, got {other:?}"),
    }
}

#[test]
fn first_sight_allocates_only_what_the_memo_keeps_plus_one_evaluation() {
    let g = Arc::new(youtube_like(4_000, 42));
    // Distinct canonical forms only, so every run below is a cold miss.
    let mut seen = BTreeSet::new();
    let patterns: Vec<_> = (0..2_000u64)
        .filter_map(|s| extract_pattern(&g, PatternSpec::new(4, 6), s))
        .filter(|p| p.node_count() == 4 && p.resolve(&g).is_ok())
        .filter(|p| seen.insert(canonical_pattern(p).1))
        .take(48)
        .collect();
    assert!(patterns.len() >= 32, "too few distinct 4-node patterns");
    let engine = Engine::new(
        g,
        EngineConfig {
            pattern_budget: BudgetSpec::Units(300),
            threads: 1,
            // Far smaller than the pattern set: by its next run, every raw
            // pattern and every answer has been evicted, so the engine
            // meets it as a first sight again.
            cache_capacity: 8,
            ..Default::default()
        },
    );

    // Round 0 warms the worker scratch on every query measured in round 1
    // (and churns memo and cache into their steady state: every insert
    // evicts); round 1 measures.
    let mut reduction = ReductionScratch::new();
    let (mut worst_cold, mut worst_canon) = (0, 0);
    for round in 0..2 {
        for (k, p) in patterns.iter().enumerate() {
            let iso = k % 2 == 1;
            let kernel = match (round, iso) {
                (1, true) => vf2_allocs(&engine, p, &mut reduction),
                _ => 0,
            };
            let q = query(p.clone(), iso);
            let before = allocations();
            let cold = engine.run(&q);
            let cold_allocs = allocations() - before - kernel;
            assert!(!cold.cached, "pattern {k} was not a first sight");

            // Same canonical form, new raw bytes: the memo misses, the
            // answer cache hits.
            let rev = reversed(p);
            assert_ne!(
                format!("{rev:?}"),
                format!("{p:?}"),
                "reversal kept the raw pattern"
            );
            let q = query(rev, iso);
            let before = allocations();
            let hit = engine.run(&q);
            let canon_allocs = allocations() - before;
            assert!(
                hit.cached,
                "the reversed pattern {k} missed the answer cache"
            );
            assert_eq!(hit.answer, cold.answer);
            if round == 0 {
                continue;
            }

            worst_cold = worst_cold.max(cold_allocs);
            assert!(
                cold_allocs <= COLD_MISS_MAX,
                "a cold 4-node miss allocated {cold_allocs} times beyond VF2's {kernel} \
                 (at most {COLD_MISS_MAX})"
            );
            let kept = 4 + usize::from(matches_of(&hit.answer) > 0);
            worst_canon = worst_canon.max(canon_allocs);
            assert!(
                canon_allocs <= kept,
                "canonicalising a first sight allocated {canon_allocs} times (at most {kept})"
            );
        }
    }
    println!(
        "first sight allocations: cold miss ≤ {worst_cold} beyond VF2, \
         canonicalisation ≤ {worst_canon}"
    );
}
