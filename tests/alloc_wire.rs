//! A reach verdict and the wire around a hit cost their own work, not the
//! allocator's. After warm-ups:
//!
//! * `Engine::run` on a reach query allocates nothing: RBReach's active
//!   sets, heaps and run buffers live in the worker scratch — also for
//!   pairs seeded at the index's hub, the landmark with the longest
//!   expansion list;
//! * `HierarchicalIndex::query_with` on a warm `ReachScratch` allocates
//!   nothing;
//! * `answer_to_line` on a pattern answer allocates exactly once — one
//!   string sized from the answer — with 0, 1 or many matches;
//! * `Query::parse_line` on a 4-node pattern line allocates at most the
//!   five buffers the `Pattern` keeps: its labels and their ends, its
//!   edges, its adjacency and the adjacency's offsets.
//!
//! This file deliberately holds a single `#[test]`: the allocator counter
//! is process-global (see `tests/alloc_free.rs`), and a concurrently
//! running sibling test would pollute the delta.

mod counting_alloc;

use counting_alloc::{allocations, CountingAlloc};
use rbq::rbq_engine::wire::answer_to_line;
use rbq::rbq_engine::{Answer, Engine, EngineConfig, Query};
use rbq::rbq_graph::NodeId;
use rbq::rbq_reach::ReachScratch;
use rbq::rbq_workload::{
    extract_pattern, sample_hard_reachability_queries, youtube_like, PatternSpec,
};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The allocations `f` makes, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = allocations();
    let out = f();
    (allocations() - before, out)
}

#[test]
fn wire_and_reach_paths_allocate_only_what_they_return() {
    let g = Arc::new(youtube_like(4_000, 42));
    let mut pairs = sample_hard_reachability_queries(&g, 200, 0.5, 7);
    let engine = Engine::new(
        Arc::clone(&g),
        EngineConfig {
            threads: 1,
            ..Default::default()
        },
    );
    // Pairs seeded at the hub, from either side: a search there opens the
    // longest run the index holds.
    let idx = engine.reach_index();
    let hub = idx.hub().expect("the index has landmarks");
    let hub_node = (0..g.node_count() as u32)
        .map(NodeId)
        .find(|&v| idx.compressed.map(v) == hub)
        .expect("some node maps to the hub");
    let hub_pairs: Vec<_> = (pairs.iter().take(100))
        .flat_map(|&(s, t)| [(hub_node, t), (s, hub_node)])
        .collect();
    // Past the rank test, a hub pair seeds both sides: two visits or more.
    let hub_searched = hub_pairs
        .iter()
        .filter(|&&(s, t)| idx.query(s, t).visits > 1)
        .count();
    assert!(hub_searched > 0, "no hub pair reached the seeding");
    pairs.extend(hub_pairs);
    let queries: Vec<_> = pairs
        .iter()
        .map(|&(source, target)| Query::Reach { source, target })
        .collect();

    // Reach through the engine: two warm-up passes grow the worker scratch
    // to the largest frontier and run of these pairs.
    for _ in 0..2 {
        for q in &queries {
            engine.run(q);
        }
    }
    let mut searched = 0;
    for q in &queries {
        let (delta, r) = counted(|| engine.run(q));
        assert!(matches!(r.answer, Answer::Reach { .. }), "{r:?}");
        searched += usize::from(r.visits > 0);
        assert_eq!(
            delta, 0,
            "a warm reach Engine::run allocated {delta} times: {q:?}"
        );
    }
    assert!(searched > 0, "no pair reached the landmark search");

    // Reach on the index directly, through one warm scratch.
    let mut scratch = ReachScratch::default();
    for &(s, t) in &pairs {
        idx.query_with(s, t, &mut scratch);
    }
    for &(s, t) in &pairs {
        let (delta, warm) = counted(|| idx.query_with(s, t, &mut scratch));
        assert_eq!(warm, idx.query(s, t));
        assert_eq!(
            delta, 0,
            "a warm query_with allocated {delta} times: {s:?} -> {t:?}"
        );
    }

    // One answer line, one allocation, whatever the number of matches.
    for n in [0u32, 1, 60] {
        let answer = Answer::Pattern {
            matches: (0..n).map(|i| NodeId(u32::MAX - 7 * i)).collect(),
            gq_size: 12_345,
            gq_nodes: 678,
            hit_budget: n % 2 == 0,
        };
        let (delta, line) = counted(|| answer_to_line(&answer));
        assert!(line.starts_with("pattern 12345 678 "), "{line}");
        assert_eq!(
            delta, 1,
            "answer_to_line with {n} matches allocated {delta} times"
        );
    }

    // A 4-node pattern line parses into exactly the pattern's own buffers.
    let line = (0..200u64)
        .filter_map(|s| extract_pattern(&g, PatternSpec::new(4, 6), s))
        .find(|p| p.node_count() == 4 && p.edge_count() > 0)
        .map(|pattern| Query::PatternSim { pattern }.to_line().unwrap())
        .expect("no extractable 4-node pattern");
    let (delta, parsed) = counted(|| Query::parse_line(&line));
    let parsed = parsed.unwrap();
    assert!(delta <= 5, "parsing {line:?} allocated {delta} times");
    assert_eq!(parsed.to_line().unwrap(), line);
}
