//! The reduction cache's canonical-form memo, case by case: isomorphic
//! twins share an entry, near-twins never do, an unresolvable pattern is
//! never cached, and a repeat after a delta recomputes. Thread-count
//! invariance, the aggregate budget and cache transparency on random
//! workloads are `tests/model.rs`'s.

use rbq_engine::{Answer, BudgetSpec, Engine, EngineConfig, Query};
use std::sync::Arc;

/// Isomorphic reorderings of the same pattern share a cache entry and an
/// answer (the canonical-signature guarantee, end to end).
#[test]
fn isomorphic_queries_share_cache_and_answer() {
    let base = memo_pattern(&["ME", "A", "B"], &[(0, 1), (1, 2), (0, 2)], 2);
    let twin = memo_pattern(&["ME", "B", "A"], &[(0, 2), (2, 1), (0, 1)], 1);
    let engine = Engine::new(memo_graph(), exact_cfg(64));
    let first = engine.run(&Query::PatternSim { pattern: base });
    let second = engine.run(&Query::PatternSim { pattern: twin });
    assert!(!first.cached);
    assert!(second.cached, "isomorphic twin should hit the cache");
    assert!(matches!(&first.answer, Answer::Pattern { matches, .. } if !matches.is_empty()));
    assert_eq!(first.answer, second.answer);
    assert_eq!(engine.cache_len(), 1);
}

/// A hand-built graph around one `ME` node whose neighbours carry labels
/// chosen to straddle both pattern encodings: the signature's textual
/// `len:label,` joins and the memo key's binary length prefixes.
fn memo_graph() -> Arc<rbq_graph::Graph> {
    let mut b = rbq_graph::GraphBuilder::new();
    let me = b.add_node("ME");
    let a = b.add_node("A");
    let bb = b.add_node("B");
    b.add_edge(me, a);
    b.add_edge(me, bb);
    b.add_edge(a, bb);
    for odd in ["A,B", "A\u{1}B", "1:A"] {
        let v = b.add_node(odd);
        b.add_edge(me, v);
    }
    let c_out = b.add_node("C");
    let c_in = b.add_node("C");
    b.add_edge(me, c_out);
    b.add_edge(c_in, me);
    Arc::new(b.build())
}

/// A pattern over `labels` (node 0 personalized) with the given edges and
/// output node.
fn memo_pattern(labels: &[&str], edges: &[(usize, usize)], out: usize) -> rbq_pattern::Pattern {
    let mut b = rbq_pattern::PatternBuilder::new();
    let ids: Vec<_> = labels.iter().map(|l| b.add_node(l)).collect();
    for &(u, v) in edges {
        b.add_edge(ids[u], ids[v]);
    }
    b.personalized(ids[0]).output(ids[out]);
    b.build()
}

fn exact_cfg(cache_capacity: usize) -> EngineConfig {
    EngineConfig {
        pattern_budget: BudgetSpec::Ratio(1.0),
        reach_alpha: 1.0,
        threads: 1,
        cache_capacity,
        ..Default::default()
    }
}

/// The memo never aliases: near-twin patterns — differing only in `u_o`,
/// only in one edge's direction, or only in where label bytes fall against
/// the encodings' delimiters and length prefixes — each get their own
/// answer, cold and from the cache, equal to a cacheless engine's.
#[test]
fn memo_keeps_near_twin_patterns_apart() {
    let chain = |out| memo_pattern(&["ME", "A", "B"], &[(0, 1), (1, 2)], out);
    let split = memo_pattern(&["ME", "A", "B"], &[(0, 1), (0, 2)], 1);
    let joined = |label| memo_pattern(&["ME", label], &[(0, 1)], 1);
    let pairs = [
        ("u_o", chain(1), chain(2)),
        (
            "edge direction",
            memo_pattern(&["ME", "C"], &[(0, 1)], 1),
            memo_pattern(&["ME", "C"], &[(1, 0)], 1),
        ),
        ("delimiter in a label", joined("A,B"), split.clone()),
        (
            "length-prefix byte in a label",
            joined("A\u{1}B"),
            split.clone(),
        ),
        ("textual length prefix in a label", joined("1:A"), split),
    ];
    let g = memo_graph();
    let warm = Engine::new(g.clone(), exact_cfg(64));
    let cold = Engine::new(g, exact_cfg(0));
    for round in 0..2 {
        for (what, p, q) in &pairs {
            for sim in [true, false] {
                let query = |pattern: &rbq_pattern::Pattern| {
                    let pattern = pattern.clone();
                    if sim {
                        Query::PatternSim { pattern }
                    } else {
                        Query::PatternIso { pattern }
                    }
                };
                let (rp, rq) = (warm.run(&query(p)), warm.run(&query(q)));
                assert!(rp.answer.is_ok() && rq.answer.is_ok(), "{what}");
                assert_ne!(rp.answer, rq.answer, "{what}: twins share an answer");
                assert_eq!(rp.answer, cold.run(&query(p)).answer, "{what}");
                assert_eq!(rq.answer, cold.run(&query(q)).answer, "{what}");
                if round == 1 {
                    assert!(rp.cached && rq.cached, "{what}: repeat missed");
                }
            }
        }
    }
}

/// The memo never hides an error: an unresolvable pattern is memoised (its
/// canonical form does not depend on the graph) but never cached, never
/// counted as a miss, and still an error on every repeat.
#[test]
fn unknown_label_stays_an_uncached_error() {
    let engine = Engine::new(memo_graph(), exact_cfg(64));
    let q = Query::PatternSim {
        pattern: memo_pattern(&["ME", "NoSuchLabel"], &[(0, 1)], 1),
    };
    for _ in 0..3 {
        let r = engine.run(&q);
        assert!(matches!(r.answer, Answer::Error(_)));
        assert!(!r.cached);
        assert_eq!(engine.cache_len(), 0);
    }
    let stats = engine.stats();
    assert_eq!(
        (stats.errors, stats.cache_misses, stats.cache_hits),
        (3, 0, 0)
    );
}

/// A repeat after `apply_deltas` reuses the memoised canonical form but
/// not the answer: it misses (new generation) and equals what a fresh
/// engine computes on the post-delta graph.
#[test]
fn repeat_after_delta_recomputes_on_the_new_graph() {
    let q = Query::PatternSim {
        pattern: memo_pattern(&["ME", "A", "B"], &[(0, 1), (1, 2)], 2),
    };
    let engine = Engine::new(memo_graph(), exact_cfg(64));
    let before = engine.run(&q);
    assert!(engine.run(&q).cached);

    let mut batch = rbq_graph::DeltaBatch::new();
    batch.remove_edge(rbq_graph::NodeId(1), rbq_graph::NodeId(2)); // A -> B
    engine.apply_deltas(&batch).unwrap();
    let after = engine.run(&q);
    assert!(!after.cached, "a new generation must miss");
    assert_ne!(before.answer, after.answer, "the delta severed the match");

    let (g2, _) = memo_graph().apply_delta(&batch).unwrap();
    let fresh = Engine::new(Arc::new(g2), exact_cfg(64)).run(&q);
    assert_eq!((after.answer, after.visits), (fresh.answer, fresh.visits));
    assert!(
        engine.run(&q).cached,
        "and is cached again at the new generation"
    );
}
