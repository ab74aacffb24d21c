//! Engine-level properties: batch answers are schedule-independent, the
//! aggregate budget is a hard invariant, and the reduction cache is
//! transparent (hits are byte-identical to cold evaluations).

use rbq_engine::{Answer, BudgetSpec, Engine, EngineConfig, Query, QueryClass};
use rbq_workload::{sample_mixed_workload, MixedWorkloadSpec};
use std::sync::Arc;

fn test_graph() -> Arc<rbq_graph::Graph> {
    Arc::new(rbq_workload::youtube_like(2_000, 5))
}

fn test_workload(g: &rbq_graph::Graph, count: usize, seed: u64) -> Vec<Query> {
    sample_mixed_workload(
        g,
        &MixedWorkloadSpec {
            count,
            repeat_fraction: 0.4,
            ..Default::default()
        },
        seed,
    )
}

fn cfg() -> EngineConfig {
    EngineConfig {
        pattern_budget: BudgetSpec::Units(200),
        reach_alpha: 0.1,
        ..Default::default()
    }
}

/// Batch answers and charged visits are identical for 1, 2 and 8 worker
/// threads (the `cached` flag is scheduling-dependent and excluded).
#[test]
fn batch_answers_are_thread_count_invariant() {
    let g = test_graph();
    let queries = test_workload(&g, 60, 9);
    let run = |threads: usize| {
        let engine = Engine::new(g.clone(), EngineConfig { threads, ..cfg() });
        engine.run_batch(&queries)
    };
    let baseline = run(1);
    for threads in [2usize, 8] {
        let report = run(threads);
        assert_eq!(baseline.results.len(), report.results.len());
        for (i, (a, b)) in baseline.results.iter().zip(&report.results).enumerate() {
            assert_eq!(
                a.answer, b.answer,
                "answer {i} diverged at {threads} threads"
            );
            assert_eq!(
                a.visits, b.visits,
                "visits {i} diverged at {threads} threads"
            );
        }
        assert_eq!(
            baseline.stats.charged_visits, report.stats.charged_visits,
            "charged visits diverged at {threads} threads"
        );
        assert_eq!(baseline.stats.denied, report.stats.denied);
    }
}

/// With an aggregate visit budget, the charged visits never exceed it —
/// for any thread count — and denial is deterministic.
#[test]
fn aggregate_visits_never_exceed_aggregate_budget() {
    let g = test_graph();
    let queries = test_workload(&g, 50, 17);

    // Measure the unconstrained cost, then grant half of it.
    let probe = Engine::new(g.clone(), cfg());
    let full = probe.run_batch(&queries).stats.charged_visits;
    assert!(full > 0);
    let aggregate = full / 2;

    let mut denied_pattern: Option<Vec<bool>> = None;
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(
            g.clone(),
            EngineConfig {
                threads,
                aggregate_visit_budget: Some(aggregate),
                ..cfg()
            },
        );
        let report = engine.run_batch(&queries);
        assert!(
            report.stats.charged_visits <= aggregate,
            "{} charged > {} budget at {} threads",
            report.stats.charged_visits,
            aggregate,
            threads
        );
        let delivered_sum: usize = report
            .results
            .iter()
            .filter(|r| r.answer.is_ok())
            .map(|r| r.visits)
            .sum();
        assert_eq!(delivered_sum, report.stats.charged_visits);
        assert!(report.stats.denied > 0, "half budget should deny something");
        let mask: Vec<bool> = report
            .results
            .iter()
            .map(|r| matches!(r.answer, Answer::Denied { .. }))
            .collect();
        match &denied_pattern {
            None => denied_pattern = Some(mask),
            Some(prev) => assert_eq!(prev, &mask, "denial set diverged at {threads} threads"),
        }
    }
}

/// Cache hits are byte-identical to cold-path answers: a warm engine's
/// results equal those of a cache-disabled engine on the same stream.
#[test]
fn cache_hit_answers_are_byte_identical_to_cold_path() {
    let g = test_graph();
    let queries = test_workload(&g, 60, 23);

    let cold = Engine::new(
        g.clone(),
        EngineConfig {
            cache_capacity: 0,
            threads: 1,
            ..cfg()
        },
    );
    let warm = Engine::new(
        g.clone(),
        EngineConfig {
            threads: 1,
            ..cfg()
        },
    );

    // Warm the cache with one pass, then compare the second pass (all
    // repeats now hit) against the cacheless engine.
    warm.run_batch(&queries);
    let warm_report = warm.run_batch(&queries);
    let cold_report = cold.run_batch(&queries);

    let pattern_queries = queries
        .iter()
        .filter(|q| q.class() != QueryClass::Reach)
        .count();
    assert!(pattern_queries > 0);
    assert_eq!(
        warm_report.stats.cache_hits, pattern_queries,
        "second pass should be all hits"
    );
    for (i, (w, c)) in warm_report
        .results
        .iter()
        .zip(&cold_report.results)
        .enumerate()
    {
        assert_eq!(
            w.answer, c.answer,
            "cached answer {i} diverged from cold path"
        );
        assert_eq!(
            w.visits, c.visits,
            "cached visits {i} diverged from cold path"
        );
    }
}

/// Every delivered pattern answer respects the per-query size budget.
#[test]
fn per_query_budgets_respected() {
    let g = test_graph();
    let queries = test_workload(&g, 60, 31);
    let engine = Engine::new(g, cfg());
    let budget = engine.pattern_budget();
    let report = engine.run_batch(&queries);
    let mut pattern_answers = 0usize;
    for r in &report.results {
        if let Answer::Pattern { gq_size, .. } = &r.answer {
            pattern_answers += 1;
            assert!(
                *gq_size <= budget.max_units,
                "|G_Q| = {gq_size} exceeds budget {}",
                budget.max_units
            );
        }
    }
    assert!(pattern_answers > 0);
}

/// Isomorphic reorderings of the same pattern share a cache entry and an
/// answer (the canonical-signature guarantee, end to end).
#[test]
fn isomorphic_queries_share_cache_and_answer() {
    let g = test_graph();
    let base = match test_workload(&g, 40, 41).into_iter().find_map(|q| match q {
        Query::PatternSim { pattern } => Some(pattern),
        _ => None,
    }) {
        Some(p) => p,
        None => return, // workload happened to have no sim queries
    };
    // Rebuild the pattern with nodes listed in reverse order.
    let n = base.node_count();
    let mut b = rbq_pattern::PatternBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|i| b.add_node(base.label_str(rbq_pattern::PNode::new(n - 1 - i))))
        .collect();
    let relabel = |u: rbq_pattern::PNode| ids[n - 1 - u.index()];
    for &(u, v) in base.edges() {
        b.add_edge(relabel(u), relabel(v));
    }
    b.personalized(relabel(base.personalized()));
    b.output(relabel(base.output()));
    let twin = b.build();

    let engine = Engine::new(
        g,
        EngineConfig {
            threads: 1,
            ..cfg()
        },
    );
    let first = engine.run(&Query::PatternSim { pattern: base });
    let second = engine.run(&Query::PatternSim { pattern: twin });
    assert!(!first.cached);
    assert!(second.cached, "isomorphic twin should hit the cache");
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
