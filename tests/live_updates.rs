//! Differential proptests for live updates: an engine (or router) that
//! ingests a [`DeltaBatch`] in place must serve exactly what a fresh
//! engine (or router) built from scratch on the post-delta graph serves —
//! answers, visit counts, denial masks, and the schedule-independent
//! statistics, byte for byte, on a cold *and* a warm reduction cache.
//!
//! The warm-cache leg is the mutation-safety claim: the live engine's
//! cache is full of pre-delta entries when the batch lands, and the only
//! acceptable behaviours are "evicted" or "unreachable by generation" —
//! never "served stale".

use proptest::prelude::*;
use rbq_engine::{Engine, EngineConfig, Query, QueryResult};
use rbq_graph::{DeltaBatch, Graph, GraphBuilder, NodeId};
use rbq_pattern::PatternBuilder;
use rbq_router::{LabelHashPartitioner, Partitioner, Router};
use std::sync::Arc;

/// The shipped policy plus adversarial ones: `Router(k) ≡ Engine(1)` is a
/// claim about every routing function, not just the label hash.
struct Policy(fn(&str, usize) -> usize);
impl Partitioner for Policy {
    fn shard(&self, label: &str, shards: usize) -> usize {
        (self.0)(label, shards)
    }
}
const POLICIES: [&dyn Partitioner; 4] = [
    &LabelHashPartitioner,
    &Policy(|_, _| 0),
    &Policy(|label, _| label.len()),
    // Always ≥ k: only the router's `mod k` keeps it an index.
    &Policy(|label, k| k + label.len()),
];

/// A random digraph with node 0 relabeled to the unique anchor `"ME"`,
/// the rest over `L0..L3`. Small, because the router differential builds
/// `2 × |k| × |policies|` full index sets per case.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..14).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u8..4, n - 1);
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 2);
        (labels, edges).prop_map(move |(labels, edges)| {
            let mut b = GraphBuilder::new();
            b.add_node("ME");
            for l in &labels {
                b.add_node(&format!("L{l}"));
            }
            for &(u, v) in &edges {
                b.add_edge(NodeId(u), NodeId(v));
            }
            b.build()
        })
    })
}

/// Raw delta material: labels for up to two new nodes (`L4` is a label the
/// pre-delta graph never interned) and edge ops whose endpoints are taken
/// modulo the post-add node count, so every generated batch is valid.
type DeltaSpec = (Vec<u8>, Vec<(bool, u32, u32)>);

fn arb_delta() -> impl Strategy<Value = DeltaSpec> {
    (
        proptest::collection::vec(0u8..5, 0..3),
        proptest::collection::vec((prop::bool::ANY, 0u32..64, 0u32..64), 1..8),
    )
}

fn build_batch(n: usize, spec: &DeltaSpec) -> DeltaBatch {
    let (new_nodes, ops) = spec;
    let mut b = DeltaBatch::new();
    for &l in new_nodes {
        b.add_node(&format!("L{l}"));
    }
    let total = (n + new_nodes.len()) as u32;
    for &(add, x, y) in ops {
        let (u, v) = (NodeId(x % total), NodeId(y % total));
        if add {
            b.add_edge(u, v);
        } else {
            b.remove_edge(u, v);
        }
    }
    b
}

/// Raw query material: kind selector plus two operands. Reach endpoints
/// are taken modulo the pre-delta node count (valid before and after the
/// batch); patterns are one- or two-hop chains anchored at `ME` with
/// labels from `L0..L3`, alternating simulation and isomorphism.
type QuerySpec = (u8, u32, u32, bool);

fn arb_queries() -> impl Strategy<Value = Vec<QuerySpec>> {
    proptest::collection::vec((0u8..6, 0u32..64, 0u32..64, prop::bool::ANY), 1..7)
}

fn build_queries(n: usize, specs: &[QuerySpec]) -> Vec<Query> {
    specs
        .iter()
        .map(|&(kind, a, b, fwd)| match kind % 3 {
            0 => Query::Reach {
                source: NodeId(a % n as u32),
                target: NodeId(b % n as u32),
            },
            k => {
                let mut pb = PatternBuilder::new();
                let me = pb.add_node("ME");
                let u = pb.add_node(&format!("L{}", a % 4));
                if fwd {
                    pb.add_edge(me, u);
                } else {
                    pb.add_edge(u, me);
                }
                let mut out = u;
                if b % 2 == 0 {
                    let w = pb.add_node(&format!("L{}", b % 4));
                    pb.add_edge(u, w);
                    out = w;
                }
                pb.personalized(me).output(out);
                let pattern = pb.build();
                if k == 1 {
                    Query::PatternSim { pattern }
                } else {
                    Query::PatternIso { pattern }
                }
            }
        })
        .collect()
}

/// Rebuild the post-delta graph from scratch through the CSR builder — no
/// overlay rows, no inherited interner order beyond node order.
fn rebuild_from_scratch(g: &Graph) -> Graph {
    let mut b = GraphBuilder::new();
    for v in g.nodes() {
        b.add_node(g.node_label_str(v));
    }
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    b.build()
}

/// Answers and visit counts must be byte-identical; `cached` is
/// explicitly schedule-dependent and excluded (see [`QueryResult`]).
fn assert_results_eq(
    live: &[QueryResult],
    fresh: &[QueryResult],
    leg: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(live.len(), fresh.len());
    for (i, (l, f)) in live.iter().zip(fresh).enumerate() {
        prop_assert_eq!(
            &l.answer,
            &f.answer,
            "{} answer diverged at query {}",
            leg,
            i
        );
        prop_assert_eq!(l.visits, f.visits, "{} visits diverged at query {}", leg, i);
    }
    Ok(())
}

/// The schedule-independent slice of [`rbq_engine::EngineStats`]
/// (latencies are wall-clock and excluded; cache hit/miss splits are
/// compared because both sides run the same batch sequence from cold).
fn stat_key(s: &rbq_engine::EngineStats) -> [usize; 11] {
    [
        s.queries,
        s.reach.queries,
        s.reach.visits,
        s.sim.queries,
        s.sim.visits,
        s.iso.queries,
        s.iso.visits,
        s.errors,
        s.denied,
        s.charged_visits,
        s.total_visits,
    ]
}

fn engine_config(aggregate: Option<usize>) -> EngineConfig {
    EngineConfig {
        threads: 1,
        aggregate_visit_budget: aggregate,
        ..EngineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Engine::apply_deltas` ≡ fresh rebuild: after ingesting a batch,
    /// the live engine answers every query — cold cache and warm —
    /// exactly like a fresh engine on the from-scratch post-delta graph.
    #[test]
    fn engine_apply_deltas_matches_fresh_rebuild(
        g in arb_graph(),
        delta in arb_delta(),
        specs in arb_queries(),
        aggregate in 0usize..500,
    ) {
        let n = g.node_count();
        let batch = build_batch(n, &delta);
        let queries = build_queries(n, &specs);
        // Low draws mean "no aggregate budget" (the vendored proptest has
        // no Option strategy); the rest exercise settlement and denials.
        let cfg = engine_config((aggregate >= 50).then_some(aggregate));

        let live = Engine::new(Arc::new(g.clone()), cfg.clone());
        // Warm the pre-delta cache so stale entries exist when the batch
        // lands, then check the warm answers are at least self-consistent.
        let pre_cold = live.run_batch(&queries);
        let pre_warm = live.run_batch(&queries);
        assert_results_eq(&pre_cold.results, &pre_warm.results, "pre-delta warm")?;

        let (g2, report) = g.apply_delta(&batch).expect("valid batch");
        let live_report = live.apply_deltas(&batch).expect("valid batch");
        prop_assert_eq!(&live_report.touched_labels, &report.touched_labels);
        prop_assert_eq!(live.graph().node_count(), g2.node_count());
        prop_assert_eq!(live.graph().edge_count(), g2.edge_count());

        let fresh = Engine::new(Arc::new(rebuild_from_scratch(&g2)), cfg);
        let post_cold = live.run_batch(&queries);
        let fresh_cold = fresh.run_batch(&queries);
        assert_results_eq(&post_cold.results, &fresh_cold.results, "post-delta cold")?;
        prop_assert_eq!(stat_key(&post_cold.stats), stat_key(&fresh_cold.stats));

        let post_warm = live.run_batch(&queries);
        let fresh_warm = fresh.run_batch(&queries);
        assert_results_eq(&post_warm.results, &fresh_warm.results, "post-delta warm")?;
        prop_assert_eq!(stat_key(&post_warm.stats), stat_key(&fresh_warm.stats));
    }

    /// Two stacked batches: generations compose, and the live engine still
    /// matches a fresh rebuild of the twice-mutated graph.
    #[test]
    fn engine_stacked_deltas_match_fresh_rebuild(
        g in arb_graph(),
        d1 in arb_delta(),
        d2 in arb_delta(),
        specs in arb_queries(),
    ) {
        let n = g.node_count();
        let b1 = build_batch(n, &d1);
        let queries = build_queries(n, &specs);
        let cfg = engine_config(None);

        let live = Engine::new(Arc::new(g.clone()), cfg.clone());
        live.run_batch(&queries); // warm gen-0 cache
        live.apply_deltas(&b1).expect("valid batch");
        live.run_batch(&queries); // warm gen-1 cache

        let (g1, _) = g.apply_delta(&b1).expect("valid batch");
        let b2 = build_batch(g1.node_count(), &d2);
        live.apply_deltas(&b2).expect("valid batch");
        let (g2, _) = g1.apply_delta(&b2).expect("valid batch");
        prop_assert_eq!(live.generation(), 2);

        let fresh = Engine::new(Arc::new(rebuild_from_scratch(&g2)), cfg);
        for leg in ["stacked cold", "stacked warm"] {
            assert_results_eq(
                &live.run_batch(&queries).results,
                &fresh.run_batch(&queries).results,
                leg,
            )?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Router::apply_deltas` ≡ fresh router: for every shard count and
    /// routing policy, the live router after a batch routes and answers
    /// exactly like a `Router::new` on the rebuilt graph.
    #[test]
    fn router_apply_deltas_matches_fresh_router(
        g in arb_graph(),
        delta in arb_delta(),
        specs in arb_queries(),
        aggregate in 0usize..500,
    ) {
        let n = g.node_count();
        let batch = build_batch(n, &delta);
        let queries = build_queries(n, &specs);
        let cfg = engine_config((aggregate >= 50).then_some(aggregate));
        let (g2, _) = g.apply_delta(&batch).expect("valid batch");
        let rebuilt = Arc::new(rebuild_from_scratch(&g2));

        for (pi, p) in POLICIES.into_iter().enumerate() {
            for k in [1usize, 2, 3, 8] {
                let mut live = Router::new(Arc::new(g.clone()), cfg.clone(), k, p)
                    .expect("router builds");
                live.run_batch(&queries); // warm pre-delta shard caches
                live.apply_deltas(&batch).expect("valid batch");

                let fresh = Router::new(rebuilt.clone(), cfg.clone(), k, p)
                    .expect("router builds");
                for q in &queries {
                    prop_assert_eq!(
                        live.route(q), fresh.route(q),
                        "routing diverged (policy {}, k={})", pi, k
                    );
                }
                let leg = format!("router policy {pi} k={k}");
                let (lr, fr) = (live.run_batch(&queries), fresh.run_batch(&queries));
                assert_results_eq(&lr.results, &fr.results, &leg)?;
                prop_assert_eq!(stat_key(&lr.stats), stat_key(&fr.stats));
                let (lw, fw) = (live.run_batch(&queries), fresh.run_batch(&queries));
                assert_results_eq(&lw.results, &fw.results, &format!("{leg} warm"))?;
            }
        }
    }
}
