//! Criterion benches for the reachability experiments (Fig. 8(k)-(p)):
//! per-query latency of RBReach against BFS / BFSOPT / LM, plus offline
//! index construction costs. `RBReach` is the public one-shot `query` (a
//! fresh scratch per query); `RBReach_warm` runs the same pairs through one
//! reused `ReachScratch`, as a serving worker does. `RBReach_hub` runs warm
//! pairs seeded at the index's hub — the landmark with the longest
//! expansion list — on the benchmark corpus's 100k scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbq_bench::ExpConfig;
use rbq_engine::{Engine, EngineConfig};
use rbq_graph::NodeId;
use rbq_reach::{bfs_query, BfsOptIndex, HierarchicalIndex, LandmarkVectors, ReachScratch};
use rbq_workload::{sample_hard_reachability_queries, youtube_like};
use std::hint::black_box;
use std::sync::Arc;

/// Fig. 8(k): query latency at three α points vs baselines.
fn reach_alpha(c: &mut Criterion) {
    let cfg = ExpConfig {
        snapshot_nodes: 10_000,
        ..Default::default()
    };
    let g = youtube_like(cfg.snapshot_nodes, cfg.seed);
    let queries = sample_hard_reachability_queries(&g, 50, 0.5, cfg.seed);
    let mut group = c.benchmark_group("reach_alpha");
    group.sample_size(20);
    for alpha in [0.005f64, 0.02, 0.05] {
        let idx = HierarchicalIndex::build(&g, alpha);
        group.bench_with_input(BenchmarkId::new("RBReach", alpha), &idx, |b, idx| {
            b.iter(|| {
                for &(s, t) in &queries {
                    black_box(idx.query(s, t).reachable);
                }
            })
        });
        let mut scratch = ReachScratch::default();
        group.bench_with_input(BenchmarkId::new("RBReach_warm", alpha), &idx, |b, idx| {
            b.iter(|| {
                for &(s, t) in &queries {
                    black_box(idx.query_with(s, t, &mut scratch).reachable);
                }
            })
        });
    }
    let bfsopt = BfsOptIndex::build(&g);
    group.bench_function("BFSOPT", |b| {
        b.iter(|| {
            for &(s, t) in &queries {
                black_box(bfsopt.query(s, t));
            }
        })
    });
    let lm = LandmarkVectors::build(&g, cfg.seed);
    group.bench_function("LM", |b| {
        b.iter(|| {
            for &(s, t) in &queries {
                black_box(lm.query(s, t));
            }
        })
    });
    group.sample_size(10);
    group.bench_function("BFS", |b| {
        b.iter(|| {
            for &(s, t) in &queries {
                black_box(bfs_query(&g, s, t).0);
            }
        })
    });
    group.finish();
}

/// Queries seeded at the hub: a search that expands the landmark with the
/// most targets, of which it pops a few.
fn reach_hub(c: &mut Criterion) {
    let g = youtube_like(100_000, 42);
    let idx = HierarchicalIndex::build(&g, 0.01);
    let hub = idx.hub().expect("the index has landmarks");
    let hub_node = g.nodes().find(|&v| idx.compressed.map(v) == hub);
    let hub_node: NodeId = hub_node.expect("some node maps to the hub");
    // The hub as source and as target of hard pairs' endpoints; only the
    // pairs that pass the rank test reach the seeding.
    let pairs: Vec<(NodeId, NodeId)> = sample_hard_reachability_queries(&g, 200, 0.5, 42)
        .into_iter()
        .flat_map(|(s, t)| [(hub_node, t), (s, hub_node)])
        .filter(|&(s, t)| idx.query(s, t).visits > 0)
        .collect();
    assert!(!pairs.is_empty(), "no pair is seeded at the hub");
    let mut group = c.benchmark_group("reach_hub");
    group.sample_size(20);
    let mut scratch = ReachScratch::default();
    group.bench_function(BenchmarkId::new("RBReach_hub", pairs.len()), |b| {
        b.iter(|| {
            for &(s, t) in &pairs {
                black_box(idx.query_with(s, t, &mut scratch).reachable);
            }
        })
    });
    group.finish();
}

/// Offline construction costs (excluded from query budgets, §3 Remarks),
/// at the historical 10k size and at the benchmark corpus's 100k, and at
/// the benchmark's α = 0.01. `side_by_side[0.01]` is an engine's cold
/// start: both indexes built at once by [`Engine::build_indexes`].
fn index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    for nodes in [10_000usize, 100_000] {
        let g = Arc::new(youtube_like(nodes, 42));
        for alpha in [0.02, 0.01] {
            let id = BenchmarkId::new(format!("RBIndex[{alpha}]"), nodes);
            group.bench_with_input(id, &g, |b, g| {
                b.iter(|| black_box(HierarchicalIndex::build(g, alpha)))
            });
        }
        let cfg = EngineConfig {
            reach_alpha: 0.01,
            ..Default::default()
        };
        let id = BenchmarkId::new("side_by_side[0.01]", nodes);
        group.bench_with_input(id, &g, |b, g| {
            b.iter(|| {
                let engine = Engine::new(g.clone(), cfg.clone());
                engine.build_indexes();
                black_box(engine)
            })
        });
        group.bench_with_input(BenchmarkId::new("compress", nodes), &g, |b, g| {
            b.iter(|| black_box(rbq_reach::compress_for_reachability(g)))
        });
        group.bench_with_input(BenchmarkId::new("LM_vectors", nodes), &g, |b, g| {
            b.iter(|| black_box(LandmarkVectors::build(g, 42)))
        });
        group.bench_with_input(BenchmarkId::new("NeighborIndex", nodes), &g, |b, g| {
            b.iter(|| black_box(rbq_core::NeighborIndex::build(g)))
        });
    }
    group.finish();
}

criterion_group!(benches, reach_alpha, reach_hub, index_build);
criterion_main!(benches);
