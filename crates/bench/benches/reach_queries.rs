//! Criterion benches for the reachability experiments (Fig. 8(k)-(p)):
//! per-query latency of RBReach against BFS / BFSOPT / LM, plus offline
//! index construction costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbq_bench::ExpConfig;
use rbq_reach::{bfs_query, BfsOptIndex, HierarchicalIndex, LandmarkVectors};
use rbq_workload::{sample_hard_reachability_queries, youtube_like};
use std::hint::black_box;

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

/// Offline construction costs (excluded from query budgets, §3 Remarks),
/// at the historical 10k size and at the benchmark corpus's 100k.
fn index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    for nodes in [10_000usize, 100_000] {
        let g = youtube_like(nodes, 42);
        group.bench_with_input(BenchmarkId::new("RBIndex[0.02]", nodes), &g, |b, g| {
            b.iter(|| black_box(HierarchicalIndex::build(g, 0.02)))
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

criterion_group!(benches, reach_alpha, index_build);
criterion_main!(benches);
