//! Micro-benchmarks of the graph substrate: the operations every
//! experiment bottoms out in (BFS, SCC, condensation, neighborhood balls,
//! dynamic subgraph growth).

use criterion::{criterion_group, criterion_main, Criterion};
use rbq_graph::traverse::{bfs, reaches};
use rbq_graph::types::Direction;
use rbq_graph::{BallScratch, DynamicSubgraph, GraphView, NodeId};
use rbq_workload::youtube_like;
use std::hint::black_box;

fn substrate(c: &mut Criterion) {
    let g = youtube_like(20_000, 42);
    let mut group = c.benchmark_group("substrate");
    group.sample_size(20);

    group.bench_function("bfs_full", |b| {
        b.iter(|| black_box(bfs(&g, NodeId(0), Direction::Out)))
    });
    group.bench_function("reaches_far_pair", |b| {
        b.iter(|| black_box(reaches(&g, NodeId(0), NodeId(19_999))))
    });
    group.bench_function("tarjan_scc", |b| {
        b.iter(|| black_box(rbq_graph::scc::tarjan_scc(&g)))
    });
    group.bench_function("condense", |b| {
        b.iter(|| black_box(rbq_graph::condense::condense(&g)))
    });
    // The warm path every query runs: one scratch, buffers reused per ball.
    let me = rbq_workload::me_node(&g).unwrap();
    let mut scratch = BallScratch::new();
    let mut ball = Vec::new();
    group.bench_function("ball_r2", |b| {
        b.iter(|| {
            scratch.ball_into(&g, me, 2, &mut ball);
            black_box(ball.len())
        })
    });
    group.bench_function("induced_r2", |b| {
        b.iter(|| black_box(DynamicSubgraph::induced(&g, ball.iter().copied()).size()))
    });
    group.bench_function("dynamic_subgraph_grow_500", |b| {
        b.iter(|| {
            let mut d = DynamicSubgraph::new(&g);
            for i in 0..500u32 {
                d.add_node(NodeId(i * 7 % g.node_count() as u32));
            }
            black_box(d.size())
        })
    });
    group.finish();
}

criterion_group!(benches, substrate);
criterion_main!(benches);
