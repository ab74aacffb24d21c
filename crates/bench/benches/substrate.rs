//! Micro-benchmarks of the graph substrate: the operations every
//! experiment bottoms out in (BFS, SCC, condensation, neighborhood balls,
//! dynamic subgraph growth, adjacency rows read through a delta overlay).

use criterion::{criterion_group, criterion_main, Criterion};
use rbq_graph::traverse::{bfs, reaches};
use rbq_graph::types::Direction;
use rbq_graph::{BallScratch, DeltaBatch, DynamicSubgraph, Graph, GraphView, NodeId};
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
    // Every node's out- and in-row read once, on a graph whose stacked
    // deltas touch about half its nodes per direction (13.6k random edge
    // adds, under the auto-compaction threshold of |E| / 4) and on its
    // compaction: the pair prices an overlay row lookup against a CSR one.
    let mut overlaid = g.clone();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let n = g.node_count() as u64;
    for _ in 0..4 {
        let mut d = DeltaBatch::new();
        for _ in 0..3_400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            d.add_edge(NodeId((x % n) as u32), NodeId(((x >> 32) % n) as u32));
        }
        overlaid = overlaid.apply_delta(&d).unwrap().0;
    }
    assert!(
        overlaid.is_overlaid(),
        "the deltas stay under the threshold"
    );
    let compacted = overlaid.compact();
    group.bench_function("overlay_rows_scan", |b| {
        b.iter(|| black_box(scan_rows(&overlaid)))
    });
    group.bench_function("compact_rows_scan", |b| {
        b.iter(|| black_box(scan_rows(&compacted)))
    });
    group.finish();
}

/// Sum of every out- and in-neighbour id over all nodes.
fn scan_rows(g: &Graph) -> u64 {
    g.nodes()
        .flat_map(|v| g.out(v).iter().chain(g.inn(v)))
        .map(|w| u64::from(w.0))
        .sum()
}

criterion_group!(benches, substrate);
criterion_main!(benches);
