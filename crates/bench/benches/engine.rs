//! Criterion benches for the mixed-workload engine: batch throughput
//! across thread counts and across replica counts, the reduction cache's
//! effect on repeated traffic, and the cost of a single cache hit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbq_core::NeighborIndex;
use rbq_engine::{BudgetSpec, Engine, EngineConfig, Query};
use rbq_graph::labels::stable_hash;
use rbq_reach::HierarchicalIndex;
use rbq_workload::{
    extract_pattern, sample_mixed_workload, youtube_like, MixedWorkloadSpec, PatternSpec,
};
use std::hint::black_box;
use std::sync::Arc;

type Shared = (
    Arc<rbq_graph::Graph>,
    Arc<NeighborIndex>,
    Arc<HierarchicalIndex>,
    Vec<Query>,
);

/// Both offline indexes are pre-built and shared into every engine so the
/// timed region contains only scheduling, cache and evaluation work.
fn setup() -> Shared {
    let g = Arc::new(youtube_like(10_000, 42));
    let idx = Arc::new(NeighborIndex::build(&g));
    let reach = Arc::new(HierarchicalIndex::build(&g, 0.05));
    let queries = sample_mixed_workload(
        &g,
        &MixedWorkloadSpec {
            count: 100,
            repeat_fraction: 0.4,
            ..Default::default()
        },
        42,
    );
    (g, idx, reach, queries)
}

fn cfg(threads: usize, cache: usize) -> EngineConfig {
    EngineConfig {
        pattern_budget: BudgetSpec::Units(300),
        reach_alpha: 0.05,
        threads,
        cache_capacity: cache,
        ..Default::default()
    }
}

/// Batch throughput vs worker count (fresh cache per engine, shared
/// pre-built indexes so only scheduling is measured).
fn engine_threads(c: &mut Criterion) {
    let (g, idx, reach, queries) = setup();
    let mut group = c.benchmark_group("engine_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let engine = Engine::with_indexes(
                        g.clone(),
                        cfg(threads, 1024),
                        Some(idx.clone()),
                        Some(reach.clone()),
                    );
                    black_box(engine.run_batch(&queries))
                })
            },
        );
    }
    group.finish();
}

/// The same batch and the same 4 threads over `k` replicas routed by label
/// hash, as a router runs it: what `k` caches buy (or cost) over one. Cold
/// builds the replicas inside the timed region, as `engine_threads` does.
fn engine_shards(c: &mut Criterion) {
    let (g, idx, reach, queries) = setup();
    let route = |q: &Query| match q {
        Query::Reach { source, .. } => stable_hash(g.node_label_str(*source)) as usize,
        Query::PatternSim { pattern } | Query::PatternIso { pattern } => {
            stable_hash(pattern.label_str(pattern.personalized())) as usize
        }
    };
    let replicas = |k: usize| {
        let lead = Engine::with_indexes(
            g.clone(),
            cfg(4, 1024),
            Some(idx.clone()),
            Some(reach.clone()),
        );
        let followers: Vec<Engine> = (1..k).map(|_| lead.replica()).collect();
        (lead, followers)
    };
    let mut group = c.benchmark_group("engine_shards");
    group.sample_size(10);
    for k in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("cold", k), &k, |b, &k| {
            b.iter(|| {
                let (lead, followers) = replicas(k);
                black_box(lead.run_batch_shared(&queries, &followers, &route))
            })
        });
        let (lead, followers) = replicas(k);
        lead.run_batch_shared(&queries, &followers, &route);
        group.bench_with_input(BenchmarkId::new("warm", k), &k, |b, _| {
            b.iter(|| black_box(lead.run_batch_shared(&queries, &followers, &route)))
        });
    }
    group.finish();
}

/// Cache effect: cold engine vs warm engine vs cache disabled, single
/// thread so the delta is the cache alone.
fn engine_cache(c: &mut Criterion) {
    let (g, idx, reach, queries) = setup();
    let mut group = c.benchmark_group("engine_cache");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let engine = Engine::with_indexes(
                g.clone(),
                cfg(1, 1024),
                Some(idx.clone()),
                Some(reach.clone()),
            );
            black_box(engine.run_batch(&queries))
        })
    });
    group.bench_function("disabled", |b| {
        b.iter(|| {
            let engine =
                Engine::with_indexes(g.clone(), cfg(1, 0), Some(idx.clone()), Some(reach.clone()));
            black_box(engine.run_batch(&queries))
        })
    });
    let warm = Engine::with_indexes(
        g.clone(),
        cfg(1, 1024),
        Some(idx.clone()),
        Some(reach.clone()),
    );
    warm.run_batch(&queries);
    group.bench_function("warm", |b| b.iter(|| black_box(warm.run_batch(&queries))));
    group.finish();
}

/// The hit path alone: one pass of `Engine::run` over 512 patterns a warm
/// engine has all cached — memo probe, answer probe, one copy of the
/// matches. Divide by 512 for the per-hit cost.
fn engine_hit_path(c: &mut Criterion) {
    let (g, idx, reach, _) = setup();
    let queries: Vec<Query> = (0u64..)
        .filter_map(|seed| extract_pattern(&g, PatternSpec::new(4, 8), seed))
        .filter(|p| p.resolve(&g).is_ok())
        .take(512)
        .map(|pattern| Query::PatternSim { pattern })
        .collect();
    let engine = Engine::with_indexes(g, cfg(1, 1024), Some(idx), Some(reach));
    engine.run_batch(&queries);
    let mut group = c.benchmark_group("engine_hit_path");
    group.bench_function("512_repeats", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(engine.run(q));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    engine_threads,
    engine_shards,
    engine_cache,
    engine_hit_path
);
criterion_main!(benches);
