//! Criterion benches for the dynamic-reduction core (`Search`/`Pick`,
//! Fig. 3): both matching semantics (simulation for RBSim, isomorphism for
//! RBSub, whose guard runs the Hall check), every `PickPolicy`, a spread of
//! resource ratios α, and scratch reuse vs fresh construction per query.
//! The scratch rows are the steady-state serving configuration
//! (`rbq_engine` holds one `ReductionScratch` per worker); the fresh rows
//! pay the former per-query setup cost and bound what reuse buys.

use criterion::{criterion_group, criterion_main, Criterion};
use rbq_bench::{ExpConfig, PatternDataset};
use rbq_core::guard::Semantics;
use rbq_core::{
    search_reduced_graph_scratch, search_reduced_graph_with, PickPolicy, ReductionConfig,
    ReductionScratch, ResourceBudget,
};
use rbq_workload::PatternSpec;
use std::hint::black_box;

fn bench_cfg() -> ExpConfig {
    ExpConfig {
        snapshot_nodes: 20_000,
        ..Default::default()
    }
}

fn reduction_20k(c: &mut Criterion) {
    let cfg = bench_cfg();
    let ds = PatternDataset::youtube(&cfg);
    let qs = ds.patterns_min_nbh(PatternSpec::new(4, 8), 4, cfg.seed, 300);
    assert!(!qs.is_empty(), "no patterns extracted");
    let mut group = c.benchmark_group("reduction_20k");
    group.sample_size(10);
    for semantics in [Semantics::Simulation, Semantics::Isomorphism] {
        for policy in [PickPolicy::Weighted, PickPolicy::Fifo, PickPolicy::Random] {
            for alpha in [0.01f64, 0.1, 0.5] {
                let budget = ResourceBudget::from_ratio(&*ds.g, alpha);
                let config = ReductionConfig {
                    pick_policy: policy,
                    ..Default::default()
                };
                let row = format!("search/{semantics:?}/{policy:?}/a{alpha}");
                let mut scratch = ReductionScratch::new();
                group.bench_function(format!("{row}/scratch"), |b| {
                    b.iter(|| {
                        for q in &qs {
                            let out = search_reduced_graph_scratch(
                                &ds.g,
                                &ds.idx,
                                q,
                                &budget,
                                semantics,
                                config,
                                &mut scratch,
                            );
                            black_box(&out.visits);
                            scratch.recycle(out.gq);
                        }
                    })
                });
                group.bench_function(format!("{row}/fresh"), |b| {
                    b.iter(|| {
                        for q in &qs {
                            let out = search_reduced_graph_with(
                                &ds.g, &ds.idx, q, &budget, semantics, config,
                            );
                            black_box(&out.visits);
                        }
                    })
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, reduction_20k);
criterion_main!(benches);
