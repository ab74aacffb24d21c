//! Criterion benches for the matching core on the 20k-node Youtube-like
//! mixed-workload substitute: full-graph dual simulation, the per-ball
//! MatchOpt baseline, strong simulation (one fixpoint on `N_dQ(v_p)`) on
//! the full graph, and strong simulation on each pattern's `G_Q` at
//! α = 0.001 through one warm scratch — the shape RBSim serves. (End-to-end
//! tracking is `benchmark/`'s `pattern-miss` workload.)

use criterion::{criterion_group, criterion_main, Criterion};
use rbq_bench::{ExpConfig, PatternDataset};
use rbq_core::guard::Semantics;
use rbq_core::{search_reduced_graph, ResourceBudget};
use rbq_pattern::{
    dual_simulation, match_opt, strong_simulation, strong_simulation_on_view_with, StrongSimScratch,
};
use rbq_workload::PatternSpec;
use std::hint::black_box;

fn bench_cfg() -> ExpConfig {
    ExpConfig {
        snapshot_nodes: 20_000,
        ..Default::default()
    }
}

fn dualsim_20k(c: &mut Criterion) {
    let cfg = bench_cfg();
    let ds = PatternDataset::youtube(&cfg);
    let qs = ds.patterns_min_nbh(PatternSpec::new(4, 8), 4, cfg.seed, 300);
    assert!(!qs.is_empty(), "no patterns extracted");
    let mut group = c.benchmark_group("dualsim_20k");
    group.sample_size(10);
    group.bench_function("dual_simulation_full", |b| {
        b.iter(|| {
            for q in &qs {
                black_box(dual_simulation(q, &*ds.g, None));
            }
        })
    });
    group.bench_function("match_opt", |b| {
        b.iter(|| {
            for q in &qs {
                black_box(match_opt(q, &*ds.g));
            }
        })
    });
    group.bench_function("strong_simulation", |b| {
        b.iter(|| {
            for q in &qs {
                black_box(strong_simulation(q, &*ds.g));
            }
        })
    });
    let budget = ResourceBudget::from_ratio(&*ds.g, 0.001);
    let gqs: Vec<_> = qs
        .iter()
        .map(|q| search_reduced_graph(&ds.g, &ds.idx, q, &budget, Semantics::Simulation).gq)
        .collect();
    let (mut scratch, mut out) = (StrongSimScratch::new(), Vec::new());
    group.bench_function("strong_simulation_gq", |b| {
        b.iter(|| {
            for (q, gq) in qs.iter().zip(&gqs) {
                strong_simulation_on_view_with(q, gq, &mut scratch, &mut out);
                black_box(&out);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, dualsim_20k);
criterion_main!(benches);
