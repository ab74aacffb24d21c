//! Criterion benches for the matching core: full-graph dual simulation and
//! the ball-per-center MatchOpt baseline on the 20k-node Youtube-like
//! mixed-workload substitute. These are the dual-simulation-dominated
//! queries: the worklist rewrite of `dual_simulation` and the slice-based
//! `GraphView` land here first. (End-to-end tracking is `benchmark/`'s
//! `pattern-miss` workload.)

use criterion::{criterion_group, criterion_main, Criterion};
use rbq_bench::{ExpConfig, PatternDataset};
use rbq_pattern::{dual_simulation, match_opt, strong_simulation};
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
                black_box(match_opt(q, &ds.g));
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
    group.finish();
}

criterion_group!(benches, dualsim_20k);
criterion_main!(benches);
