//! Criterion benches for the pattern-query experiments (Fig. 8(a)-(j)):
//! per-query latency of RBSim / RBSub against MatchOpt / VF2OPT, across
//! the α sweep and the |Q| sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbq_bench::{ExpConfig, PatternDataset};
use rbq_core::{rbsim, rbsub};
use rbq_pattern::{match_opt, vf2_opt, Vf2Config};
use rbq_workload::PatternSpec;
use std::hint::black_box;

fn bench_cfg() -> ExpConfig {
    ExpConfig {
        snapshot_nodes: 10_000,
        pattern_queries: 3,
        ..Default::default()
    }
}

/// Fig. 8(a)/(c): algorithms at three α points on the Youtube substitute.
fn pattern_alpha(c: &mut Criterion) {
    let cfg = bench_cfg();
    let ds = PatternDataset::youtube(&cfg);
    let qs = ds.patterns(PatternSpec::new(4, 8), cfg.pattern_queries, cfg.seed);
    assert!(!qs.is_empty(), "no patterns extracted");
    let mut group = c.benchmark_group("pattern_alpha");
    group.sample_size(20);
    for paper_alpha in [1.1e-5, 1.6e-5, 2.0e-5] {
        let budget = ds.budget_for_paper_alpha(paper_alpha);
        group.bench_with_input(
            BenchmarkId::new("RBSim", format!("{:.1}e-5", paper_alpha * 1e5)),
            &budget,
            |b, budget| {
                b.iter(|| {
                    for q in &qs {
                        black_box(rbsim(&ds.g, &ds.idx, q, budget));
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("RBSub", format!("{:.1}e-5", paper_alpha * 1e5)),
            &budget,
            |b, budget| {
                b.iter(|| {
                    for q in &qs {
                        black_box(rbsub(&ds.g, &ds.idx, q, budget));
                    }
                })
            },
        );
    }
    group.bench_function("MatchOpt", |b| {
        b.iter(|| {
            for q in &qs {
                black_box(match_opt(q, &*ds.g));
            }
        })
    });
    group.bench_function("VF2OPT", |b| {
        b.iter(|| {
            for q in &qs {
                black_box(vf2_opt(q, &ds.g, Vf2Config::default()));
            }
        })
    });
    group.finish();
}

/// Fig. 8(e): RBSim latency across |Q| sizes.
fn pattern_qsize(c: &mut Criterion) {
    let cfg = bench_cfg();
    let ds = PatternDataset::youtube(&cfg);
    let budget = ds.budget_for_paper_alpha(1e-4);
    let mut group = c.benchmark_group("pattern_qsize");
    group.sample_size(20);
    for n in [4usize, 6, 8] {
        let qs = ds.patterns(PatternSpec::new(n, 2 * n), cfg.pattern_queries, cfg.seed);
        if qs.is_empty() {
            continue;
        }
        group.bench_with_input(BenchmarkId::new("RBSim", n), &qs, |b, qs| {
            b.iter(|| {
                for q in qs {
                    black_box(rbsim(&ds.g, &ds.idx, q, &budget));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("MatchOpt", n), &qs, |b, qs| {
            b.iter(|| {
                for q in qs {
                    black_box(match_opt(q, &*ds.g));
                }
            })
        });
    }
    group.finish();
}

/// Fig. 8(i): RBSim latency across synthetic graph sizes.
fn pattern_scale(c: &mut Criterion) {
    let cfg = bench_cfg();
    let mut group = c.benchmark_group("pattern_scale");
    group.sample_size(10);
    for nodes in [50_000usize, 100_000, 200_000] {
        let ds = PatternDataset::synthetic(nodes, cfg.seed);
        let budget = rbq_core::ResourceBudget::from_ratio(&*ds.g, 3e-4);
        let qs = ds.patterns(PatternSpec::new(4, 8), 2, cfg.seed);
        if qs.is_empty() {
            continue;
        }
        group.bench_with_input(BenchmarkId::new("RBSim", nodes), &qs, |b, qs| {
            b.iter(|| {
                for q in qs {
                    black_box(rbsim(&ds.g, &ds.idx, q, &budget));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, pattern_alpha, pattern_qsize, pattern_scale);
criterion_main!(benches);
