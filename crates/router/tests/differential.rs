//! The differential suite pinning the tentpole invariant:
//! `Router(k) ≡ Engine(1)` — a routed, fanned-out, merged batch is
//! byte-identical to a single engine running the same batch, for every
//! query class, shard count, routing policy, and aggregate-budget setting.
//! (The `cached` flag is schedule-dependent and excluded, as everywhere.)

use proptest::prelude::*;
use rbq_engine::{Answer, BudgetSpec, Engine, EngineConfig};
use rbq_router::{LabelHashPartitioner, Partitioner, Router};
use rbq_workload::{sample_mixed_workload, youtube_like, MixedWorkloadSpec};
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

fn cfg(threads: usize) -> EngineConfig {
    EngineConfig {
        pattern_budget: BudgetSpec::Units(150),
        reach_alpha: 0.1,
        threads,
        ..Default::default()
    }
}

fn assert_equivalent(
    baseline: &rbq_engine::BatchReport,
    report: &rbq_router::RouterReport,
    k: usize,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(baseline.results.len(), report.results.len());
    // One report entry per shard; every admitted query routed to exactly
    // one of them, and every visit counted on the shard that made it.
    prop_assert_eq!(report.per_shard.len(), k, "{}", ctx);
    let shed = report
        .results
        .iter()
        .filter(|r| matches!(r.answer, Answer::Denied { .. }) && r.visits == 0)
        .count();
    prop_assert_eq!(
        report.per_shard.iter().map(|s| s.routed).sum::<usize>(),
        report.results.len() - shed,
        "{}",
        ctx
    );
    prop_assert_eq!(
        report
            .per_shard
            .iter()
            .map(|s| s.stats.total_visits)
            .sum::<usize>(),
        report.stats.total_visits,
        "{}",
        ctx
    );
    for (i, (a, b)) in baseline.results.iter().zip(&report.results).enumerate() {
        prop_assert_eq!(&a.answer, &b.answer, "answer {} diverged: {}", i, ctx);
        prop_assert_eq!(a.visits, b.visits, "visits {} diverged: {}", i, ctx);
    }
    prop_assert_eq!(baseline.stats.queries, report.stats.queries, "{}", ctx);
    prop_assert_eq!(baseline.stats.errors, report.stats.errors, "{}", ctx);
    prop_assert_eq!(baseline.stats.denied, report.stats.denied, "{}", ctx);
    prop_assert_eq!(
        baseline.stats.total_visits,
        report.stats.total_visits,
        "{}",
        ctx
    );
    prop_assert_eq!(
        baseline.stats.charged_visits,
        report.stats.charged_visits,
        "{}",
        ctx
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random mixed workloads on random graphs: every shard count and every
    /// routing policy agrees with a single engine, with and without an
    /// aggregate budget (including which queries come back `Denied`).
    #[test]
    fn router_equals_single_engine(
        nodes in 200usize..700,
        g_seed in 0u64..1_000,
        wl_seed in 0u64..1_000,
        count in 20usize..50,
    ) {
        let g = Arc::new(youtube_like(nodes, g_seed));
        let queries = sample_mixed_workload(
            &g,
            &MixedWorkloadSpec {
                count,
                repeat_fraction: 0.3,
                ..Default::default()
            },
            wl_seed,
        );

        // Unbudgeted baseline, and a half-budget one that must deny a
        // deterministic suffix of the delivered answers.
        let baseline = Engine::new(g.clone(), cfg(2)).run_batch(&queries);
        let half = baseline.stats.charged_visits / 2;
        let budgeted_cfg = EngineConfig {
            aggregate_visit_budget: Some(half),
            ..cfg(2)
        };
        let budgeted = Engine::new(g.clone(), budgeted_cfg.clone()).run_batch(&queries);

        // 8 threads over 2 or 3 shards: several workers per cursor and
        // several cursors in the one scope; 1 thread: one worker per shard.
        for threads in [1usize, 2, 8] {
            let budgeted_cfg = EngineConfig { threads, ..budgeted_cfg.clone() };
            for (p, partitioner) in POLICIES.into_iter().enumerate() {
                for k in [1usize, 2, 3, 8] {
                    let ctx = format!("k={k} policy={p} threads={threads}");
                    let router = Router::new(g.clone(), cfg(threads), k, partitioner).unwrap();
                    assert_equivalent(&baseline, &router.run_batch(&queries), k, &ctx)?;

                    let router =
                        Router::new(g.clone(), budgeted_cfg.clone(), k, partitioner).unwrap();
                    let report = router.run_batch(&queries);
                    assert_equivalent(&budgeted, &report, k, &format!("{ctx} budgeted"))?;
                    // The denial mask itself must match, not just the count.
                    for (i, (a, b)) in budgeted.results.iter().zip(&report.results).enumerate() {
                        prop_assert_eq!(
                            matches!(a.answer, Answer::Denied { .. }),
                            matches!(b.answer, Answer::Denied { .. }),
                            "denial mask {} diverged: {}", i, ctx
                        );
                    }
                }
            }
        }
    }

    /// Warm routers keep the invariant: a second pass over the same batch
    /// (shard caches now hot) still matches a warmed single engine.
    #[test]
    fn warm_router_equals_warm_engine(
        nodes in 200usize..500,
        wl_seed in 0u64..1_000,
    ) {
        let g = Arc::new(youtube_like(nodes, wl_seed ^ 0xdead));
        let queries = sample_mixed_workload(
            &g,
            &MixedWorkloadSpec {
                count: 30,
                repeat_fraction: 0.5,
                ..Default::default()
            },
            wl_seed,
        );
        let engine = Engine::new(g.clone(), cfg(2));
        engine.run_batch(&queries);
        let warm_baseline = engine.run_batch(&queries);

        for (p, partitioner) in POLICIES.into_iter().enumerate() {
            for k in [1usize, 2, 3, 8] {
                let router = Router::new(g.clone(), cfg(2), k, partitioner).unwrap();
                router.run_batch(&queries);
                let warm = router.run_batch(&queries);
                assert_equivalent(&warm_baseline, &warm, k, &format!("warm k={k} policy={p}"))?;
            }
        }
    }
}

/// One non-property check that the shipped policy exercises multiple shards
/// (the invariant would be vacuous if routing collapsed everything to shard
/// 0).
#[test]
fn workload_actually_spreads_across_shards() {
    let g = Arc::new(youtube_like(600, 11));
    let queries = sample_mixed_workload(
        &g,
        &MixedWorkloadSpec {
            count: 60,
            repeat_fraction: 0.2,
            ..Default::default()
        },
        7,
    );
    let router = Router::new(g, cfg(2), 4, &LabelHashPartitioner).unwrap();
    let report = router.run_batch(&queries);
    let busy = report.per_shard.iter().filter(|s| s.routed > 0).count();
    assert!(busy >= 2, "only {busy} shard(s) saw traffic");
}
