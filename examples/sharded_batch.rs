//! Sharded serving: one mixed workload through a single engine and
//! through routers at increasing shard counts, verifying the tentpole
//! invariant `Router(k) ≡ Engine(1)` on the way — the answers (and every
//! stat that isn't the schedule-dependent cache flag) are byte-identical
//! at any shard count.
//!
//! Run: `cargo run --release --example sharded_batch`

use rbq::rbq_engine::{Engine, EngineConfig};
use rbq::rbq_graph::GraphView;
use rbq::rbq_router::{LabelHashPartitioner, Router};
use rbq::rbq_workload::{sample_mixed_workload, youtube_like, MixedWorkloadSpec};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let g = Arc::new(youtube_like(50_000, 42));
    println!(
        "youtube-like G: {} nodes, {} edges (|G| = {})",
        g.node_count(),
        g.edge_count(),
        g.size()
    );

    let queries = sample_mixed_workload(
        &g,
        &MixedWorkloadSpec {
            count: 300,
            repeat_fraction: 0.3,
            ..Default::default()
        },
        7,
    );
    println!("workload: {} mixed queries\n", queries.len());

    // Validate up front — a bad α is a typed error here instead of a
    // panic inside `Engine::new`.
    let cfg = EngineConfig {
        reach_alpha: 0.05,
        aggregate_visit_budget: Some(500_000),
        ..EngineConfig::default()
    };
    cfg.validate().expect("valid config");

    // Engine(1) first — the baseline — then routers: one report type.
    let mut baseline: Option<Vec<_>> = None;
    for shards in [1usize, 2, 4] {
        let t;
        let report = if shards == 1 {
            let engine = Engine::new(g.clone(), cfg.clone());
            t = Instant::now();
            engine.run_batch(&queries)
        } else {
            let router = Router::new(g.clone(), cfg.clone(), shards, &LabelHashPartitioner)
                .expect("router construction");
            t = Instant::now();
            router.run_batch(&queries)
        };
        println!(
            "\nshards {shards}: {:>10.2?}  {}",
            t.elapsed(),
            report.stats
        );
        for (i, shard) in report.per_shard.iter().enumerate() {
            println!(
                "  shard {i}: {:>4} routed, {:>8} visits",
                shard.routed, shard.stats.total_visits
            );
        }
        // The invariant, checked end to end (cached-ness is
        // schedule-dependent and excluded, as everywhere).
        let Some(baseline) = &baseline else {
            baseline = Some(report.results);
            continue;
        };
        assert_eq!(baseline.len(), report.results.len());
        for (a, b) in baseline.iter().zip(&report.results) {
            assert_eq!(a.answer, b.answer);
            assert_eq!(a.visits, b.visits);
        }
        println!("  ✓ all {} answers identical to engine(1)", queries.len());
    }
}
