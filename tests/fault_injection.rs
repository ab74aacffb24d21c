//! Chaos differential suite: the deterministic fault-injection harness
//! (`rbq_graph::faultpoint`) drives panics, delays, and starvation into
//! the serving path, and the suite pins the robustness contract:
//!
//! * **no abort** — every faulted batch completes with one answer per
//!   query, and the process never dies;
//! * **no poison** — after any fault, the same engine/router serves a
//!   clean batch byte-identical to a never-faulted instance;
//! * **blast-radius** — a non-faulted query's answer is byte-identical to
//!   the fault-free run; only the query (or the lost worker's claims) the
//!   fault actually hit may settle `Failed` / `TimedOut`.
//!
//! These are the scenarios that pin an exact fault point, victim or
//! deadline; seeded single-fault plans against every deployment shape,
//! between ingests and restarts, run in `tests/model.rs`. Runs only under
//! `cargo test --features fault-injection`; without the feature the fault
//! points are inline no-ops and this file is empty.
#![cfg(feature = "fault-injection")]

mod support;

use rbq::rbq_core::guard::Semantics;
use rbq::rbq_core::{
    search_reduced_graph_scratch, NeighborIndex, ReductionConfig, ReductionScratch, ResourceBudget,
};
use rbq::rbq_engine::faultpoint::{arm, FaultAction, FaultPlan};
use rbq::rbq_engine::{Answer, ApplyError, BatchReport, Engine, EngineConfig, Query};
use rbq::rbq_pattern::{strong_simulation_on_view_with, PatternBuilder, StrongSimScratch};
use rbq::rbq_router::{LabelHashPartitioner, Partitioner, Router};
use rbq::rbq_workload::{extract_pattern, youtube_like, PatternSpec};
use rbq_graph::{Graph, GraphBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use support::{
    answers, fixture, fixture_cfg, fresh_dir, new_node_batch, reach, serial, AllTo, Sut,
    FIXTURE_NODES,
};

/// All fault points compiled into the serving path, with the query class
/// whose evaluation reaches them.
const KERNEL_POINTS: &[&str] = &["ball.bfs", "dualsim.fixpoint", "reduction.pick", "vf2.step"];

/// The fault-free baseline for the fixture batch (computed once, single
/// threaded — answers are thread-count-invariant anyway).
fn baseline() -> Vec<Answer> {
    static BASE: OnceLock<Vec<Answer>> = OnceLock::new();
    BASE.get_or_init(|| {
        let (g, qs) = fixture();
        answers(&Engine::new(g, fixture_cfg(1)).run_batch(&qs).results)
    })
    .clone()
}

/// Assert the robustness contract on a faulted run: every non-faulted
/// answer byte-identical to baseline, faulted ones only TimedOut/Failed.
fn assert_blast_radius(faulted: &[Answer], base: &[Answer], what: &str) {
    assert_eq!(faulted.len(), base.len(), "{what}: batch lost answers");
    for (i, (f, b)) in faulted.iter().zip(base).enumerate() {
        if f != b {
            assert!(
                matches!(f, Answer::TimedOut | Answer::Failed(_)),
                "{what}: query {i} diverged to a non-fault answer: {f:?} vs {b:?}"
            );
        }
    }
}

/// The answers of one `run` with `plan` armed.
fn under(plan: FaultPlan, run: impl FnOnce() -> BatchReport) -> Vec<Answer> {
    let _plan = arm(plan);
    answers(&run().results)
}

/// After a fault, the same instance must serve a clean batch exactly.
fn assert_no_poison(engine: &Engine, qs: &[Query], base: &[Answer], what: &str) {
    let clean = answers(&engine.run_batch(qs).results);
    assert_eq!(&clean, base, "{what}: post-fault batch diverged (poison)");
}

#[test]
fn injected_panic_settles_failed_and_spares_the_rest() {
    let _s = serial();
    let (g, qs) = fixture();
    let base = baseline();
    let engine = Engine::new(g, fixture_cfg(1));
    let victim = qs.len() as u64 / 2;
    let plan = FaultPlan::new().on_index("engine.run_one", victim, FaultAction::Panic);
    let got = under(plan, || engine.run_batch(&qs));
    assert!(
        matches!(got[victim as usize], Answer::Failed(_)),
        "victim not Failed: {:?}",
        got[victim as usize]
    );
    for (i, (f, b)) in got.iter().zip(&base).enumerate() {
        if i != victim as usize {
            assert_eq!(f, b, "non-faulted query {i} diverged");
        }
    }
    assert_no_poison(&engine, &qs, &base, "engine.run_one panic");
}

#[test]
fn injected_delay_leaves_answers_byte_identical() {
    let _s = serial();
    let (g, qs) = fixture();
    let base = baseline();
    for threads in [1usize, 4] {
        let engine = Engine::new(g.clone(), fixture_cfg(threads));
        let delay = |ms| FaultAction::Delay(Duration::from_millis(ms));
        let plan = FaultPlan::new().on_nth("dualsim.fixpoint", 0, delay(30));
        let got = under(plan.on_nth("ball.bfs", 2, delay(10)), || {
            engine.run_batch(&qs)
        });
        assert_eq!(got, base, "delay changed answers at {threads} threads");
    }
}

#[test]
fn injected_starvation_settles_timed_out() {
    let _s = serial();
    let (g, qs) = fixture();
    let base = baseline();
    let engine = Engine::new(g, fixture_cfg(1));
    let plan = FaultPlan::new().on_nth("reduction.pick", 0, FaultAction::Starve);
    let got = under(plan, || engine.run_batch(&qs));
    assert!(
        got.contains(&Answer::TimedOut),
        "starvation never surfaced as TimedOut"
    );
    assert_blast_radius(&got, &base, "reduction.pick starvation");
    assert_no_poison(&engine, &qs, &base, "reduction.pick starvation");
}

#[test]
fn every_kernel_point_is_contained() {
    let _s = serial();
    let (g, qs) = fixture();
    let base = baseline();
    for point in KERNEL_POINTS {
        for action in [FaultAction::Panic, FaultAction::Starve] {
            let engine = Engine::new(g.clone(), fixture_cfg(1));
            let got = under(FaultPlan::new().on_nth(point, 1, action), || {
                engine.run_batch(&qs)
            });
            let what = format!("{point} {action:?}");
            assert_blast_radius(&got, &base, &what);
            let absorbed = got
                .iter()
                .filter(|a| matches!(a, Answer::TimedOut | Answer::Failed(_)));
            assert!(
                absorbed.count() <= 1,
                "{what}: more than one query absorbed a single fault"
            );
            assert_no_poison(&engine, &qs, &base, &what);
        }
    }
}

/// Strong simulation of a connected pattern is one ball BFS and one
/// fixpoint, whatever `G_Q` holds: a plan that panics at the *second* hit of
/// either point never fires. A disconnected pattern keeps the per-ball loop,
/// one BFS and one fixpoint per center, and fires both.
#[test]
fn strong_simulation_runs_one_ball_bfs_and_one_fixpoint() {
    let _s = serial();
    let points = ["dualsim.fixpoint", "ball.bfs"];
    let g = youtube_like(4_000, 42);
    let idx = NeighborIndex::build(&g);
    let budget = ResourceBudget::from_units(&g, 300);
    let (mut reduction, mut eval, mut out) =
        (ReductionScratch::new(), StrongSimScratch::new(), vec![]);
    let mut evaluated = 0;
    for seed in 0..200u64 {
        let Some(p) = extract_pattern(&g, PatternSpec::new(4, 8), seed) else {
            continue;
        };
        let Ok(q) = p.resolve(&g) else { continue };
        assert!(p.is_connected());
        // The reduction runs no ball BFS; it builds G_Q before any arming.
        let red = search_reduced_graph_scratch(
            &g,
            &idx,
            &q,
            &budget,
            Semantics::Simulation,
            ReductionConfig::default(),
            &mut reduction,
        );
        for point in points {
            let _plan = arm(FaultPlan::new().on_nth(point, 1, FaultAction::Panic));
            strong_simulation_on_view_with(&q, &red.gq, &mut eval, &mut out);
        }
        reduction.recycle(red.gq);
        evaluated += 1;
    }
    assert!(evaluated >= 10, "only {evaluated} patterns extracted");

    // P -> X -> A -> B under the pattern {P} + {A -> B}: three centers.
    let mut gb = GraphBuilder::new();
    let v: Vec<_> = ["P", "X", "A", "B"].map(|l| gb.add_node(l)).into();
    for w in v.windows(2) {
        gb.add_edge(w[0], w[1]);
    }
    let g = gb.build();
    let mut pb = PatternBuilder::new();
    let (qp, qa, qb) = (pb.add_node("P"), pb.add_node("A"), pb.add_node("B"));
    pb.add_edge(qa, qb).personalized(qp).output(qb);
    let q = pb.build().resolve(&g).unwrap();
    for point in points {
        let _plan = arm(FaultPlan::new().on_nth(point, 1, FaultAction::Panic));
        let fired = catch_unwind(AssertUnwindSafe(|| {
            strong_simulation_on_view_with(&q, &g, &mut StrongSimScratch::new(), &mut out)
        }));
        assert!(fired.is_err(), "{point}: the per-ball loop hit it once");
    }
}

/// A lone engine (1 or 4 threads) loses a worker exactly as `Router(2)`
/// does: one loss is retried to byte-identity, a lost retry fails only what
/// the worker had claimed, every outcome is counted once, and nothing is
/// poisoned.
#[test]
fn worker_loss_is_retried_then_failed() {
    let _s = serial();
    let (g, qs) = fixture();
    let base = baseline();
    let engine = |t| Sut::Engine(Box::new(Engine::new(g.clone(), fixture_cfg(t))));
    let router = Router::new(g.clone(), fixture_cfg(2), 2, &LabelHashPartitioner).unwrap();
    let fronts = [("engine(1)", engine(1)), ("engine(4)", engine(4))];
    for (who, front) in fronts
        .into_iter()
        .chain([("router(2)", Sut::Router(router))])
    {
        let plan = FaultPlan::new().on_index("engine.worker", 0, FaultAction::Panic);
        let got = under(plan, || front.run_batch(&qs));
        assert_eq!(got, base, "{who}: retry diverged");

        let report = {
            let _plan = arm(FaultPlan::new()
                .on_index("engine.worker", 0, FaultAction::Panic)
                .on_nth("engine.worker.retry", 0, FaultAction::Panic));
            front.run_batch(&qs)
        };
        let got = answers(&report.results);
        assert_blast_radius(&got, &base, who);
        let diverged: Vec<&Answer> = got
            .iter()
            .zip(&base)
            .filter(|(f, b)| f != b)
            .map(|p| p.0)
            .collect();
        assert!(!diverged.is_empty(), "{who}: double loss lost nothing");
        assert!(diverged.iter().all(|a| matches!(a, Answer::Failed(_))));
        let st = &report.stats;
        assert_eq!(st.failed, diverged.len(), "{who}");
        let delivered = got.iter().filter(|a| a.is_ok()).count();
        let outcomes = delivered + st.denied + st.timed_out + st.failed + st.errors;
        assert_eq!(outcomes, st.queries, "{who}: outcomes not conserved");
        assert_eq!(st.queries, qs.len());
        assert_eq!(served(&front, &qs), base, "{who}: poison");
    }
}

/// `engine.run_one`'s index is the query's position in the batch as
/// submitted, at any shard count: arming `i` fails exactly `results[i]`.
#[test]
fn run_one_fault_index_is_the_batch_position_at_any_shard_count() {
    let _s = serial();
    let (g, qs) = fixture();
    let base = baseline();
    for k in [1usize, 2, 4] {
        let router = Router::new(g.clone(), fixture_cfg(2), k, &LabelHashPartitioner).unwrap();
        for victim in [0, 7, qs.len() - 1] {
            let plan =
                FaultPlan::new().on_index("engine.run_one", victim as u64, FaultAction::Panic);
            let got = under(plan, || router.run_batch(&qs));
            for (i, (f, b)) in got.iter().zip(&base).enumerate() {
                if i == victim {
                    assert!(
                        matches!(f, Answer::Failed(_)),
                        "k={k}: query {i} not Failed: {f:?}"
                    );
                } else {
                    assert_eq!(f, b, "k={k}: query {i} diverged when {victim} was armed");
                }
            }
        }
    }
}

#[test]
fn router_shard_loss_recovers_on_replica() {
    let _s = serial();
    let (g, qs) = fixture();
    let base = baseline();
    for k in [1usize, 2, 4] {
        for victim in 0..k as u64 {
            let router = Router::new(g.clone(), fixture_cfg(2), k, &LabelHashPartitioner).unwrap();
            let plan = FaultPlan::new().on_index("engine.worker", victim, FaultAction::Panic);
            let got = under(plan, || router.run_batch(&qs));
            // The retry re-answers the lost worker's claims exactly: full
            // byte-identity, not just blast-radius containment.
            assert_eq!(got, base, "retry diverged (k={k}, shard {victim})");
            let clean = answers(&router.run_batch(&qs).results);
            assert_eq!(clean, base, "post-fault router batch diverged (k={k})");
        }
    }
}

#[test]
fn deadline_settlement_is_deterministic_under_delay_faults() {
    let _s = serial();
    let (g, qs) = fixture();
    // A zero deadline settles every query TimedOut at any thread count,
    // even while delay faults skew worker timing.
    for threads in [1usize, 2, 4] {
        let engine = Engine::new(
            g.clone(),
            EngineConfig {
                batch_timeout: Some(Duration::ZERO),
                ..fixture_cfg(threads)
            },
        );
        let delay = FaultAction::Delay(Duration::from_millis(20));
        let plan = FaultPlan::new().on_nth("dualsim.fixpoint", 0, delay);
        let got = under(plan, || engine.run_batch(&qs));
        assert!(
            got.iter().all(|a| *a == Answer::TimedOut),
            "zero-deadline settlement not deterministic at {threads} threads"
        );
    }
}

/// The durable-state IO fault points that fire during a durable ingest
/// (the recovery-side points are exercised in `tests/crash_recovery.rs`).
const IO_INGEST_POINTS: &[&str] = &["wal.append", "wal.fsync"];

/// The two owners of a write path: a lone engine, and `Router(2)` — whose
/// queries all go to one shard, once per shard, so "installed on every
/// shard" and "on none" are each shard's own word.
fn durable_fronts(g: &Arc<Graph>) -> Vec<(String, Sut)> {
    const ASK: [&dyn Partitioner; 2] = [&AllTo(0), &AllTo(1)];
    let engine = Sut::Engine(Box::new(Engine::new(g.clone(), fixture_cfg(1))));
    let routers = ASK.into_iter().enumerate().map(|(asked, policy)| {
        let router = Router::new(g.clone(), fixture_cfg(2), ASK.len(), policy).unwrap();
        (format!("router(2) shard {asked}"), Sut::Router(router))
    });
    std::iter::once(("engine".to_string(), engine))
        .chain(routers)
        .collect()
}

/// What `front` answers to `qs`.
fn served(front: &Sut, qs: &[Query]) -> Vec<Answer> {
    answers(&front.run_batch(qs).results)
}

/// Reaches the fixture's first new node: an out-of-range error until the
/// batch adding it installs.
fn installed_probe() -> [Query; 1] {
    [reach(0, FIXTURE_NODES as usize)]
}

/// IO faults on the durability path are contained exactly like kernel
/// faults: a panicked append unwinds out of `apply_deltas` BEFORE the
/// epoch swap, so the pre-crash epoch keeps serving byte-identical
/// answers on every shard, no lock stays poisoned, and the failed writer
/// surfaces as a typed error on the next durable apply — with that batch
/// installed nowhere either — never an abort.
#[test]
fn durable_io_faults_keep_the_old_epoch_serving() {
    let _s = serial();
    let (g, qs) = fixture();
    let base = baseline();
    let (batch, installed) = (new_node_batch(FIXTURE_NODES, 0, 1), installed_probe());
    for point in IO_INGEST_POINTS {
        for action in [
            FaultAction::Panic,
            FaultAction::Delay(Duration::from_millis(10)),
        ] {
            for (who, mut front) in durable_fronts(&g) {
                let dir = fresh_dir(&point.replace('.', "_"));
                front.enable_durability(&dir);
                let what = format!("{who}: {point} {action:?}");
                let panicked = {
                    let _plan = arm(FaultPlan::new().on_nth(point, 0, action));
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        front.apply_deltas(&batch)
                    }))
                    .is_err()
                };
                let is_installed = |front: &Sut| served(front, &installed)[0].is_ok();
                match action {
                    FaultAction::Panic => {
                        assert!(panicked, "{what}: fault never fired");
                        // The epoch never swapped: the pre-fault graph
                        // serves byte-identically…
                        assert_eq!(served(&front, &qs), base, "{what}: poison");
                        assert!(!is_installed(&front), "{what}: installed");
                        // …and the wounded WAL writer reports typed, it
                        // does not panic again — and installs nothing.
                        match front.apply_deltas(&batch) {
                            Err(ApplyError::Durability(e)) => {
                                let _ = e.to_string();
                            }
                            other => panic!("{what}: poisoned WAL writer answered {other:?}"),
                        }
                        assert!(!is_installed(&front), "{what}: failed append installed");
                    }
                    _ => {
                        assert!(!panicked, "{what}: delay fault must not unwind");
                        // Delay is harmless: the batch landed.
                        assert!(is_installed(&front), "{what}: batch lost");
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// The other half of the one failure policy: a checkpoint that fails
/// (here: the directory is gone by the time the compacting apply wants to
/// write its snapshot; the open WAL still takes the append) reports
/// `ApplyError::Durability` with the batch durable and installed — on the
/// engine, and on every shard of `Router(2)`.
#[test]
fn checkpoint_failure_reports_with_the_batch_installed() {
    let _s = serial();
    let (g, _qs) = fixture();
    // 300 edge ops: past the churn threshold of the fixture, so the apply
    // compacts and checkpoints.
    let (batch, installed) = (new_node_batch(FIXTURE_NODES, 0, 150), installed_probe());
    for (who, mut front) in durable_fronts(&g) {
        let dir = fresh_dir("ckpt");
        front.enable_durability(&dir);
        std::fs::remove_dir_all(&dir).expect("remove durable dir");
        match front.apply_deltas(&batch) {
            Err(ApplyError::Durability(e)) => {
                let _ = e.to_string();
            }
            other => panic!("{who}: checkpoint into a missing directory answered {other:?}"),
        }
        assert!(
            served(&front, &installed)[0].is_ok(),
            "{who}: durable batch not installed"
        );
    }
}
