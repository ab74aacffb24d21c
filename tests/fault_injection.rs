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
//! Runs only under `cargo test --features fault-injection`; without the
//! feature the fault points are inline no-ops and this file is empty.
#![cfg(feature = "fault-injection")]

use proptest::prelude::*;
use rbq::rbq_engine::faultpoint::{arm, FaultAction, FaultPlan};
use rbq::rbq_engine::{Answer, ApplyError, BudgetSpec, Engine, EngineConfig, Query, QueryResult};
use rbq::rbq_router::{LabelHashPartitioner, Partitioner, Router, RouterError};
use rbq::rbq_workload::{power_law, sample_mixed_workload, MixedWorkloadSpec};
use rbq_graph::{DeltaBatch, DeltaReport, Graph, NodeId};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Fault plans are process-global: every test that arms one must hold
/// this lock for its whole body (arm → run → drop guard).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// All fault points compiled into the serving path, with the query class
/// whose evaluation reaches them.
const KERNEL_POINTS: &[&str] = &["ball.bfs", "dualsim.fixpoint", "reduction.pick", "vf2.step"];

fn fixture() -> (Arc<Graph>, Vec<Query>) {
    static FIX: OnceLock<(Arc<Graph>, Vec<Query>)> = OnceLock::new();
    let (g, qs) = FIX.get_or_init(|| {
        let g = Arc::new(power_law(400, 3, 4, 0xfa017));
        let qs = sample_mixed_workload(
            &g,
            &MixedWorkloadSpec {
                count: 24,
                ..Default::default()
            },
            7,
        );
        (g, qs)
    });
    (g.clone(), qs.clone())
}

fn cfg(threads: usize) -> EngineConfig {
    EngineConfig {
        pattern_budget: BudgetSpec::Ratio(0.2),
        reach_alpha: 0.2,
        threads,
        cache_capacity: 0, // keep every evaluation full-cost and comparable
        ..Default::default()
    }
}

fn answers(results: &[QueryResult]) -> Vec<Answer> {
    results.iter().map(|r| r.answer.clone()).collect()
}

/// The fault-free baseline for the fixture batch (computed once, single
/// threaded — answers are thread-count-invariant anyway).
fn baseline() -> Vec<Answer> {
    static BASE: OnceLock<Vec<Answer>> = OnceLock::new();
    BASE.get_or_init(|| {
        let (g, qs) = fixture();
        answers(&Engine::new(g, cfg(1)).run_batch(&qs).results)
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
    let engine = Engine::new(g, cfg(1));
    let victim = qs.len() as u64 / 2;
    let got = {
        let _plan = arm(FaultPlan::new().on_index("engine.run_one", victim, FaultAction::Panic));
        answers(&engine.run_batch(&qs).results)
    };
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
        let engine = Engine::new(g.clone(), cfg(threads));
        let got = {
            let _plan = arm(FaultPlan::new()
                .on_nth(
                    "dualsim.fixpoint",
                    0,
                    FaultAction::Delay(Duration::from_millis(30)),
                )
                .on_nth("ball.bfs", 2, FaultAction::Delay(Duration::from_millis(10))));
            answers(&engine.run_batch(&qs).results)
        };
        assert_eq!(got, base, "delay changed answers at {threads} threads");
    }
}

#[test]
fn injected_starvation_settles_timed_out() {
    let _s = serial();
    let (g, qs) = fixture();
    let base = baseline();
    let engine = Engine::new(g, cfg(1));
    let got = {
        let _plan = arm(FaultPlan::new().on_nth("reduction.pick", 0, FaultAction::Starve));
        answers(&engine.run_batch(&qs).results)
    };
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
            let engine = Engine::new(g.clone(), cfg(1));
            let got = {
                let _plan = arm(FaultPlan::new().on_nth(point, 1, action));
                answers(&engine.run_batch(&qs).results)
            };
            let what = format!("{point} {action:?}");
            assert_blast_radius(&got, &base, &what);
            assert!(
                got.iter()
                    .filter(|a| matches!(a, Answer::TimedOut | Answer::Failed(_)))
                    .count()
                    <= 1,
                "{what}: more than one query absorbed a single fault"
            );
            assert_no_poison(&engine, &qs, &base, &what);
        }
    }
}

/// A lone engine loses a worker exactly as a router does: one loss is
/// retried to byte-identity, a lost retry fails only what the worker had
/// claimed, every outcome is counted once, and nothing is poisoned.
#[test]
fn engine_worker_loss_is_retried_then_failed() {
    let _s = serial();
    let (g, qs) = fixture();
    let base = baseline();
    for threads in [1usize, 4] {
        let engine = Engine::new(g.clone(), cfg(threads));
        let got = {
            let _plan = arm(FaultPlan::new().on_index("engine.worker", 0, FaultAction::Panic));
            answers(&engine.run_batch(&qs).results)
        };
        assert_eq!(got, base, "retry diverged at {threads} threads");

        let report = {
            let _plan = arm(FaultPlan::new()
                .on_index("engine.worker", 0, FaultAction::Panic)
                .on_nth("engine.worker.retry", 0, FaultAction::Panic));
            engine.run_batch(&qs)
        };
        let got = answers(&report.results);
        assert_blast_radius(&got, &base, "engine double loss");
        let diverged: Vec<&Answer> = got
            .iter()
            .zip(&base)
            .filter(|(f, b)| f != b)
            .map(|p| p.0)
            .collect();
        assert!(
            !diverged.is_empty(),
            "double loss lost nothing at {threads} threads"
        );
        assert!(diverged.iter().all(|a| matches!(a, Answer::Failed(_))));
        let st = &report.stats;
        assert_eq!(st.failed, diverged.len(), "{threads} threads");
        let delivered = got.iter().filter(|a| a.is_ok()).count();
        assert_eq!(
            delivered + st.denied + st.timed_out + st.failed + st.errors,
            st.queries,
            "outcomes not conserved at {threads} threads"
        );
        assert_eq!(st.queries, qs.len());
        assert_no_poison(&engine, &qs, &base, "engine double loss");
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
        let router = Router::new(g.clone(), cfg(2), k, &LabelHashPartitioner).unwrap();
        for victim in [0, 7, qs.len() - 1] {
            let got = {
                let _plan = arm(FaultPlan::new().on_index(
                    "engine.run_one",
                    victim as u64,
                    FaultAction::Panic,
                ));
                answers(&router.run_batch(&qs).results)
            };
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
            let router = Router::new(g.clone(), cfg(2), k, &LabelHashPartitioner).unwrap();
            let got = {
                let _plan =
                    arm(FaultPlan::new().on_index("engine.worker", victim, FaultAction::Panic));
                answers(&router.run_batch(&qs).results)
            };
            // The retry re-answers the lost worker's claims exactly: full
            // byte-identity, not just blast-radius containment.
            assert_eq!(got, base, "retry diverged (k={k}, shard {victim})");
            let clean = answers(&router.run_batch(&qs).results);
            assert_eq!(clean, base, "post-fault router batch diverged (k={k})");
        }
    }
}

#[test]
fn router_double_loss_settles_sub_batch_failed() {
    let _s = serial();
    let (g, qs) = fixture();
    let base = baseline();
    let k = 2usize;
    let router = Router::new(g.clone(), cfg(2), k, &LabelHashPartitioner).unwrap();
    let (got, report_stats) = {
        let _plan = arm(FaultPlan::new()
            .on_index("engine.worker", 0, FaultAction::Panic)
            .on_nth("engine.worker.retry", 0, FaultAction::Panic));
        let report = router.run_batch(&qs);
        (answers(&report.results), report.stats)
    };
    let failed = got
        .iter()
        .filter(|a| matches!(a, Answer::Failed(_)))
        .count();
    assert!(failed > 0, "double loss produced no Failed answers");
    assert_eq!(report_stats.failed, failed);
    assert_blast_radius(&got, &base, "router double loss");
    // Shard 1's answers (everything not Failed) are untouched, and the
    // router itself is not poisoned.
    let clean = answers(&router.run_batch(&qs).results);
    assert_eq!(clean, base, "post-double-loss router batch diverged");
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
                ..cfg(threads)
            },
        );
        let got = {
            let _plan = arm(FaultPlan::new().on_nth(
                "dualsim.fixpoint",
                0,
                FaultAction::Delay(Duration::from_millis(20)),
            ));
            answers(&engine.run_batch(&qs).results)
        };
        assert!(
            got.iter().all(|a| *a == Answer::TimedOut),
            "zero-deadline settlement not deterministic at {threads} threads"
        );
    }
}

/// The durable-state IO fault points that fire during a durable ingest
/// (the recovery-side points are exercised in `tests/crash_recovery.rs`).
const IO_INGEST_POINTS: &[&str] = &["wal.append", "wal.fsync"];

/// Routes every query to one fixed shard, so a test can ask a chosen
/// replica what it serves.
struct AllTo(usize);

impl Partitioner for AllTo {
    fn shard(&self, _label: &str, _shards: usize) -> usize {
        self.0
    }
}

/// What the durable-IO tests need of whoever owns a write path.
trait DurableFront {
    fn enable_durability(&self, dir: &std::path::Path);
    fn apply_deltas(&mut self, batch: &DeltaBatch) -> Result<DeltaReport, ApplyError>;
    fn answers(&self, qs: &[Query]) -> Vec<Answer>;
}

impl DurableFront for Engine {
    fn enable_durability(&self, dir: &std::path::Path) {
        Engine::enable_durability(self, dir).expect("enable durability");
    }

    fn apply_deltas(&mut self, batch: &DeltaBatch) -> Result<DeltaReport, ApplyError> {
        Engine::apply_deltas(self, batch)
    }

    fn answers(&self, qs: &[Query]) -> Vec<Answer> {
        answers(&self.run_batch(qs).results)
    }
}

impl DurableFront for Router {
    fn enable_durability(&self, dir: &std::path::Path) {
        Router::enable_durability(self, dir).expect("enable durability");
    }

    fn apply_deltas(&mut self, batch: &DeltaBatch) -> Result<DeltaReport, ApplyError> {
        Router::apply_deltas(self, batch).map_err(|e| match e {
            RouterError::Apply(e) => e,
            other => panic!("apply_deltas failed outside the ingest pipeline: {other}"),
        })
    }

    fn answers(&self, qs: &[Query]) -> Vec<Answer> {
        answers(&self.run_batch(qs).results)
    }
}

/// The two owners of a write path: a lone engine, and `Router(2)` — whose
/// queries all go to one shard, once per shard, so "installed on every
/// shard" and "on none" are each shard's own word.
fn durable_fronts(g: &Arc<Graph>) -> Vec<(String, Box<dyn DurableFront>)> {
    const ASK: [&dyn Partitioner; 2] = [&AllTo(0), &AllTo(1)];
    let mut fronts: Vec<(String, Box<dyn DurableFront>)> = vec![(
        "engine".to_string(),
        Box::new(Engine::new(g.clone(), cfg(1))),
    )];
    for (asked, policy) in ASK.into_iter().enumerate() {
        let router = Router::new(g.clone(), cfg(2), ASK.len(), policy).unwrap();
        fronts.push((format!("router(2) shard {asked}"), Box::new(router)));
    }
    fronts
}

fn io_scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rbq_fi_io_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A new node (id 400 on the fixture) with `fan` edges from existing
/// nodes, and the query that tells whether it is installed: an
/// out-of-range error before, reachable after.
fn io_batch(fan: u32) -> (DeltaBatch, Query) {
    let mut batch = DeltaBatch::new();
    batch.add_node("IO");
    for u in 0..fan {
        batch.add_edge(NodeId(u), NodeId(400));
    }
    let installed = Query::Reach {
        source: NodeId(0),
        target: NodeId(400),
    };
    (batch, installed)
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
    let (batch, installed) = io_batch(1);
    for point in IO_INGEST_POINTS {
        for action in [
            FaultAction::Panic,
            FaultAction::Delay(Duration::from_millis(10)),
        ] {
            for (who, mut front) in durable_fronts(&g) {
                let dir = io_scratch_dir(&point.replace('.', "_"));
                front.enable_durability(&dir);
                let what = format!("{who}: {point} {action:?}");
                let panicked = {
                    let _plan = arm(FaultPlan::new().on_nth(point, 0, action));
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        front.apply_deltas(&batch)
                    }))
                    .is_err()
                };
                let is_installed = |front: &dyn DurableFront| {
                    front.answers(std::slice::from_ref(&installed))[0].is_ok()
                };
                match action {
                    FaultAction::Panic => {
                        assert!(panicked, "{what}: fault never fired");
                        // The epoch never swapped: the pre-fault graph
                        // serves byte-identically…
                        assert_eq!(front.answers(&qs), base, "{what}: poison");
                        assert!(!is_installed(front.as_ref()), "{what}: installed");
                        // …and the wounded WAL writer reports typed, it
                        // does not panic again — and installs nothing.
                        match front.apply_deltas(&batch) {
                            Err(ApplyError::Durability(e)) => {
                                let _ = e.to_string();
                            }
                            other => panic!("{what}: poisoned WAL writer answered {other:?}"),
                        }
                        assert!(
                            !is_installed(front.as_ref()),
                            "{what}: failed append installed"
                        );
                    }
                    _ => {
                        assert!(!panicked, "{what}: delay fault must not unwind");
                        // Delay is harmless: the batch landed.
                        assert!(is_installed(front.as_ref()), "{what}: batch lost");
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
    // 400 edge ops: past the churn threshold of the fixture, so the apply
    // compacts and checkpoints.
    let (batch, installed) = io_batch(400);
    for (who, mut front) in durable_fronts(&g) {
        let dir = io_scratch_dir("ckpt");
        front.enable_durability(&dir);
        std::fs::remove_dir_all(&dir).expect("remove durable dir");
        match front.apply_deltas(&batch) {
            Err(ApplyError::Durability(e)) => {
                let _ = e.to_string();
            }
            other => panic!("{who}: checkpoint into a missing directory answered {other:?}"),
        }
        assert!(
            front.answers(std::slice::from_ref(&installed))[0].is_ok(),
            "{who}: durable batch not installed"
        );
    }
}

/// Seeded chaos: arbitrary single-fault plans over every point × action,
/// engine and router, pinning no-abort + blast-radius + no-poison.
fn action_from(idx: usize, delay_ms: u64) -> FaultAction {
    match idx % 3 {
        0 => FaultAction::Panic,
        1 => FaultAction::Starve,
        _ => FaultAction::Delay(Duration::from_millis(delay_ms)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chaos_engine_holds_the_contract(
        point_idx in 0usize..4,
        nth in 0u64..6,
        action_idx in 0usize..3,
        delay_ms in 1u64..20,
    ) {
        let action = action_from(action_idx, delay_ms);
        let _s = serial();
        let (g, qs) = fixture();
        let base = baseline();
        let engine = Engine::new(g, cfg(1));
        let got = {
            let _plan = arm(FaultPlan::new().on_nth(KERNEL_POINTS[point_idx], nth, action));
            answers(&engine.run_batch(&qs).results)
        };
        let what = format!("chaos {} nth={nth} {action:?}", KERNEL_POINTS[point_idx]);
        assert_blast_radius(&got, &base, &what);
        if matches!(action, FaultAction::Delay(_)) {
            prop_assert_eq!(&got, &base, "delay must not change answers");
        }
        assert_no_poison(&engine, &qs, &base, &what);
    }

    #[test]
    fn chaos_router_holds_the_contract(
        k in 1usize..5,
        victim in 0u64..5,
        action_idx in 0usize..3,
        delay_ms in 1u64..20,
    ) {
        let action = action_from(action_idx, delay_ms);
        let _s = serial();
        let (g, qs) = fixture();
        let base = baseline();
        let router = Router::new(g, cfg(2), k, &LabelHashPartitioner).unwrap();
        let got = {
            let _plan = arm(FaultPlan::new().on_index("engine.worker", victim % k as u64, action));
            answers(&router.run_batch(&qs).results)
        };
        // Panic → retry; Starve → the worker unwinds with a CancelPanic
        // outside any query, which is also a lost worker and also
        // retried; Delay → answers unchanged. In every case the batch
        // must come back byte-identical: a single worker loss is fully
        // recovered.
        prop_assert_eq!(&got, &base, "k={} victim={}", k, victim);
        let clean = answers(&router.run_batch(&qs).results);
        prop_assert_eq!(&clean, &base, "router poisoned");
    }
}
