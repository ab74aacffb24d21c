//! Crash-recovery differential: a panic injected at ANY of the registered
//! IO fault points (`wal.append`, `wal.fsync`, `snapshot.write`,
//! `snapshot.load`, `wal.replay`) — during ingest, checkpoint, or a prior
//! recovery attempt — leaves on-disk state from which `Engine::recover`
//! rebuilds an engine equivalent to a fresh one built from the same
//! surviving prefix of delta batches: same graph, byte-identical answers
//! on the mixed workload. The same holds for a sharded deployment, whose
//! durable state is shard 0's: `Router::recover` ≡ a fresh `Router` on the
//! acked batches ≡ `Engine::recover` on the same directory.
//!
//! The injected-crash tests run only under `cargo test --features
//! fault-injection`; `router_durable_ingest_recovers` needs no fault and
//! runs always.

#[cfg(feature = "fault-injection")]
use rbq::rbq_engine::faultpoint::{arm, FaultAction, FaultPlan};
#[cfg(feature = "fault-injection")]
use rbq::rbq_engine::Durability;
use rbq::rbq_engine::{Answer, BudgetSpec, Engine, EngineConfig, EngineStats, Query};
use rbq::rbq_router::{LabelHashPartitioner, Router};
use rbq::rbq_workload::{power_law, sample_mixed_workload, MixedWorkloadSpec};
use rbq_graph::{DeltaBatch, Graph, NodeId};
#[cfg(feature = "fault-injection")]
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
#[cfg(feature = "fault-injection")]
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Fault plans are process-global; every test that arms one holds this for
/// its body.
#[cfg(feature = "fault-injection")]
static SERIAL: Mutex<()> = Mutex::new(());

#[cfg(feature = "fault-injection")]
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rbq_crashrec_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fixture() -> (Arc<Graph>, Vec<Query>) {
    static FIX: OnceLock<(Arc<Graph>, Vec<Query>)> = OnceLock::new();
    let (g, qs) = FIX.get_or_init(|| {
        let g = Arc::new(power_law(300, 3, 4, 0xd15c));
        let qs = sample_mixed_workload(
            &g,
            &MixedWorkloadSpec {
                count: 16,
                ..Default::default()
            },
            11,
        );
        (g, qs)
    });
    (g.clone(), qs.clone())
}

fn cfg() -> EngineConfig {
    EngineConfig {
        pattern_budget: BudgetSpec::Ratio(0.2),
        reach_alpha: 0.2,
        threads: 1,
        cache_capacity: 0,
        ..Default::default()
    }
}

/// The `i`-th new node wired into the fixture graph (n = 300) by `fan`
/// edges in and `fan` out. A fan of 150 is 300 edge ops, past the churn
/// threshold of the ~900-edge fixture: that apply compacts.
fn new_node_batch(i: u32, fan: u32) -> DeltaBatch {
    let mut b = DeltaBatch::new();
    b.add_node("NEW");
    let v = NodeId(300 + i);
    for j in 0..fan {
        b.add_edge(NodeId((i * 37 + j) % 300), v);
        b.add_edge(v, NodeId((i * 53 + 7 + j) % 300));
    }
    b
}

#[cfg(feature = "fault-injection")]
fn sample_batches() -> Vec<DeltaBatch> {
    (0..4).map(|i| new_node_batch(i, 1)).collect()
}

fn answers(engine: &Engine, qs: &[Query]) -> Vec<Answer> {
    engine
        .run_batch(qs)
        .results
        .iter()
        .map(|r| r.answer.clone())
        .collect()
}

/// The base graph with the first `k` batches plainly applied.
fn prefix_graph(base: &Arc<Graph>, batches: &[DeltaBatch], k: usize) -> Arc<Graph> {
    let mut g = (**base).clone();
    for b in &batches[..k] {
        g = g.apply_delta(b).expect("reference apply").0;
    }
    Arc::new(g)
}

/// The reference: a fresh, non-durable engine over the base graph with
/// the first `k` batches plainly applied.
#[cfg(feature = "fault-injection")]
fn reference_answers(
    base: &Arc<Graph>,
    batches: &[DeltaBatch],
    k: usize,
    qs: &[Query],
) -> Vec<Answer> {
    answers(&Engine::new(prefix_graph(base, batches, k), cfg()), qs)
}

/// Statistics with the one schedule-dependent field, latency, zeroed.
fn counts(mut s: EngineStats) -> EngineStats {
    for class in [&mut s.reach, &mut s.sim, &mut s.iso] {
        class.latency = Duration::ZERO;
    }
    s
}

/// The router's durable path end to end, no fault involved: three acked
/// batches — the middle one compacts, so the apply checkpoints and rotates
/// the log — then the process goes away and the directory alone must bring
/// back a deployment that answers like a fresh one on base + acked
/// batches, and like a single engine recovered from the same directory.
#[test]
fn router_durable_ingest_recovers() {
    // An armed plan elsewhere in the process would fire in here.
    #[cfg(feature = "fault-injection")]
    let _s = serial();
    let (g, qs) = fixture();
    let batches = [
        new_node_batch(0, 1),
        new_node_batch(1, 150),
        new_node_batch(2, 1),
    ];
    for k in [1usize, 3] {
        let dir = fresh_dir("router");
        let mut live = Router::new(g.clone(), cfg(), k, &LabelHashPartitioner).expect("router");
        live.enable_durability(&dir).expect("enable durability");
        assert!(live.durability_enabled());
        let compacted: Vec<bool> = batches
            .iter()
            .map(|b| live.apply_deltas(b).expect("durable apply").compacted)
            .collect();
        assert_eq!(compacted, [false, true, false], "k={k}");
        drop(live); // the "process" died; only the directory survives

        let (recovered, report) =
            Router::recover(&dir, cfg(), k, &LabelHashPartitioner).expect("router recovery");
        assert_eq!((report.snapshot_seq, report.replayed), (2, 1), "k={k}");
        assert_eq!(report.last_seq, 3, "k={k}");
        assert!(recovered.durability_enabled());
        let fresh = Router::new(
            prefix_graph(&g, &batches, 3),
            cfg(),
            k,
            &LabelHashPartitioner,
        )
        .expect("fresh router");
        let (got, want) = (recovered.run_batch(&qs), fresh.run_batch(&qs));
        for (i, (x, y)) in got.results.iter().zip(&want.results).enumerate() {
            assert_eq!(x.answer, y.answer, "answer {i} diverged at k={k}");
            assert_eq!(x.visits, y.visits, "visits {i} diverged at k={k}");
        }
        assert_eq!(counts(got.stats), counts(want.stats), "k={k}");
        assert_eq!(counts(recovered.stats()), counts(fresh.stats()), "k={k}");
        drop(recovered);

        let (engine, report) = Engine::recover(&dir, cfg()).expect("engine recovery");
        assert_eq!(report.last_seq, 3, "k={k}");
        let want: Vec<Answer> = want.results.into_iter().map(|r| r.answer).collect();
        assert_eq!(answers(&engine, &qs), want, "k={k}: engine recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crash during durable ingest at `point` on its `nth` firing, then pin
/// `recover()` ≡ fresh-engine-from-surviving-prefix.
#[cfg(feature = "fault-injection")]
fn ingest_crash_scenario(point: &'static str, nth: u64, crash_batch: usize) {
    let (g, qs) = fixture();
    let batches = sample_batches();
    let dir = fresh_dir("ingest");

    let engine = Engine::new(g.clone(), cfg());
    engine.enable_durability(&dir).expect("enable durability");
    let crashed = {
        let _plan = arm(FaultPlan::new().on_nth(point, nth, FaultAction::Panic));
        let mut crashed = false;
        for b in &batches {
            if catch_unwind(AssertUnwindSafe(|| engine.apply_deltas(b))).is_err() {
                crashed = true;
                break;
            }
        }
        crashed
    };
    assert!(crashed, "{point} nth={nth}: injected fault never fired");
    drop(engine); // the "process" died; only the directory survives

    let (recovered, report) = Engine::recover(&dir, cfg())
        .unwrap_or_else(|e| panic!("{point} nth={nth}: recovery failed: {e}"));
    let k = report.last_seq as usize;
    // The crash hit batch `crash_batch`: everything before it is durable,
    // and the crashed batch itself survives only if its bytes reached the
    // file before the panic (wal.fsync fires after the record write).
    assert!(
        k == crash_batch || k == crash_batch + 1,
        "{point} nth={nth}: surviving prefix {k} not adjacent to crash batch {crash_batch}"
    );
    assert!(
        report.quarantined == 0,
        "{point}: clean crash quarantined records"
    );
    let got = answers(&recovered, &qs);
    let want = reference_answers(&g, &batches, k, &qs);
    assert_eq!(
        got, want,
        "{point} nth={nth}: recovered answers diverge from surviving-prefix reference"
    );
}

#[cfg(feature = "fault-injection")]
#[test]
fn crash_during_wal_append_recovers_prefix() {
    let _s = serial();
    for k in 0..sample_batches().len() {
        ingest_crash_scenario("wal.append", k as u64, k);
    }
}

#[cfg(feature = "fault-injection")]
#[test]
fn crash_during_wal_fsync_recovers_prefix() {
    let _s = serial();
    for k in 0..sample_batches().len() {
        ingest_crash_scenario("wal.fsync", k as u64, k);
    }
}

/// `snapshot.write` fires when the durable directory is first seeded: a
/// crash there leaves no snapshot, and recovery reports it typed.
#[cfg(feature = "fault-injection")]
#[test]
fn crash_during_initial_snapshot_write_is_typed_on_recovery() {
    let _s = serial();
    let (g, _qs) = fixture();
    let dir = fresh_dir("seed");
    let engine = Engine::new(g, cfg());
    {
        let _plan = arm(FaultPlan::new().on_nth("snapshot.write", 0, FaultAction::Panic));
        let r = catch_unwind(AssertUnwindSafe(|| engine.enable_durability(&dir)));
        assert!(r.is_err(), "seeding snapshot.write fault never fired");
    }
    assert!(
        !engine.durability_enabled(),
        "crashed seeding left durability on"
    );
    match Engine::recover(&dir, cfg()) {
        Err(e) => {
            let _ = e.to_string();
        }
        Ok(_) => panic!("recovery succeeded with no snapshot on disk"),
    }
}

/// A crash inside `checkpoint` (snapshot rewrite) must not lose state:
/// the old snapshot plus the full WAL still recover everything.
#[cfg(feature = "fault-injection")]
#[test]
fn crash_during_checkpoint_snapshot_write_loses_nothing() {
    let _s = serial();
    let (g, qs) = fixture();
    let batches = sample_batches();
    let dir = fresh_dir("ckpt");
    let mut d = Durability::create(&dir, &g).expect("create durable state");
    for b in &batches {
        d.append(b).expect("append");
    }
    // The graph content the checkpoint would have written is irrelevant to
    // the contract — the crash happens before any bytes land.
    {
        let _plan = arm(FaultPlan::new().on_nth("snapshot.write", 0, FaultAction::Panic));
        let r = catch_unwind(AssertUnwindSafe(|| d.checkpoint(&g)));
        assert!(r.is_err(), "checkpoint snapshot.write fault never fired");
    }
    drop(d);
    let (recovered, report) = Engine::recover(&dir, cfg()).expect("recover after checkpoint crash");
    assert_eq!(report.last_seq as usize, batches.len());
    let got = answers(&recovered, &qs);
    let want = reference_answers(&g, &batches, batches.len(), &qs);
    assert_eq!(got, want, "checkpoint crash lost durable batches");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash during a RECOVERY attempt (`snapshot.load` / `wal.replay`), then
/// a second, clean recovery must still serve the full surviving prefix —
/// recovery is read-only until it succeeds, so it is retryable.
#[cfg(feature = "fault-injection")]
#[test]
fn crash_during_recovery_is_retryable() {
    let _s = serial();
    let (g, qs) = fixture();
    let batches = sample_batches();
    for (point, nth) in [
        ("snapshot.load", 0u64),
        ("wal.replay", 0),
        ("wal.replay", 2),
    ] {
        let dir = fresh_dir("rerecover");
        let mut d = Durability::create(&dir, &g).expect("create durable state");
        for b in &batches {
            d.append(b).expect("append");
        }
        drop(d);
        {
            let _plan = arm(FaultPlan::new().on_nth(point, nth, FaultAction::Panic));
            let r = catch_unwind(AssertUnwindSafe(|| Engine::recover(&dir, cfg())));
            assert!(r.is_err(), "{point} nth={nth}: recovery fault never fired");
        }
        let (recovered, report) =
            Engine::recover(&dir, cfg()).expect("clean recovery after crashed recovery");
        assert_eq!(
            report.last_seq as usize,
            batches.len(),
            "{point}: lost batches"
        );
        let got = answers(&recovered, &qs);
        let want = reference_answers(&g, &batches, batches.len(), &qs);
        assert_eq!(got, want, "{point} nth={nth}: retried recovery diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Routes every query to one fixed shard, so a test can ask a chosen
/// replica what it serves.
#[cfg(feature = "fault-injection")]
struct AllTo(usize);

#[cfg(feature = "fault-injection")]
impl rbq::rbq_router::Partitioner for AllTo {
    fn shard(&self, _label: &str, _shards: usize) -> usize {
        self.0
    }
}

/// A crash at the durability barrier of `Router::apply_deltas` happens
/// before the install: every shard — asked one by one — still serves the
/// pre-delta generation, and the directory recovers to a prefix adjacent
/// to the crashed batch.
#[cfg(feature = "fault-injection")]
#[test]
fn router_crash_during_wal_fsync_installs_on_no_shard() {
    use rbq::rbq_router::Partitioner;
    const PROBES: [&dyn Partitioner; 3] = [&AllTo(0), &AllTo(1), &AllTo(2)];
    let _s = serial();
    let (g, qs) = fixture();
    let batches = sample_batches();
    // Reaches the node the first batch adds: an error until it installs.
    let probe = [Query::Reach {
        source: NodeId(0),
        target: NodeId(300),
    }];
    for (shard, policy) in PROBES.into_iter().enumerate() {
        let dir = fresh_dir("router_fsync");
        let mut router = Router::new(g.clone(), cfg(), PROBES.len(), policy).expect("router");
        router.enable_durability(&dir).expect("enable durability");
        {
            let _plan = arm(FaultPlan::new().on_nth("wal.fsync", 0, FaultAction::Panic));
            let crashed = catch_unwind(AssertUnwindSafe(|| router.apply_deltas(&batches[0])));
            assert!(crashed.is_err(), "injected wal.fsync fault never fired");
        }
        let report = router.run_batch(&probe);
        assert_eq!(report.per_shard[shard].routed, 1);
        assert!(
            matches!(report.results[0].answer, Answer::Error(_)),
            "shard {shard} serves the crashed batch: {:?}",
            report.results[0].answer
        );
        drop(router);

        let (recovered, report) =
            Router::recover(&dir, cfg(), PROBES.len(), policy).expect("router recovery");
        // wal.fsync fires after the record write: the crashed batch may or
        // may not have reached the file.
        let k = report.last_seq as usize;
        assert!(k <= 1, "surviving prefix {k} not adjacent to the crash");
        let got: Vec<Answer> = recovered
            .run_batch(&qs)
            .results
            .into_iter()
            .map(|r| r.answer)
            .collect();
        assert_eq!(got, reference_answers(&g, &batches, k, &qs));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
