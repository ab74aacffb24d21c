//! Crash-recovery scenarios: a panic injected at a named IO fault point
//! (`wal.append`, `wal.fsync`, `snapshot.write`, `snapshot.load`,
//! `wal.replay`) — during ingest, checkpoint, or a prior recovery attempt
//! — leaves on-disk state from which `Engine::recover` rebuilds an engine
//! equivalent to a fresh one built from the same surviving prefix of delta
//! batches: same graph, byte-identical answers on the mixed workload. A
//! sharded deployment's durable state is shard 0's, and a crash at its
//! durability barrier installs the batch on no shard.
//!
//! Runs only under `cargo test --features fault-injection`. Crashes
//! interleaved with queries, checkpoints and restarts, on every deployment
//! shape, are `tests/model.rs`'s.
#![cfg(feature = "fault-injection")]

mod support;

use rbq::rbq_engine::faultpoint::{arm, FaultAction, FaultPlan};
use rbq::rbq_engine::{Answer, Durability, Engine, Query};
use rbq::rbq_router::{Partitioner, Router};
use rbq_graph::{DeltaBatch, Graph, Point};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use support::{
    answers, crashes, fixture, fixture_cfg, fresh_dir, prefix_graph, reach, sample_batches, serial,
    AllTo, FIXTURE_NODES,
};

/// The reference: a fresh, non-durable engine over the base graph with
/// the first `k` batches plainly applied.
fn reference_answers(base: &Graph, batches: &[DeltaBatch], k: usize, qs: &[Query]) -> Vec<Answer> {
    let g = Arc::new(prefix_graph(base, batches, k));
    answers(&Engine::new(g, fixture_cfg(1)).run_batch(qs).results)
}

/// Crash during durable ingest at `point` on its `nth` firing, then pin
/// `recover()` ≡ fresh-engine-from-surviving-prefix.
fn ingest_crash_scenario(point: Point, nth: u64, crash_batch: usize) {
    let (g, qs) = fixture();
    let batches = sample_batches(FIXTURE_NODES);
    let dir = fresh_dir("ingest");

    let engine = Engine::new(g.clone(), fixture_cfg(1));
    engine.enable_durability(&dir).expect("enable durability");
    let crashed = {
        let _plan = arm(FaultPlan::new().on_nth(point, nth, FaultAction::Panic));
        let apply = |b| catch_unwind(AssertUnwindSafe(|| engine.apply_deltas(b))).is_err();
        batches.iter().any(apply)
    };
    assert!(crashed, "{point} nth={nth}: injected fault never fired");
    drop(engine); // the "process" died; only the directory survives

    let (recovered, report) = Engine::recover(&dir, fixture_cfg(1))
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
    let got = answers(&recovered.run_batch(&qs).results);
    let want = reference_answers(&g, &batches, k, &qs);
    assert_eq!(
        got, want,
        "{point} nth={nth}: recovered answers diverge from surviving-prefix reference"
    );
}

#[test]
fn crash_during_wal_append_recovers_prefix() {
    let _s = serial();
    for k in 0..sample_batches(FIXTURE_NODES).len() {
        ingest_crash_scenario(Point::WalAppend, k as u64, k);
    }
}

#[test]
fn crash_during_wal_fsync_recovers_prefix() {
    let _s = serial();
    for k in 0..sample_batches(FIXTURE_NODES).len() {
        ingest_crash_scenario(Point::WalFsync, k as u64, k);
    }
}

/// `snapshot.write` fires when the durable directory is first seeded: a
/// crash there leaves no snapshot, and recovery reports it typed.
#[test]
fn crash_during_initial_snapshot_write_is_typed_on_recovery() {
    let _s = serial();
    let (g, _qs) = fixture();
    let dir = fresh_dir("seed");
    let engine = Engine::new(g, fixture_cfg(1));
    let crashed = crashes(Point::SnapshotWrite, 0, || engine.enable_durability(&dir));
    assert!(crashed, "seeding snapshot.write fault never fired");
    assert!(
        !engine.durability_enabled(),
        "crashed seeding left durability on"
    );
    match Engine::recover(&dir, fixture_cfg(1)) {
        Err(e) => {
            let _ = e.to_string();
        }
        Ok(_) => panic!("recovery succeeded with no snapshot on disk"),
    }
}

/// A crash inside `checkpoint` (snapshot rewrite) must not lose state:
/// the old snapshot plus the full WAL still recover everything.
#[test]
fn crash_during_checkpoint_snapshot_write_loses_nothing() {
    let _s = serial();
    let (g, qs) = fixture();
    let batches = sample_batches(FIXTURE_NODES);
    let dir = fresh_dir("ckpt");
    let mut d = Durability::create(&dir, &g).expect("create durable state");
    for b in &batches {
        d.append(b).expect("append");
    }
    // The graph content the checkpoint would have written is irrelevant to
    // the contract — the crash happens before any bytes land.
    let crashed = crashes(Point::SnapshotWrite, 0, || d.checkpoint(&g));
    assert!(crashed, "checkpoint snapshot.write fault never fired");
    drop(d);
    let (recovered, report) =
        Engine::recover(&dir, fixture_cfg(1)).expect("recover after checkpoint crash");
    assert_eq!(report.last_seq as usize, batches.len());
    let got = answers(&recovered.run_batch(&qs).results);
    let want = reference_answers(&g, &batches, batches.len(), &qs);
    assert_eq!(got, want, "checkpoint crash lost durable batches");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash during a RECOVERY attempt (`snapshot.load` / `wal.replay`), then
/// a second, clean recovery must still serve the full surviving prefix —
/// recovery is read-only until it succeeds, so it is retryable.
#[test]
fn crash_during_recovery_is_retryable() {
    let _s = serial();
    let (g, qs) = fixture();
    let batches = sample_batches(FIXTURE_NODES);
    for (point, nth) in [
        (Point::SnapshotLoad, 0u64),
        (Point::WalReplay, 0),
        (Point::WalReplay, 2),
    ] {
        let dir = fresh_dir("rerecover");
        let mut d = Durability::create(&dir, &g).expect("create durable state");
        for b in &batches {
            d.append(b).expect("append");
        }
        drop(d);
        let crashed = crashes(point, nth, || Engine::recover(&dir, fixture_cfg(1)));
        assert!(crashed, "{point} nth={nth}: recovery fault never fired");
        let (recovered, report) =
            Engine::recover(&dir, fixture_cfg(1)).expect("clean recovery after crashed recovery");
        assert_eq!(
            report.last_seq as usize,
            batches.len(),
            "{point}: lost batches"
        );
        let got = answers(&recovered.run_batch(&qs).results);
        let want = reference_answers(&g, &batches, batches.len(), &qs);
        assert_eq!(got, want, "{point} nth={nth}: retried recovery diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A crash at the durability barrier of `Router::apply_deltas` happens
/// before the install: every shard — asked one by one — still serves the
/// pre-delta generation, and the directory recovers to a prefix adjacent
/// to the crashed batch.
#[test]
fn router_crash_during_wal_fsync_installs_on_no_shard() {
    const PROBES: [&dyn Partitioner; 3] = [&AllTo(0), &AllTo(1), &AllTo(2)];
    let _s = serial();
    let (g, qs) = fixture();
    let batches = sample_batches(FIXTURE_NODES);
    // Reaches the node the first batch adds: an error until it installs.
    let probe = [reach(0, FIXTURE_NODES as usize)];
    for (shard, policy) in PROBES.into_iter().enumerate() {
        let dir = fresh_dir("router_fsync");
        let mut router =
            Router::new(g.clone(), fixture_cfg(1), PROBES.len(), policy).expect("router");
        router.enable_durability(&dir).expect("enable durability");
        let crashed = crashes(Point::WalFsync, 0, || router.apply_deltas(&batches[0]));
        assert!(crashed, "injected wal.fsync fault never fired");
        let report = router.run_batch(&probe);
        assert_eq!(report.per_shard[shard].routed, 1);
        assert!(
            matches!(report.results[0].answer, Answer::Error(_)),
            "shard {shard} serves the crashed batch: {:?}",
            report.results[0].answer
        );
        drop(router);

        let (recovered, report) =
            Router::recover(&dir, fixture_cfg(1), PROBES.len(), policy).expect("router recovery");
        // wal.fsync fires after the record write: the crashed batch may or
        // may not have reached the file.
        let k = report.last_seq as usize;
        assert!(k <= 1, "surviving prefix {k} not adjacent to the crash");
        let got = answers(&recovered.run_batch(&qs).results);
        assert_eq!(got, reference_answers(&g, &batches, k, &qs));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
