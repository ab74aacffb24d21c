//! Deterministic fault injection for the chaos differential suite.
//!
//! Every program point a fault can hit or a deadline can interrupt is one
//! [`Point`] variant. Points are compiled into the engine, durability
//! layer, and kernels as calls to [`fire`] / [`fire_at`]; the kernels also
//! tick their [`crate::cancel::CancelTicker`] under the same [`Point`].
//! Without the `fault-injection` feature [`fire`] and [`fire_at`] are
//! inline no-ops. With the feature, a seeded [`FaultPlan`] can be armed
//! process-wide; when a fired point matches an armed entry the plan's
//! action happens:
//!
//! * [`FaultAction::Panic`] — a std panic (the engine's containment turns
//!   it into `Answer::Failed`);
//! * [`FaultAction::Delay`] — a bounded sleep (answers must be unchanged);
//! * [`FaultAction::Starve`] — unwinds with a
//!   [`crate::cancel::CancelPanic`] naming the point, modeling
//!   deterministic budget/deadline starvation (the engine settles the query
//!   as `Answer::TimedOut`).
//!
//! Triggers are deterministic: [`fire_at`] matches an explicit index (e.g.
//! the query's position in the submitted batch), and [`fire`] matches the *n*-th hit of the
//! point since arming (hit counters are process-global, so nth-hit plans
//! are deterministic only under single-threaded evaluation).
//!
//! Arming returns an RAII [`ArmedPlan`] guard that disarms on drop, so a
//! test that panics cannot leak its plan into the next test.

use std::fmt;

#[cfg(feature = "fault-injection")]
pub use imp::{arm, ArmedPlan, FaultAction, FaultPlan};

/// A named program point: a fault site, a cancellation tick, or both. The
/// compiler checks every name; [`Point::NAMES`] spells them for the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Point {
    /// `BallScratch` BFS: fired once per ball, ticked per dequeued node.
    BallBfs,
    /// Dual-simulation worklist fixpoint: fired once per run, ticked per
    /// worklist pop.
    DualsimFixpoint,
    /// Reduction `Pick` scoring loop: fired once per search, ticked per
    /// popped pair.
    ReductionPick,
    /// VF2 enumeration step: fired and ticked per candidate probe.
    Vf2Step,
    /// Per-query engine entry (index = batch position).
    EngineRunOne,
    /// Batch worker, between two claims (index = replica).
    EngineWorker,
    /// Calling-thread retry of a lost worker's claims.
    EngineWorkerRetry,
    /// WAL record write, before bytes reach the file.
    WalAppend,
    /// WAL durability barrier, before `sync_data`.
    WalFsync,
    /// Snapshot serialization entry.
    SnapshotWrite,
    /// Snapshot deserialization entry.
    SnapshotLoad,
    /// WAL replay, once per record walked.
    WalReplay,
}

impl Point {
    /// Every point, in declaration (discriminant) order.
    pub const ALL: [Point; 12] = [
        Point::BallBfs,
        Point::DualsimFixpoint,
        Point::ReductionPick,
        Point::Vf2Step,
        Point::EngineRunOne,
        Point::EngineWorker,
        Point::EngineWorkerRetry,
        Point::WalAppend,
        Point::WalFsync,
        Point::SnapshotWrite,
        Point::SnapshotLoad,
        Point::WalReplay,
    ];

    const COUNT: usize = Self::ALL.len();

    /// The external spelling of each point, indexed like [`Point::ALL`].
    pub const NAMES: [&'static str; Self::COUNT] = [
        "ball.bfs",
        "dualsim.fixpoint",
        "reduction.pick",
        "vf2.step",
        "engine.run_one",
        "engine.worker",
        "engine.worker.retry",
        "wal.append",
        "wal.fsync",
        "snapshot.write",
        "snapshot.load",
        "wal.replay",
    ];

    /// This point's external spelling.
    pub const fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// The point spelled `name`, if any (for names from outside the
    /// program, e.g. `rbq --inject`).
    pub fn from_name(name: &str) -> Option<Point> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Fire `point`. No-op unless the `fault-injection` feature is enabled and
/// an armed plan matches this hit.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn fire(_point: Point) {}

/// Fire `point` with an explicit index (a query's position in the batch as
/// submitted — the same query at any thread or shard count — or a worker's
/// replica). No-op unless the `fault-injection` feature is enabled and an
/// armed plan matches `(point, index)`.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn fire_at(_point: Point, _index: u64) {}

#[cfg(feature = "fault-injection")]
pub use imp::{fire, fire_at};

#[cfg(feature = "fault-injection")]
mod imp {
    use super::Point;
    use crate::cancel::CancelPanic;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    /// What happens when an armed fault entry triggers.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultAction {
        /// A std panic with a string payload — models a kernel bug; the
        /// engine's containment settles the query as `Failed`.
        Panic,
        /// Sleep for the given duration — models a slow shard or page-in;
        /// answers must be byte-identical to a fault-free run.
        Delay(Duration),
        /// Unwind with a [`CancelPanic`] — models deterministic resource
        /// starvation; the engine settles the query as `TimedOut`.
        Starve,
    }

    /// How an entry decides whether a given hit triggers it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Trigger {
        /// The n-th [`fire`] hit of the point since arming (0-based).
        Nth(u64),
        /// A [`fire_at`] hit with exactly this index.
        At(u64),
    }

    #[derive(Debug, Clone)]
    struct Entry {
        point: Point,
        trigger: Trigger,
        action: FaultAction,
        fired: bool,
    }

    /// A deterministic set of faults to inject, built by a seeded test and
    /// armed process-wide via [`arm`]. Each entry fires at most once.
    #[derive(Debug, Clone, Default)]
    pub struct FaultPlan {
        entries: Vec<Entry>,
    }

    impl FaultPlan {
        /// An empty plan (injects nothing).
        pub fn new() -> Self {
            Self::default()
        }

        /// Whether the plan has no entries.
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// Trigger `action` on the `nth` [`fire`] hit of `point` (0-based).
        pub fn on_nth(mut self, point: Point, nth: u64, action: FaultAction) -> Self {
            self.entries.push(Entry {
                point,
                trigger: Trigger::Nth(nth),
                action,
                fired: false,
            });
            self
        }

        /// Trigger `action` on a [`fire_at`] hit of `point` with `index`.
        pub fn on_index(mut self, point: Point, index: u64, action: FaultAction) -> Self {
            self.entries.push(Entry {
                point,
                trigger: Trigger::At(index),
                action,
                fired: false,
            });
            self
        }
    }

    struct PlanState {
        entries: Vec<Entry>,
        /// Hits so far per point, for nth-hit triggers.
        hits: [u64; Point::COUNT],
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static PLAN: Mutex<Option<PlanState>> = Mutex::new(None);

    fn plan_lock() -> std::sync::MutexGuard<'static, Option<PlanState>> {
        // A panic raised by a triggered action never happens while this
        // lock is held (actions run after release), but recover anyway.
        PLAN.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arm `plan` process-wide, returning a guard that disarms on drop.
    /// Arming replaces any previously armed plan.
    pub fn arm(plan: FaultPlan) -> ArmedPlan {
        let mut g = plan_lock();
        *g = Some(PlanState {
            entries: plan.entries,
            hits: [0; Point::COUNT],
        });
        ARMED.store(true, Ordering::SeqCst);
        ArmedPlan(())
    }

    /// RAII guard for an armed [`FaultPlan`]; dropping it disarms the plan
    /// even if the owning test unwinds.
    #[must_use = "dropping the guard disarms the plan"]
    pub struct ArmedPlan(());

    impl ArmedPlan {
        /// The points of the plan's entries that have not fired yet.
        pub fn unfired(&self) -> Vec<Point> {
            let g = plan_lock();
            let entries = g.iter().flat_map(|s| &s.entries);
            entries.filter(|e| !e.fired).map(|e| e.point).collect()
        }
    }

    impl Drop for ArmedPlan {
        fn drop(&mut self) {
            ARMED.store(false, Ordering::SeqCst);
            *plan_lock() = None;
        }
    }

    fn perform(action: FaultAction, point: Point) {
        match action {
            // invariant: the injected panic *is* this action's contract —
            // callers opt in via `FaultPlan` and the serving loop contains
            // it with per-query `catch_unwind`.
            FaultAction::Panic => panic!("injected fault at {point}"),
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Starve => std::panic::panic_any(CancelPanic { point }),
        }
    }

    /// Fire `point` (nth-hit triggers).
    pub fn fire(point: Point) {
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        let action = {
            let mut g = plan_lock();
            let Some(state) = g.as_mut() else { return };
            let hit = state.hits[point as usize];
            state.hits[point as usize] += 1;
            state
                .entries
                .iter_mut()
                .find(|e| !e.fired && e.point == point && e.trigger == Trigger::Nth(hit))
                .map(|e| {
                    e.fired = true;
                    e.action
                })
        };
        if let Some(a) = action {
            perform(a, point);
        }
    }

    /// Fire `point` with an explicit index.
    pub fn fire_at(point: Point, index: u64) {
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        let action = {
            let mut g = plan_lock();
            let Some(state) = g.as_mut() else { return };
            state
                .entries
                .iter_mut()
                .find(|e| !e.fired && e.point == point && e.trigger == Trigger::At(index))
                .map(|e| {
                    e.fired = true;
                    e.action
                })
        };
        if let Some(a) = action {
            perform(a, point);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Mutex as TestMutex;

        /// Plans are process-global; serialize the tests that arm them. The
        /// points armed here are ones this crate's other tests never fire.
        static SERIAL: TestMutex<()> = TestMutex::new(());

        #[test]
        fn unarmed_fire_is_noop() {
            let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            fire(Point::EngineWorker);
            fire_at(Point::EngineWorker, 3);
        }

        #[test]
        fn nth_hit_triggers_once() {
            let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            let _g = arm(FaultPlan::new().on_nth(Point::Vf2Step, 2, FaultAction::Panic));
            fire(Point::Vf2Step);
            fire(Point::Vf2Step);
            let err = std::panic::catch_unwind(|| fire(Point::Vf2Step));
            assert!(err.is_err(), "third hit must panic");
            fire(Point::Vf2Step); // entry spent: no further panic
        }

        #[test]
        fn index_trigger_matches_exactly() {
            let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            let _g = arm(FaultPlan::new().on_index(Point::EngineRunOne, 5, FaultAction::Starve));
            fire_at(Point::EngineRunOne, 4);
            let err = std::panic::catch_unwind(|| fire_at(Point::EngineRunOne, 5))
                .expect_err("must unwind");
            let cp = err
                .downcast_ref::<CancelPanic>()
                .expect("starve unwinds with CancelPanic");
            assert_eq!(cp.point, Point::EngineRunOne);
        }

        #[test]
        fn guard_disarms_on_drop() {
            let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            {
                let _g =
                    arm(FaultPlan::new().on_nth(Point::EngineWorkerRetry, 0, FaultAction::Panic));
            }
            fire(Point::EngineWorkerRetry); // disarmed: no panic
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Point;

    /// The CLI and CI spell points by these strings: they round-trip, are
    /// distinct, and stay exactly what they were.
    #[test]
    fn names_round_trip_and_are_pinned() {
        for (i, p) in Point::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i, "ALL out of discriminant order at {p:?}");
            assert_eq!(Point::from_name(p.name()), Some(p));
        }
        let mut sorted = Point::NAMES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), Point::NAMES.len(), "duplicate name");
        assert_eq!(
            Point::NAMES,
            [
                "ball.bfs",
                "dualsim.fixpoint",
                "reduction.pick",
                "vf2.step",
                "engine.run_one",
                "engine.worker",
                "engine.worker.retry",
                "wal.append",
                "wal.fsync",
                "snapshot.write",
                "snapshot.load",
                "wal.replay",
            ]
        );
    }
}
