//! Deterministic fault injection for the chaos differential suite.
//!
//! Named fault points are compiled into the engine, durability layer, and
//! kernels as calls to [`fire`] / [`fire_at`]. Without the `fault-injection` feature
//! these are inline no-ops and the whole module compiles to nothing. With
//! the feature, a seeded [`FaultPlan`] can be armed process-wide; when a
//! fired point matches an armed entry the plan's action happens:
//!
//! * [`FaultAction::Panic`] — a std panic (the engine's containment turns
//!   it into `Answer::Failed`);
//! * [`FaultAction::Delay`] — a bounded sleep (answers must be unchanged);
//! * [`FaultAction::Starve`] — unwinds with a
//!   [`crate::cancel::CancelPanic`], modeling deterministic budget/deadline
//!   starvation (the engine settles the query as `Answer::TimedOut`).
//!
//! Triggers are deterministic: [`fire_at`] matches an explicit index (e.g.
//! the query's position in the submitted batch), and [`fire`] matches the *n*-th hit of the
//! point since arming (hit counters are process-global, so nth-hit plans
//! are deterministic only under single-threaded evaluation).
//!
//! Arming returns an RAII [`ArmedPlan`] guard that disarms on drop, so a
//! test that panics cannot leak its plan into the next test.

#[cfg(feature = "fault-injection")]
pub use imp::{arm, ArmedPlan, FaultAction, FaultPlan};

/// The declared registry of every fault-point name compiled into the
/// serving path. `rbq-lint`'s `faultpoint-registry` rule checks both
/// directions on every push: a [`fire`] / [`fire_at`] call whose name is
/// not listed here is a lint error, and so is a listed name that nothing
/// fires — so the registry can neither drift stale nor hide typos in the
/// stringly point names.
pub const REGISTRY: &[&str] = &[
    "ball.bfs",            // BallScratch BFS inner loop
    "dualsim.fixpoint",    // dual-simulation worklist fixpoint
    "reduction.pick",      // reduction Pick scoring loop
    "vf2.step",            // VF2 enumeration step
    "engine.run_one",      // per-query engine entry (index = batch position)
    "engine.worker",       // batch worker, between two claims (index = replica)
    "engine.worker.retry", // calling-thread retry of a lost worker's claims
    "wal.append",          // WAL record write, before bytes reach the file
    "wal.fsync",           // WAL durability barrier, before sync_data
    "snapshot.write",      // snapshot serialization entry
    "snapshot.load",       // snapshot deserialization entry
    "wal.replay",          // WAL replay, once per record walked
];

/// Fire the named fault point. No-op unless the `fault-injection` feature
/// is enabled and an armed plan matches this hit.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn fire(_point: &'static str) {}

/// Fire the named fault point with an explicit index (a query's position
/// in the batch as submitted — the same query at any thread or shard count
/// — or a worker's replica). No-op unless the `fault-injection` feature is
/// enabled and an armed plan matches `(point, index)`.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn fire_at(_point: &'static str, _index: u64) {}

#[cfg(feature = "fault-injection")]
pub use imp::{fire, fire_at};

#[cfg(feature = "fault-injection")]
mod imp {
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
        point: &'static str,
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
        pub fn on_nth(mut self, point: &'static str, nth: u64, action: FaultAction) -> Self {
            self.entries.push(Entry {
                point,
                trigger: Trigger::Nth(nth),
                action,
                fired: false,
            });
            self
        }

        /// Trigger `action` on a [`fire_at`] hit of `point` with `index`.
        pub fn on_index(mut self, point: &'static str, index: u64, action: FaultAction) -> Self {
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
        /// (point, hits-so-far) counters for nth-hit triggers.
        hits: Vec<(&'static str, u64)>,
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
            hits: Vec::new(),
        });
        ARMED.store(true, Ordering::SeqCst);
        ArmedPlan(())
    }

    /// RAII guard for an armed [`FaultPlan`]; dropping it disarms the plan
    /// even if the owning test unwinds.
    #[must_use = "dropping the guard disarms the plan"]
    pub struct ArmedPlan(());

    impl Drop for ArmedPlan {
        fn drop(&mut self) {
            ARMED.store(false, Ordering::SeqCst);
            *plan_lock() = None;
        }
    }

    /// Point used as the [`CancelPanic`] tag for injected starvation.
    const STARVE_POINT: &str = "faultpoint.starve";

    fn perform(action: FaultAction, point: &'static str) {
        match action {
            // invariant: the injected panic *is* this action's contract —
            // callers opt in via `FaultPlan` and the serving loop contains
            // it with per-query `catch_unwind`.
            FaultAction::Panic => panic!("injected fault at {point}"),
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Starve => std::panic::panic_any(CancelPanic {
                point: STARVE_POINT,
            }),
        }
    }

    /// Fire the named fault point (nth-hit triggers).
    pub fn fire(point: &'static str) {
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        let action = {
            let mut g = plan_lock();
            let Some(state) = g.as_mut() else { return };
            let hit = match state.hits.iter_mut().find(|(p, _)| *p == point) {
                Some((_, n)) => {
                    let h = *n;
                    *n += 1;
                    h
                }
                None => {
                    state.hits.push((point, 1));
                    0
                }
            };
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

    /// Fire the named fault point with an explicit index.
    pub fn fire_at(point: &'static str, index: u64) {
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

        /// Plans are process-global; serialize the tests that arm them.
        static SERIAL: TestMutex<()> = TestMutex::new(());

        #[test]
        fn unarmed_fire_is_noop() {
            let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            fire("x");
            fire_at("x", 3);
        }

        #[test]
        fn nth_hit_triggers_once() {
            let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            let _g = arm(FaultPlan::new().on_nth("p", 2, FaultAction::Panic));
            fire("p");
            fire("p");
            let err = std::panic::catch_unwind(|| fire("p"));
            assert!(err.is_err(), "third hit must panic");
            fire("p"); // entry spent: no further panic
        }

        #[test]
        fn index_trigger_matches_exactly() {
            let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            let _g = arm(FaultPlan::new().on_index("q", 5, FaultAction::Starve));
            fire_at("q", 4);
            let err = std::panic::catch_unwind(|| fire_at("q", 5)).expect_err("must unwind");
            let cp = err
                .downcast_ref::<CancelPanic>()
                .expect("starve unwinds with CancelPanic");
            assert_eq!(cp.point, STARVE_POINT);
        }

        #[test]
        fn guard_disarms_on_drop() {
            let _s = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            {
                let _g = arm(FaultPlan::new().on_nth("r", 0, FaultAction::Panic));
            }
            fire("r"); // disarmed: no panic
        }
    }
}
