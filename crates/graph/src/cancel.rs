//! Cooperative deadline cancellation for long-running kernels.
//!
//! The paper bounds work in *space* (the `α` resource ratio); serving also
//! needs a bound in *time*. A [`CancelToken`] carries an optional deadline;
//! kernels thread a [`CancelTicker`] through their hot loops and call
//! [`CancelTicker::tick`] at cooperative cancellation points. The tick is a
//! single branch when no deadline is armed (no clock read, no allocation —
//! the warm serving path stays allocation-free), and amortizes the clock
//! read over `TICK_INTERVAL` (1024) iterations when one is.
//!
//! Expiry is signalled by unwinding with a [`CancelPanic`] payload via
//! [`std::panic::panic_any`]; the engine catches it per query with
//! `catch_unwind` and settles the query as `Answer::TimedOut`. Kernels never
//! observe a half-cancelled state: scratch buffers crossed by an unwind are
//! discarded by the engine, never returned to the pool.

use std::time::Instant;

/// How many ticks elapse between deadline clock reads. The first tick of a
/// kernel always checks, so even tiny inputs hit at least one check.
const TICK_INTERVAL: u32 = 1024;

/// An optional deadline handed down from the batch scheduler. `Copy` and
/// two words wide; the default token never expires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CancelToken {
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never expires — every tick is a single predictable
    /// branch.
    #[inline]
    pub const fn none() -> Self {
        CancelToken { deadline: None }
    }

    /// A token expiring at `deadline`.
    #[inline]
    pub const fn at(deadline: Instant) -> Self {
        CancelToken {
            deadline: Some(deadline),
        }
    }

    /// The armed deadline, if any.
    #[inline]
    pub const fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the armed deadline has already passed. Never true for an
    /// unarmed token; reads the clock only when armed.
    #[inline]
    pub fn is_expired(&self) -> bool {
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }
}

/// The unwind payload carried by a cooperative cancellation (see the module
/// docs). Engines downcast the caught payload to this type to distinguish a
/// deadline expiry (`TimedOut`) from a genuine kernel panic (`Failed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancelPanic {
    /// The cancellation point that fired, e.g. `"dualsim.fixpoint"`.
    pub point: &'static str,
}

/// A per-kernel tick counter over a [`CancelToken`]. `Copy`, so kernels
/// that `mem::take` their scratch into locals can copy the ticker out and
/// write it back.
#[derive(Debug, Clone, Copy, Default)]
pub struct CancelTicker {
    token: CancelToken,
    count: u32,
}

impl CancelTicker {
    /// A ticker over `token` with a fresh counter.
    #[inline]
    pub const fn new(token: CancelToken) -> Self {
        CancelTicker { token, count: 0 }
    }

    /// The underlying token.
    #[inline]
    pub const fn token(&self) -> CancelToken {
        self.token
    }

    /// Replace the token and reset the counter (called once per query).
    #[inline]
    pub fn arm(&mut self, token: CancelToken) {
        self.token = token;
        self.count = 0;
    }

    /// One cooperative cancellation point. When the token is unarmed this
    /// is a single branch; when armed, every `TICK_INTERVAL`-th call
    /// (starting with the first) reads the clock and, on expiry, unwinds
    /// with a [`CancelPanic`] tagged `point`.
    #[inline]
    pub fn tick(&mut self, point: &'static str) {
        let Some(deadline) = self.token.deadline else {
            return;
        };
        self.count = self.count.wrapping_add(1);
        if self.count % TICK_INTERVAL == 1 && Instant::now() >= deadline {
            std::panic::panic_any(CancelPanic { point });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unarmed_token_never_fires() {
        let mut t = CancelTicker::new(CancelToken::none());
        for _ in 0..10 * TICK_INTERVAL {
            t.tick("test.point");
        }
        assert!(t.token().deadline().is_none());
        assert!(!t.token().is_expired());
    }

    #[test]
    fn expired_deadline_fires_on_first_tick() {
        let past = Instant::now() - Duration::from_secs(1);
        let mut t = CancelTicker::new(CancelToken::at(past));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.tick("test.point");
        }))
        .expect_err("expired deadline must unwind");
        let cp = caught
            .downcast_ref::<CancelPanic>()
            .expect("payload is CancelPanic");
        assert_eq!(cp.point, "test.point");
    }

    #[test]
    fn distant_deadline_does_not_fire() {
        let far = Instant::now() + Duration::from_secs(3600);
        let mut t = CancelTicker::new(CancelToken::at(far));
        for _ in 0..3 * TICK_INTERVAL {
            t.tick("test.point");
        }
        assert!(t.token().deadline().is_some());
    }

    #[test]
    fn arm_resets_counter() {
        let far = Instant::now() + Duration::from_secs(3600);
        let mut t = CancelTicker::new(CancelToken::at(far));
        t.tick("a");
        t.arm(CancelToken::none());
        assert!(t.token().deadline().is_none());
        t.tick("a");
    }
}
