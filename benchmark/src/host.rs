//! Host-side readings: memory high-water mark, run-queue wait, and a
//! pointer-chase floor. The `host.*` numbers are diagnostic only — they
//! show when the host, not the code, moved a result.

use rand::seq::SliceRandom;
use std::time::Instant;

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), in MiB; 0 where
/// procfs is absent.
pub fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(on-cpu ns, run-queue wait ns)` of this thread so far, from
/// `/proc/self/schedstat`; zeros where it is absent.
pub fn schedstat() -> (u64, u64) {
    let parse = || {
        let s = std::fs::read_to_string("/proc/self/schedstat").ok()?;
        let mut it = s.split_whitespace().map(|t| t.parse::<u64>().ok());
        Some((it.next()??, it.next()??))
    };
    parse().unwrap_or((0, 0))
}

/// Share of the interval since `before` that the thread spent runnable but
/// waiting for a CPU.
pub fn runq_wait_share(before: (u64, u64)) -> f64 {
    let now = schedstat();
    let run = now.0.saturating_sub(before.0) as f64;
    let wait = now.1.saturating_sub(before.1) as f64;
    if run + wait == 0.0 {
        0.0
    } else {
        wait / (run + wait)
    }
}

/// A dependent-load chain over a buffer larger than the last-level cache.
/// Its per-step floor moves with memory latency and neighbour pressure, not
/// with anything in this repository.
pub struct Chase {
    next: Vec<u32>,
    at: u32,
    floor_ns: f64,
}

impl Chase {
    /// One random cycle through `slots` `u32` slots (`slots ≥ 2`).
    pub fn new(slots: usize) -> Self {
        let mut order: Vec<u32> = (0..slots as u32).collect();
        order.shuffle(&mut crate::gen::stream(0, 99));
        let mut next = vec![0u32; slots];
        for w in 0..slots {
            next[order[w] as usize] = order[(w + 1) % slots];
        }
        Chase {
            next,
            at: 0,
            floor_ns: f64::INFINITY,
        }
    }

    /// Chase `steps` links and fold the per-step time into the floor.
    pub fn sample(&mut self, steps: usize) {
        let t = Instant::now();
        let mut at = self.at;
        for _ in 0..steps {
            at = self.next[at as usize];
        }
        self.at = std::hint::black_box(at);
        let ns = t.elapsed().as_nanos() as f64 / steps as f64;
        self.floor_ns = self.floor_ns.min(ns);
    }

    /// Lowest per-step time seen, in nanoseconds; 0 before any sample.
    pub fn floor_ns(&self) -> f64 {
        if self.floor_ns.is_finite() {
            self.floor_ns
        } else {
            0.0
        }
    }
}

/// Slots of the traced run's chase buffer: 16 MiB, beyond the last-level
/// cache share a 2-vCPU guest can count on.
const CHASE_SLOTS: usize = 4 << 20;
/// Links chased per sample (a few tens of milliseconds).
const CHASE_STEPS: usize = 200_000;

/// The `host.*` readings of one traced run: a pointer-chase sample
/// interleaved between passes, and the run-queue wait over the whole
/// measuring phase.
pub struct HostProbe {
    chase: Chase,
    sched_at_start: (u64, u64),
}

impl HostProbe {
    /// Start observing.
    pub fn start() -> Self {
        HostProbe {
            chase: Chase::new(CHASE_SLOTS),
            sched_at_start: schedstat(),
        }
    }

    /// Call between passes.
    pub fn tick(&mut self) {
        self.chase.sample(CHASE_STEPS);
    }

    /// `(host.runq_wait_share, host.chase_ns)`.
    pub fn readings(&self) -> (f64, f64) {
        (runq_wait_share(self.sched_at_start), self.chase.floor_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_is_one_cycle() {
        let c = Chase::new(1000);
        let mut at = 0u32;
        let mut seen = vec![false; 1000];
        for _ in 0..1000 {
            assert!(!seen[at as usize]);
            seen[at as usize] = true;
            at = c.next[at as usize];
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn status_field_reads_kib_as_mib() {
        // Present on Linux; tolerated as 0 elsewhere.
        let hwm = status_mib("VmHWM");
        assert!(hwm >= 0.0);
        assert_eq!(status_mib("NoSuchField"), 0.0);
    }
}
