//! The replay-and-floor estimator, percentiles, and span arithmetic.
//!
//! A workload replays one fixed operation list for several identical
//! passes. Noise on this host is one-sided — a neighbour VM or a scheduler
//! preemption only ever makes an operation slower — so the estimate of an
//! operation's cost is the *minimum* of its wall time over the passes
//! ([`Floors`]). Throughput and latency percentiles are then computed over
//! operations, so the tail is the heavy queries, not the host. Memory is
//! one `u64` per operation; there is no per-sample log.

/// Per-operation minimum wall time over the passes, in nanoseconds.
#[derive(Debug, Clone)]
pub struct Floors {
    ns: Vec<u64>,
}

impl Floors {
    /// `n` operations, none observed yet.
    pub fn new(n: usize) -> Self {
        Floors {
            ns: vec![u64::MAX; n],
        }
    }

    /// Fold one observation of operation `i`.
    #[inline]
    pub fn record(&mut self, i: usize, ns: u64) {
        let slot = &mut self.ns[i];
        if ns < *slot {
            *slot = ns;
        }
    }

    /// Floors of the operations observed at least once.
    pub fn observed(&self) -> impl Iterator<Item = u64> + '_ {
        self.ns.iter().copied().filter(|&v| v != u64::MAX)
    }

    /// Floor of operation `i`, if observed.
    pub fn get(&self, i: usize) -> Option<u64> {
        Some(self.ns[i]).filter(|&v| v != u64::MAX)
    }

    /// Sum of the observed floors, in seconds.
    pub fn sum_s(&self) -> f64 {
        self.observed().map(|v| v as f64).sum::<f64>() * 1e-9
    }

    /// Mean of the observed floors in microseconds; 0 when none.
    pub fn mean_us(&self) -> f64 {
        let n = self.observed().count();
        if n == 0 {
            0.0
        } else {
            self.sum_s() * 1e6 / n as f64
        }
    }

    /// Nearest-rank percentile (`p` in `(0, 100]`) over the observed
    /// floors, in nanoseconds; 0 when none.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        let mut v: Vec<u64> = self.observed().collect();
        v.sort_unstable();
        percentile_sorted(&v, p)
    }
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a float sample (mean of the middle pair when even); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them — the statistic the acceptance check is stated in.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two or more values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median — the repeat spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// One recorded interval. `parent` indexes into the same slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u32,
    /// Layer-qualified name, e.g. `core.reduction`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are not counted
/// twice, and a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_ignores_injected_spikes() {
        // 100 operations whose true cost is 1000 + i ns; every pass adds a
        // one-sided spike to a different tenth of them.
        let n = 100;
        let mut f = Floors::new(n);
        for pass in 0..10 {
            for i in 0..n {
                let spike = if i % 10 == pass { 50_000 } else { 0 };
                f.record(i, 1000 + i as u64 + spike + (pass as u64 * 3));
            }
        }
        for i in 0..n {
            // Pass 0 is the quietest unless it carried the spike.
            let want = 1000 + i as u64 + if i % 10 == 0 { 3 } else { 0 };
            assert_eq!(f.get(i), Some(want));
        }
        assert!(
            f.percentile_ns(99.0) < 1200,
            "the tail is the ops, not the spikes"
        );
        let mean = f.mean_us();
        assert!((mean - 1.0498).abs() < 0.001, "{mean}");
    }

    #[test]
    fn unobserved_operations_do_not_count() {
        let mut f = Floors::new(4);
        f.record(1, 10);
        f.record(3, 30);
        assert_eq!(f.observed().count(), 2);
        assert_eq!(f.get(0), None);
        assert_eq!(f.percentile_ns(50.0), 10);
        assert_eq!(f.percentile_ns(100.0), 30);
        assert!((f.sum_s() - 40e-9).abs() < 1e-15);
        assert_eq!(Floors::new(0).percentile_ns(50.0), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.5), 1);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), (1.5, 8.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 0,
            name: "t",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(None, 0, 100),     // root
            span(Some(0), 10, 40),  // child
            span(Some(0), 30, 60),  // overlaps the first child
            span(Some(2), 35, 45),  // grandchild: not the root's business
            span(Some(0), 90, 130), // sticks out of the parent: clipped
        ];
        let s = self_times(&spans);
        // Root: 100 - (10..60 = 50) - (90..100 = 10) = 40.
        assert_eq!(s[0], 40);
        assert_eq!(s[1], 30);
        assert_eq!(s[2], 20);
        assert_eq!(s[3], 10);
        assert_eq!(s[4], 40);
    }
}
