#![warn(missing_docs)]
//! # rbq-bench — experiment harness for the paper's evaluation (§6)
//!
//! Shared machinery behind the `experiments` binary and the Criterion
//! benches: dataset construction at a configurable scale, query workload
//! preparation, timing helpers, and the α-scaling rule.
//!
//! ## α scaling
//!
//! The paper's resource ratios (e.g. `α = 1.1×10⁻⁵`) are calibrated to
//! snapshots of 6M–18M size units; our default substitutes are 30–60×
//! smaller. What the algorithms actually consume is the *absolute* budget
//! `α·|G|`, so the harness keeps that invariant: it converts each paper α
//! to the budget the paper would have allowed on the real snapshot, then
//! divides by our graph's size. Both values are printed.

use rbq_core::{NeighborIndex, ResourceBudget};
use rbq_graph::{Graph, NodeId};
use rbq_pattern::ResolvedPattern;
use rbq_workload::{extract_pattern, PatternSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Size units (`|V| + |E|`) of the paper's real snapshots.
const PAPER_YOUTUBE_SIZE: f64 = 1_609_969.0 + 4_509_826.0;
/// See [`PAPER_YOUTUBE_SIZE`].
const PAPER_YAHOO_SIZE: f64 = 3_000_022.0 + 14_979_447.0;

/// Experiment-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Node count for the snapshot substitutes (paper: 1.6M / 3M).
    pub snapshot_nodes: usize,
    /// Pattern queries averaged per configuration point.
    pub pattern_queries: usize,
    /// Reachability queries per set (paper: 100).
    pub reach_queries: usize,
    /// Timing repetitions per measurement (median reported).
    pub reps: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            snapshot_nodes: 30_000,
            pattern_queries: 5,
            reach_queries: 100,
            reps: 3,
            seed: 42,
        }
    }
}

/// A dataset prepared for pattern experiments.
///
/// Graph and index are `Arc`-shared so the engine experiments can reuse
/// them without rebuilding (see [`rbq_engine::Engine::with_indexes`]).
pub struct PatternDataset {
    /// Dataset display name.
    pub name: &'static str,
    /// The graph.
    pub g: Arc<Graph>,
    /// The offline neighbor index.
    pub idx: Arc<NeighborIndex>,
    /// Size units of the paper's corresponding real snapshot (for α
    /// conversion), or `None` to use our α verbatim.
    pub paper_size: Option<f64>,
}

impl PatternDataset {
    /// Build the Youtube substitute.
    pub fn youtube(cfg: &ExpConfig) -> Self {
        let g = Arc::new(rbq_workload::youtube_like(cfg.snapshot_nodes, cfg.seed));
        let idx = Arc::new(NeighborIndex::build(&g));
        PatternDataset {
            name: "Youtube-like",
            g,
            idx,
            paper_size: Some(PAPER_YOUTUBE_SIZE),
        }
    }

    /// Build the Yahoo substitute.
    pub fn yahoo(cfg: &ExpConfig) -> Self {
        let g = Arc::new(rbq_workload::yahoo_like(cfg.snapshot_nodes, cfg.seed));
        let idx = Arc::new(NeighborIndex::build(&g));
        PatternDataset {
            name: "Yahoo-like",
            g,
            idx,
            paper_size: Some(PAPER_YAHOO_SIZE),
        }
    }

    /// Build a synthetic graph (`|E| = 2|V|`, 15 labels) as in §6.
    pub fn synthetic(nodes: usize, seed: u64) -> Self {
        let g = Arc::new(rbq_workload::uniform_random(nodes, 2 * nodes, 15, seed));
        let idx = Arc::new(NeighborIndex::build(&g));
        PatternDataset {
            name: "synthetic",
            g,
            idx,
            paper_size: None,
        }
    }

    /// Convert a paper α to a [`ResourceBudget`] on this graph, holding
    /// the absolute unit budget `α_paper × paper_size` fixed.
    pub fn budget_for_paper_alpha(&self, paper_alpha: f64) -> ResourceBudget {
        match self.paper_size {
            Some(ps) => {
                let units = (paper_alpha * ps).round().max(1.0) as usize;
                // `from_units` clamps to |G| itself.
                ResourceBudget::from_units(&*self.g, units)
            }
            None => ResourceBudget::from_ratio(&*self.g, paper_alpha.min(1.0)),
        }
    }

    /// Extract `n` resolvable patterns of the given size.
    ///
    /// Patterns are constrained to undirected diameter ≤ 3: the paper's
    /// `(n, 2n)` specs are dense (average query degree 4), which keeps
    /// diameters small; tree-shaped extractions with large `d_Q` would give
    /// the baselines quadratically larger neighborhoods than the paper's
    /// queries did.
    pub fn patterns(&self, spec: PatternSpec, n: usize, seed: u64) -> Vec<ResolvedPattern> {
        self.patterns_min_nbh(spec, n, seed, 0)
    }

    /// Like [`PatternDataset::patterns`], but keep only queries whose
    /// `d_Q`-neighborhood has at least `min_nbh` size units. The paper's
    /// personalized queries sit in neighborhoods of ~600 units (0.01% of
    /// `|G|`), which is what makes the `α|G|` budget *bind*; trivially
    /// small neighborhoods are answered exactly at any α and flatten the
    /// accuracy curves.
    pub fn patterns_min_nbh(
        &self,
        spec: PatternSpec,
        n: usize,
        seed: u64,
        min_nbh: usize,
    ) -> Vec<ResolvedPattern> {
        (0..2000u64)
            .filter_map(|s| extract_pattern(&self.g, spec, seed.wrapping_add(s)))
            .filter(|p| p.is_connected() && p.undirected_diameter() <= 3)
            .filter_map(|p| p.resolve(&self.g).ok())
            .filter(|q| q.dq() >= 1)
            .filter(|q| min_nbh == 0 || dq_neighborhood_size(&self.g, q) >= min_nbh)
            .take(n)
            .collect()
    }
}

/// Median wall time of `reps` runs of `f` (after one warmup; with
/// `reps == 1` the single run is the measurement — used for multi-second
/// baselines where a warmup would double the cost for no variance gain).
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    if reps > 1 {
        f(); // warmup
    }
    let mut times: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Pretty-print seconds with appropriate unit.
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

/// The size `|G_dQ(v_p)|` of a query's relevant neighborhood (Table 2's
/// denominator): nodes of the `d_Q`-ball plus its induced edges, counted
/// directly off the sorted ball (each edge once, from its source) — no
/// per-call hash set or induced-subgraph construction.
pub fn dq_neighborhood_size(g: &Graph, q: &ResolvedPattern) -> usize {
    let nodes: Vec<NodeId> = rbq_pattern::strongsim::ball_nodes(g, q.vp(), q.dq());
    let mut edges = 0usize;
    for &v in &nodes {
        for &w in g.out(v) {
            if nodes.binary_search(&w).is_ok() {
                edges += 1;
            }
        }
    }
    nodes.len() + edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::GraphView;

    #[test]
    fn budget_scaling_holds_absolute_units() {
        let cfg = ExpConfig {
            snapshot_nodes: 5_000,
            ..Default::default()
        };
        let ds = PatternDataset::youtube(&cfg);
        let b = ds.budget_for_paper_alpha(1.1e-5);
        // 1.1e-5 * 6.12M ≈ 67 units regardless of our graph size.
        assert!((60..=75).contains(&b.max_units), "{}", b.max_units);
    }

    #[test]
    fn patterns_are_resolvable() {
        let cfg = ExpConfig {
            snapshot_nodes: 3_000,
            ..Default::default()
        };
        let ds = PatternDataset::youtube(&cfg);
        let qs = ds.patterns(PatternSpec::new(4, 8), 3, 1);
        assert!(!qs.is_empty());
        for q in qs {
            assert!(q.dq() >= 1);
        }
    }

    #[test]
    fn dq_neighborhood_size_matches_induced_subgraph() {
        let cfg = ExpConfig {
            snapshot_nodes: 2_000,
            ..Default::default()
        };
        let ds = PatternDataset::youtube(&cfg);
        let qs = ds.patterns(PatternSpec::new(4, 8), 3, 7);
        assert!(!qs.is_empty());
        for q in &qs {
            let nodes = rbq_pattern::strongsim::ball_nodes(ds.g.as_ref(), q.vp(), q.dq());
            let sub = rbq_graph::DynamicSubgraph::induced(&ds.g, nodes);
            assert_eq!(dq_neighborhood_size(&ds.g, q), sub.size());
        }
    }

    #[test]
    fn time_median_returns_positive() {
        let d = time_median(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn fmt_dur_units() {
        assert!(fmt_dur(Duration::from_secs(2)).ends_with('s'));
        assert!(fmt_dur(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_dur(Duration::from_micros(5)).ends_with("µs"));
    }
}
