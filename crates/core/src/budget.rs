//! The resource ratio `α` and visit accounting (§3).
//!
//! An algorithm with resource bound `α` must (1) fetch a fraction `G_Q` of
//! `G` with `|G_Q| ≤ α·|G|` and (2) visit at most `α·c·|G|` data while doing
//! so, where `c` is a coefficient with `α·c < 1`. For the pattern
//! algorithms, `c` materializes as `d_G` — the maximum degree in
//! `G_dQ(v_p)` (Theorem 3); for reachability, `c = 1` (Theorem 4).

use rbq_graph::traverse::VisitStats;
use rbq_graph::GraphView;

/// A resource budget: the ratio `α` plus derived absolute limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceBudget {
    /// The resource ratio `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Absolute size bound `⌊α·|G|⌋` in nodes+edges units.
    pub max_units: usize,
    /// Optional hard cap on visited data (`α·c·|G|`); `None` leaves visiting
    /// bounded only by the algorithm's structure (Theorem 3's `d_G·α|G|`).
    pub visit_cap: Option<usize>,
}

impl ResourceBudget {
    /// Budget allowing `⌊alpha · |g|⌋` units for `G_Q`.
    ///
    /// # Panics
    /// Panics if `alpha` is not in `(0, 1]` or is not finite.
    pub fn from_ratio<V: GraphView + ?Sized>(g: &V, alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "resource ratio must lie in (0, 1], got {alpha}"
        );
        let max_units = (alpha * g.size() as f64).floor() as usize;
        ResourceBudget {
            alpha,
            max_units,
            visit_cap: None,
        }
    }

    /// Budget from an absolute unit count (useful in tests and when scaling
    /// paper `α` values across graph sizes; the algorithms only ever consume
    /// the absolute budget `α·|G|`).
    ///
    /// `units` is clamped to `|G|`: a budget beyond the whole graph buys
    /// nothing, and letting it through would produce `alpha > 1.0`,
    /// violating the upper end of the `α ∈ (0, 1]` invariant that
    /// [`ResourceBudget::from_ratio`] asserts. The low end is
    /// intentionally looser than `from_ratio`:
    /// `units == 0` (the zero-budget degenerate case several tests
    /// exercise) yields `alpha == 0.0` and an empty `G_Q`.
    pub fn from_units<V: GraphView + ?Sized>(g: &V, units: usize) -> Self {
        let size = g.size();
        let max_units = units.min(size);
        ResourceBudget {
            alpha: max_units as f64 / size.max(1) as f64,
            max_units,
            visit_cap: None,
        }
    }

    /// Attach an absolute visit cap.
    pub fn with_visit_cap(mut self, cap: usize) -> Self {
        self.visit_cap = Some(cap);
        self
    }

    /// Whether `visits` exceed this budget's visit cap (if any).
    pub fn over_cap(&self, visits: &VisitStats) -> bool {
        self.visit_cap.is_some_and(|cap| visits.total() > cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::builder::graph_from_edges;

    fn g10() -> rbq_graph::Graph {
        // 5 nodes + 5 edges = size 10.
        graph_from_edges(&["A"; 5], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    }

    #[test]
    fn from_ratio_floors() {
        let g = g10();
        let b = ResourceBudget::from_ratio(&g, 0.25);
        assert_eq!(b.max_units, 2);
        assert_eq!(b.visit_cap, None);
    }

    #[test]
    fn from_units_derives_alpha() {
        let g = g10();
        let b = ResourceBudget::from_units(&g, 5);
        assert_eq!(b.max_units, 5);
        assert!((b.alpha - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_units_clamps_to_graph_size() {
        // Regression: units > |G| used to yield alpha > 1.0, violating the
        // documented α ∈ (0, 1] invariant.
        let g = g10();
        let b = ResourceBudget::from_units(&g, 1_000);
        assert_eq!(b.max_units, 10);
        assert_eq!(b.alpha, 1.0);
    }

    #[test]
    #[should_panic(expected = "resource ratio")]
    fn zero_alpha_rejected() {
        let g = g10();
        let _ = ResourceBudget::from_ratio(&g, 0.0);
    }

    #[test]
    #[should_panic(expected = "resource ratio")]
    fn over_one_alpha_rejected() {
        let g = g10();
        let _ = ResourceBudget::from_ratio(&g, 1.5);
    }

    #[test]
    fn account_tracks_and_checks_cap() {
        let g = g10();
        let b = ResourceBudget::from_ratio(&g, 0.5).with_visit_cap(3);
        let mut acc = VisitStats::default();
        acc.node();
        acc.edges(2);
        assert_eq!(acc.total(), 3);
        assert!(!b.over_cap(&acc));
        acc.edges(1);
        assert!(b.over_cap(&acc));
    }

    #[test]
    fn no_cap_never_over() {
        let g = g10();
        let b = ResourceBudget::from_ratio(&g, 0.5);
        let mut acc = VisitStats::default();
        acc.edges(1_000_000);
        assert!(!b.over_cap(&acc));
    }
}
