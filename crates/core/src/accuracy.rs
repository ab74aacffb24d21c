//! Query-answer accuracy: precision, recall, and F-measure (§3).
//!
//! For pattern queries the exact answer `Q(G)` and the approximate answer
//! `Y = Q(G_Q)` are node sets; for reachability, answers over a query *set*
//! are boolean vectors and "correct" counts true positives plus true
//! negatives.

use rbq_graph::NodeId;
use rustc_hash::FxHashSet;

/// Precision / recall / F-measure triple. All components lie in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// `|Y ∩ Q(G)| / |Y|`.
    pub precision: f64,
    /// `|Y ∩ Q(G)| / |Q(G)|`.
    pub recall: f64,
    /// Harmonic mean `2pr/(p+r)` — the paper's `accuracy(Q, G, Y)`.
    pub f1: f64,
}

impl Accuracy {
    /// The all-correct instance.
    const PERFECT: Accuracy = Accuracy {
        precision: 1.0,
        recall: 1.0,
        f1: 1.0,
    };

    fn from_pr(precision: f64, recall: f64) -> Self {
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Accuracy {
            precision,
            recall,
            f1,
        }
    }
}

/// Accuracy of an approximate pattern answer `got` against the exact answer
/// `expected` (§3, "Graph patterns").
///
/// Edge cases follow the paper: both empty → accuracy 1; exact empty but
/// approximate not → judged by precision alone (0); approximate empty but
/// exact not → judged by recall alone (0).
///
/// ```
/// use rbq_core::pattern_accuracy;
/// use rbq_graph::NodeId;
/// let exact = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
/// let approx = [NodeId(1), NodeId(2)];
/// let acc = pattern_accuracy(&exact, &approx);
/// assert_eq!(acc.precision, 1.0);
/// assert_eq!(acc.recall, 0.5);
/// assert!((acc.f1 - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn pattern_accuracy(expected: &[NodeId], got: &[NodeId]) -> Accuracy {
    match (expected.is_empty(), got.is_empty()) {
        (true, true) => return Accuracy::PERFECT,
        (true, false) => {
            // No true matches; every returned one is wrong.
            return Accuracy {
                precision: 0.0,
                recall: 1.0,
                f1: 0.0,
            };
        }
        (false, true) => {
            return Accuracy {
                precision: 1.0,
                recall: 0.0,
                f1: 0.0,
            };
        }
        (false, false) => {}
    }
    let exp: FxHashSet<NodeId> = expected.iter().copied().collect();
    let got_set: FxHashSet<NodeId> = got.iter().copied().collect();
    let inter = got_set.iter().filter(|v| exp.contains(v)).count() as f64;
    let precision = inter / got_set.len() as f64;
    let recall = inter / exp.len() as f64;
    Accuracy::from_pr(precision, recall)
}

/// Accuracy of a batch of reachability answers (§3, "Reachability
/// queries"): correct answers are true positives plus true negatives.
///
/// Since resource-bounded reachability algorithms answer *every* query (with
/// `true` or `false`), the returned-answer count equals the query count and
/// precision = recall = fraction-correct, exactly as the paper's definitions
/// reduce to.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn reachability_accuracy(expected: &[bool], got: &[bool]) -> Accuracy {
    assert_eq!(expected.len(), got.len(), "answer vector length mismatch");
    if expected.is_empty() {
        return Accuracy::PERFECT;
    }
    let correct = expected.iter().zip(got).filter(|(e, g)| e == g).count() as f64;
    let frac = correct / expected.len() as f64;
    Accuracy::from_pr(frac, frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn perfect_match() {
        let a = pattern_accuracy(&n(&[1, 2, 3]), &n(&[3, 2, 1]));
        assert_eq!(a, Accuracy::PERFECT);
    }

    #[test]
    fn both_empty_is_perfect() {
        assert_eq!(pattern_accuracy(&[], &[]), Accuracy::PERFECT);
    }

    #[test]
    fn spurious_answers_zero_accuracy() {
        let a = pattern_accuracy(&[], &n(&[1]));
        assert_eq!(a.precision, 0.0);
        assert_eq!(a.f1, 0.0);
    }

    #[test]
    fn missing_answers_zero_accuracy() {
        let a = pattern_accuracy(&n(&[1]), &[]);
        assert_eq!(a.recall, 0.0);
        assert_eq!(a.f1, 0.0);
    }

    #[test]
    fn half_precision() {
        // got = {1, 9}; expected = {1, 2}.
        let a = pattern_accuracy(&n(&[1, 2]), &n(&[1, 9]));
        assert!((a.precision - 0.5).abs() < 1e-12);
        assert!((a.recall - 0.5).abs() < 1e-12);
        assert!((a.f1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        // expected {1,2,3,4}, got {1,2} -> p=1, r=0.5, f1=2/3.
        let a = pattern_accuracy(&n(&[1, 2, 3, 4]), &n(&[1, 2]));
        assert!((a.precision - 1.0).abs() < 1e-12);
        assert!((a.recall - 0.5).abs() < 1e-12);
        assert!((a.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_in_answers_deduplicated() {
        let a = pattern_accuracy(&n(&[1]), &n(&[1, 1, 1]));
        assert_eq!(a, Accuracy::PERFECT);
    }

    #[test]
    fn reach_all_correct() {
        let a = reachability_accuracy(&[true, false, true], &[true, false, true]);
        assert_eq!(a, Accuracy::PERFECT);
    }

    #[test]
    fn reach_fraction_correct() {
        let a = reachability_accuracy(&[true, true, false, false], &[true, false, false, true]);
        assert!((a.f1 - 0.5).abs() < 1e-12);
        assert!((a.precision - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reach_empty_is_perfect() {
        assert_eq!(reachability_accuracy(&[], &[]), Accuracy::PERFECT);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reach_length_mismatch_panics() {
        let _ = reachability_accuracy(&[true], &[]);
    }
}
