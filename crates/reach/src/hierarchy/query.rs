//! `RBReach` (Fig. 7): resource-bounded reachability over the hierarchical
//! index.
//!
//! Bidirectional certified search: `s.Active` holds landmarks provably
//! reachable *from* `s`; `t.Active` holds landmarks provably reaching `t`.
//! Both start from the endpoints' first-hit labels `v.E` and grow by
//! rolling up / drilling down index edges whose direction *composes* with
//! the side's certification (s-side follows `ℓ → ℓ'` edges, t-side follows
//! `ℓ' → ℓ`), plus first-hit hop labels. Candidates are ranked by the
//! weight `p(v)/(c(v)+1)` — remaining cover size over remaining subtree
//! size — and pruned by the topological-range guard of Lemma 5(2). The
//! moment a landmark appears in both sets, `s → ℓ → t` is certified and
//! `true` is returned; the search never visits more than `⌊α|G|⌋` data and
//! never returns a false positive (Theorem 4).
//!
//! Per-query state lives in a [`ReachScratch`]: the two active sets are
//! [`Stamps`] tables over landmark ids and the two candidate heaps are
//! cleared, not rebuilt, so a serving worker that keeps one scratch answers
//! each query without the allocator. [`HierarchicalIndex::query_with`] is
//! the one body; [`HierarchicalIndex::query`] runs it on a fresh scratch.

use super::build::HierarchicalIndex;
use super::LmId;
use rbq_graph::{NodeId, Stamps};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Answer of a resource-bounded reachability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachAnswer {
    /// The (approximate) answer. `true` is always correct; `false` may be a
    /// false negative (Theorem 2 makes that unavoidable).
    pub reachable: bool,
    /// Data units visited while answering.
    pub visits: usize,
    /// Whether `true` was certified (always, when returned) — present for
    /// symmetry in reporting.
    pub certified: bool,
}

/// Max-heap entry ordered by weight.
struct Cand {
    weight: f64,
    lm: LmId,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.weight == other.weight && self.lm == other.lm
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.weight
            .partial_cmp(&other.weight)
            .unwrap_or(Ordering::Equal)
            .then(self.lm.cmp(&other.lm))
    }
}

/// Per-query state of [`HierarchicalIndex::query_with`], reused across
/// queries: `s.Active` and `t.Active` as [`Stamps`] over landmark ids, so
/// forgetting them is an epoch bump, and the two candidate heaps, which
/// keep their capacity when cleared. One scratch may serve any number of
/// indexes; a larger one grows the tables on first use.
#[derive(Default)]
pub struct ReachScratch {
    s_active: Stamps,
    t_active: Stamps,
    s_heap: BinaryHeap<Cand>,
    t_heap: BinaryHeap<Cand>,
}

impl HierarchicalIndex {
    /// Answer `s → t?` on the original graph within the `α|G|` visit cap:
    /// [`HierarchicalIndex::query_with`] on a fresh [`ReachScratch`].
    pub fn query(&self, s: NodeId, t: NodeId) -> ReachAnswer {
        self.query_with(s, t, &mut ReachScratch::default())
    }

    /// [`HierarchicalIndex::query`] through a reusable [`ReachScratch`].
    // rbq-lint: hot
    pub fn query_with(&self, s: NodeId, t: NodeId, scratch: &mut ReachScratch) -> ReachAnswer {
        let mut visits = 0usize;
        if s == t || self.compressed.same_scc(s, t) {
            return ReachAnswer {
                reachable: true,
                visits,
                certified: true,
            };
        }
        let cs = self.compressed.map(s);
        let ct = self.compressed.map(t);
        if cs == ct {
            // Equivalence-merged distinct SCCs never reach each other.
            return ReachAnswer {
                reachable: false,
                visits,
                certified: true,
            };
        }
        if self.landmarks.is_empty() {
            return ReachAnswer {
                reachable: false,
                visits,
                certified: false,
            };
        }
        let cap = self.visit_cap.max(1);
        let s_rank = self.ranks[cs.index()];
        let t_rank = self.ranks[ct.index()];
        // Necessary condition on a DAG: ranks strictly decrease along edges.
        if s_rank <= t_rank {
            return ReachAnswer {
                reachable: false,
                visits,
                certified: false,
            };
        }

        // Guard of Lemma 5(2): a useful landmark ℓ (s → ℓ → t) must have
        // t_rank < rank(ℓ) < s_rank; prune subtrees whose range cannot
        // straddle. The endpoint landmarks themselves sit *on* the window
        // boundary (rank == s_rank / t_rank) yet are exactly where the two
        // frontiers must meet when an endpoint is a landmark — exempt them,
        // or adjacent landmark pairs are never certified.
        let s_lm = self.lm_at(cs);
        let t_lm = self.lm_at(ct);
        let useful_range = |lm: LmId| {
            let r = self.landmarks[lm as usize].range;
            r.1 > t_rank && r.0 < s_rank
        };
        let useful_self = |lm: LmId| {
            if Some(lm) == s_lm || Some(lm) == t_lm {
                return true;
            }
            let r = self.landmarks[lm as usize].rank;
            r > t_rank && r < s_rank
        };

        let ReachScratch {
            s_active,
            t_active,
            s_heap,
            t_heap,
        } = scratch;
        s_active.reset(self.landmarks.len());
        t_active.reset(self.landmarks.len());
        s_heap.clear();
        t_heap.clear();

        // Seed: landmarks certified directly by the endpoint labels (or the
        // endpoint being a landmark itself).
        let s_seed: &[LmId] = match &s_lm {
            Some(i) => std::slice::from_ref(i),
            None => self.fwd_labels.row(cs),
        };
        let t_seed: &[LmId] = match &t_lm {
            Some(i) => std::slice::from_ref(i),
            None => self.bwd_labels.row(ct),
        };
        for &i in s_seed {
            visits += 1;
            s_active.insert(i as usize, ());
        }
        for &i in t_seed {
            visits += 1;
            // A landmark certified by both endpoints answers the query; the
            // rank guard below is irrelevant here (certification is always
            // correct regardless of usefulness pruning).
            if s_active.contains(i as usize) {
                return ReachAnswer {
                    reachable: true,
                    visits,
                    certified: true,
                };
            }
            t_active.insert(i as usize, ());
        }
        // Seed the expansion heaps.
        for &i in s_seed {
            self.push_neighbors(i, true, s_active, s_heap, &useful_range, &useful_self);
        }
        for &i in t_seed {
            self.push_neighbors(i, false, t_active, t_heap, &useful_range, &useful_self);
        }

        // Alternate expansion (Fig. 7 lines 6-12), bounded by the visit cap.
        while visits < cap && (!s_heap.is_empty() || !t_heap.is_empty()) {
            if self.expand_side(
                s_heap,
                s_active,
                t_active,
                true,
                &mut visits,
                &useful_range,
                &useful_self,
            ) {
                return ReachAnswer {
                    reachable: true,
                    visits,
                    certified: true,
                };
            }
            if visits >= cap {
                break;
            }
            if self.expand_side(
                t_heap,
                t_active,
                s_active,
                false,
                &mut visits,
                &useful_range,
                &useful_self,
            ) {
                return ReachAnswer {
                    reachable: true,
                    visits,
                    certified: true,
                };
            }
        }

        ReachAnswer {
            reachable: false,
            visits,
            certified: false,
        }
    }

    /// Pop the best candidate for one side, certify it, and push its
    /// expansion frontier. Returns `true` when the certified landmark is
    /// already in the other side's active set (query answered).
    #[allow(clippy::too_many_arguments)]
    fn expand_side(
        &self,
        heap: &mut BinaryHeap<Cand>,
        active: &mut Stamps,
        other: &Stamps,
        fwd: bool,
        visits: &mut usize,
        useful_range: &impl Fn(LmId) -> bool,
        useful_self: &impl Fn(LmId) -> bool,
    ) -> bool {
        loop {
            let Some(c) = heap.pop() else { return false };
            if active.contains(c.lm as usize) {
                continue; // lazy deletion
            }
            *visits += 1;
            active.insert(c.lm as usize, ());
            if other.contains(c.lm as usize) {
                return true;
            }
            self.push_neighbors(c.lm, fwd, active, heap, useful_range, useful_self);
            return false;
        }
    }

    /// Push expansion candidates from landmark `lm` for one side.
    ///
    /// s-side (`fwd = true`): targets `ℓ'` with `lm → ℓ'` certified — a
    /// child with `parent_reaches_child` (drill down), a parent reached by
    /// this child (roll up), or a forward hop label. t-side mirrors.
    fn push_neighbors(
        &self,
        lm: LmId,
        fwd: bool,
        active: &Stamps,
        heap: &mut BinaryHeap<Cand>,
        useful_range: &impl Fn(LmId) -> bool,
        useful_self: &impl Fn(LmId) -> bool,
    ) {
        let rec = &self.landmarks[lm as usize];
        let consider = |target: LmId, heap: &mut BinaryHeap<Cand>| {
            if active.contains(target as usize) {
                return;
            }
            // Subtree guard: the weight is -inf (skip) when neither the
            // landmark itself nor its subtree can be useful.
            if !useful_self(target) && !useful_range(target) {
                return;
            }
            heap.push(Cand {
                weight: self.pick_weight(target, active),
                lm: target,
            });
        };
        // Tree edges.
        if let Some(p) = rec.parent {
            // Edge direction: parent_reaches_child == true means parent→lm.
            // s-side composes when lm→parent, i.e. flag false; t-side when
            // parent→lm, i.e. flag true.
            if rec.parent_reaches_child != fwd {
                consider(p, heap);
            }
        }
        for &ch in &rec.children {
            let flag = self.landmarks[ch as usize].parent_reaches_child;
            // Child edge direction: flag true means lm (parent) → child.
            if flag == fwd {
                consider(ch, heap);
            }
        }
        // First-hit hops (certified by construction).
        let hops = if fwd { &rec.hop_fwd } else { &rec.hop_bwd };
        for &h in hops {
            consider(h, heap);
        }
    }

    /// The paper's weight `w(v) = p(v)/(c(v)+1)`: remaining cover size over
    /// remaining subtree size, where "remaining" subtracts already-visited
    /// children (§5.2 "Drill down or roll up").
    fn pick_weight(&self, lm: LmId, active: &Stamps) -> f64 {
        let rec = &self.landmarks[lm as usize];
        let mut cost = rec.subtree_size as f64;
        let mut potential = rec.cs as f64;
        for &ch in &rec.children {
            if active.contains(ch as usize) {
                cost -= self.landmarks[ch as usize].subtree_size as f64;
                potential -= self.landmarks[ch as usize].cs as f64;
            }
        }
        potential.max(0.0) / (cost.max(0.0) + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::builder::graph_from_edges;
    use rbq_graph::traverse::reaches;
    use rbq_graph::Graph;

    fn layered_dag(layers: usize, width: usize) -> Graph {
        let n = layers * width;
        let labels = vec!["A"; n];
        let mut edges = Vec::new();
        for l in 0..layers - 1 {
            for i in 0..width {
                for j in 0..width {
                    if (i + j) % 2 == 0 || i == j {
                        edges.push(((l * width + i) as u32, ((l + 1) * width + j) as u32));
                    }
                }
            }
        }
        graph_from_edges(&labels, &edges)
    }

    /// Exhaustive soundness: `true` answers must be truly reachable.
    #[test]
    fn never_false_positive() {
        let g = layered_dag(5, 5);
        for alpha in [0.05, 0.15, 0.4] {
            let idx = HierarchicalIndex::build(&g, alpha);
            for s in 0..g.node_count() as u32 {
                for t in 0..g.node_count() as u32 {
                    let ans = idx.query(NodeId(s), NodeId(t));
                    if ans.reachable {
                        assert!(
                            reaches(&g, NodeId(s), NodeId(t)).0,
                            "false positive {s}->{t} at alpha={alpha}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn high_accuracy_with_generous_alpha() {
        let g = layered_dag(6, 4);
        let idx = HierarchicalIndex::build(&g, 0.4);
        let mut correct = 0usize;
        let mut total = 0usize;
        for s in 0..g.node_count() as u32 {
            for t in 0..g.node_count() as u32 {
                let exact = reaches(&g, NodeId(s), NodeId(t)).0;
                let got = idx.query(NodeId(s), NodeId(t)).reachable;
                total += 1;
                if exact == got {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc >= 0.95, "accuracy {acc} too low");
    }

    #[test]
    fn visit_cap_respected() {
        let g = layered_dag(8, 6);
        let idx = HierarchicalIndex::build(&g, 0.1);
        let cap = idx.visit_cap();
        for s in 0..g.node_count() as u32 {
            let ans = idx.query(NodeId(s), NodeId((s + 17) % g.node_count() as u32));
            assert!(ans.visits <= cap, "visits {} exceed cap {cap}", ans.visits);
        }
    }

    #[test]
    fn self_and_scc_queries() {
        let g = graph_from_edges(&["A"; 4], &[(0, 1), (1, 0), (1, 2), (2, 3)]);
        let idx = HierarchicalIndex::build(&g, 0.5);
        assert!(idx.query(NodeId(2), NodeId(2)).reachable);
        assert!(idx.query(NodeId(0), NodeId(1)).reachable); // same SCC
        assert!(idx.query(NodeId(1), NodeId(0)).reachable);
    }

    #[test]
    fn rank_guard_rejects_impossible_direction() {
        // Chain 0 -> 1 -> 2: query 2 -> 0 must fail fast on rank.
        let g = graph_from_edges(&["A"; 3], &[(0, 1), (1, 2)]);
        let idx = HierarchicalIndex::build(&g, 0.9);
        let ans = idx.query(NodeId(2), NodeId(0));
        assert!(!ans.reachable);
        assert_eq!(ans.visits, 0, "rank guard should answer without visits");
    }

    #[test]
    fn long_chain_certified_through_landmarks() {
        let n = 64u32;
        let g = graph_from_edges(
            &vec!["A"; n as usize],
            &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        );
        let idx = HierarchicalIndex::build(&g, 0.5);
        assert!(idx.num_landmarks() > 0);
        let ans = idx.query(NodeId(0), NodeId(n - 1));
        assert!(ans.reachable, "chain end-to-end should certify");
    }

    #[test]
    fn disconnected_pair_answers_false() {
        let g = graph_from_edges(&["A"; 6], &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let idx = HierarchicalIndex::build(&g, 0.6);
        assert!(!idx.query(NodeId(0), NodeId(5)).reachable);
        assert!(!idx.query(NodeId(3), NodeId(2)).reachable);
    }

    #[test]
    fn example7_style_bidirectional_meet() {
        // Michael -> cc1 -> ... -> cl16 -> Eric style chain with fan-outs:
        // both sides should meet at a mid landmark.
        let mut edges = Vec::new();
        // spine 0..12
        for i in 0..12u32 {
            edges.push((i, i + 1));
        }
        // decorations to give mid nodes high cover
        for i in 2..10u32 {
            edges.push((100 + i, i)); // extra parents
            edges.push((i, 200 + i)); // extra children... ids adjusted below
        }
        // normalize ids: relabel 100+i -> 13+(i-2), 200+i -> 21+(i-2)
        let mut es = Vec::new();
        for (u, v) in edges {
            let f = |x: u32| -> u32 {
                if x < 100 {
                    x
                } else if x < 200 {
                    13 + (x - 102)
                } else {
                    21 + (x - 202)
                }
            };
            es.push((f(u), f(v)));
        }
        let g = graph_from_edges(&vec!["A"; 29], &es);
        let idx = HierarchicalIndex::build(&g, 0.4);
        let ans = idx.query(NodeId(0), NodeId(12));
        assert!(ans.reachable);
        assert!(ans.visits <= idx.visit_cap());
    }
}
