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
//! ## Run cursors
//!
//! Expanding a landmark `ℓ` makes all of its targets candidates, but a
//! search pops only a few of them: a forest root may have thousands of
//! children, and a query seeded there pops one to a dozen. So a push costs
//! `O(log heap)`, not `ℓ`'s fan-out. The build sorts every landmark's
//! targets once, per side, by their *static* weight — the weight with no
//! child active — and `Forest::expand` keeps them in that pop order.
//! Expanding `ℓ` pushes
//!
//! * each target that already has an active child, on its own, at the
//!   weight recomputed now (only these targets weigh differently from
//!   their static weight), and
//! * one **run cursor** at the first remaining target that is useful under
//!   the guard, not active and not pushed on its own.
//!
//! Popping a cursor yields its target and pushes the cursor back at the
//! run's next such target. The targets with an active child are found
//! without scanning the list: an activated landmark marks its parent, and
//! the search tests the side's list of marked landmarks — at most one per
//! visit — against `ℓ`.
//!
//! **Why every verdict and visit count is the push-everything search's.**
//! Pops depend only on the multiset of `(weight, id)` entries pushed, with
//! active entries deleted lazily. A run yields exactly the entries the
//! push-everything loop pushed for its unmarked targets, at the same
//! weights, in heap order, and the marked ones are pushed as that loop
//! pushed them. A target that is active by the time its run reaches it was
//! either skipped at push time or discarded at pop time by that loop; and a
//! heap holding only such stale entries causes no visit. Heap keys are the
//! weights' IEEE bits (weights are ≥ 0, `-0.0` folded into `0.0`), so the
//! integer order is the float order, tie-break by id included.
//!
//! Per-query state lives in a [`ReachScratch`]: each side's landmark states
//! (absent, marked, active) are one epoch-stamped `u32` per landmark, and
//! the heaps and run buffers are cleared, not rebuilt, so a serving worker
//! that keeps one scratch answers each query without the allocator.
//! [`HierarchicalIndex::query_with`] is the one body;
//! [`HierarchicalIndex::query`] runs it on a fresh scratch.

use super::build::HierarchicalIndex;
use super::{Forest, LmId, LmRows, BWD, FWD, NO_LM};
use rbq_graph::NodeId;
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

/// The heap key of weight `w`. Weights are ≥ 0, where the IEEE bit order
/// is the numeric order; `-0.0` (the `max(0.0)` of a spent potential may
/// keep the sign) is folded into `0.0`, which a float compare ties it with.
#[inline]
pub(super) fn heap_key(w: f64) -> u64 {
    if w == 0.0 {
        0
    } else {
        w.to_bits()
    }
}

/// [`Cand::run`] of an entry pushed on its own.
const ALONE: u32 = u32::MAX;

/// Max-heap entry: landmark `lm` at heap key `key`, ties broken by id.
/// `run` is the index of the run whose cursor this is, or [`ALONE`]; two
/// entries equal in `(key, lm)` name the same candidate, so the order
/// between them is immaterial.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Cand {
    key: u64,
    lm: LmId,
    run: u32,
}

/// A run cursor: landmark `owner`'s expansion list from position `at` on,
/// less the targets `skip.0..skip.1` of [`Side::skip`], which were pushed
/// on their own when the run opened.
struct Run {
    owner: LmId,
    at: u32,
    skip: (u32, u32),
}

/// One side's landmark states in the current query: absent, *marked* (not
/// active, but a child is) or active, in one `u32` per landmark. As in
/// [`rbq_graph::Stamps`], forgetting all is an epoch bump: a query owns
/// the two stamps `epoch` (marked) and `epoch + 1` (active), and every
/// older value reads absent. The mark rides in the active set's own word.
///
/// The landmarks marked this query follow the table in the same
/// allocation, in marking order: a landmark is marked at most once per
/// query, so the list never outgrows the table, and a fresh scratch makes
/// one allocation per side and zero-fills only the table.
#[derive(Default)]
struct States {
    /// `stamp[..len]` is the table; `stamp[len..]` the marked landmarks.
    stamp: Vec<u32>,
    len: usize,
    epoch: u32,
}

impl States {
    /// Forget every state and make landmarks `0..len` addressable.
    fn reset(&mut self, len: usize) {
        if len > self.len {
            self.stamp = Vec::with_capacity(2 * len);
            self.stamp.resize(len, 0);
            self.len = len;
        }
        self.stamp.truncate(self.len);
        // Zeroed stamps read absent under every epoch ≥ 2; wrap before
        // `epoch + 1` would overflow.
        if self.epoch > u32::MAX - 3 {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
    }

    /// The landmarks marked this query, in marking order; some have been
    /// activated since.
    #[inline]
    fn marked_list(&self) -> &[LmId] {
        &self.stamp[self.len..]
    }

    #[inline]
    fn active(&self, i: LmId) -> bool {
        self.stamp[i as usize] == self.epoch + 1
    }

    #[cfg(test)]
    fn marked(&self, i: LmId) -> bool {
        self.stamp[i as usize] == self.epoch
    }

    #[inline]
    fn activate(&mut self, i: LmId) {
        self.stamp[i as usize] = self.epoch + 1;
    }

    /// Mark `i` unless it is marked or active already.
    #[inline]
    fn mark(&mut self, i: LmId) {
        if self.stamp[i as usize] < self.epoch {
            self.stamp[i as usize] = self.epoch;
            self.stamp.push(i);
        }
    }
}

/// One side of the search: its states, its candidate heap, its runs and,
/// grouped by the run they were taken out of, the targets pushed on their
/// own.
#[derive(Default)]
struct Side {
    states: States,
    heap: BinaryHeap<Cand>,
    runs: Vec<Run>,
    skip: Vec<LmId>,
}

impl Side {
    fn reset(&mut self, landmarks: usize) {
        self.states.reset(landmarks);
        self.heap.clear();
        self.runs.clear();
        self.skip.clear();
    }
}

/// Per-query state of [`HierarchicalIndex::query_with`], reused across
/// queries: per side, the landmark states (`s.Active` / `t.Active` plus
/// the marks) as an epoch-stamped table, so forgetting them is an epoch
/// bump, and the candidate heap and run buffers, which keep their capacity
/// when cleared. One scratch may serve any number of indexes; a larger one
/// grows the tables on first use.
#[derive(Default)]
pub struct ReachScratch {
    s: Side,
    t: Side,
}

impl Forest {
    /// The paper's weight `w(v) = p(v)/(c(v)+1)`: remaining cover size over
    /// remaining subtree size, where "remaining" subtracts the children
    /// `active` names (§5.2 "Drill down or roll up"). With no child active
    /// it is the static weight the expansion lists are sorted by — the same
    /// expression, so the same bits.
    pub(super) fn pick_weight(&self, lm: LmId, active: impl Fn(LmId) -> bool) -> f64 {
        let (cs, size) = self.terms[lm as usize];
        let mut cost = size as f64;
        let mut potential = cs as f64;
        for &ch in self.children.row(lm as usize) {
            if active(ch) {
                let (ch_cs, ch_size) = self.terms[ch as usize];
                cost -= ch_size as f64;
                potential -= ch_cs as f64;
            }
        }
        potential.max(0.0) / (cost.max(0.0) + 1.0)
    }
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
        if self.forest.node.is_empty() {
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
        let useful = |lm: LmId| {
            let g = self.forest.guard[lm as usize];
            Some(lm) == s_lm
                || Some(lm) == t_lm
                || (g.rank > t_rank && g.rank < s_rank)
                || (g.range.1 > t_rank && g.range.0 < s_rank)
        };

        let ReachScratch {
            s: s_side,
            t: t_side,
        } = scratch;
        s_side.reset(self.forest.len());
        t_side.reset(self.forest.len());

        // Seed: landmarks certified directly by the endpoint labels (or the
        // endpoint being a landmark itself).
        let s_seed: &[LmId] = match &s_lm {
            Some(i) => std::slice::from_ref(i),
            None => self.fwd_labels.row(cs.index()),
        };
        let t_seed: &[LmId] = match &t_lm {
            Some(i) => std::slice::from_ref(i),
            None => self.bwd_labels.row(ct.index()),
        };
        for &i in s_seed {
            visits += 1;
            s_side.states.activate(i);
        }
        for &i in t_seed {
            visits += 1;
            // A landmark certified by both endpoints answers the query; the
            // rank guard below is irrelevant here (certification is always
            // correct regardless of usefulness pruning).
            if s_side.states.active(i) {
                return ReachAnswer {
                    reachable: true,
                    visits,
                    certified: true,
                };
            }
            t_side.states.activate(i);
        }
        // The seeds' parents have an active child now; marking them here,
        // not above, spares the queries answered by a shared seed.
        for &i in s_seed {
            self.mark_parent(i, &mut s_side.states);
        }
        for &i in t_seed {
            self.mark_parent(i, &mut t_side.states);
        }
        // Seed the expansion heaps.
        for &i in s_seed {
            self.push_neighbors(i, FWD, s_side, &useful);
        }
        for &i in t_seed {
            self.push_neighbors(i, BWD, t_side, &useful);
        }

        // Alternate expansion (Fig. 7 lines 6-12), bounded by the visit cap.
        while visits < cap && (!s_side.heap.is_empty() || !t_side.heap.is_empty()) {
            if self.expand_side(FWD, s_side, t_side, &mut visits, &useful) {
                return ReachAnswer {
                    reachable: true,
                    visits,
                    certified: true,
                };
            }
            if visits >= cap {
                break;
            }
            if self.expand_side(BWD, t_side, s_side, &mut visits, &useful) {
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
    ///
    /// This and [`Self::push_neighbors`] stay out of line: inlined into
    /// `query_with`, they made the warm `RBReach` bench queries at
    /// α = 0.05 about 1.5× slower.
    #[inline(never)]
    fn expand_side(
        &self,
        side_id: usize,
        side: &mut Side,
        other: &Side,
        visits: &mut usize,
        useful: &impl Fn(LmId) -> bool,
    ) -> bool {
        while let Some(c) = side.heap.pop() {
            if c.run != ALONE {
                side.runs[c.run as usize].at += 1;
                self.resume(c.run as usize, side_id, side, useful);
            }
            if side.states.active(c.lm) {
                continue; // lazy deletion
            }
            *visits += 1;
            side.states.activate(c.lm);
            self.mark_parent(c.lm, &mut side.states);
            if other.states.active(c.lm) {
                return true;
            }
            self.push_neighbors(c.lm, side_id, side, useful);
            return false;
        }
        false
    }

    /// Mark the parent of the active landmark `lm`: it has an active
    /// child now.
    #[inline]
    fn mark_parent(&self, lm: LmId, states: &mut States) {
        let p = self.forest.parent[lm as usize];
        if p != NO_LM {
            states.mark(p);
        }
    }

    /// Push the expansion candidates of landmark `lm` for one side: its
    /// marked targets on their own, at their weight now, and the rest as
    /// one run (see the [module docs](self)).
    ///
    /// s-side ([`FWD`]): targets `ℓ'` with `lm → ℓ'` certified — a child
    /// with `parent_reaches_child` (drill down), a parent reached by this
    /// child (roll up), or a forward hop label. t-side mirrors.
    #[inline(never)]
    fn push_neighbors(
        &self,
        lm: LmId,
        side_id: usize,
        side: &mut Side,
        useful: &impl Fn(LmId) -> bool,
    ) {
        let Side {
            states,
            heap,
            runs,
            skip,
        } = side;
        let weigh = |x: LmId| heap_key(self.forest.pick_weight(x, |c| states.active(c)));
        let lo = skip.len() as u32;
        self.marked_targets(lm, side_id, states, useful, |x| {
            heap.push(Cand {
                key: weigh(x),
                lm: x,
                run: ALONE,
            });
            skip.push(x);
        });
        let hi = skip.len() as u32;
        runs.push(Run {
            owner: lm,
            at: 0,
            skip: (lo, hi),
        });
        self.resume(runs.len() - 1, side_id, side, useful);
    }

    /// Call `f` on each useful target of `lm` that has an active child
    /// (is marked): the side's marked list, tested with
    /// [`Self::is_target`], so the expansion list is not read.
    fn marked_targets(
        &self,
        lm: LmId,
        side_id: usize,
        states: &States,
        useful: &impl Fn(LmId) -> bool,
        mut f: impl FnMut(LmId),
    ) {
        for &m in states.marked_list() {
            if !states.active(m) && useful(m) && self.is_target(lm, m, side_id) {
                f(m);
            }
        }
    }

    /// Push run `r`'s cursor at its first target from `at` on that is
    /// useful, not active and not pushed on its own — if any is left.
    fn resume(&self, r: usize, side_id: usize, side: &mut Side, useful: &impl Fn(LmId) -> bool) {
        let run = &mut side.runs[r];
        let targets = self.forest.expand[side_id].row(run.owner as usize);
        let skipped = &side.skip[run.skip.0 as usize..run.skip.1 as usize];
        while let Some(&x) = targets.get(run.at as usize) {
            if useful(x) && !side.states.active(x) && !skipped.contains(&x) {
                let key = self.forest.key[x as usize];
                side.heap.push(Cand {
                    key,
                    lm: x,
                    run: r as u32,
                });
                return;
            }
            run.at += 1;
        }
    }

    /// Whether `x` is among `lm`'s expansion targets on one side: its
    /// parent or a child along a composing tree edge, or a first-hit hop
    /// (a sorted row of `lm`'s own DAG node).
    fn is_target(&self, lm: LmId, x: LmId, side_id: usize) -> bool {
        let f = &self.forest;
        let fwd = side_id == FWD;
        (f.parent[lm as usize] == x && f.parent_reaches_child[lm as usize] != fwd)
            || (f.parent[x as usize] == lm && f.parent_reaches_child[x as usize] == fwd)
            || (self.labels(side_id).row(f.node[lm as usize].index()))
                .binary_search(&x)
                .is_ok()
    }

    /// The first-hit rows by DAG node of one side.
    fn labels(&self, side_id: usize) -> &LmRows {
        if side_id == BWD {
            &self.bwd_labels
        } else {
            &self.fwd_labels
        }
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

    /// `is_target`, which finds a run's marked targets without reading the
    /// run, agrees with the expansion lists on every (landmark, candidate,
    /// side) triple.
    #[test]
    fn is_target_matches_expansion_lists() {
        let g = layered_dag(8, 6);
        let mut by_kind = [0usize; 3];
        for alpha in [0.1, 0.3, 0.6, 1.0] {
            let idx = HierarchicalIndex::build(&g, alpha);
            let f = &idx.forest;
            for side in [FWD, BWD] {
                for lm in 0..f.len() as LmId {
                    let row = f.expand[side].row(lm as usize);
                    for x in 0..f.len() as LmId {
                        assert_eq!(idx.is_target(lm, x, side), row.contains(&x));
                    }
                    for &x in row {
                        let kind = if f.parent[lm as usize] == x {
                            0
                        } else if f.parent[x as usize] == lm {
                            1
                        } else {
                            2
                        };
                        by_kind[kind] += 1;
                    }
                }
            }
        }
        assert!(
            by_kind.iter().all(|&k| k > 0),
            "parent / child / hop targets {by_kind:?}"
        );
    }

    /// `marked_targets`, which reads the marked list and not the expansion
    /// list, finds exactly the useful marked targets of every landmark, over
    /// random active sets with their parents marked.
    #[test]
    fn marked_targets_are_the_marked_useful_targets() {
        let g = layered_dag(8, 6);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut coin = |one_in: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.is_multiple_of(one_in)
        };
        let mut found = 0;
        for alpha in [0.3, 0.6, 1.0] {
            let idx = HierarchicalIndex::build(&g, alpha);
            let f = &idx.forest;
            let mut st = States::default();
            for _ in 0..40 {
                st.reset(f.len());
                for lm in 0..f.len() as LmId {
                    if coin(8) {
                        st.activate(lm);
                    }
                }
                for lm in 0..f.len() as LmId {
                    if st.active(lm) {
                        idx.mark_parent(lm, &mut st);
                    }
                }
                let useful = |lm: LmId| !lm.is_multiple_of(5);
                for side in [FWD, BWD] {
                    for lm in 0..f.len() as LmId {
                        let mut want: Vec<LmId> = (f.expand[side].row(lm as usize).iter())
                            .copied()
                            .filter(|&t| st.marked(t) && useful(t))
                            .collect();
                        let mut got = Vec::new();
                        idx.marked_targets(lm, side, &st, &useful, |t| got.push(t));
                        got.sort_unstable();
                        want.sort_unstable();
                        assert_eq!(got, want, "landmark {lm}, side {side}, alpha {alpha}");
                        found += want.len();
                    }
                }
            }
        }
        assert!(found > 0, "no landmark had a marked target");
    }

    /// Marks and active states read absent after a reset, also across the
    /// epoch wrap; an active landmark cannot be marked; the marked list
    /// holds each landmark marked this query, once.
    #[test]
    fn states_forget_across_the_epoch_wrap() {
        let mut st = States::default();
        for epoch in [0, u32::MAX - 5, u32::MAX - 3] {
            st.epoch = epoch;
            st.reset(4);
            assert!(st.epoch.checked_add(1).is_some());
            assert!((0..4).all(|i| !st.active(i) && !st.marked(i)));
            st.mark(1);
            st.mark(1);
            assert!(st.marked(1));
            st.activate(2);
            st.mark(2);
            assert!(st.active(2) && !st.marked(2));
            st.activate(1);
            assert!(st.active(1) && !st.marked(1));
            assert_eq!(st.marked_list(), &[1]);
        }
        st.reset(4);
        assert!((0..4).all(|i| !st.active(i) && !st.marked(i)));
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
