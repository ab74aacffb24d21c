//! `r`-hop neighborhoods and balls (paper §2).
//!
//! A node `v'` is *within `r` hops* of `v` if there is a path of at most `r`
//! edges from `v` to `v'` **or** from `v'` to `v` — i.e. hops are counted on
//! the underlying undirected graph. `N_r(v)` is the set of such nodes
//! ([`BallScratch::ball_into`]) and the *`r`-neighborhood* `G_r(v)` is the
//! subgraph induced by `N_r(v)` ([`crate::DynamicSubgraph::induced`] over it).
//!
//! Strong-simulation matching is defined on `d_Q`-neighborhood balls, and
//! the locality argument for pattern queries (they can be answered inside
//! `G_dQ(v_p)`) rests on these definitions.

use crate::cancel::{CancelTicker, CancelToken};
use crate::stamps::Stamps;
use crate::types::NodeId;
use crate::view::GraphView;

/// Reusable scratch state for repeated ball evaluations.
///
/// `MatchOpt` runs one undirected BFS per candidate center — hundreds of
/// balls per query, each a handful of hops deep. A fresh hash set per ball
/// made that BFS its dominant cost. `BallScratch` keeps the visited set in
/// a [`Stamps`] table and a flat frontier queue, so starting the next ball
/// is one epoch bump — no clearing, no rehashing, no allocation once the
/// buffers are warm. Balls are emitted as **sorted `Vec<NodeId>`**, the
/// representation the dual-simulation fixpoint takes as its `universe`.
///
/// ```
/// use rbq_graph::{builder::graph_from_edges, neighborhood::BallScratch, NodeId};
/// let g = graph_from_edges(&["A"; 4], &[(0, 1), (1, 2), (2, 3)]);
/// let mut scratch = BallScratch::new();
/// let mut ball = Vec::new();
/// scratch.ball_into(&g, NodeId(1), 1, &mut ball);
/// assert_eq!(ball, vec![NodeId(0), NodeId(1), NodeId(2)]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct BallScratch {
    /// The nodes visited in the current ball, keyed by node index. It grows
    /// on first sight of a larger id: a view cannot name its id bound.
    visited: Stamps,
    /// BFS frontier of `(node, depth)`, drained by index. After the BFS it
    /// holds exactly the ball's nodes, in visit order.
    queue: Vec<(NodeId, u32)>,
    /// Deadline ticker checked once per dequeued node; a single branch when
    /// no deadline is armed.
    cancel: CancelTicker,
}

impl BallScratch {
    /// Fresh scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm (or clear, with [`CancelToken::none`]) the deadline checked by
    /// every subsequent ball BFS through this scratch. On expiry the BFS
    /// unwinds with a [`crate::cancel::CancelPanic`] tagged `"ball.bfs"`.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel.arm(token);
    }

    /// The node set `N_r(center)` within the view — nodes within `r` hops
    /// following edges in either direction — written into `out` (cleared
    /// first) in **sorted ascending** order. Empty if the view lacks the
    /// center.
    pub fn ball_into<V: GraphView + ?Sized>(
        &mut self,
        g: &V,
        center: NodeId,
        r: usize,
        out: &mut Vec<NodeId>,
    ) {
        let (lo, hi) = self.bfs(g, center, r);
        out.clear();
        let n = self.queue.len();
        if n == 0 {
            return;
        }
        // Sorted emission: dense balls read off the visited range — a
        // linear branchless scan (always write the slot, advance on
        // membership) replaces an O(n log n) sort; sparse balls over a wide
        // id range sort the visit order instead.
        if n >= (hi - lo) / 16 {
            let width = hi - lo + 1;
            out.resize(width, NodeId(0));
            let mut k = 0usize;
            for i in lo..=hi {
                out[k] = NodeId(i as u32);
                k += self.visited.contains(i) as usize;
            }
            out.truncate(k);
        } else {
            out.extend(self.queue.iter().map(|&(v, _)| v));
            out.sort_unstable();
        }
    }

    /// One BFS to radius `r_outer`, split by recorded depth: the full
    /// `N_{r_outer}(center)` goes to `outer` and the sub-ball
    /// `N_{r_inner}(center)` to `inner`, both sorted ascending. Equivalent
    /// to two [`BallScratch::ball_into`] calls, at the cost of one
    /// traversal — strong simulation's per-ball loop needs exactly this
    /// pair (candidate centers at `d_Q`, screening domain at `2·d_Q`), and
    /// so does the benchmark's trace replay of that traversal.
    ///
    /// # Panics
    /// Panics if `r_inner > r_outer`.
    pub fn ball_pair_into<V: GraphView + ?Sized>(
        &mut self,
        g: &V,
        center: NodeId,
        r_outer: usize,
        r_inner: usize,
        outer: &mut Vec<NodeId>,
        inner: &mut Vec<NodeId>,
    ) {
        assert!(r_inner <= r_outer, "inner radius exceeds outer");
        self.bfs(g, center, r_outer);
        outer.clear();
        inner.clear();
        for &(v, d) in &self.queue {
            outer.push(v);
            if d as usize <= r_inner {
                inner.push(v);
            }
        }
        outer.sort_unstable();
        inner.sort_unstable();
    }

    /// Undirected BFS from `center` to depth `r`; leaves the visited set
    /// (with depths) in `self.queue` and returns the `(min, max)` visited
    /// node indexes (`(0, 0)` when the center is absent).
    // rbq-lint: hot
    fn bfs<V: GraphView + ?Sized>(&mut self, g: &V, center: NodeId, r: usize) -> (usize, usize) {
        crate::faultpoint::fire("ball.bfs");
        // Hot loop state lives in locals (taken out of `self`): field
        // accesses through `&mut self` defeat the register allocation the
        // inner loop depends on.
        let mut cancel = self.cancel;
        let mut visited = std::mem::take(&mut self.visited);
        let mut queue = std::mem::take(&mut self.queue);
        visited.reset(0);
        queue.clear();
        if g.contains(center) {
            visited.insert(center.index(), ());
            queue.push((center, 0));
            let mut head = 0;
            while head < queue.len() {
                cancel.tick("ball.bfs");
                let (v, d) = queue[head];
                head += 1;
                if d as usize == r {
                    continue;
                }
                for s in [g.out_neighbors(v), g.in_neighbors(v)] {
                    // Branchless visit: always write the next queue slot,
                    // advance the cursor only on first sight. Whether a
                    // neighbor was already seen is data-dependent and
                    // mispredicts constantly — the unconditional store is
                    // ~4× faster here than the natural `if newly { push }`.
                    let base = queue.len();
                    queue.resize(base + s.len(), (NodeId(0), 0));
                    let mut k = base;
                    for &w in s {
                        queue[k] = (w, d + 1);
                        k += visited.insert(w.index(), ()) as usize;
                    }
                    queue.truncate(k);
                }
            }
        }
        // The id span is re-derived from the visit list (one cheap pass)
        // rather than tracked per probe inside the hot loop.
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for &(v, _) in &queue {
            lo = lo.min(v.index());
            hi = hi.max(v.index());
        }
        if queue.is_empty() {
            lo = 0;
        }
        self.visited = visited;
        self.queue = queue;
        self.cancel = cancel;
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::graph::Graph;
    use crate::subgraph::DynamicSubgraph;
    use rustc_hash::FxHashMap;
    use std::collections::VecDeque;

    fn chain() -> Graph {
        // 0 -> 1 -> 2 -> 3 -> 4
        graph_from_edges(&["A"; 5], &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    fn ball_of(g: &Graph, center: u32, r: usize) -> Vec<NodeId> {
        let mut ball = Vec::new();
        BallScratch::new().ball_into(g, NodeId(center), r, &mut ball);
        ball
    }

    #[test]
    fn n_r_counts_both_directions() {
        assert_eq!(ball_of(&chain(), 2, 1), [NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn n_r_radius_two() {
        assert_eq!(ball_of(&chain(), 2, 2).len(), 5);
        assert_eq!(ball_of(&chain(), 0, 2), [NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn ball_is_induced() {
        let g = graph_from_edges(&["A"; 4], &[(0, 1), (1, 2), (2, 3), (0, 2)]);
        let b = DynamicSubgraph::induced(&g, ball_of(&g, 0, 1));
        // N_1(0) = {0,1,2}; induced edges: 0->1, 1->2, 0->2.
        assert_eq!(b.num_nodes(), 3);
        assert_eq!(b.num_edges(), 3);
    }

    #[test]
    fn zero_radius_ball_is_single_node() {
        let g = chain();
        let b = DynamicSubgraph::induced(&g, ball_of(&g, 3, 0));
        assert_eq!(b.num_nodes(), 1);
        assert_eq!(b.num_edges(), 0);
    }

    /// Hash-map BFS oracle for [`BallScratch`]: the pre-scratch
    /// implementation, kept for differential checks.
    fn ball_naive(g: &Graph, center: NodeId, r: usize) -> Vec<NodeId> {
        let mut dist: FxHashMap<NodeId, usize> = FxHashMap::default();
        let mut queue = VecDeque::new();
        dist.insert(center, 0);
        queue.push_back((center, 0usize));
        while let Some((u, d)) = queue.pop_front() {
            if d == r {
                continue;
            }
            for &w in g.out(u).iter().chain(g.inn(u)) {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                    e.insert(d + 1);
                    queue.push_back((w, d + 1));
                }
            }
        }
        let mut out: Vec<NodeId> = dist.into_keys().collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn scratch_ball_matches_naive() {
        let g = graph_from_edges(&["A"; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 2), (4, 0)]);
        let mut scratch = BallScratch::new();
        let mut ball = Vec::new();
        for r in 0..5 {
            for v in 0..6u32 {
                scratch.ball_into(&g, NodeId(v), r, &mut ball);
                assert_eq!(ball, ball_naive(&g, NodeId(v), r), "center {v} r {r}");
            }
        }
    }

    #[test]
    fn scratch_ball_missing_center_is_empty() {
        let g = chain();
        let view = DynamicSubgraph::induced(&g, [NodeId(0)]);
        let mut scratch = BallScratch::new();
        let mut ball = vec![NodeId(9)];
        scratch.ball_into(&view, NodeId(2), 3, &mut ball);
        assert!(ball.is_empty());
    }

    #[test]
    fn scratch_ball_pair_equals_two_singles() {
        let g = graph_from_edges(
            &["A"; 7],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 3), (5, 0)],
        );
        let mut scratch = BallScratch::new();
        let (mut outer, mut inner) = (Vec::new(), Vec::new());
        let (mut outer1, mut inner1) = (Vec::new(), Vec::new());
        for v in 0..7u32 {
            for r in 0..4usize {
                scratch.ball_pair_into(&g, NodeId(v), 2 * r, r, &mut outer, &mut inner);
                scratch.ball_into(&g, NodeId(v), 2 * r, &mut outer1);
                scratch.ball_into(&g, NodeId(v), r, &mut inner1);
                assert_eq!(outer, outer1, "outer center {v} r {r}");
                assert_eq!(inner, inner1, "inner center {v} r {r}");
            }
        }
    }

    #[test]
    fn scratch_reuse_has_no_cross_ball_contamination() {
        // Two disjoint components: balls computed alternately from each must
        // never leak nodes of the other, over many epoch reuses.
        let g = graph_from_edges(&["A"; 6], &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut scratch = BallScratch::new();
        let mut ball = Vec::new();
        for _ in 0..100 {
            scratch.ball_into(&g, NodeId(0), 9, &mut ball);
            assert_eq!(ball, vec![NodeId(0), NodeId(1), NodeId(2)]);
            scratch.ball_into(&g, NodeId(3), 9, &mut ball);
            assert_eq!(ball, vec![NodeId(3), NodeId(4), NodeId(5)]);
            scratch.ball_into(&g, NodeId(2), 0, &mut ball);
            assert_eq!(ball, vec![NodeId(2)]);
        }
    }
}
