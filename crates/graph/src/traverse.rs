//! Graph traversals with visit accounting.
//!
//! Resource-bounded algorithms are judged by *how much data they visit*
//! (§3: at most `α·c·|G|`), so every traversal here reports the number of
//! nodes and edges it touched via [`VisitStats`].

use crate::graph::Graph;
use crate::types::{Direction, NodeId};
use rustc_hash::FxHashSet;
use std::collections::VecDeque;

/// Accounting for how much of the graph a procedure touched.
///
/// "Visiting" a node means dequeuing/expanding it; "visiting" an edge means
/// scanning one adjacency entry. `total()` is comparable against the paper's
/// `α·c·|G|` budget, since `|G| = |V| + |E|`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VisitStats {
    /// Nodes expanded.
    pub nodes: usize,
    /// Adjacency entries scanned.
    pub edges: usize,
}

impl VisitStats {
    /// Total data units visited (`nodes + edges`).
    #[inline]
    pub fn total(&self) -> usize {
        self.nodes + self.edges
    }

    /// Record one node inspection.
    #[inline]
    pub fn node(&mut self) {
        self.nodes += 1;
    }

    /// Record `n` adjacency-entry scans.
    #[inline]
    pub fn edges(&mut self, n: usize) {
        self.edges += n;
    }

    /// Merge two accounts.
    pub fn add(&mut self, other: VisitStats) {
        self.nodes += other.nodes;
        self.edges += other.edges;
    }
}

/// Breadth-first traversal from `start` following `dir` edges.
///
/// Returns all reached nodes (including `start`) and visit accounting.
pub fn bfs(g: &Graph, start: NodeId, dir: Direction) -> (Vec<NodeId>, VisitStats) {
    let mut seen = FxHashSet::default();
    let mut order = vec![start];
    let mut queue = VecDeque::new();
    let mut stats = VisitStats::default();
    seen.insert(start);
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        stats.nodes += 1;
        for &w in g.adj(v, dir) {
            stats.edges += 1;
            if seen.insert(w) {
                order.push(w);
                queue.push_back(w);
            }
        }
    }
    (order, stats)
}

/// Does `s` reach `t` (directed)? Plain forward BFS — the paper's `BFS`
/// baseline for reachability queries (§6 Exp-2).
pub fn reaches(g: &Graph, s: NodeId, t: NodeId) -> (bool, VisitStats) {
    let mut stats = VisitStats::default();
    if s == t {
        return (true, stats);
    }
    let mut seen = FxHashSet::default();
    let mut queue = VecDeque::new();
    seen.insert(s);
    queue.push_back(s);
    while let Some(v) = queue.pop_front() {
        stats.nodes += 1;
        for &w in g.out(v) {
            stats.edges += 1;
            if w == t {
                return (true, stats);
            }
            if seen.insert(w) {
                queue.push_back(w);
            }
        }
    }
    (false, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn chain() -> Graph {
        graph_from_edges(&["A"; 5], &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bfs_forward_reaches_downstream() {
        let g = chain();
        let (order, stats) = bfs(&g, NodeId(1), Direction::Out);
        assert_eq!(order, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(stats.nodes, 4);
        assert_eq!(stats.edges, 3);
    }

    #[test]
    fn bfs_backward_reaches_upstream() {
        let g = chain();
        let (order, _) = bfs(&g, NodeId(2), Direction::In);
        assert_eq!(order, vec![NodeId(2), NodeId(1), NodeId(0)]);
    }

    #[test]
    fn reaches_positive_and_negative() {
        let g = chain();
        assert!(reaches(&g, NodeId(0), NodeId(4)).0);
        assert!(!reaches(&g, NodeId(4), NodeId(0)).0);
        assert!(reaches(&g, NodeId(2), NodeId(2)).0);
    }

    #[test]
    fn reaches_counts_visits() {
        let g = chain();
        let (ok, stats) = reaches(&g, NodeId(0), NodeId(4));
        assert!(ok);
        assert!(stats.total() > 0);
        // Early exit: finding 4 requires scanning edge 3->4 but not expanding 4.
        assert!(stats.nodes <= 4);
    }

    #[test]
    fn visit_stats_add() {
        let mut a = VisitStats { nodes: 1, edges: 2 };
        a.add(VisitStats { nodes: 3, edges: 4 });
        assert_eq!(a, VisitStats { nodes: 4, edges: 6 });
        assert_eq!(a.total(), 10);
    }
}
