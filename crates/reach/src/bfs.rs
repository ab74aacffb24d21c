//! Reachability baselines: `BFS` and `BFSOPT` (§6 Exp-2).
//!
//! * `BFS` — plain breadth-first search on `G` (exact, unbounded visits);
//! * `BFSOPT` — compress `G` once (query-preserving, [12]) and run BFS on
//!   the compressed DAG for each query (exact, fewer visits).

use crate::compress::{compress_for_reachability, CompressedGraph};
use rbq_graph::traverse::{reaches, VisitStats};
use rbq_graph::{Graph, NodeId};

/// Plain BFS reachability: the paper's `BFS` baseline.
pub fn bfs_query(g: &Graph, s: NodeId, t: NodeId) -> (bool, VisitStats) {
    reaches(g, s, t)
}

/// The once-for-all compressed index behind `BFSOPT`.
#[derive(Debug, Clone)]
pub struct BfsOptIndex {
    /// The compressed graph.
    pub compressed: CompressedGraph,
}

impl BfsOptIndex {
    /// Build by compressing `g` (offline, once for all queries).
    pub fn build(g: &Graph) -> Self {
        BfsOptIndex {
            compressed: compress_for_reachability(g),
        }
    }

    /// Answer a query with BFS over the compressed DAG. Exact.
    pub fn query(&self, s: NodeId, t: NodeId) -> bool {
        self.compressed.query(s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::builder::graph_from_edges;

    #[test]
    fn bfs_and_bfsopt_agree() {
        let g = graph_from_edges(
            &["A"; 8],
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (5, 6),
                (6, 5),
                (4, 7),
            ],
        );
        let idx = BfsOptIndex::build(&g);
        for s in 0..8u32 {
            for t in 0..8u32 {
                let exact = bfs_query(&g, NodeId(s), NodeId(t)).0;
                assert_eq!(idx.query(NodeId(s), NodeId(t)), exact, "{s}->{t}");
            }
        }
    }

    #[test]
    fn bfsopt_visits_smaller_graph() {
        // A long cycle compresses to one node.
        let n = 50u32;
        let labels = vec!["A"; n as usize];
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = graph_from_edges(&labels, &edges);
        let idx = BfsOptIndex::build(&g);
        assert_eq!(idx.compressed.dag.node_count(), 1);
        assert!(idx.query(NodeId(3), NodeId(42)));
    }
}
