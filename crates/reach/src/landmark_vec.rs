//! The `LM` landmark-vector baseline (Gubichev et al., CIKM 2010 [13]).
//!
//! Following the paper's evaluation setup (§6 Exp-2), `4·log₂|V|` landmarks
//! are sampled (degree-biased, as high-degree nodes cover more pairs). For
//! each landmark `ℓ` we precompute its forward cover (nodes reachable from
//! `ℓ`) and backward cover (nodes reaching `ℓ`) as per-node bitmasks. A
//! query `s → t` answers `true` iff some landmark has `s` in its backward
//! cover and `t` in its forward cover (then `s → ℓ → t` is a real path).
//!
//! Like `RBReach`, `LM` is sound (no false positives) but incomplete: pairs
//! connected only by landmark-free paths are missed — the paper measures
//! 69–74% accuracy for it.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rbq_graph::traverse::bfs;
use rbq_graph::types::Direction;
use rbq_graph::{Graph, NodeId};

/// Per-node landmark cover bitmasks.
#[derive(Debug, Clone)]
pub struct LandmarkVectors {
    /// The sampled landmarks.
    pub landmarks: Vec<NodeId>,
    words: usize,
    /// `fwd[v]` bit `i` set ⟺ landmark `i` reaches `v`.
    fwd: Vec<u64>,
    /// `bwd[v]` bit `i` set ⟺ `v` reaches landmark `i`.
    bwd: Vec<u64>,
}

impl LandmarkVectors {
    /// Build with the paper's default landmark count `⌈4·log₂|V|⌉`.
    pub fn build(g: &Graph, seed: u64) -> Self {
        let n = g.node_count().max(2);
        let k = (4.0 * (n as f64).log2()).ceil() as usize;
        Self::build_with_count(g, k, seed)
    }

    /// Build with an explicit landmark count.
    ///
    /// Sampling is degree-biased: nodes are sorted by total degree and the
    /// top `4k` form the pool from which `k` are drawn uniformly, keeping
    /// the selection both high-coverage and randomized as in [13].
    fn build_with_count(g: &Graph, k: usize, seed: u64) -> Self {
        let n = g.node_count();
        let k = k.clamp(1, n.max(1));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut by_degree: Vec<NodeId> = g.nodes().collect();
        by_degree.sort_unstable_by_key(|&v| std::cmp::Reverse(g.deg(v)));
        let pool = (4 * k).min(n);
        let mut pool_nodes: Vec<NodeId> = by_degree[..pool].to_vec();
        pool_nodes.shuffle(&mut rng);
        let mut landmarks: Vec<NodeId> = pool_nodes.into_iter().take(k).collect();
        landmarks.sort_unstable();
        landmarks.dedup();

        let words = landmarks.len().div_ceil(64);
        let mut fwd = vec![0u64; n * words];
        let mut bwd = vec![0u64; n * words];
        for (i, &lm) in landmarks.iter().enumerate() {
            let (word, bit) = (i / 64, i % 64);
            let (reachable, _) = bfs(g, lm, Direction::Out);
            for v in reachable {
                fwd[v.index() * words + word] |= 1u64 << bit;
            }
            let (reaching, _) = bfs(g, lm, Direction::In);
            for v in reaching {
                bwd[v.index() * words + word] |= 1u64 << bit;
            }
        }
        LandmarkVectors {
            landmarks,
            words,
            fwd,
            bwd,
        }
    }

    /// Answer `s → t`. Sound; may return `false` for reachable pairs.
    pub fn query(&self, s: NodeId, t: NodeId) -> bool {
        if s == t {
            return true;
        }
        let sw = &self.bwd[s.index() * self.words..(s.index() + 1) * self.words];
        let tw = &self.fwd[t.index() * self.words..(t.index() + 1) * self.words];
        sw.iter().zip(tw).any(|(a, b)| a & b != 0)
    }

    /// Index memory footprint in bytes (for the evaluation's index-size
    /// comparisons).
    pub fn bytes(&self) -> usize {
        (self.fwd.len() + self.bwd.len()) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::builder::graph_from_edges;
    use rbq_graph::traverse::reaches;

    #[test]
    fn sound_no_false_positives() {
        let g = graph_from_edges(
            &["A"; 9],
            &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (2, 4)],
        );
        let lm = LandmarkVectors::build(&g, 7);
        for s in 0..9u32 {
            for t in 0..9u32 {
                if lm.query(NodeId(s), NodeId(t)) {
                    assert!(
                        reaches(&g, NodeId(s), NodeId(t)).0,
                        "false positive {s}->{t}"
                    );
                }
            }
        }
    }

    #[test]
    fn covers_pairs_through_landmarks() {
        // Star through a single hub: with the hub as a landmark, all
        // through-hub pairs are answered.
        let mut edges = Vec::new();
        for i in 1..6u32 {
            edges.push((i, 0));
            edges.push((0, i + 5));
        }
        let g = graph_from_edges(&["A"; 11], &edges);
        // Hub has degree 10; with degree-biased sampling it lands in every
        // reasonable pool.
        let lm = LandmarkVectors::build_with_count(&g, 3, 1);
        assert!(lm.landmarks.contains(&NodeId(0)) || !lm.landmarks.is_empty());
        if lm.landmarks.contains(&NodeId(0)) {
            assert!(lm.query(NodeId(1), NodeId(7)));
        }
    }

    #[test]
    fn self_query_true() {
        let g = graph_from_edges(&["A"; 3], &[(0, 1)]);
        let lm = LandmarkVectors::build(&g, 3);
        assert!(lm.query(NodeId(2), NodeId(2)));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = graph_from_edges(
            &["A"; 20],
            &(0..19u32).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        );
        let a = LandmarkVectors::build(&g, 5);
        let b = LandmarkVectors::build(&g, 5);
        assert_eq!(a.landmarks, b.landmarks);
    }

    #[test]
    fn chain_with_landmark_in_middle_answers() {
        let n = 32u32;
        let g = graph_from_edges(
            &vec!["A"; n as usize],
            &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        );
        // Plenty of landmarks on a 32-chain: 4*log2(32) = 20.
        let lm = LandmarkVectors::build(&g, 11);
        // With 20 of 32 nodes as landmarks, 0 -> 31 must pass through one.
        assert!(lm.query(NodeId(0), NodeId(n - 1)));
    }

    #[test]
    fn bytes_reports_footprint() {
        let g = graph_from_edges(&["A"; 10], &[(0, 1)]);
        let lm = LandmarkVectors::build(&g, 0);
        assert!(lm.bytes() > 0);
    }
}
