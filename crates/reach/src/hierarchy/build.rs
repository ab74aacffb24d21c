//! `RBIndex` (Fig. 6): constructing the hierarchical landmark index.

use super::{LabelRows, Landmark, LmId, NO_LM};
use crate::compress::{compress_for_reachability, condense_only, CompressedGraph};
use rbq_graph::{Graph, GraphView, NodeId};

/// How level-1 landmarks are chosen — the paper's greedy heuristic plus
/// alternatives for the ablation study (DESIGN.md §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// The paper's `v.d × v.r` greedy (§5.1) — degree times topological
    /// rank, with neighbor removal for spread.
    DegreeRank,
    /// Cover-size greedy: `anc(v) × desc(v)` estimates — the quantity the
    /// paper's heuristic approximates, computed directly.
    Coverage,
    /// Degree only (no rank term).
    DegreeOnly,
    /// Uniform random (seeded) — the ablation floor.
    Random(u64),
}

/// Tunables for index construction.
#[derive(Debug, Clone, Copy)]
pub struct IndexParams {
    /// Resource ratio `α ∈ (0, 1]`: the index holds `⌊α|G|/2⌋` landmarks
    /// and queries visit at most `⌊α|G|⌋` data. At `α = 1` every DAG node
    /// is a landmark and RBReach is exact (≡ BFS).
    pub alpha: f64,
    /// Cap on per-node label set `|v.E|` (the paper bounds it by
    /// `α|G|/2`; a practical cap keeps degenerate DAGs in check).
    pub max_labels_per_node: usize,
    /// Hard cap on forest levels (the analytic bound is
    /// `⌊log_a |G|⌋ + 1`, `a = ⌊2/α⌋`).
    pub max_levels: u32,
    /// Landmark selection strategy (default: the paper's [`SelectionStrategy::DegreeRank`]).
    pub selection: SelectionStrategy,
    /// Whether preprocessing runs the reachability-equivalence merge after
    /// SCC condensation (on by default; off = the `ablation_compress`
    /// baseline).
    pub merge_equivalence: bool,
}

impl IndexParams {
    /// Defaults for a given `α`.
    pub fn new(alpha: f64) -> Self {
        IndexParams {
            alpha,
            max_labels_per_node: 512,
            max_levels: 48,
            selection: SelectionStrategy::DegreeRank,
            merge_equivalence: true,
        }
    }

    /// Override the landmark selection strategy.
    pub fn with_selection(mut self, s: SelectionStrategy) -> Self {
        self.selection = s;
        self
    }

    /// Toggle the equivalence-merge preprocessing step.
    pub fn with_equivalence_merge(mut self, on: bool) -> Self {
        self.merge_equivalence = on;
        self
    }
}

/// The hierarchical landmark index of §5.1, bound to a compressed graph.
#[derive(Debug, Clone)]
pub struct HierarchicalIndex {
    /// The query-preserving compression of the indexed graph.
    pub compressed: CompressedGraph,
    pub(crate) landmarks: Vec<Landmark>,
    /// Per DAG node: its landmark id, or [`NO_LM`].
    pub(crate) lm_of_node: Vec<LmId>,
    /// Per DAG node: first-hit landmarks reachable from it (`v.E`, flag 1).
    pub(crate) fwd_labels: LabelRows,
    /// Per DAG node: first-hit landmarks reaching it (`v.E`, flag 0).
    pub(crate) bwd_labels: LabelRows,
    /// Topological rank of each DAG node.
    pub(crate) ranks: Vec<u32>,
    /// The resource ratio the index was built for.
    pub alpha: f64,
    /// Query visit cap `⌊α|G|⌋` (in units of the *original* graph).
    pub(crate) visit_cap: usize,
    /// Forest roots.
    pub(crate) roots: Vec<LmId>,
}

impl HierarchicalIndex {
    /// Build with defaults for `alpha`.
    pub fn build(g: &Graph, alpha: f64) -> Self {
        Self::build_with(g, IndexParams::new(alpha))
    }

    /// Build with explicit parameters (Fig. 6's `RBIndex`).
    pub fn build_with(g: &Graph, params: IndexParams) -> Self {
        assert!(
            params.alpha.is_finite() && params.alpha > 0.0 && params.alpha <= 1.0,
            "alpha must lie in (0, 1]"
        );
        let compressed = if params.merge_equivalence {
            compress_for_reachability(g)
        } else {
            condense_only(g)
        };
        let dag = &compressed.dag;
        let n = dag.node_count();
        // Every pass below is a DP along the DAG that takes its topological
        // order from the compression's numbering: ascending ids visit
        // children before parents. A wrong order would build a wrong index
        // silently, so check rather than trust.
        assert!(
            dag.edges().all(|(u, v)| u > v),
            "compressed DAG ids must be reverse-topological"
        );
        let ranks = topological_ranks(dag);

        let g_size = g.size();
        let visit_cap = (params.alpha * g_size as f64).floor() as usize;
        // At α = 1 every DAG node becomes a landmark: with first-hit hop
        // labels then covering every DAG edge, the bidirectional search is
        // complete and RBReach degenerates to exact reachability (the α = 1
        // end of Theorem 2's accuracy/resource trade-off).
        let k1 = if params.alpha >= 1.0 {
            n
        } else {
            ((params.alpha * g_size as f64) / 2.0).floor() as usize
        };
        let k1 = k1.min(n);
        // Spreading parameter: the paper's `a = ⌊2/α⌋` makes the k1
        // selections sweep exactly |G| nodes; compression can leave the DAG
        // far smaller than |G|, so rescale to sweep the DAG instead
        // (`k1 · a ≈ |V_dag|`) — same intent, no degenerate single-landmark
        // indexes on heavily compressed graphs.
        let a = n.checked_div(k1).unwrap_or(1).max(1);

        // ---- Cover-size estimates (§5.1 `v.cs`), also usable as a
        // selection key. ----
        let (desc_est, anc_est) = coverage_estimates(dag);

        // ---- Level-1 landmark selection. ----
        // The greedy's neighbor-removal spread would skip nodes when every
        // node is wanted, so the k1 = n case short-circuits it.
        let lm_nodes = if k1 >= n {
            dag.nodes().collect()
        } else {
            greedy_select(dag, &ranks, k1, a, params.selection, &desc_est, &anc_est)
        };
        let mut lm_of_node = vec![NO_LM; n];
        for (i, &v) in lm_nodes.iter().enumerate() {
            lm_of_node[v.index()] = i as LmId;
        }

        // ---- Landmark reachability bitsets via one reverse-topo DP. ----
        let lm_reach = landmark_reach_bitsets(dag, &lm_nodes, &lm_of_node);

        // ---- First-hit label sets (`v.E`) in both directions. ----
        let fwd_labels = first_hit_labels(dag, &lm_of_node, params.max_labels_per_node, true);
        let bwd_labels = first_hit_labels(dag, &lm_of_node, params.max_labels_per_node, false);

        // ---- Initialize landmark records. ----
        let mut landmarks: Vec<Landmark> = lm_nodes
            .iter()
            .map(|&v| Landmark {
                node: v,
                level: 1,
                parent: None,
                parent_reaches_child: false,
                children: Vec::new(),
                cs: desc_est[v.index()].saturating_mul(anc_est[v.index()]),
                rank: ranks[v.index()],
                range: (0, 0),
                subtree_size: 1,
                hop_fwd: fwd_labels.row(v).to_vec(),
                hop_bwd: bwd_labels.row(v).to_vec(),
            })
            .collect();

        let roots = promote(&mut landmarks, &lm_reach, params.alpha, params.max_levels);

        // ---- Subtree sizes and topological ranges (DFS from roots). ----
        compute_subtrees(&mut landmarks, &roots);

        HierarchicalIndex {
            compressed,
            landmarks,
            lm_of_node,
            fwd_labels,
            bwd_labels,
            ranks,
            alpha: params.alpha,
            visit_cap,
            roots,
        }
    }

    /// The landmark standing for DAG node `v`, if it is one.
    #[inline]
    pub(crate) fn lm_at(&self, v: NodeId) -> Option<LmId> {
        let i = self.lm_of_node[v.index()];
        (i != NO_LM).then_some(i)
    }

    /// Whether `other` is the same index structure for structure — the
    /// compressed DAG and its node maps, every landmark record (node,
    /// level, parent and edge direction, children, cover size, rank, range,
    /// subtree size, hop lists), the per-node first-hit labels, ranks,
    /// roots and caps — not merely an index that answers alike.
    pub fn structural_eq(&self, other: &Self) -> bool {
        self.compressed.structural_eq(&other.compressed)
            && self.landmarks == other.landmarks
            && self.lm_of_node == other.lm_of_node
            && self.fwd_labels == other.fwd_labels
            && self.bwd_labels == other.bwd_labels
            && self.ranks == other.ranks
            && self.alpha == other.alpha
            && self.visit_cap == other.visit_cap
            && self.roots == other.roots
    }

    /// Number of landmarks in the index.
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// Number of forest levels.
    pub fn levels(&self) -> u32 {
        self.landmarks.iter().map(|l| l.level).max().unwrap_or(0)
    }

    /// Index size in nodes+edges units: landmarks plus tree edges. The
    /// paper's Theorem 4 bound (`≤ α|G|`).
    pub fn index_size(&self) -> usize {
        let edges = self.landmarks.iter().filter(|l| l.parent.is_some()).count();
        self.landmarks.len() + edges
    }

    /// Total label entries (`Σ|v.E|` plus hop labels) — auxiliary storage
    /// reported alongside the forest size.
    pub fn label_entries(&self) -> usize {
        let hops = (self.landmarks.iter()).map(|l| l.hop_fwd.len() + l.hop_bwd.len());
        self.fwd_labels.data.len() + self.bwd_labels.data.len() + hops.sum::<usize>()
    }

    /// The query-time visit cap `⌊α|G|⌋`.
    pub fn visit_cap(&self) -> usize {
        self.visit_cap
    }

    /// Structural report of the index, for experiment logs and diagnostics.
    pub fn stats(&self) -> IndexStats {
        let levels = self.levels();
        let mut per_level = vec![0usize; levels as usize];
        for lm in &self.landmarks {
            per_level[(lm.level - 1) as usize] += 1;
        }
        IndexStats {
            landmarks: self.landmarks.len(),
            levels,
            landmarks_per_level: per_level,
            roots: self.roots.len(),
            tree_edges: self.landmarks.iter().filter(|l| l.parent.is_some()).count(),
            label_entries: self.label_entries(),
            dag_nodes: self.compressed.dag.node_count(),
            dag_edges: self.compressed.dag.edge_count(),
            visit_cap: self.visit_cap,
        }
    }
}

/// Structural summary of a [`HierarchicalIndex`] (see
/// [`HierarchicalIndex::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStats {
    /// Total landmarks.
    pub landmarks: usize,
    /// Forest levels.
    pub levels: u32,
    /// Landmarks at each level (index 0 = level 1).
    pub landmarks_per_level: Vec<usize>,
    /// Forest roots.
    pub roots: usize,
    /// Parent edges in the forest.
    pub tree_edges: usize,
    /// Total label entries (`Σ|v.E|` + hop lists).
    pub label_entries: usize,
    /// Compressed DAG node count.
    pub dag_nodes: usize,
    /// Compressed DAG edge count.
    pub dag_edges: usize,
    /// Query-time visit cap `⌊α|G|⌋`.
    pub visit_cap: usize,
}

/// Greedy landmark selection over the DAG: order nodes by the selection
/// key descending; when a node is picked, it and up to `a` of its
/// (undirected) neighbors leave the candidate pool, spreading landmarks
/// across the graph (§5.1 "Landmark selection").
pub(super) fn greedy_select(
    dag: &Graph,
    ranks: &[u32],
    k: usize,
    a: usize,
    strategy: SelectionStrategy,
    desc_est: &[u64],
    anc_est: &[u64],
) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = dag.nodes().collect();
    match strategy {
        SelectionStrategy::DegreeRank => order.sort_unstable_by_key(|&v| {
            std::cmp::Reverse((dag.deg(v) as u64) * (ranks[v.index()] as u64 + 1))
        }),
        SelectionStrategy::Coverage => order.sort_unstable_by_key(|&v| {
            std::cmp::Reverse(desc_est[v.index()].saturating_mul(anc_est[v.index()]))
        }),
        SelectionStrategy::DegreeOnly => {
            order.sort_unstable_by_key(|&v| std::cmp::Reverse(dag.deg(v)))
        }
        SelectionStrategy::Random(seed) => {
            // Deterministic pseudo-shuffle without an RNG dependency here:
            // sort by a splitmix-style hash of (seed, node id).
            order.sort_unstable_by_key(|&v| {
                let mut x = seed ^ (v.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                x
            })
        }
    }
    let mut removed = vec![false; dag.node_count()];
    let mut picked = Vec::with_capacity(k);
    for v in order {
        if picked.len() >= k {
            break;
        }
        if removed[v.index()] {
            continue;
        }
        picked.push(v);
        removed[v.index()] = true;
        let mut quota = a;
        for &w in dag.out(v).iter().chain(dag.inn(v)) {
            if quota == 0 {
                break;
            }
            if !removed[w.index()] {
                removed[w.index()] = true;
                quota -= 1;
            }
        }
    }
    picked
}

/// Multi-level promotion (Fig. 6 lines 5-9): repeatedly select the best
/// landmarks of the current level's *landmark graph* (nodes = the level's
/// landmarks, edges = reachability) into the next level and hang the rest
/// under them. Returns the forest roots, sorted.
///
/// Counts over the landmark graph are `popcount(row & level mask)` over
/// `reach` and its transpose.
fn promote(
    landmarks: &mut [Landmark],
    reach: &BitMatrix,
    alpha: f64,
    max_levels: u32,
) -> Vec<LmId> {
    let k1 = landmarks.len();
    let reached_by = reach.transposed();
    let mut unparented: Vec<LmId> = Vec::new();
    let mut cur: Vec<LmId> = (0..k1 as LmId).collect();
    let mut in_cur = vec![0u64; reach.words];
    // Indexed by landmark id; entries of `cur` members are rewritten each
    // level before they are read.
    let mut out_deg = vec![0u32; k1];
    let mut in_deg = vec![0u32; k1];
    let mut level = 2u32;
    while cur.len() > 1 && level <= max_levels {
        in_cur.fill(0);
        for &i in &cur {
            set_bit(&mut in_cur, i);
        }
        // |G_{l-1}|: landmark-graph size (nodes + reachability edges).
        let mut edge_cnt = 0usize;
        for &i in &cur {
            out_deg[i as usize] = and_count(reach.row(i), &in_cur);
            in_deg[i as usize] = and_count(reached_by.row(i), &in_cur);
            edge_cnt += out_deg[i as usize] as usize;
        }
        let lm_graph_size = cur.len() + edge_cnt;
        let k = ((alpha * lm_graph_size as f64) / 2.0).floor() as usize;
        let k = k.min(cur.len() - 1);
        if k == 0 {
            break;
        }

        // Greedy selection on the landmark graph, spreading across it, by
        // degree (adjacency either direction) times rank. The landmark
        // graph is transitively closed, so its true rank is the longest
        // chain below a landmark; the out-reach count stands in for it — it
        // orders chains identically and is monotone for the heuristic.
        let a_l = (cur.len() / k).max(1);
        let key = |i: LmId| {
            let (out, inn) = (out_deg[i as usize] as u64, in_deg[i as usize] as u64);
            (out + inn) * (out + 1)
        };
        let selected = greedy_select_landmarks(&cur, &in_cur, key, k, a_l, reach, &reached_by);
        let mut pick_pos = vec![NO_LM; k1];
        let mut picked = vec![0u64; reach.words];
        for (p, &v) in selected.iter().enumerate() {
            pick_pos[v as usize] = p as LmId;
            set_bit(&mut picked, v);
        }

        // Assign parents: every unselected current landmark attaches to
        // a connected selected landmark (first in selection order).
        for &w in &cur {
            if pick_pos[w as usize] != NO_LM {
                continue;
            }
            let (above, below) = (reached_by.row(w), reach.row(w));
            let mut parent: Option<LmId> = None;
            let connected = (above.iter().zip(below).zip(&picked)).map(|((a, b), p)| (a | b) & p);
            for_each_bit(connected, |v| {
                if parent.is_none_or(|p| pick_pos[v as usize] < pick_pos[p as usize]) {
                    parent = Some(v);
                }
            });
            match parent {
                Some(v) => {
                    landmarks[w as usize].parent = Some(v);
                    landmarks[w as usize].parent_reaches_child = test_bit(above, v);
                    landmarks[v as usize].children.push(w);
                }
                None => unparented.push(w),
            }
        }
        for &v in &selected {
            landmarks[v as usize].level = level;
        }
        cur = selected;
        level += 1;
    }

    let mut roots: Vec<LmId> = cur;
    roots.extend(unparented);
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// Greedy selection over a landmark graph: order `cur` by `key`
/// descending; a picked landmark takes the first `a` still-available
/// landmarks adjacent to it (in `cur` order) out of the pool with it.
fn greedy_select_landmarks(
    cur: &[LmId],
    in_cur: &[u64],
    key: impl Fn(LmId) -> u64,
    k: usize,
    a: usize,
    reach: &BitMatrix,
    reached_by: &BitMatrix,
) -> Vec<LmId> {
    let mut order: Vec<LmId> = cur.to_vec();
    order.sort_unstable_by_key(|&i| std::cmp::Reverse(key(i)));
    let mut avail = in_cur.to_vec();
    let mut adj = vec![0u64; in_cur.len()];
    let mut picked = Vec::with_capacity(k);
    for i in order {
        if picked.len() >= k {
            break;
        }
        if !test_bit(&avail, i) {
            continue;
        }
        picked.push(i);
        clear_bit(&mut avail, i);
        let rows = reach.row(i).iter().zip(reached_by.row(i));
        let mut adjacent = 0usize;
        for ((x, (r, c)), av) in adj.iter_mut().zip(rows).zip(&avail) {
            *x = (r | c) & av;
            adjacent += x.count_ones() as usize;
        }
        if adjacent <= a {
            // All of them go: order is immaterial.
            for (av, x) in avail.iter_mut().zip(&adj) {
                *av &= !x;
            }
        } else {
            let mut quota = a;
            for &j in cur {
                if quota == 0 {
                    break;
                }
                if test_bit(&adj, j) {
                    clear_bit(&mut avail, j);
                    quota -= 1;
                }
            }
        }
    }
    picked
}

/// Square bit matrix over landmark ids, row-major.
struct BitMatrix {
    /// `u64`s per row.
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    fn zeros(k: usize) -> Self {
        let words = k.div_ceil(64);
        BitMatrix {
            words,
            bits: vec![0; k * words],
        }
    }

    #[inline]
    fn row(&self, i: LmId) -> &[u64] {
        &self.bits[i as usize * self.words..][..self.words]
    }

    #[inline]
    fn row_mut(&mut self, i: LmId) -> &mut [u64] {
        &mut self.bits[i as usize * self.words..][..self.words]
    }

    fn transposed(&self) -> BitMatrix {
        let k = self.bits.len().checked_div(self.words).unwrap_or(0);
        let mut t = BitMatrix::zeros(k);
        for i in 0..k as LmId {
            for_each_bit(self.row(i).iter().copied(), |j| set_bit(t.row_mut(j), i));
        }
        t
    }
}

#[inline]
fn test_bit(bits: &[u64], i: LmId) -> bool {
    bits[(i / 64) as usize] >> (i % 64) & 1 == 1
}

#[inline]
fn set_bit(bits: &mut [u64], i: LmId) {
    bits[(i / 64) as usize] |= 1 << (i % 64);
}

#[inline]
fn clear_bit(bits: &mut [u64], i: LmId) {
    bits[(i / 64) as usize] &= !(1 << (i % 64));
}

/// `popcount(a & b)`.
#[inline]
fn and_count(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
}

/// Call `f` with the index of every set bit, ascending.
#[inline]
fn for_each_bit(words: impl Iterator<Item = u64>, mut f: impl FnMut(LmId)) {
    for (w, mut bits) in words.enumerate() {
        while bits != 0 {
            f(w as LmId * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// `lm_reach` row `i` bit `j` set ⟺ landmark `i` reaches landmark `j` in
/// the DAG (i ≠ j). Reverse-topological DP over per-node bitsets, chunked by
/// 512 landmarks so big graphs need `O(|V| · 64B)` scratch instead of
/// `O(|V| · k/8)` bytes.
///
/// A landmark's row draws only on nodes at or below some landmark —
/// usually a small part of the DAG — so the DP runs over those alone, their
/// rows packed in id order.
fn landmark_reach_bitsets(dag: &Graph, lm_nodes: &[NodeId], lm_of_node: &[LmId]) -> BitMatrix {
    const CHUNK_BITS: usize = 512;
    let n = dag.node_count();
    let k = lm_nodes.len();
    let mut below = vec![false; n];
    for v in (0..n).rev().map(NodeId::new) {
        below[v.index()] =
            lm_of_node[v.index()] != NO_LM || dag.inn(v).iter().any(|p| below[p.index()]);
    }
    let members: Vec<NodeId> = dag.nodes().filter(|v| below[v.index()]).collect();
    let mut slot = vec![0usize; n];
    for (s, v) in members.iter().enumerate() {
        slot[v.index()] = s;
    }

    let mut lm_reach = BitMatrix::zeros(k);
    let mut node_reach = Vec::new();
    for chunk_start in (0..k).step_by(CHUNK_BITS) {
        let chunk_end = (chunk_start + CHUNK_BITS).min(k);
        let cw = (chunk_end - chunk_start).div_ceil(64);
        node_reach.clear();
        node_reach.resize(members.len() * cw, 0u64);
        for (s, &v) in members.iter().enumerate() {
            // Children are members with smaller ids: their rows are final.
            let (done, rest) = node_reach.split_at_mut(s * cw);
            let row = &mut rest[..cw];
            for &c in dag.out(v) {
                for (r, x) in row.iter_mut().zip(&done[slot[c.index()] * cw..][..cw]) {
                    *r |= x;
                }
                // `NO_LM` lies beyond every chunk.
                let j = lm_of_node[c.index()] as usize;
                if (chunk_start..chunk_end).contains(&j) {
                    let off = j - chunk_start;
                    row[off / 64] |= 1u64 << (off % 64);
                }
            }
        }
        // Scatter this chunk into the landmark-indexed matrix.
        let word_base = chunk_start / 64;
        for (i, &v) in lm_nodes.iter().enumerate() {
            lm_reach.row_mut(i as LmId)[word_base..word_base + cw]
                .copy_from_slice(&node_reach[slot[v.index()] * cw..][..cw]);
        }
    }
    lm_reach
}

/// Topological ranks `v.r` (§5.1) of a DAG whose ids are
/// reverse-topological: sinks have rank 0, otherwise `1 + max(rank of
/// children)`.
fn topological_ranks(dag: &Graph) -> Vec<u32> {
    let mut rank = vec![0u32; dag.node_count()];
    for v in dag.nodes() {
        let r = dag.out(v).iter().map(|w| rank[w.index()] + 1).max();
        rank[v.index()] = r.unwrap_or(0);
    }
    rank
}

/// Saturating descendant/ancestor count estimates (the paper leaves the
/// cover-size computation unspecified; exact counting costs a BFS per
/// landmark, so we use the standard DAG DP overestimate, which only steers
/// the search heuristic).
fn coverage_estimates(dag: &Graph) -> (Vec<u64>, Vec<u64>) {
    let n = dag.node_count();
    let mut desc = vec![1u64; n];
    let mut anc = vec![1u64; n];
    for v in dag.nodes() {
        let below = dag.out(v).iter().map(|c| desc[c.index()]);
        desc[v.index()] = below.fold(1, u64::saturating_add);
    }
    for v in (0..n).rev().map(NodeId::new) {
        let above = dag.inn(v).iter().map(|p| anc[p.index()]);
        anc[v.index()] = above.fold(1, u64::saturating_add);
    }
    (desc, anc)
}

/// First-hit landmark labels: for each node `v`, the landmarks reachable
/// from `v` (forward) or reaching `v` (backward) along paths containing no
/// intermediate landmark — the paper's `v.E` triples, with the refinement
/// that landmarks of any level count (strictly more recall, still sound).
fn first_hit_labels(dag: &Graph, lm_of_node: &[LmId], cap: usize, forward: bool) -> LabelRows {
    let n = dag.node_count();
    // Rows are appended in visit order — ascending ids forward (children
    // first), descending backward (parents first) — so row `slot(v)` is
    // node `v`'s until the backward rows are put in id order at the end.
    let slot = |v: usize| if forward { v } else { n - 1 - v };
    let mut offsets = Vec::with_capacity(n + 1);
    let mut data: Vec<LmId> = Vec::new();
    let mut acc: Vec<LmId> = Vec::new();
    offsets.push(0);
    for s in 0..n {
        let v = NodeId::new(slot(s));
        acc.clear();
        for &c in if forward { dag.out(v) } else { dag.inn(v) } {
            match lm_of_node[c.index()] {
                NO_LM => {
                    let cs = slot(c.index());
                    acc.extend_from_slice(&data[offsets[cs]..offsets[cs + 1]]);
                }
                j => acc.push(j),
            }
        }
        acc.sort_unstable();
        acc.dedup();
        acc.truncate(cap);
        data.extend_from_slice(&acc);
        offsets.push(data.len());
    }
    if forward {
        return LabelRows { offsets, data };
    }
    let mut by_id = LabelRows {
        offsets: Vec::with_capacity(n + 1),
        data: Vec::with_capacity(data.len()),
    };
    by_id.offsets.push(0);
    for v in 0..n {
        by_id
            .data
            .extend_from_slice(&data[offsets[slot(v)]..offsets[slot(v) + 1]]);
        by_id.offsets.push(by_id.data.len());
    }
    by_id
}

/// Fill `subtree_size` and topological `range` by an iterative post-order
/// walk from the forest roots.
fn compute_subtrees(landmarks: &mut [Landmark], roots: &[LmId]) {
    for &root in roots {
        let mut stack: Vec<(LmId, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if let Some(&c) = landmarks[v as usize].children.get(*i) {
                *i += 1;
                stack.push((c, 0));
                continue;
            }
            let rec = &landmarks[v as usize];
            let mut size = 1u32;
            let (mut lo, mut hi) = (rec.rank, rec.rank);
            for &c in &rec.children {
                let child = &landmarks[c as usize];
                size += child.subtree_size;
                lo = lo.min(child.range.0);
                hi = hi.max(child.range.1);
            }
            landmarks[v as usize].subtree_size = size;
            landmarks[v as usize].range = (lo, hi);
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::builder::graph_from_edges;
    use rustc_hash::FxHashSet;

    fn layered_dag(layers: usize, width: usize) -> Graph {
        // Fully connected consecutive layers.
        let n = layers * width;
        let labels = vec!["A"; n];
        let mut edges = Vec::new();
        for l in 0..layers - 1 {
            for i in 0..width {
                for j in 0..width {
                    edges.push(((l * width + i) as u32, ((l + 1) * width + j) as u32));
                }
            }
        }
        graph_from_edges(&labels, &edges)
    }

    #[test]
    fn index_size_within_alpha_bound() {
        let g = layered_dag(6, 8);
        for alpha in [0.05, 0.1, 0.25] {
            let idx = HierarchicalIndex::build(&g, alpha);
            let bound = (alpha * g.size() as f64) as usize;
            assert!(
                idx.index_size() <= bound.max(1),
                "alpha={alpha}: size {} > bound {bound}",
                idx.index_size()
            );
            assert!(idx.num_landmarks() <= bound / 2 + 1);
        }
    }

    #[test]
    fn landmarks_have_valid_tree_structure() {
        let g = layered_dag(5, 6);
        let idx = HierarchicalIndex::build(&g, 0.3);
        // Every non-root has a parent; parents list them as children.
        let root_set: FxHashSet<LmId> = idx.roots.iter().copied().collect();
        for (i, lm) in idx.landmarks.iter().enumerate() {
            match lm.parent {
                Some(p) => {
                    assert!(idx.landmarks[p as usize].children.contains(&(i as LmId)));
                    assert!(
                        idx.landmarks[p as usize].level > lm.level,
                        "parent level must exceed child level"
                    );
                }
                None => assert!(root_set.contains(&(i as LmId)), "orphan {i}"),
            }
        }
    }

    #[test]
    fn tree_edge_directions_reflect_reachability() {
        let g = layered_dag(5, 6);
        let idx = HierarchicalIndex::build(&g, 0.3);
        for lm in &idx.landmarks {
            if let Some(p) = lm.parent {
                let pn = idx.landmarks[p as usize].node;
                let reachable = rbq_graph::traverse::reaches(&idx.compressed.dag, pn, lm.node).0;
                let reverse = rbq_graph::traverse::reaches(&idx.compressed.dag, lm.node, pn).0;
                if lm.parent_reaches_child {
                    assert!(reachable, "flag says parent reaches child");
                } else {
                    assert!(reverse, "flag says child reaches parent");
                }
            }
        }
    }

    #[test]
    fn subtree_sizes_consistent() {
        let g = layered_dag(4, 8);
        let idx = HierarchicalIndex::build(&g, 0.4);
        let total_in_roots: u32 = idx
            .roots
            .iter()
            .map(|&r| idx.landmarks[r as usize].subtree_size)
            .sum();
        assert_eq!(total_in_roots as usize, idx.num_landmarks());
        for lm in &idx.landmarks {
            let child_sum: u32 = lm
                .children
                .iter()
                .map(|&c| idx.landmarks[c as usize].subtree_size)
                .sum();
            assert_eq!(lm.subtree_size, child_sum + 1);
        }
    }

    /// A flat forest — one root over 600k children, what α = 1 builds on a
    /// star — walked in linear time. Cloning the child list at every stack
    /// step, as this walk once did, copies 1.4 TB here (most of a minute).
    #[test]
    fn subtree_walk_is_linear_in_fan_out() {
        const CHILDREN: u32 = 600_000;
        let leaf = |i: u32| Landmark {
            node: NodeId(i),
            level: 1,
            parent: Some(0),
            parent_reaches_child: true,
            children: Vec::new(),
            cs: 1,
            rank: i % 7,
            range: (0, 0),
            subtree_size: 1,
            hop_fwd: Vec::new(),
            hop_bwd: Vec::new(),
        };
        let mut landmarks: Vec<Landmark> = (0..=CHILDREN).map(leaf).collect();
        landmarks[0].parent = None;
        landmarks[0].rank = 3;
        landmarks[0].children = (1..=CHILDREN).collect();

        let started = std::time::Instant::now();
        compute_subtrees(&mut landmarks, &[0]);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "subtree walk took {:?}",
            started.elapsed()
        );
        assert_eq!(landmarks[0].subtree_size, CHILDREN + 1);
        assert_eq!(landmarks[0].range, (0, 6));
        for (i, lm) in landmarks.iter().enumerate().skip(1) {
            assert_eq!(lm.subtree_size, 1);
            assert_eq!(lm.range, (i as u32 % 7, i as u32 % 7));
        }
    }

    #[test]
    fn ranges_cover_subtree_ranks() {
        let g = layered_dag(5, 4);
        let idx = HierarchicalIndex::build(&g, 0.4);
        for lm in &idx.landmarks {
            assert!(lm.range.0 <= lm.rank && lm.rank <= lm.range.1);
            for &c in &lm.children {
                let cr = &idx.landmarks[c as usize];
                assert!(lm.range.0 <= cr.range.0);
                assert!(lm.range.1 >= cr.range.1);
            }
        }
    }

    #[test]
    fn first_hit_labels_are_sound() {
        let g = layered_dag(4, 4);
        let idx = HierarchicalIndex::build(&g, 0.3);
        // Every forward label of node v must be reachable from v.
        for v in idx.compressed.dag.nodes() {
            for &j in idx.fwd_labels.row(v) {
                let lm_node = idx.landmarks[j as usize].node;
                assert!(
                    rbq_graph::traverse::reaches(&idx.compressed.dag, v, lm_node).0,
                    "label {j} not reachable from {v:?}"
                );
            }
            for &j in idx.bwd_labels.row(v) {
                let lm_node = idx.landmarks[j as usize].node;
                assert!(rbq_graph::traverse::reaches(&idx.compressed.dag, lm_node, v).0);
            }
        }
    }

    #[test]
    fn hop_labels_are_sound() {
        let g = layered_dag(5, 4);
        let idx = HierarchicalIndex::build(&g, 0.4);
        for (i, lm) in idx.landmarks.iter().enumerate() {
            for &j in &lm.hop_fwd {
                assert_ne!(i as LmId, j);
                let to = idx.landmarks[j as usize].node;
                assert!(rbq_graph::traverse::reaches(&idx.compressed.dag, lm.node, to).0);
            }
        }
    }

    #[test]
    fn empty_graph_builds_empty_index() {
        let g = graph_from_edges(&[], &[]);
        let idx = HierarchicalIndex::build(&g, 0.5);
        assert_eq!(idx.num_landmarks(), 0);
        assert_eq!(idx.levels(), 0);
    }

    #[test]
    fn tiny_alpha_yields_no_landmarks() {
        let g = graph_from_edges(&["A"; 4], &[(0, 1), (1, 2), (2, 3)]);
        let idx = HierarchicalIndex::build(&g, 0.05); // α|G|/2 < 1
        assert_eq!(idx.num_landmarks(), 0);
    }

    #[test]
    fn multi_level_promotion_happens_with_large_alpha() {
        let g = layered_dag(8, 8);
        let idx = HierarchicalIndex::build(&g, 0.5);
        assert!(
            idx.levels() >= 2,
            "expected promotion, got {} levels over {} landmarks",
            idx.levels(),
            idx.num_landmarks()
        );
    }

    #[test]
    fn stats_report_consistent() {
        let g = layered_dag(6, 8);
        let idx = HierarchicalIndex::build(&g, 0.3);
        let st = idx.stats();
        assert_eq!(st.landmarks, idx.num_landmarks());
        assert_eq!(st.levels, idx.levels());
        assert_eq!(st.landmarks_per_level.iter().sum::<usize>(), st.landmarks);
        assert_eq!(st.landmarks, st.tree_edges + st.roots);
        assert_eq!(st.dag_nodes, idx.compressed.dag.node_count());
        assert_eq!(st.visit_cap, idx.visit_cap());
    }

    #[test]
    fn alpha_one_marks_every_dag_node() {
        let g = layered_dag(4, 4);
        let idx = HierarchicalIndex::build(&g, 1.0);
        assert_eq!(idx.num_landmarks(), idx.compressed.dag.node_count());
    }

    #[test]
    fn alpha_one_is_exact_on_sparse_graph() {
        // Sparse enough that α|G|/2 < |V_dag| — the old selection would
        // leave landmark-free paths and miss reachable pairs.
        let g = graph_from_edges(&["A"; 6], &[(0, 1), (1, 2), (3, 4)]);
        let idx = HierarchicalIndex::build(&g, 1.0);
        for s in 0..6u32 {
            for t in 0..6u32 {
                let (s, t) = (NodeId(s), NodeId(t));
                let exact = rbq_graph::traverse::reaches(&g, s, t).0;
                assert_eq!(idx.query(s, t).reachable, exact, "{s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn deterministic_build() {
        let g = layered_dag(5, 5);
        let a = HierarchicalIndex::build(&g, 0.3);
        let b = HierarchicalIndex::build(&g, 0.3);
        assert_eq!(a.num_landmarks(), b.num_landmarks());
        for (x, y) in a.landmarks.iter().zip(&b.landmarks) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.parent, y.parent);
        }
    }
}
