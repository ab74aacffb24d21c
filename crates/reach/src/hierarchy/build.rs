//! `RBIndex` (Fig. 6): constructing the hierarchical landmark index.

use super::query::heap_key;
use super::{Forest, Guard, Landmark, LmId, LmRows, BWD, FWD, NO_LM};
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
    /// The landmark forest, frozen into the tables the query reads.
    pub(crate) forest: Forest,
    /// Per DAG node: its landmark id, or [`NO_LM`].
    pub(crate) lm_of_node: Vec<LmId>,
    /// Per DAG node: first-hit landmarks reachable from it (`v.E`, flag 1).
    pub(crate) fwd_labels: LmRows,
    /// Per DAG node: first-hit landmarks reaching it (`v.E`, flag 0).
    pub(crate) bwd_labels: LmRows,
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
        // silently, so the first pass checks it rather than trust it.
        let (ranks, desc_est, anc_est) = ranks_and_coverage(dag);

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
            })
            .collect();

        let roots = promote(&mut landmarks, &lm_reach, params.alpha, params.max_levels);

        // ---- Subtree sizes and topological ranges (DFS from roots). ----
        compute_subtrees(&mut landmarks, &roots);
        let forest = freeze(&landmarks, [&fwd_labels, &bwd_labels]);

        HierarchicalIndex {
            compressed,
            forest,
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

    /// The DAG node of the landmark with the longest expansion list on
    /// either side: the seed whose search has the most candidates to
    /// order. `None` when the index has no landmarks.
    pub fn hub(&self) -> Option<NodeId> {
        let fan_out = |i: usize| {
            let [fwd, bwd] = &self.forest.expand;
            fwd.row(i).len().max(bwd.row(i).len())
        };
        let widest = (0..self.forest.len()).max_by_key(|&i| (fan_out(i), std::cmp::Reverse(i)));
        widest.map(|i| self.forest.node[i])
    }

    /// Whether `other` is the same index structure for structure — the
    /// compressed DAG and its node maps, every landmark table (node,
    /// level, parent and edge direction, children, cover size, rank, range,
    /// subtree size, static weight, expansion lists), the per-node
    /// first-hit labels, ranks, roots and caps — not merely an index that
    /// answers alike.
    pub fn structural_eq(&self, other: &Self) -> bool {
        self.compressed.structural_eq(&other.compressed)
            && self.forest == other.forest
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
        self.forest.len()
    }

    /// Number of forest levels.
    pub fn levels(&self) -> u32 {
        self.forest.level.iter().copied().max().unwrap_or(0)
    }

    /// Parent edges in the forest.
    fn tree_edges(&self) -> usize {
        self.forest.parent.iter().filter(|&&p| p != NO_LM).count()
    }

    /// Index size in nodes+edges units: landmarks plus tree edges. The
    /// paper's Theorem 4 bound (`≤ α|G|`).
    pub fn index_size(&self) -> usize {
        self.forest.len() + self.tree_edges()
    }

    /// Total label entries (`Σ|v.E|` plus hop labels: each landmark's own
    /// node's rows, counted again) — auxiliary storage reported alongside
    /// the forest size.
    pub fn label_entries(&self) -> usize {
        let rows = |v: &NodeId| {
            self.fwd_labels.row(v.index()).len() + self.bwd_labels.row(v.index()).len()
        };
        let hops: usize = self.forest.node.iter().map(rows).sum();
        self.fwd_labels.entries() + self.bwd_labels.entries() + hops
    }

    /// The query-time visit cap `⌊α|G|⌋`.
    pub fn visit_cap(&self) -> usize {
        self.visit_cap
    }

    /// Structural report of the index, for experiment logs and diagnostics.
    pub fn stats(&self) -> IndexStats {
        let levels = self.levels();
        let mut per_level = vec![0usize; levels as usize];
        for &level in &self.forest.level {
            per_level[(level - 1) as usize] += 1;
        }
        IndexStats {
            landmarks: self.forest.len(),
            levels,
            landmarks_per_level: per_level,
            roots: self.roots.len(),
            tree_edges: self.tree_edges(),
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
///
/// Keys are computed once per node, not per comparison; the sort sees the
/// same keys in the same order as one that recomputes them, so ties fall
/// identically.
fn greedy_select(
    dag: &Graph,
    ranks: &[u32],
    k: usize,
    a: usize,
    strategy: SelectionStrategy,
    desc_est: &[u64],
    anc_est: &[u64],
) -> Vec<NodeId> {
    let key = |v: NodeId| -> u64 {
        let i = v.index();
        match strategy {
            SelectionStrategy::DegreeRank => dag.deg(v) as u64 * (ranks[i] as u64 + 1),
            SelectionStrategy::Coverage => desc_est[i].saturating_mul(anc_est[i]),
            SelectionStrategy::DegreeOnly => dag.deg(v) as u64,
            SelectionStrategy::Random(seed) => {
                // Deterministic pseudo-shuffle without an RNG dependency
                // here: a splitmix-style hash of (seed, node id), ascending
                // (complemented under the descending sort).
                let mut x = seed ^ (v.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                !x
            }
        }
    };
    let keys: Vec<u64> = dag.nodes().map(key).collect();
    let mut order: Vec<NodeId> = dag.nodes().collect();
    order.sort_unstable_by_key(|&v| std::cmp::Reverse(keys[v.index()]));
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
/// reverse-topological — sinks have rank 0, otherwise `1 + max(rank of
/// children)` — and the saturating descendant/ancestor count estimates
/// behind the cover sizes `v.cs`. The paper leaves the cover-size
/// computation unspecified; exact counting costs a BFS per landmark, so we
/// use the standard DAG DP overestimate, which only steers the search
/// heuristic. Ranks and descendants share one pass over the children,
/// which also checks that every edge points to a smaller id.
fn ranks_and_coverage(dag: &Graph) -> (Vec<u32>, Vec<u64>, Vec<u64>) {
    let n = dag.node_count();
    let mut rank = vec![0u32; n];
    let mut desc = vec![1u64; n];
    let mut anc = vec![1u64; n];
    for v in dag.nodes() {
        let (mut r, mut d) = (0u32, 1u64);
        for c in dag.out(v) {
            assert!(*c < v, "compressed DAG ids must be reverse-topological");
            r = r.max(rank[c.index()] + 1);
            d = d.saturating_add(desc[c.index()]);
        }
        (rank[v.index()], desc[v.index()]) = (r, d);
    }
    for v in (0..n).rev().map(NodeId::new) {
        let above = dag.inn(v).iter().map(|p| anc[p.index()]);
        anc[v.index()] = above.fold(1, u64::saturating_add);
    }
    (rank, desc, anc)
}

/// First-hit landmark labels: for each node `v`, the landmarks reachable
/// from `v` (forward) or reaching `v` (backward) along paths containing no
/// intermediate landmark — the paper's `v.E` triples, with the refinement
/// that landmarks of any level count (strictly more recall, still sound).
fn first_hit_labels(dag: &Graph, lm_of_node: &[LmId], cap: usize, forward: bool) -> LmRows {
    let n = dag.node_count();
    // Rows are appended in visit order — ascending ids forward (children
    // first), descending backward (parents first) — so row `slot(v)` is
    // node `v`'s until the backward rows are put in id order at the end.
    let slot = |v: usize| if forward { v } else { n - 1 - v };
    let mut rows = LmRows::default();
    let mut acc: Vec<LmId> = Vec::new();
    for s in 0..n {
        let v = NodeId::new(slot(s));
        acc.clear();
        for &c in if forward { dag.out(v) } else { dag.inn(v) } {
            match lm_of_node[c.index()] {
                NO_LM => acc.extend_from_slice(rows.row(slot(c.index()))),
                j => acc.push(j),
            }
        }
        acc.sort_unstable();
        acc.dedup();
        acc.truncate(cap);
        rows.push(&acc);
    }
    if forward {
        return rows;
    }
    let mut by_id = LmRows::default();
    for v in 0..n {
        by_id.push(rows.row(slot(v)));
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

/// Freeze the finished forest into the tables the query reads: the
/// records' scalars as per-landmark arrays, children as rows, the static
/// weight's heap key, and per side each landmark's expansion targets,
/// deduplicated and sorted in pop order. `labels` are the first-hit rows
/// by DAG node, [`FWD`] then [`BWD`]; a landmark's hops are its own node's
/// row.
pub(super) fn freeze(landmarks: &[Landmark], labels: [&LmRows; 2]) -> Forest {
    let mut children = LmRows::default();
    for lm in landmarks {
        children.push(&lm.children);
    }
    let mut forest = Forest {
        node: landmarks.iter().map(|l| l.node).collect(),
        level: landmarks.iter().map(|l| l.level).collect(),
        parent: landmarks
            .iter()
            .map(|l| l.parent.unwrap_or(NO_LM))
            .collect(),
        parent_reaches_child: landmarks.iter().map(|l| l.parent_reaches_child).collect(),
        guard: (landmarks.iter())
            .map(|l| Guard {
                rank: l.rank,
                range: l.range,
            })
            .collect(),
        terms: landmarks.iter().map(|l| (l.cs, l.subtree_size)).collect(),
        children,
        key: Vec::new(),
        expand: Default::default(),
    };
    forest.key = (0..landmarks.len() as LmId)
        .map(|i| heap_key(forest.pick_weight(i, |_| false)))
        .collect();
    let mut acc: Vec<LmId> = Vec::new();
    for (side, fwd) in [(FWD, true), (BWD, false)] {
        let mut rows = LmRows::default();
        for lm in landmarks {
            acc.clear();
            // A tree edge composes with the s-side when it points away from
            // `lm` (`lm → ℓ'`), with the t-side when it points at it.
            if let Some(p) = lm.parent.filter(|_| lm.parent_reaches_child != fwd) {
                acc.push(p);
            }
            let down = |c: &&LmId| landmarks[**c as usize].parent_reaches_child == fwd;
            acc.extend(lm.children.iter().filter(down));
            acc.extend_from_slice(labels[side].row(lm.node.index()));
            acc.sort_unstable_by_key(|&x| std::cmp::Reverse((forest.key[x as usize], x)));
            acc.dedup();
            rows.push(&acc);
        }
        forest.expand[side] = rows;
    }
    forest
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
        let f = &idx.forest;
        for i in 0..f.len() {
            match f.parent[i] {
                NO_LM => assert!(root_set.contains(&(i as LmId)), "orphan {i}"),
                p => {
                    assert!(f.children.row(p as usize).contains(&(i as LmId)));
                    assert!(
                        f.level[p as usize] > f.level[i],
                        "parent level must exceed child level"
                    );
                }
            }
        }
    }

    #[test]
    fn tree_edge_directions_reflect_reachability() {
        let g = layered_dag(5, 6);
        let idx = HierarchicalIndex::build(&g, 0.3);
        let f = &idx.forest;
        for i in 0..f.len() {
            if f.parent[i] != NO_LM {
                let (pn, node) = (f.node[f.parent[i] as usize], f.node[i]);
                let reachable = rbq_graph::traverse::reaches(&idx.compressed.dag, pn, node).0;
                let reverse = rbq_graph::traverse::reaches(&idx.compressed.dag, node, pn).0;
                if f.parent_reaches_child[i] {
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
        let f = &idx.forest;
        let size = |i: LmId| f.terms[i as usize].1;
        let total_in_roots: u32 = idx.roots.iter().map(|&r| size(r)).sum();
        assert_eq!(total_in_roots as usize, idx.num_landmarks());
        for i in 0..f.len() as LmId {
            let child_sum: u32 = f.children.row(i as usize).iter().map(|&c| size(c)).sum();
            assert_eq!(size(i), child_sum + 1);
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
        let f = &idx.forest;
        for (i, g) in f.guard.iter().enumerate() {
            assert!(g.range.0 <= g.rank && g.rank <= g.range.1);
            for &c in f.children.row(i) {
                let cr = f.guard[c as usize].range;
                assert!(g.range.0 <= cr.0);
                assert!(g.range.1 >= cr.1);
            }
        }
    }

    #[test]
    fn first_hit_labels_are_sound() {
        let g = layered_dag(4, 4);
        let idx = HierarchicalIndex::build(&g, 0.3);
        // Every forward label of node v must be reachable from v.
        for v in idx.compressed.dag.nodes() {
            for &j in idx.fwd_labels.row(v.index()) {
                let lm_node = idx.forest.node[j as usize];
                assert!(
                    rbq_graph::traverse::reaches(&idx.compressed.dag, v, lm_node).0,
                    "label {j} not reachable from {v:?}"
                );
            }
            for &j in idx.bwd_labels.row(v.index()) {
                let lm_node = idx.forest.node[j as usize];
                assert!(rbq_graph::traverse::reaches(&idx.compressed.dag, lm_node, v).0);
            }
        }
    }

    #[test]
    fn hop_labels_are_sound() {
        let g = layered_dag(5, 4);
        let idx = HierarchicalIndex::build(&g, 0.4);
        let f = &idx.forest;
        let reaches = |a: LmId, b: LmId| {
            let (a, b) = (f.node[a as usize], f.node[b as usize]);
            rbq_graph::traverse::reaches(&idx.compressed.dag, a, b).0
        };
        for i in 0..f.len() as LmId {
            for &j in idx.fwd_labels.row(f.node[i as usize].index()) {
                assert_ne!(i, j);
                assert!(reaches(i, j));
            }
            // Every expansion target is certified by the side's direction,
            // and each list is deduplicated in pop order.
            for (side, fwd) in [(FWD, true), (BWD, false)] {
                let row = f.expand[side].row(i as usize);
                for &j in row {
                    assert!(if fwd { reaches(i, j) } else { reaches(j, i) });
                }
                let order = |&x: &LmId| (f.key[x as usize], x);
                assert!(row.windows(2).all(|w| order(&w[0]) > order(&w[1])));
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
        assert_eq!(a.forest.node, b.forest.node);
        assert_eq!(a.forest.parent, b.forest.parent);
    }
}
