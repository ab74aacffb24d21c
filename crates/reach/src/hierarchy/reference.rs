//! The index construction as it stood before the build was made cheap —
//! Kahn orders, `FxHashMap`-keyed landmark lookups, per-pair `bit()` scans,
//! one `Vec` per label row — kept verbatim as the reference the fast build
//! is proptested against, structure for structure; it freezes its forest
//! through the same [`freeze`].
//!
//! Beside it, [`ReferenceQuery`] is `RBReach` as it stood before run
//! cursors: per-landmark records holding child and hop `Vec`s, and an
//! expansion that pushes every eligible target at a freshly computed
//! weight. The run-cursor search is proptested against it, verdict,
//! certificate and visit count for every pair.

use super::build::{freeze, HierarchicalIndex, IndexParams, SelectionStrategy};
use super::query::ReachAnswer;
use super::{Landmark, LmId, LmRows, NO_LM};
use crate::compress::compress_reference;
use rbq_graph::topo::topological_ranks;
use rbq_graph::{Graph, GraphView, NodeId, Stamps};
use rustc_hash::{FxHashMap, FxHashSet};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// [`HierarchicalIndex::build_with`], the slow way.
fn build_reference(g: &Graph, params: IndexParams) -> HierarchicalIndex {
    let compressed = compress_reference(g, params.merge_equivalence);
    let dag = &compressed.dag;
    let n = dag.node_count();
    let ranks = if n > 0 {
        topological_ranks(dag)
    } else {
        Vec::new()
    };

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
    let k1 = lm_nodes.len();
    let mut lm_of_node: FxHashMap<NodeId, LmId> = FxHashMap::default();
    for (i, &v) in lm_nodes.iter().enumerate() {
        lm_of_node.insert(v, i as LmId);
    }

    // ---- Landmark reachability bitsets via one reverse-topo DP. ----
    let words = k1.div_ceil(64);
    let lm_reach = landmark_reach_bitsets(dag, &lm_nodes, &lm_of_node, words);

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

    // ---- Multi-level promotion (Fig. 6 lines 5-9). ----
    let mut unparented: Vec<LmId> = Vec::new();
    let mut cur: Vec<LmId> = (0..k1 as LmId).collect();
    let mut level = 2u32;
    while cur.len() > 1 && level <= params.max_levels {
        // |G_{l-1}|: landmark-graph size (nodes + reachability edges).
        let cur_set: FxHashSet<LmId> = cur.iter().copied().collect();
        let mut edge_cnt = 0usize;
        for &i in &cur {
            edge_cnt += cur
                .iter()
                .filter(|&&j| j != i && bit(&lm_reach, words, i, j))
                .count();
        }
        let lm_graph_size = cur.len() + edge_cnt;
        let k = ((params.alpha * lm_graph_size as f64) / 2.0).floor() as usize;
        let k = k.min(cur.len() - 1);
        if k == 0 {
            break;
        }

        // Rank and degree within the landmark graph.
        let (l_ranks, l_degs) = landmark_graph_stats(&cur, &lm_reach, words);

        // Greedy selection on the landmark graph, spreading across it.
        let a_l = (cur.len() / k).max(1);
        let selected = greedy_select_landmarks(&cur, &l_ranks, &l_degs, k, a_l, |i, j| {
            bit(&lm_reach, words, i, j) || bit(&lm_reach, words, j, i)
        });
        let selected_set: FxHashSet<LmId> = selected.iter().copied().collect();

        // Assign parents: every unselected current landmark attaches to
        // a connected selected landmark (first in selection order).
        for &w in &cur {
            if selected_set.contains(&w) {
                continue;
            }
            let mut attached = false;
            for &v in &selected {
                if bit(&lm_reach, words, v, w) {
                    landmarks[w as usize].parent = Some(v);
                    landmarks[w as usize].parent_reaches_child = true;
                    landmarks[v as usize].children.push(w);
                    attached = true;
                    break;
                }
                if bit(&lm_reach, words, w, v) {
                    landmarks[w as usize].parent = Some(v);
                    landmarks[w as usize].parent_reaches_child = false;
                    landmarks[v as usize].children.push(w);
                    attached = true;
                    break;
                }
            }
            if !attached {
                unparented.push(w);
            }
        }
        for &v in &selected {
            landmarks[v as usize].level = level;
        }
        let _ = cur_set;
        cur = selected;
        level += 1;
    }

    let mut roots: Vec<LmId> = cur;
    roots.extend(unparented);
    roots.sort_unstable();
    roots.dedup();

    // ---- Subtree sizes and topological ranges (DFS from roots). ----
    compute_subtrees(&mut landmarks, &roots);

    let flat = |rows: Vec<Vec<LmId>>| {
        let mut flat = LmRows::default();
        for row in &rows {
            flat.push(row);
        }
        flat
    };
    let mut dense = vec![NO_LM; n];
    for (v, i) in lm_of_node {
        dense[v.index()] = i;
    }
    let (fwd_labels, bwd_labels) = (flat(fwd_labels), flat(bwd_labels));
    HierarchicalIndex {
        compressed,
        forest: freeze(&landmarks, [&fwd_labels, &bwd_labels]),
        lm_of_node: dense,
        fwd_labels,
        bwd_labels,
        ranks,
        alpha: params.alpha,
        visit_cap,
        roots,
    }
}

/// Greedy selection over a landmark graph given rank/degree maps.
fn greedy_select_landmarks(
    cur: &[LmId],
    l_ranks: &FxHashMap<LmId, u32>,
    l_degs: &FxHashMap<LmId, u32>,
    k: usize,
    a: usize,
    adjacent: impl Fn(LmId, LmId) -> bool,
) -> Vec<LmId> {
    let mut order: Vec<LmId> = cur.to_vec();
    order.sort_unstable_by_key(|&i| {
        std::cmp::Reverse((l_degs[&i] as u64) * (l_ranks[&i] as u64 + 1))
    });
    let mut removed: FxHashSet<LmId> = FxHashSet::default();
    let mut picked = Vec::with_capacity(k);
    for i in order {
        if picked.len() >= k {
            break;
        }
        if removed.contains(&i) {
            continue;
        }
        picked.push(i);
        removed.insert(i);
        let mut quota = a;
        for &j in cur {
            if quota == 0 {
                break;
            }
            if j != i && !removed.contains(&j) && adjacent(i, j) {
                removed.insert(j);
                quota -= 1;
            }
        }
    }
    picked
}

/// Rank and degree of each current landmark *within the landmark graph*
/// (nodes = `cur`, edges = reachability).
fn landmark_graph_stats(
    cur: &[LmId],
    lm_reach: &[u64],
    words: usize,
) -> (FxHashMap<LmId, u32>, FxHashMap<LmId, u32>) {
    // Degree = adjacency count either direction; rank = longest out-path.
    let mut degs: FxHashMap<LmId, u32> = FxHashMap::default();
    for &i in cur {
        let d = cur
            .iter()
            .filter(|&&j| j != i && (bit(lm_reach, words, i, j) || bit(lm_reach, words, j, i)))
            .count() as u32;
        degs.insert(i, d);
    }
    // The landmark graph is transitively closed, so the longest path from i
    // equals the number of landmarks i reaches... not quite (it is the
    // longest chain). Chain length in a transitive DAG = longest path; we
    // approximate rank by out-reach count, which orders identically for
    // chains and is monotone for the greedy heuristic.
    let mut ranks: FxHashMap<LmId, u32> = FxHashMap::default();
    for &i in cur {
        let r = cur
            .iter()
            .filter(|&&j| j != i && bit(lm_reach, words, i, j))
            .count() as u32;
        ranks.insert(i, r);
    }
    (ranks, degs)
}

/// `lm_reach[i]` bit `j` set ⟺ landmark `i` reaches landmark `j` in the
/// DAG (i ≠ j). Reverse-topological DP over per-node bitsets, chunked by
/// 512 landmarks so big graphs need `O(|V| · 64B)` scratch instead of
/// `O(|V| · k/8)` bytes.
fn landmark_reach_bitsets(
    dag: &Graph,
    lm_nodes: &[NodeId],
    lm_of_node: &FxHashMap<NodeId, LmId>,
    words: usize,
) -> Vec<u64> {
    const CHUNK_BITS: usize = 512;
    const CHUNK_WORDS: usize = CHUNK_BITS / 64;
    let n = dag.node_count();
    let k = lm_nodes.len();
    if words == 0 || k == 0 {
        return Vec::new();
    }
    // invariant: `dag` is the SCC condensation built upstream in this
    // module, which is acyclic by construction.
    let order = rbq_graph::topo::topological_order(dag).expect("compressed graph is a DAG");
    let mut lm_reach = vec![0u64; k * words];
    let mut node_reach = Vec::new();
    let mut row = [0u64; CHUNK_WORDS];

    for chunk_start in (0..k).step_by(CHUNK_BITS) {
        let chunk_end = (chunk_start + CHUNK_BITS).min(k);
        let cw = (chunk_end - chunk_start).div_ceil(64);
        node_reach.clear();
        node_reach.resize(n * cw, 0u64);
        for &v in order.iter().rev() {
            row[..cw].fill(0);
            for &c in dag.out(v) {
                let base = c.index() * cw;
                for (w, r) in row[..cw].iter_mut().enumerate() {
                    *r |= node_reach[base + w];
                }
                if let Some(&j) = lm_of_node.get(&c) {
                    let j = j as usize;
                    if (chunk_start..chunk_end).contains(&j) {
                        let off = j - chunk_start;
                        row[off / 64] |= 1u64 << (off % 64);
                    }
                }
            }
            node_reach[v.index() * cw..(v.index() + 1) * cw].copy_from_slice(&row[..cw]);
        }
        // Scatter this chunk into the landmark-indexed matrix.
        let word_base = chunk_start / 64;
        for (i, &v) in lm_nodes.iter().enumerate() {
            for w in 0..cw {
                lm_reach[i * words + word_base + w] = node_reach[v.index() * cw + w];
            }
        }
    }
    lm_reach
}

#[inline]
fn bit(lm_reach: &[u64], words: usize, i: LmId, j: LmId) -> bool {
    lm_reach[i as usize * words + (j / 64) as usize] >> (j % 64) & 1 == 1
}

/// Saturating descendant/ancestor count estimates (the paper leaves the
/// cover-size computation unspecified; exact counting costs a BFS per
/// landmark, so we use the standard DAG DP overestimate, which only steers
/// the search heuristic).
fn coverage_estimates(dag: &Graph) -> (Vec<u64>, Vec<u64>) {
    let n = dag.node_count();
    let mut desc = vec![1u64; n];
    let mut anc = vec![1u64; n];
    if n == 0 {
        return (desc, anc);
    }
    // invariant: `dag` is the SCC condensation, acyclic by construction.
    let order = rbq_graph::topo::topological_order(dag).expect("DAG");
    for &v in order.iter().rev() {
        let mut d = 1u64;
        for &c in dag.out(v) {
            d = d.saturating_add(desc[c.index()]);
        }
        desc[v.index()] = d;
    }
    for &v in &order {
        let mut x = 1u64;
        for &p in dag.inn(v) {
            x = x.saturating_add(anc[p.index()]);
        }
        anc[v.index()] = x;
    }
    (desc, anc)
}

/// First-hit landmark labels: for each node `v`, the landmarks reachable
/// from `v` (forward) or reaching `v` (backward) along paths containing no
/// intermediate landmark — the paper's `v.E` triples, with the refinement
/// that landmarks of any level count (strictly more recall, still sound).
fn first_hit_labels(
    dag: &Graph,
    lm_of_node: &FxHashMap<NodeId, LmId>,
    cap: usize,
    forward: bool,
) -> Vec<Vec<LmId>> {
    let n = dag.node_count();
    let mut labels: Vec<Vec<LmId>> = vec![Vec::new(); n];
    if n == 0 {
        return labels;
    }
    // invariant: `dag` is the SCC condensation, acyclic by construction.
    let order = rbq_graph::topo::topological_order(dag).expect("DAG");
    let iter: Box<dyn Iterator<Item = &NodeId>> = if forward {
        Box::new(order.iter().rev())
    } else {
        Box::new(order.iter())
    };
    for &v in iter {
        let mut acc: Vec<LmId> = Vec::new();
        let neigh = if forward { dag.out(v) } else { dag.inn(v) };
        for &c in neigh {
            if let Some(&j) = lm_of_node.get(&c) {
                acc.push(j);
            } else {
                acc.extend_from_slice(&labels[c.index()]);
            }
        }
        acc.sort_unstable();
        acc.dedup();
        acc.truncate(cap);
        labels[v.index()] = acc;
    }
    labels
}

/// Fill `subtree_size` and topological `range` by an iterative post-order
/// walk from the forest roots.
fn compute_subtrees(landmarks: &mut [Landmark], roots: &[LmId]) {
    for &root in roots {
        // Iterative post-order.
        let mut stack: Vec<(LmId, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            let children = landmarks[v as usize].children.clone();
            if *i < children.len() {
                let c = children[*i];
                *i += 1;
                stack.push((c, 0));
            } else {
                let mut size = 1u32;
                let mut lo = landmarks[v as usize].rank;
                let mut hi = landmarks[v as usize].rank;
                for &c in &children {
                    size += landmarks[c as usize].subtree_size;
                    lo = lo.min(landmarks[c as usize].range.0);
                    hi = hi.max(landmarks[c as usize].range.1);
                }
                landmarks[v as usize].subtree_size = size;
                landmarks[v as usize].range = (lo, hi);
                stack.pop();
            }
        }
    }
}

/// A landmark record as the query read it before the forest was frozen.
struct OldLandmark {
    parent: Option<LmId>,
    parent_reaches_child: bool,
    children: Vec<LmId>,
    cs: u64,
    rank: u32,
    range: (u32, u32),
    subtree_size: u32,
    hop_fwd: Vec<LmId>,
    hop_bwd: Vec<LmId>,
}

/// `RBReach` before run cursors, over records thawed from a built index's
/// tables; everything else it reads through to the index.
struct ReferenceQuery<'a> {
    idx: &'a HierarchicalIndex,
    landmarks: Vec<OldLandmark>,
}

impl std::ops::Deref for ReferenceQuery<'_> {
    type Target = HierarchicalIndex;
    fn deref(&self) -> &HierarchicalIndex {
        self.idx
    }
}

impl<'a> ReferenceQuery<'a> {
    fn new(idx: &'a HierarchicalIndex) -> Self {
        let f = &idx.forest;
        let landmarks = (0..f.len())
            .map(|i| OldLandmark {
                parent: (f.parent[i] != NO_LM).then_some(f.parent[i]),
                parent_reaches_child: f.parent_reaches_child[i],
                children: f.children.row(i).to_vec(),
                cs: f.terms[i].0,
                rank: f.guard[i].rank,
                range: f.guard[i].range,
                subtree_size: f.terms[i].1,
                hop_fwd: idx.fwd_labels.row(f.node[i].index()).to_vec(),
                hop_bwd: idx.bwd_labels.row(f.node[i].index()).to_vec(),
            })
            .collect();
        ReferenceQuery { idx, landmarks }
    }
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

/// The per-query state of the reference search.
#[derive(Default)]
struct OldScratch {
    s_active: Stamps,
    t_active: Stamps,
    s_heap: BinaryHeap<Cand>,
    t_heap: BinaryHeap<Cand>,
}

impl ReferenceQuery<'_> {
    /// `s → t?` as the push-everything search answers it.
    fn query(&self, s: NodeId, t: NodeId) -> ReachAnswer {
        let scratch = &mut OldScratch::default();
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

        let OldScratch {
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
            None => self.fwd_labels.row(cs.index()),
        };
        let t_seed: &[LmId] = match &t_lm {
            Some(i) => std::slice::from_ref(i),
            None => self.bwd_labels.row(ct.index()),
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

/// The greedy landmark selection as it stood before its keys were
/// precomputed: every comparison recomputes both keys.
fn greedy_select(
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
        SelectionStrategy::Random(seed) => order.sort_unstable_by_key(|&v| {
            let mut x = seed ^ (v.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x
        }),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress_for_reachability, compress_with, condense_only};
    use crate::hierarchy::{ReachScratch, SelectionStrategy};
    use proptest::prelude::*;
    use rbq_graph::builder::graph_from_edges;

    /// Random digraphs, half of them acyclic (edges oriented low → high id)
    /// so the condensation keeps enough nodes for a multi-level forest.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        (2usize..48, prop::bool::ANY).prop_flat_map(|(n, acyclic)| {
            let labels = proptest::collection::vec(0u8..4, n);
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 3);
            (labels, edges).prop_map(move |(labels, mut edges)| {
                if acyclic {
                    for e in edges.iter_mut() {
                        *e = (e.0.min(e.1), e.0.max(e.1));
                    }
                    edges.retain(|e| e.0 != e.1);
                }
                let names: Vec<String> = labels.iter().map(|l| format!("L{l}")).collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                graph_from_edges(&refs, &edges)
            })
        })
    }

    /// A few hundred nodes with hubs, siblings that share neighborhoods and
    /// a sprinkle of back edges: big enough that promotion runs past level
    /// 2 and the spread quota truncates adjacency lists.
    fn hub_graph(n: u32, seed: u64) -> Graph {
        let mut x = seed;
        let mut next = |m: u32| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % m as u64) as u32
        };
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for v in 1..n {
            for _ in 0..1 + next(3) {
                // Endpoints of earlier edges are picked again: hubs.
                let w = match edges.len() {
                    0 => 0,
                    m => {
                        let e = edges[next(m as u32) as usize];
                        if next(2) == 0 {
                            e.0
                        } else {
                            e.1
                        }
                    }
                };
                if next(20) == 0 {
                    edges.push((w.min(v - 1), v));
                } else {
                    edges.push((v, w.min(v - 1)));
                }
            }
        }
        graph_from_edges(&vec!["A"; n as usize], &edges)
    }

    /// A bow tie around node 0: sources `1..=n/2` reach it, it reaches
    /// sinks `n/2+1..n`, and seeded cross edges (sources to later sources
    /// and to sinks, sinks to later sinks) keep the nodes' neighbourhoods
    /// apart so compression keeps them. Node 0 becomes a landmark of
    /// maximal degree that every other landmark is connected to, so
    /// promotion hangs most landmarks under it — the shape of the
    /// benchmark graph's level-2 root.
    fn bow_tie(n: u32, seed: u64) -> Graph {
        let mut x = seed;
        let mut next = |m: u32| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % m as u64) as u32
        };
        let half = n / 2;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for v in 1..n {
            edges.push(if v <= half { (v, 0) } else { (0, v) });
            for _ in 0..next(3) {
                let w = v + 1 + next(n - v);
                if w < n && (v <= half || w > half) {
                    edges.push((v, w));
                }
            }
        }
        graph_from_edges(&vec!["A"; n as usize], &edges)
    }

    /// `query_with` through one reused scratch, and `query` on a fresh one,
    /// answer every pair as the push-everything reference does: the same
    /// verdict, certificate and visit count.
    fn assert_same_answers(g: &Graph, alpha: f64) {
        let idx = HierarchicalIndex::build(g, alpha);
        let reference = ReferenceQuery::new(&idx);
        let mut scratch = ReachScratch::default();
        for s in g.nodes() {
            for t in g.nodes() {
                let want = reference.query(s, t);
                let got = idx.query_with(s, t, &mut scratch);
                assert_eq!(got, want, "{s:?} -> {t:?} at alpha={alpha}");
                if (s.0 + t.0) % 7 == 0 {
                    assert_eq!(idx.query(s, t), want, "fresh scratch, {s:?} -> {t:?}");
                }
            }
        }
    }

    const QUERY_ALPHAS: [f64; 3] = [0.05, 0.25, 1.0];

    const ALPHAS: [f64; 5] = [0.05, 0.1, 0.25, 0.5, 1.0];
    const STRATEGIES: [SelectionStrategy; 4] = [
        SelectionStrategy::DegreeRank,
        SelectionStrategy::Coverage,
        SelectionStrategy::DegreeOnly,
        SelectionStrategy::Random(7),
    ];

    fn assert_same_index(g: &Graph) {
        for alpha in ALPHAS {
            for merge in [true, false] {
                for selection in STRATEGIES {
                    let params = IndexParams::new(alpha)
                        .with_equivalence_merge(merge)
                        .with_selection(selection);
                    let fast = HierarchicalIndex::build_with(g, params);
                    let slow = build_reference(g, params);
                    assert!(
                        fast.structural_eq(&slow),
                        "index differs at alpha={alpha} merge={merge} {selection:?}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn compression_equals_reference(g in arb_graph()) {
            prop_assert!(compress_for_reachability(&g).structural_eq(&compress_reference(&g, true)));
            prop_assert!(condense_only(&g).structural_eq(&compress_reference(&g, false)));
        }

        /// With every signature hashing alike, only the slice comparison
        /// separates classes: the equality check, not the hash, decides.
        #[test]
        fn merges_are_decided_by_equality_not_by_hash(g in arb_graph()) {
            let collided = compress_with(&g, |_, _| 0);
            prop_assert!(collided.structural_eq(&compress_reference(&g, true)));
        }

        #[test]
        fn index_equals_reference(g in arb_graph()) {
            assert_same_index(&g);
        }

        #[test]
        fn query_equals_reference(g in arb_graph()) {
            for alpha in QUERY_ALPHAS {
                assert_same_answers(&g, alpha);
            }
        }
    }

    /// The hub family: most landmarks hang under one root, so queries
    /// seeded there open a long run and pop a few of it, and queries seeded
    /// below it push the hub on its own at a recomputed weight.
    #[test]
    fn query_equals_reference_on_hub_graphs() {
        for (n, seed) in [(120, 1), (160, 2), (200, 3)] {
            let g = bow_tie(n, seed);
            let idx = HierarchicalIndex::build(&g, 0.25);
            let f = &idx.forest;
            let widest = (0..f.len()).map(|i| f.children.row(i).len()).max();
            assert!(
                2 * widest.unwrap_or(0) > f.len(),
                "no landmark holds most of the {} landmarks as children",
                f.len()
            );
            for alpha in QUERY_ALPHAS {
                assert_same_answers(&g, alpha);
            }
        }
        for (n, seed) in [(300, 1), (400, 2)] {
            for alpha in QUERY_ALPHAS {
                assert_same_answers(&hub_graph(n, seed), alpha);
            }
        }
    }

    #[test]
    fn index_equals_reference_on_hub_graphs() {
        for (n, seed) in [(300, 1), (400, 2), (600, 3)] {
            let g = hub_graph(n, seed);
            assert!(compress_for_reachability(&g).structural_eq(&compress_reference(&g, true)));
            assert!(compress_with(&g, |_, _| 0).structural_eq(&compress_reference(&g, true)));
            assert_same_index(&g);
        }
    }
}
