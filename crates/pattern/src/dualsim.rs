//! Dual simulation — the fixpoint both strong simulation and the dynamic
//! reduction's accuracy arguments build on.
//!
//! A binary relation `R ⊆ V_p × V` is a *dual simulation* if for every
//! `(u, v) ∈ R`: labels agree, and (a) every query child `u'` of `u` has a
//! match `v'` among `v`'s children with `(u', v') ∈ R`, and (b) every query
//! parent `u''` of `u` has a match among `v`'s parents (paper §2,
//! conditions (a)/(b)). There is a unique **maximum** dual simulation, which
//! this module computes seeded with the personalized pair `(u_p, v_p)`.
//!
//! ## Algorithm
//!
//! The fixpoint is computed by the counter-based worklist algorithm (in the
//! tradition of Henzinger–Henzinger–Kopke's efficient simulation): for every
//! query edge `(a, b)` and candidate `v` of `a`, a counter holds
//! `|out(v) ∩ sim(b)|`; symmetrically for parents. A pair is removed exactly
//! when one of its counters reaches zero, and each removal decrements only
//! the counters of the removed node's data neighbors — so total work is
//! `O((|V_p| + |E_p|) · (|V| + |E|))` instead of the naive algorithm's
//! repeated full re-sweeps. Match sets are sorted candidate vectors with a
//! dense alive mask, not hash sets: probes are binary searches, results are
//! borrowed sorted slices, and the inner loops never allocate per probe
//! (adjacency is [`GraphView`]'s borrowed `&[NodeId]`).
//!
//! The naive iterated-pruning fixpoint is retained under `#[cfg(test)]` as
//! the differential oracle for the property tests below.
//!
//! ## Scratch threading
//!
//! Every per-call allocation of the fixpoint (candidate lists, alive masks,
//! counters, membership bitmaps, the worklist, the result vectors) lives in
//! a reusable [`DualSimScratch`]. The `_with` entry points
//! ([`dual_simulation_with`], [`dual_simulation_screened_with`]) borrow the
//! scratch and return a borrowed [`DualSimRef`] — strong simulation holds
//! one scratch per serving worker and runs every fixpoint through it with
//! zero steady-state allocation, the way [`rbq_graph::BallScratch`] already
//! serves the ball BFS. [`dual_simulation`] remains as the one-shot
//! convenience over a fresh scratch.

use crate::pattern::{PNode, ResolvedPattern};
use rbq_graph::{GraphView, NodeId};

/// The maximum dual-simulation relation, as per-query-node match sets.
///
/// Match sets are sorted, deduplicated vectors: deterministic order is
/// inherent, and [`DualSim::matches`] is a borrowed slice.
#[derive(Debug, Clone)]
pub struct DualSim {
    sim: Vec<Vec<NodeId>>,
}

impl DualSim {
    /// Matches of query node `u`, sorted ascending.
    #[inline]
    pub fn matches(&self, u: PNode) -> &[NodeId] {
        &self.sim[u.index()]
    }

    /// Whether `(u, v)` is in the relation.
    pub fn contains(&self, u: PNode, v: NodeId) -> bool {
        self.sim[u.index()].binary_search(&v).is_ok()
    }
}

/// Position of `v` in the sorted candidate list of one query node.
#[inline]
fn pos(cand: &[NodeId], v: NodeId) -> Option<usize> {
    cand.binary_search(&v).ok()
}

/// Membership test in a bitmap indexed by data-node id offset by `base`;
/// ids outside the bitmap (never candidates) are absent. Ids below `base`
/// wrap to a huge index and fall off the slice, reading as absent.
#[inline]
fn bit(words: &[u64], base: usize, v: NodeId) -> bool {
    let i = v.index().wrapping_sub(base);
    words.get(i >> 6).is_some_and(|w| (w >> (i & 63)) & 1 == 1)
}

/// Label guard for one direction: does `v` carry every label of `req`
/// (sorted, deduplicated) among its children (`out = true`) or parents?
/// Early-exits once all requirements are seen.
#[inline]
fn guard_dir<V: GraphView + ?Sized>(g: &V, v: NodeId, req: &[rbq_graph::Label], out: bool) -> bool {
    if req.is_empty() {
        return true;
    }
    if req.len() > 64 {
        // Beyond the seen-mask width the guard cannot be tracked in one
        // word; skip it (the counters below remain authoritative).
        return true;
    }
    let need: u64 = u64::MAX >> (64 - req.len());
    let mut seen = 0u64;
    let neighbors = if out {
        g.out_neighbors(v)
    } else {
        g.in_neighbors(v)
    };
    for &w in neighbors {
        if let Ok(k) = req.binary_search(&g.label(w)) {
            seen |= 1 << k;
            if seen == need {
                return true;
            }
        }
    }
    false
}

/// Number of `nb` targets present in the bitmap — the counter-initialization
/// kernel.
#[inline]
fn count_members(nb: &[NodeId], words: &[u64], base: usize) -> u32 {
    nb.iter().filter(|&&w| bit(words, base, w)).count() as u32
}

/// Compute the maximum dual simulation of `q` in `g`, optionally restricted
/// to a node `universe`, seeded with `(u_p, v_p)`.
///
/// Returns `None` if no total relation exists (some query node has no match,
/// or `v_p` is pruned). The `universe`, when given, is a **sorted,
/// deduplicated slice** of node ids (the representation
/// [`rbq_graph::BallScratch`] emits); only those nodes may appear in the
/// relation — this is how ball-restricted relations `R_{v0}` are computed
/// without copying balls or building per-ball hash sets.
pub fn dual_simulation<V: GraphView + ?Sized>(
    q: &ResolvedPattern,
    g: &V,
    universe: Option<&[NodeId]>,
) -> Option<DualSim> {
    let mut scratch = DualSimScratch::new();
    let rel = dual_simulation_with(q, g, universe, &mut scratch)?;
    Some(rel.to_dual_sim())
}

/// [`dual_simulation`] through a reusable [`DualSimScratch`]: identical
/// answers, zero steady-state allocation. The returned [`DualSimRef`]
/// borrows the scratch's result buffers.
// rbq-lint: hot
pub fn dual_simulation_with<'s, V: GraphView + ?Sized>(
    q: &ResolvedPattern,
    g: &V,
    universe: Option<&[NodeId]>,
    scratch: &'s mut DualSimScratch,
) -> Option<DualSimRef<'s>> {
    debug_assert!(
        universe.is_none_or(|u| u.windows(2).all(|w| w[0] < w[1])),
        "universe must be sorted and deduplicated"
    );
    let n = q.pattern().node_count();
    {
        let DualSimScratch {
            cand,
            by_label,
            req_out,
            req_in,
            ..
        } = scratch;
        if !screen_into(q, g, universe, cand, by_label, req_out, req_in) {
            return None;
        }
    }
    if !fixpoint_scratch(q, g, scratch) {
        return None;
    }
    Some(DualSimRef {
        sim: &scratch.sim[..n],
    })
}

/// Retain only the guard-passing candidates of query node `u`: a candidate
/// must have, per query child (resp. parent) label of `u`, at least one
/// matching-labeled data child (resp. parent). Guard failures violate
/// condition (a)/(b) against the label-consistent superset of the relation,
/// so they cannot appear in the maximum dual simulation — dropping them up
/// front keeps the counter structures (and the cache-hostile worklist
/// propagation) proportional to the plausible candidates, not the label
/// frequency. `req_out`/`req_in` are caller-owned scratch, reused across
/// query nodes.
fn guard_screen<V: GraphView + ?Sized>(
    q: &ResolvedPattern,
    g: &V,
    u: PNode,
    list: &mut Vec<NodeId>,
    req_out: &mut Vec<rbq_graph::Label>,
    req_in: &mut Vec<rbq_graph::Label>,
) {
    let p = q.pattern();
    req_out.clear();
    req_out.extend(p.out(u).iter().map(|&uc| q.label(uc)));
    req_out.sort_unstable();
    req_out.dedup();
    req_in.clear();
    req_in.extend(p.inn(u).iter().map(|&up_| q.label(up_)));
    req_in.sort_unstable();
    req_in.dedup();
    if !req_out.is_empty() || !req_in.is_empty() {
        list.retain(|&v| guard_dir(g, v, req_out, true) && guard_dir(g, v, req_in, false));
    }
}

/// Per-query-node candidate universe with label and guard screening already
/// applied, for evaluating **many** universes (balls) of the same query on
/// the same view.
///
/// Labels and the guard depend only on `(data node, query node)` — not on
/// the ball — so strong simulation's per-ball loop builds this screen once
/// per query and intersects it with each ball, instead of re-labeling and
/// re-guarding every ball member for every center (the dominant cost of
/// per-ball evaluation once the BFS itself is cheap).
#[derive(Debug, Clone, Default)]
pub struct CandidateScreen {
    /// Sorted guarded candidates per query node (`[v_p]` for `u_p`).
    /// Buffers are recycled by [`candidate_screen_within_into`]; entries
    /// beyond the current pattern's node count are stale pool slots.
    per_node: Vec<Vec<NodeId>>,
}

impl CandidateScreen {
    /// Sorted guarded candidates of query node `u` across the whole view.
    pub fn candidates(&self, u: PNode) -> &[NodeId] {
        &self.per_node[u.index()]
    }
}

/// Rebuild `screen` in place (recycling its per-query-node buffers): for
/// every query node, the sorted list of same-labeled, guard-passing data
/// nodes of `domain` — `None` screens the whole view, `Some` a **sorted**
/// node set, seeded in one pass (each node lands in every same-labeled
/// query node's list via a tiny label → query-node table, so the lists are
/// born sorted). The `scratch` lends the label-table and requirement
/// buffers. Returns `false` when some query node has no candidate — then no
/// universe can admit a total relation, and `screen`'s contents are
/// unspecified and must not be read.
///
/// Strong simulation's per-ball loop builds its screen from `N_{2d_Q}(v_p)`
/// this way: every ball it evaluates is a subset of that neighborhood, so
/// screening the whole view would be wasted work on large graphs with
/// localized queries.
pub fn candidate_screen_within_into<V: GraphView + ?Sized>(
    q: &ResolvedPattern,
    g: &V,
    domain: Option<&[NodeId]>,
    screen: &mut CandidateScreen,
    scratch: &mut DualSimScratch,
) -> bool {
    let DualSimScratch {
        by_label,
        req_out,
        req_in,
        ..
    } = scratch;
    screen_into(
        q,
        g,
        domain,
        &mut screen.per_node,
        by_label,
        req_out,
        req_in,
    )
}

/// The shared screening core: fill `per_node[..n]` (recycled buffers) with
/// the sorted, guard-passing candidates of each query node, `[v_p]` at
/// `u_p`. Returns `false` as soon as some query node has no candidate.
fn screen_into<V: GraphView + ?Sized>(
    q: &ResolvedPattern,
    g: &V,
    domain: Option<&[NodeId]>,
    per_node: &mut Vec<Vec<NodeId>>,
    by_label: &mut Vec<(rbq_graph::Label, usize)>,
    req_out: &mut Vec<rbq_graph::Label>,
    req_in: &mut Vec<rbq_graph::Label>,
) -> bool {
    debug_assert!(
        domain.is_none_or(|d| d.windows(2).all(|w| w[0] < w[1])),
        "domain must be sorted and deduplicated"
    );
    if !g.contains(q.vp()) || g.label(q.vp()) != q.label(q.up()) {
        return false;
    }
    if let Some(d) = domain {
        if d.binary_search(&q.vp()).is_err() {
            return false;
        }
    }
    let p = q.pattern();
    let n = p.node_count();
    reuse_pool(per_node, n);
    per_node[q.up().index()].push(q.vp());
    match domain {
        Some(d) => {
            by_label.clear();
            by_label.extend(
                p.nodes()
                    .filter(|&u| u != q.up())
                    .map(|u| (q.label(u), u.index())),
            );
            for &v in d {
                if !g.contains(v) {
                    continue;
                }
                let lv = g.label(v);
                for &(l, ui) in by_label.iter() {
                    if l == lv {
                        per_node[ui].push(v);
                    }
                }
            }
        }
        None => {
            // Label partitions are emitted in ascending id order.
            for u in p.nodes() {
                if u == q.up() {
                    continue;
                }
                let list = &mut per_node[u.index()];
                g.for_each_node_with_label(q.label(u), &mut |v| list.push(v));
            }
        }
    }
    for u in p.nodes() {
        if u == q.up() {
            continue;
        }
        guard_screen(q, g, u, &mut per_node[u.index()], req_out, req_in);
        if per_node[u.index()].is_empty() {
            return false;
        }
    }
    true
}

/// [`dual_simulation_with`] restricted to `universe`, seeded from a
/// prebuilt [`CandidateScreen`] instead of re-screening the universe — the
/// per-ball hot path of strong simulation. Per query node the candidates
/// are `screen ∩ universe`, a sorted-merge (galloping from the smaller
/// side) with no label or guard work. Answers are identical to
/// `dual_simulation(q, g, Some(universe))` for any `universe` that is a
/// subset of the screen's domain; the intersection lists, fixpoint state,
/// and result vectors are all recycled scratch buffers.
// rbq-lint: hot
pub fn dual_simulation_screened_with<'s, V: GraphView + ?Sized>(
    q: &ResolvedPattern,
    g: &V,
    universe: &[NodeId],
    screen: &CandidateScreen,
    scratch: &'s mut DualSimScratch,
) -> Option<DualSimRef<'s>> {
    debug_assert!(
        universe.windows(2).all(|w| w[0] < w[1]),
        "universe must be sorted and deduplicated"
    );
    if universe.binary_search(&q.vp()).is_err() {
        return None;
    }
    let p = q.pattern();
    let n = p.node_count();
    let cand = &mut scratch.cand;
    reuse_pool(cand, n);
    cand[q.up().index()].push(q.vp());
    for u in p.nodes() {
        if u == q.up() {
            continue;
        }
        let list = &mut cand[u.index()];
        let s = screen.candidates(u);
        // Gallop from the smaller side: balls are usually much larger than
        // the guarded candidate lists (or vice versa for huge universes).
        let (small, big) = if s.len() <= universe.len() {
            (s, universe)
        } else {
            (universe, s)
        };
        for &v in small {
            if big.binary_search(&v).is_ok() {
                list.push(v);
            }
        }
        if list.is_empty() {
            return None;
        }
    }
    if !fixpoint_scratch(q, g, scratch) {
        return None;
    }
    Some(DualSimRef {
        sim: &scratch.sim[..n],
    })
}

/// Reusable state for the dual-simulation fixpoint and candidate screening:
/// candidate lists, alive masks, per-edge counters, membership bitmaps, the
/// removal worklist, and the result vectors, all recycled across calls.
///
/// One scratch serves any sequence of queries, views, and universes; every
/// buffer is (re)sized per call, so results are identical to fresh
/// construction (see the scratch-differential property tests).
#[derive(Debug, Clone, Default)]
pub struct DualSimScratch {
    /// Candidate lists per query node — the fixpoint's working relation.
    cand: Vec<Vec<NodeId>>,
    /// Alive mask per query node, parallel to `cand`.
    alive: Vec<Vec<bool>>,
    /// Live count per query node.
    alive_count: Vec<usize>,
    /// Removal worklist of (query node index, candidate position).
    worklist: Vec<(usize, usize)>,
    /// Flat membership bitmaps over the initial candidate sets.
    member_flat: Vec<u64>,
    /// Per-query-edge matched-successor counters.
    succ_cnt: Vec<Vec<u32>>,
    /// Per-query-edge matched-predecessor counters.
    pred_cnt: Vec<Vec<u32>>,
    /// Edge indices with each query node as source.
    edges_out: Vec<Vec<usize>>,
    /// Edge indices with each query node as target.
    edges_in: Vec<Vec<usize>>,
    /// Result match sets (what [`DualSimRef`] borrows).
    sim: Vec<Vec<NodeId>>,
    /// Screening: label → query-node table for the one-pass domain seeding.
    by_label: Vec<(rbq_graph::Label, usize)>,
    /// Screening: sorted required child labels.
    req_out: Vec<rbq_graph::Label>,
    /// Screening: sorted required parent labels.
    req_in: Vec<rbq_graph::Label>,
    /// Deadline ticker checked in the fixpoint's removal-propagation loop.
    cancel: rbq_graph::CancelTicker,
}

impl DualSimScratch {
    /// Fresh scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm (or clear) the deadline checked by every subsequent fixpoint run
    /// through this scratch. On expiry the fixpoint unwinds with a
    /// [`rbq_graph::CancelPanic`] tagged `"dualsim.fixpoint"`.
    pub fn set_cancel(&mut self, token: rbq_graph::CancelToken) {
        self.cancel.arm(token);
    }
}

/// A maximum dual simulation borrowed from a [`DualSimScratch`] — valid
/// until the scratch's next use. Match sets are sorted slices, exactly as
/// in the owned [`DualSim`].
#[derive(Debug)]
pub struct DualSimRef<'s> {
    sim: &'s [Vec<NodeId>],
}

impl<'s> DualSimRef<'s> {
    /// Matches of query node `u`, sorted ascending.
    #[inline]
    pub fn matches(&self, u: PNode) -> &'s [NodeId] {
        &self.sim[u.index()]
    }

    /// Whether `(u, v)` is in the relation.
    pub fn contains(&self, u: PNode, v: NodeId) -> bool {
        self.sim[u.index()].binary_search(&v).is_ok()
    }

    /// Copy into an owned [`DualSim`].
    pub fn to_dual_sim(&self) -> DualSim {
        DualSim {
            sim: self.sim.to_vec(),
        }
    }
}

/// Grow `pool` to at least `n` entries and clear the first `n` — the
/// reset idiom for every recycled `Vec<Vec<_>>` buffer of the fixpoint.
fn reuse_pool<T>(pool: &mut Vec<Vec<T>>, n: usize) {
    if pool.len() < n {
        pool.resize_with(n, Vec::new);
    }
    for v in pool[..n].iter_mut() {
        v.clear();
    }
}

/// The counter-based worklist fixpoint over the scratch's prepared
/// candidate lists (sorted, guard-screened, `[v_p]` at `u_p`) — the shared
/// core of [`dual_simulation_with`] and [`dual_simulation_screened_with`].
/// Returns `false` when no total relation exists; on `true` the result is
/// in `scratch.sim[..n]`.
fn fixpoint_scratch<V: GraphView + ?Sized>(
    q: &ResolvedPattern,
    g: &V,
    scratch: &mut DualSimScratch,
) -> bool {
    rbq_graph::faultpoint::fire("dualsim.fixpoint");
    // Copied out (tickers are `Copy`) so the field can ride the `..` of the
    // destructure below; the counter restarting per call only means one
    // extra clock read per fixpoint, which the loop amortizes.
    let mut cancel = scratch.cancel;
    let p = q.pattern();
    let n = p.node_count();
    let DualSimScratch {
        cand,
        alive,
        alive_count,
        worklist,
        member_flat,
        succ_cnt,
        pred_cnt,
        edges_out,
        edges_in,
        sim,
        ..
    } = scratch;
    let cand = &cand[..n];

    // Alive mask + live count per query node; the relation is
    // `{(u, cand[u][i]) : alive[u][i]}` throughout.
    reuse_pool(alive, n);
    let alive = &mut alive[..n];
    for (a, c) in alive.iter_mut().zip(cand) {
        a.resize(c.len(), true);
    }
    alive_count.clear();
    alive_count.extend(cand.iter().map(Vec::len));

    // Removal worklist of (query node index, candidate position). `kill`
    // retires a pair at most once; `false` means some match set emptied.
    worklist.clear();
    fn kill(
        u: usize,
        i: usize,
        alive: &mut [Vec<bool>],
        alive_count: &mut [usize],
        worklist: &mut Vec<(usize, usize)>,
    ) -> bool {
        if !alive[u][i] {
            return true;
        }
        alive[u][i] = false;
        alive_count[u] -= 1;
        worklist.push((u, i));
        alive_count[u] > 0
    }

    // Static membership bitmaps over the *initial* candidate sets, indexed
    // by data-node id: counter initialization probes adjacency once per
    // (edge, candidate, neighbor) and must not pay a binary search each
    // time. Bitmaps stay fixed; liveness is tracked by `alive`. Indexing
    // is offset by the smallest candidate id so ball-restricted calls
    // (localized but high ids) size for the candidate id *range*, not the
    // base graph's whole id space. One flat buffer holds all n bitmaps.
    let min_id = cand
        .iter()
        .filter_map(|c| c.first())
        .map(|v| v.index())
        .min()
        .unwrap_or(0);
    let max_id = cand
        .iter()
        .filter_map(|c| c.last())
        .map(|v| v.index())
        .max()
        .unwrap_or(0);
    let words_per = ((max_id - min_id) >> 6) + 1;
    member_flat.clear();
    member_flat.resize(words_per * n, 0);
    for (u, c) in cand.iter().enumerate() {
        let words = &mut member_flat[u * words_per..(u + 1) * words_per];
        for &v in c {
            let i = v.index() - min_id;
            words[i >> 6] |= 1 << (i & 63);
        }
    }
    let member = |u: usize| &member_flat[u * words_per..(u + 1) * words_per];

    // Per-edge counters against the initial candidate sets; worklist
    // processing keeps them equal to |neighbors ∩ current sim| for every
    // still-alive pair. succ_cnt[e][i]: edge e = (a, b), candidate i of a,
    // matched children. pred_cnt[e][i]: candidate i of b, matched parents.
    // Candidates already killed by an earlier edge keep a zero counter:
    // dead pairs' counters are never consulted again.
    let edges = p.edges();
    reuse_pool(succ_cnt, edges.len());
    reuse_pool(pred_cnt, edges.len());
    for (e, &(a, b)) in edges.iter().enumerate() {
        let (ai, bi) = (a.index(), b.index());
        let sc = &mut succ_cnt[e];
        sc.resize(cand[ai].len(), 0);
        for (i, &v) in cand[ai].iter().enumerate() {
            if !alive[ai][i] {
                continue;
            }
            let c = count_members(g.out_neighbors(v), member(bi), min_id);
            sc[i] = c;
            if c == 0 && !kill(ai, i, alive, alive_count, worklist) {
                return false;
            }
        }
        let pc = &mut pred_cnt[e];
        pc.resize(cand[bi].len(), 0);
        for (i, &v) in cand[bi].iter().enumerate() {
            if !alive[bi][i] {
                continue;
            }
            let c = count_members(g.in_neighbors(v), member(ai), min_id);
            pc[i] = c;
            if c == 0 && !kill(bi, i, alive, alive_count, worklist) {
                return false;
            }
        }
    }

    // Incidence lists: which edge indices have `u` as source / target.
    reuse_pool(edges_out, n);
    reuse_pool(edges_in, n);
    for (e, &(a, b)) in edges.iter().enumerate() {
        edges_out[a.index()].push(e);
        edges_in[b.index()].push(e);
    }

    // Propagate removals to the greatest fixpoint: losing `w` from sim(u)
    // decrements the child-counter of each data parent of `w` (for edges
    // into `u`) and the parent-counter of each data child (for edges out).
    while let Some((ui, i)) = worklist.pop() {
        cancel.tick("dualsim.fixpoint");
        let w = cand[ui][i];
        for &e in &edges_in[ui] {
            let ai = edges[e].0.index();
            for &x in g.in_neighbors(w) {
                // Bit test first: most data neighbors are not candidates,
                // and the bitmap filters them without a binary search.
                if !bit(member(ai), min_id, x) {
                    continue;
                }
                if let Some(j) = pos(&cand[ai], x) {
                    if alive[ai][j] {
                        succ_cnt[e][j] -= 1;
                        if succ_cnt[e][j] == 0 && !kill(ai, j, alive, alive_count, worklist) {
                            return false;
                        }
                    }
                }
            }
        }
        for &e in &edges_out[ui] {
            let bi = edges[e].1.index();
            for &x in g.out_neighbors(w) {
                if !bit(member(bi), min_id, x) {
                    continue;
                }
                if let Some(j) = pos(&cand[bi], x) {
                    if alive[bi][j] {
                        pred_cnt[e][j] -= 1;
                        if pred_cnt[e][j] == 0 && !kill(bi, j, alive, alive_count, worklist) {
                            return false;
                        }
                    }
                }
            }
        }
    }

    // The personalized pair must have survived.
    if !alive[q.up().index()][0] {
        return false;
    }

    reuse_pool(sim, n);
    for ((s, c), a) in sim[..n].iter_mut().zip(cand).zip(alive.iter()) {
        s.extend(c.iter().zip(a).filter_map(|(&v, &al)| al.then_some(v)));
    }
    true
}

/// The pre-worklist fixpoint, kept verbatim as a `#[cfg(test)]` oracle: the
/// maximum dual simulation is unique, so the two implementations must agree
/// on every input (see the differential property test below). It still
/// takes its universe as a hash set — deliberately: the oracle's input
/// representation stays independent of the sorted-slice rewrite under test.
#[cfg(test)]
mod naive {
    use super::*;
    use rustc_hash::FxHashSet;

    pub fn dual_simulation_naive<V: GraphView + ?Sized>(
        q: &ResolvedPattern,
        g: &V,
        universe: Option<&FxHashSet<NodeId>>,
    ) -> Option<Vec<Vec<NodeId>>> {
        let p = q.pattern();
        let n = p.node_count();
        let in_universe = |v: NodeId| universe.is_none_or(|u| u.contains(&v));
        if !g.contains(q.vp()) || !in_universe(q.vp()) || g.label(q.vp()) != q.label(q.up()) {
            return None;
        }
        let mut sim: Vec<FxHashSet<NodeId>> = vec![FxHashSet::default(); n];
        for u in p.nodes() {
            if u == q.up() {
                sim[u.index()].insert(q.vp());
                continue;
            }
            let lu = q.label(u);
            match universe {
                Some(uni) => {
                    for &v in uni {
                        if g.contains(v) && g.label(v) == lu {
                            sim[u.index()].insert(v);
                        }
                    }
                }
                None => {
                    for v in g.node_ids() {
                        if g.label(v) == lu {
                            sim[u.index()].insert(v);
                        }
                    }
                }
            }
            if sim[u.index()].is_empty() {
                return None;
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for u in p.nodes() {
                let ui = u.index();
                let mut remove: Vec<NodeId> = Vec::new();
                'cand: for &v in &sim[ui] {
                    for &uc in p.out(u) {
                        let target = &sim[uc.index()];
                        let ok = g.out_neighbors(v).iter().any(|w| target.contains(w));
                        if !ok {
                            remove.push(v);
                            continue 'cand;
                        }
                    }
                    for &up_ in p.inn(u) {
                        let source = &sim[up_.index()];
                        let ok = g.in_neighbors(v).iter().any(|w| source.contains(w));
                        if !ok {
                            remove.push(v);
                            continue 'cand;
                        }
                    }
                }
                if !remove.is_empty() {
                    changed = true;
                    for v in remove {
                        sim[ui].remove(&v);
                    }
                    if sim[ui].is_empty() {
                        return None;
                    }
                }
            }
        }
        if !sim[q.up().index()].contains(&q.vp()) {
            return None;
        }
        Some(
            sim.into_iter()
                .map(|s| {
                    let mut v: Vec<NodeId> = s.into_iter().collect();
                    v.sort_unstable();
                    v
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{fig1_pattern, PatternBuilder};
    use rbq_graph::Graph;
    use rbq_graph::GraphBuilder;

    /// The Fig. 1 graph: Michael, hiking group members hg1..hgm, cycling
    /// club cc1..cc3, cycling lovers cl1..cln. Michael -> HG*, Michael ->
    /// cc1/cc3 (cc2 not adjacent to Michael in our reduced copy), cc1/cc3 ->
    /// cl_{n-1}, cl_n; hgm -> cl_{n-1}, cl_n; other CLs dangling.
    fn fig1_graph() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let michael = b.add_node("Michael");
        let hg1 = b.add_node("HG");
        let hgm = b.add_node("HG");
        let cc1 = b.add_node("CC");
        let cc2 = b.add_node("CC");
        let cc3 = b.add_node("CC");
        let cl1 = b.add_node("CL");
        let cln_1 = b.add_node("CL");
        let cln = b.add_node("CL");
        b.add_edge(michael, hg1);
        b.add_edge(michael, hgm);
        b.add_edge(michael, cc1);
        b.add_edge(michael, cc3);
        b.add_edge(cc2, cl1); // cc2 has a CL child but no Michael parent
        b.add_edge(cc1, cln_1);
        b.add_edge(cc1, cln);
        b.add_edge(cc3, cln);
        b.add_edge(hgm, cln_1);
        b.add_edge(hgm, cln);
        let g = b.build();
        (g, vec![michael, hg1, hgm, cc1, cc2, cc3, cl1, cln_1, cln])
    }

    #[test]
    fn fig1_dual_sim_finds_cln_matches() {
        let (g, ids) = fig1_graph();
        let q = fig1_pattern().resolve(&g).unwrap();
        let d = dual_simulation(&q, &g, None).unwrap();
        let uo = q.uo();
        let matches = d.matches(uo);
        // cl_{n-1} and cl_n both have CC and HG parents reachable from
        // Michael; cl1's only parent cc2 is pruned (no Michael parent).
        assert_eq!(matches, &[ids[7], ids[8]]);
    }

    #[test]
    fn seed_is_fixed_to_vp() {
        let (g, ids) = fig1_graph();
        let q = fig1_pattern().resolve(&g).unwrap();
        let d = dual_simulation(&q, &g, None).unwrap();
        assert_eq!(d.matches(q.up()), &[ids[0]]);
    }

    #[test]
    fn cc2_pruned_for_missing_parent() {
        let (g, ids) = fig1_graph();
        let q = fig1_pattern().resolve(&g).unwrap();
        let d = dual_simulation(&q, &g, None).unwrap();
        let cc_q = PNode(1);
        assert!(!d.contains(cc_q, ids[4]), "cc2 must be pruned");
        assert!(d.contains(cc_q, ids[3]));
        assert!(d.contains(cc_q, ids[5]));
    }

    #[test]
    fn hg_without_cl_child_pruned() {
        let (g, ids) = fig1_graph();
        let q = fig1_pattern().resolve(&g).unwrap();
        let d = dual_simulation(&q, &g, None).unwrap();
        let hg_q = PNode(2);
        assert!(!d.contains(hg_q, ids[1]), "hg1 has no CL child");
        assert!(d.contains(hg_q, ids[2]));
    }

    #[test]
    fn no_match_when_label_missing_everywhere() {
        let (g, _) = fig1_graph();
        let mut pb = PatternBuilder::new();
        let m = pb.add_node("Michael");
        let cc = pb.add_node("CC");
        let cl = pb.add_node("CL");
        pb.add_edge(m, cc).add_edge(cc, cl).add_edge(cl, m); // CL -> Michael edge exists nowhere
        pb.personalized(m).output(cl);
        let q = pb.build().resolve(&g).unwrap();
        assert!(dual_simulation(&q, &g, None).is_none());
    }

    #[test]
    fn universe_restriction_prunes() {
        let (g, ids) = fig1_graph();
        let q = fig1_pattern().resolve(&g).unwrap();
        // Universe excludes cc1 and cc3 -> no CC candidate with a Michael
        // parent -> no relation.
        let mut uni: Vec<NodeId> = ids
            .iter()
            .copied()
            .filter(|&v| v != ids[3] && v != ids[5])
            .collect();
        uni.sort_unstable();
        assert!(dual_simulation(&q, &g, Some(&uni)).is_none());
    }

    #[test]
    fn universe_missing_vp_fails() {
        let (g, ids) = fig1_graph();
        let q = fig1_pattern().resolve(&g).unwrap();
        let mut uni: Vec<NodeId> = ids[1..].to_vec();
        uni.sort_unstable();
        assert!(dual_simulation(&q, &g, Some(&uni)).is_none());
    }

    #[test]
    fn single_node_pattern_matches_vp_only() {
        let (g, ids) = fig1_graph();
        let mut pb = PatternBuilder::new();
        let m = pb.add_node("Michael");
        pb.personalized(m).output(m);
        let q = pb.build().resolve(&g).unwrap();
        let d = dual_simulation(&q, &g, None).unwrap();
        assert_eq!(d.matches(m), &[ids[0]]);
    }

    #[test]
    fn self_loop_query_edge() {
        // Query: P -> A with a self loop A -> A. Data: x(P) -> y(A), y -> y.
        // y satisfies all three conditions (P parent, A parent via the self
        // loop, A child via the self loop). A decoy z(A) without a self loop
        // is pruned: it lacks an A parent in the relation.
        let mut b = GraphBuilder::new();
        let x = b.add_node("P");
        let y = b.add_node("A");
        let z = b.add_node("A");
        b.add_edge(x, y);
        b.add_edge(y, y);
        b.add_edge(x, z);
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let p = pb.add_node("P");
        let a = pb.add_node("A");
        pb.add_edge(p, a).add_edge(a, a);
        pb.personalized(p).output(a);
        let q = pb.build().resolve(&g).unwrap();
        let d = dual_simulation(&q, &g, None).unwrap();
        assert_eq!(d.matches(a), &[y]);
        let _ = (x, z);
    }

    #[test]
    fn cascading_prune_empties_relation() {
        // Chain query a->b->c; data has labels a, b, c but the c node hangs
        // off the wrong parent, so pruning cascades b -> a and the relation
        // collapses.
        let mut b = GraphBuilder::new();
        let x = b.add_node("a");
        let y = b.add_node("b");
        let w = b.add_node("b"); // second b, parent of the only c
        let z = b.add_node("c");
        b.add_edge(x, y); // a -> b (this b has no c child)
        b.add_edge(w, z); // orphan b -> c (this b has no a parent)
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let pa = pb.add_node("a");
        let pb2 = pb.add_node("b");
        let pc = pb.add_node("c");
        pb.add_edge(pa, pb2).add_edge(pb2, pc);
        pb.personalized(pa).output(pc);
        let q = pb.build().resolve(&g).unwrap();
        assert!(dual_simulation(&q, &g, None).is_none());
    }

    // ------------------------------------------------ differential oracle

    use proptest::prelude::*;
    use rbq_graph::builder::graph_from_edges;
    use rbq_graph::DynamicSubgraph;

    /// A random digraph (≤ 20 nodes, ≤ 4 labels) where node 0 is the unique
    /// "ME", plus a random small pattern anchored at ME.
    fn arb_graph_and_pattern() -> impl Strategy<Value = (Graph, crate::pattern::Pattern)> {
        (2usize..20).prop_flat_map(|n| {
            let labels = proptest::collection::vec(0u8..4, n - 1);
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 3);
            let extra = proptest::collection::vec((0u8..4, prop::bool::ANY), 1..5);
            (labels, edges, extra).prop_map(|(labels, edges, extra)| {
                let names: Vec<String> = std::iter::once("ME".to_string())
                    .chain(labels.iter().map(|l| format!("L{l}")))
                    .collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let g = graph_from_edges(&refs, &edges);
                let mut pb = PatternBuilder::new();
                let me = pb.add_node("ME");
                let mut prev = me;
                for (l, fwd) in extra {
                    let u = pb.add_node(&format!("L{l}"));
                    if fwd {
                        pb.add_edge(prev, u);
                    } else {
                        pb.add_edge(u, prev);
                    }
                    prev = u;
                }
                pb.personalized(me).output(prev);
                (g, pb.build())
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The worklist algorithm computes the same (unique) maximum dual
        /// simulation as the naive full-resweep fixpoint, on every graph,
        /// pattern, and query node.
        #[test]
        fn worklist_equals_naive_fixpoint((g, p) in arb_graph_and_pattern()) {
            let Ok(q) = p.resolve(&g) else { return Ok(()); };
            let fast = dual_simulation(&q, &g, None);
            let slow = naive::dual_simulation_naive(&q, &g, None);
            match (fast, slow) {
                (None, None) => {}
                (Some(f), Some(s)) => {
                    for u in p.nodes() {
                        prop_assert_eq!(
                            f.matches(u),
                            s[u.index()].as_slice(),
                            "mismatch at query node {:?}", u
                        );
                    }
                }
                (f, s) => prop_assert!(
                    false,
                    "existence mismatch: fast={} naive={}",
                    f.is_some(),
                    s.is_some()
                ),
            }
        }

        /// Agreement also holds under a restricting universe (the
        /// ball-restricted mode strong simulation uses): the fast path gets
        /// the sorted slice, the oracle the equivalent hash set.
        #[test]
        fn worklist_equals_naive_under_universe(
            (g, p) in arb_graph_and_pattern(),
            keep in proptest::collection::vec(prop::bool::ANY, 20),
        ) {
            let Ok(q) = p.resolve(&g) else { return Ok(()); };
            let mut uni: Vec<NodeId> = g
                .nodes()
                .filter(|v| keep.get(v.index()).copied().unwrap_or(false))
                .chain(std::iter::once(q.vp()))
                .collect();
            uni.sort_unstable();
            uni.dedup();
            let uni_set: rustc_hash::FxHashSet<NodeId> = uni.iter().copied().collect();
            let fast = dual_simulation(&q, &g, Some(&uni));
            let slow = naive::dual_simulation_naive(&q, &g, Some(&uni_set));
            match (fast, slow) {
                (None, None) => {}
                (Some(f), Some(s)) => {
                    for u in p.nodes() {
                        prop_assert_eq!(f.matches(u), s[u.index()].as_slice());
                    }
                }
                (f, s) => prop_assert!(
                    false,
                    "existence mismatch: fast={} naive={}",
                    f.is_some(),
                    s.is_some()
                ),
            }
        }

        /// The screened evaluation path (per-query candidate screen +
        /// per-ball intersection) is answer-identical to screening the
        /// universe directly.
        #[test]
        fn screened_equals_direct_universe(
            (g, p) in arb_graph_and_pattern(),
            keep in proptest::collection::vec(prop::bool::ANY, 20),
        ) {
            let Ok(q) = p.resolve(&g) else { return Ok(()); };
            let mut uni: Vec<NodeId> = g
                .nodes()
                .filter(|v| keep.get(v.index()).copied().unwrap_or(false))
                .chain(std::iter::once(q.vp()))
                .collect();
            uni.sort_unstable();
            uni.dedup();
            let direct = dual_simulation(&q, &g, Some(&uni));
            // Whole-view screen, and a screen restricted to a domain that
            // is a superset of the universe (the strong-simulation shape).
            let all: Vec<NodeId> = g.nodes().collect();
            let mut screen = CandidateScreen::default();
            let mut scratch = DualSimScratch::new();
            for domain in [None, Some(all.as_slice())] {
                let screened = candidate_screen_within_into(&q, &g, domain, &mut screen, &mut scratch)
                    .then(|| dual_simulation_screened_with(&q, &g, &uni, &screen, &mut scratch))
                    .flatten();
                match (direct.as_ref(), screened) {
                    (None, None) => {}
                    (Some(d), Some(s)) => {
                        for u in p.nodes() {
                            prop_assert_eq!(d.matches(u), s.matches(u));
                        }
                    }
                    (d, s) => prop_assert!(
                        false,
                        "existence mismatch: direct={} screened={}",
                        d.is_some(),
                        s.is_some()
                    ),
                }
            }
        }

        /// And on subgraph views.
        #[test]
        fn worklist_equals_naive_on_induced_view(
            (g, p) in arb_graph_and_pattern(),
            keep in proptest::collection::vec(prop::bool::ANY, 20),
        ) {
            let Ok(q) = p.resolve(&g) else { return Ok(()); };
            let members: Vec<NodeId> = g
                .nodes()
                .filter(|v| keep.get(v.index()).copied().unwrap_or(false))
                .chain(std::iter::once(q.vp()))
                .collect();
            let view = DynamicSubgraph::induced(&g, members);
            let fast = dual_simulation(&q, &view, None);
            let slow = naive::dual_simulation_naive(&q, &view, None);
            match (fast, slow) {
                (None, None) => {}
                (Some(f), Some(s)) => {
                    for u in p.nodes() {
                        prop_assert_eq!(f.matches(u), s[u.index()].as_slice());
                    }
                }
                (f, s) => prop_assert!(
                    false,
                    "existence mismatch: fast={} naive={}",
                    f.is_some(),
                    s.is_some()
                ),
            }
        }
    }
}
