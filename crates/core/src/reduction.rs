//! The dynamic-reduction procedures `Search` and `Pick` (Fig. 3).
//!
//! `Search` performs a controlled traversal of `G` from the personalized
//! match `v_p`, guided by the query: it pops `(query node, data node)` pairs
//! off a stack, adds popped data nodes (with their induced edges) to `G_Q`,
//! and for each query edge incident to the popped query node asks `Pick`
//! for the best new candidates among the data node's neighbors. `Pick`
//! filters by the guarded condition and ranks by the weight
//! `p(v,u)/(c(v,u)+1)`, returning at most `b` candidates — the *selection
//! bound* that keeps dense regions from monopolizing `G_Q`. When the stack
//! drains but progress was made, `b` is incremented and the traversal
//! restarts from `(u_p, v_p)` (Fig. 3, lines 11–12) so every query node
//! keeps a fair chance of finding matches.
//!
//! Termination: `|G_Q|` reaching the budget `α·|G|`, exhausting candidates,
//! or (when configured) blowing the visit cap.
//!
//! ## Candidate lists and top-`b` selection
//!
//! The guard's first test is `label(v2) = label(u2)`, and a neighbor that
//! fails it is never scored, pushed or charged. So `Pick` and the `G_Q`
//! continuation scan a *candidate list* instead of `v`'s adjacency: `v`'s
//! neighbors in one direction that carry `u2`'s label, in adjacency order.
//! A list is built on first use and kept for the rest of the query, in one
//! flat arena indexed by `(v, label, direction)`, so later rounds re-read
//! it instead of rescanning a hub's adjacency (FDB's factorisation applied
//! to one adjacency row). The cost accounting is Fig. 3's, unchanged:
//! `Pick` still charges `|N(v)|` for its scan, as a length read. `Pick`
//! then selects its `b` best with `select_nth_unstable_by` and sorts only
//! those; the rank order (weight, then degree, then id) is total, so the
//! output equals a full sort's prefix.
//!
//! ## Scratch threading
//!
//! All of `Search`'s bookkeeping lives in a reusable [`ReductionScratch`]:
//! the `G_Q` buffers ([`rbq_graph::SubgraphScratch`]), the traversal stack,
//! the per-round `in_stack`/`expanded` sets, the candidate lists, `Pick`'s
//! scored-candidate buffer, the guard's `(label, degree)` buffers, and a
//! per-query memo of the guard `C(v, u)` with the potential `p(v, u)` (both
//! depend only on the pair, never on `G_Q`, so re-seen candidates skip the
//! summary probes the Weighted policy used to repeat every round). The
//! sets and the memo are flat [`rbq_graph::Stamps`] tables keyed by
//! `(query node, data node)`: forgetting one at a round or query boundary
//! is an epoch bump, and a grown table is `calloc`ed, so a budget-bounded
//! search faults in only the pages of the pairs it touches.
//! [`search_reduced_graph_scratch`] threads the scratch; the original entry
//! points wrap a fresh one, so results are identical either way (see the
//! scratch-differential property tests, which also hold `Search` to a plain
//! re-statement of Fig. 3).

use crate::budget::ResourceBudget;
use crate::guard::{GuardCtx, GuardScratch, Semantics};
use crate::neighbor_index::NeighborIndex;
use rbq_graph::traverse::VisitStats;
use rbq_graph::{DynamicSubgraph, Graph, GraphView, Label, NodeId, Point, Stamps, SubgraphScratch};
use rbq_pattern::{PNode, ResolvedPattern};
use rustc_hash::FxHashMap;
use std::cmp::Ordering;

/// Result of a resource-bounded pattern algorithm (RBSim / RBSub).
#[derive(Debug, Clone, Default)]
pub struct PatternAnswer {
    /// Sorted matches of the output node in `G_Q` — the approximate answer
    /// `Q(G_Q)`.
    pub matches: Vec<NodeId>,
    /// Size `|G_Q|` (nodes + edges) actually fetched.
    pub gq_size: usize,
    /// Nodes in `G_Q`.
    pub gq_nodes: usize,
    /// Data visited during reduction.
    pub visits: VisitStats,
    /// Whether reduction stopped because the size budget was reached.
    pub hit_budget: bool,
    /// Final selection bound `b`.
    pub final_b: u32,
    /// Number of traversal rounds (restarts + 1).
    pub rounds: u32,
}

/// Outcome of `Search` alone: the reduced graph plus accounting.
pub struct ReductionOutcome<'g> {
    /// The reduced graph `G_Q` (induced subgraph grown node by node).
    pub gq: DynamicSubgraph<'g>,
    /// Data visited.
    pub visits: VisitStats,
    /// Whether the size budget stopped the search.
    pub hit_budget: bool,
    /// Final selection bound `b`.
    pub final_b: u32,
    /// Traversal rounds executed.
    pub rounds: u32,
}

/// Initial selection bound (Fig. 3 line 1).
const INITIAL_B: u32 = 2;

/// How `Pick` orders candidates — the paper's weight ranking, plus
/// degraded policies for the ablation study (DESIGN.md §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PickPolicy {
    /// Rank by the estimated weight `p/(c+1)` (§4.1) — the paper's policy.
    #[default]
    Weighted,
    /// First-come order (adjacency order), no scoring.
    Fifo,
    /// Deterministic pseudo-random order (hash of node id).
    Random,
}

/// Knobs for `Search`, exposing the design choices the ablation benches
/// vary. [`ReductionConfig::default`] reproduces Fig. 3 exactly.
#[derive(Debug, Clone, Copy)]
pub struct ReductionConfig {
    /// Initial selection bound `b` (Fig. 3 line 1: 2).
    pub initial_b: u32,
    /// Whether to widen `b` and restart when progress stalls (Fig. 3
    /// lines 11-12). With `false`, the traversal is single-round.
    pub adaptive_b: bool,
    /// Candidate ordering inside `Pick`.
    pub pick_policy: PickPolicy,
}

impl Default for ReductionConfig {
    fn default() -> Self {
        ReductionConfig {
            initial_b: INITIAL_B,
            adaptive_b: true,
            pick_policy: PickPolicy::Weighted,
        }
    }
}

/// `Search`'s tables keyed by `(query node, data node)`, `|V_p|·|V|` slots
/// each, reused across rounds and queries.
///
/// `in_stack`/`expanded` are forgotten at every round (`Search` clears both
/// at every beam restart). The memo is forgotten per query: the guard and
/// the potential depend only on the pair, so within one query every
/// re-seen candidate is one table probe instead of an index-summary walk.
#[derive(Debug, Clone, Default)]
struct PairScratch {
    /// The pair-index stride `|V|`.
    nv: usize,
    /// The current query's `|V_p|·|V|`.
    len: usize,
    in_stack: Stamps,
    expanded: Stamps,
    /// `None` if the guard `C(v, u)` fails, else `Some` of the potential
    /// `p(v, u)` — or of 0 where no potential was asked for: under the
    /// `Fifo` and `Random` policies, and for a pair first seen by the
    /// `G_Q` continuation, whose data node is a member that `Pick` skips.
    memo: Stamps<Option<u32>>,
}

impl PairScratch {
    fn begin_query(&mut self, np: usize, nv: usize) {
        self.nv = nv;
        self.len = np * nv;
        self.memo.reset(self.len);
    }

    fn begin_round(&mut self) {
        self.in_stack.reset(self.len);
        self.expanded.reset(self.len);
    }

    #[inline]
    fn idx(&self, u: PNode, v: NodeId) -> usize {
        u.index() * self.nv + v.index()
    }
}

/// Per-query candidate lists: for a data node `v`, a label `l` and a
/// direction, `v`'s neighbors in that direction labelled `l`, in adjacency
/// order. Each list is a range of one flat arena, built on first request
/// and kept until [`CandidateLists::clear`] at the next query (which keeps
/// both buffers' capacity).
#[derive(Debug, Clone, Default)]
struct CandidateLists {
    ranges: FxHashMap<(NodeId, Label, bool), (usize, usize)>,
    arena: Vec<NodeId>,
}

impl CandidateLists {
    fn clear(&mut self) {
        self.ranges.clear();
        self.arena.clear();
    }

    /// The list for `(v, label, out)`; `out = true` selects children.
    fn get(&mut self, g: &Graph, v: NodeId, label: Label, out: bool) -> &[NodeId] {
        let arena = &mut self.arena;
        let (start, end) = *self.ranges.entry((v, label, out)).or_insert_with(|| {
            let start = arena.len();
            let adj = if out { g.out(v) } else { g.inn(v) };
            arena.extend(adj.iter().filter(|&&w| g.node_label(w) == label));
            (start, arena.len())
        });
        &self.arena[start..end]
    }
}

/// Reusable state for the whole `Search`/`Pick` procedure — thread one
/// through [`search_reduced_graph_scratch`] to make repeated reductions
/// allocation-free in steady state. Results are identical to the one-shot
/// entry points for any scratch history.
#[derive(Debug, Clone, Default)]
pub struct ReductionScratch {
    /// `G_Q` buffers; recovered via [`ReductionScratch::recycle`].
    subgraph: SubgraphScratch,
    stack: Vec<(PNode, NodeId)>,
    pairs: PairScratch,
    lists: CandidateLists,
    scored: Vec<(f64, u32, NodeId)>,
    picked: Vec<NodeId>,
    /// Per-query-node deduplicated child / parent label sets (the
    /// potential's summary lookups).
    uniq_out: Vec<Vec<Label>>,
    uniq_in: Vec<Vec<Label>>,
    /// The guard's Hall-check and the cost scan's buffers.
    guard: GuardScratch,
    /// Deadline ticker checked once per popped `(u, v)` pair in the
    /// `Search`/`Pick` worklist loop.
    cancel: rbq_graph::CancelTicker,
}

impl ReductionScratch {
    /// Fresh scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm (or clear) the deadline checked by every subsequent reduction
    /// through this scratch. On expiry the search unwinds with a
    /// [`rbq_graph::CancelPanic`] naming [`Point::ReductionPick`].
    pub fn set_cancel(&mut self, token: rbq_graph::CancelToken) {
        self.cancel.arm(token);
    }

    /// Return a finished `G_Q`'s buffers to the scratch so the next
    /// reduction reuses them. Skipping this is sound — the next search
    /// simply starts from cold subgraph buffers.
    pub fn recycle(&mut self, gq: DynamicSubgraph<'_>) {
        self.subgraph = gq.into_scratch();
    }
}

/// `Search` (Fig. 3): fetch a subgraph `G_Q` with `|G_Q| ≤ budget.max_units`
/// by guided traversal from `v_p`.
pub fn search_reduced_graph<'g>(
    g: &'g Graph,
    idx: &NeighborIndex,
    q: &ResolvedPattern,
    budget: &ResourceBudget,
    semantics: Semantics,
) -> ReductionOutcome<'g> {
    search_reduced_graph_with(g, idx, q, budget, semantics, ReductionConfig::default())
}

/// [`search_reduced_graph`] with explicit [`ReductionConfig`].
pub fn search_reduced_graph_with<'g>(
    g: &'g Graph,
    idx: &NeighborIndex,
    q: &ResolvedPattern,
    budget: &ResourceBudget,
    semantics: Semantics,
    config: ReductionConfig,
) -> ReductionOutcome<'g> {
    let mut scratch = ReductionScratch::new();
    search_reduced_graph_scratch(g, idx, q, budget, semantics, config, &mut scratch)
}

/// [`search_reduced_graph_with`] through a reusable [`ReductionScratch`].
///
/// The returned [`ReductionOutcome::gq`] owns the scratch's subgraph
/// buffers; hand it back with [`ReductionScratch::recycle`] once evaluated
/// so the next query starts warm.
// rbq-lint: hot
pub fn search_reduced_graph_scratch<'g>(
    g: &'g Graph,
    idx: &NeighborIndex,
    q: &ResolvedPattern,
    budget: &ResourceBudget,
    semantics: Semantics,
    config: ReductionConfig,
    scratch: &mut ReductionScratch,
) -> ReductionOutcome<'g> {
    rbq_graph::faultpoint::fire(Point::ReductionPick);
    // Copied out (tickers are `Copy`) so the field can ride the `..` of the
    // destructure below.
    let mut cancel = scratch.cancel;
    let ctx = GuardCtx::new(g, idx, q, semantics);
    let mut gq = std::mem::take(&mut scratch.subgraph).begin(g);
    let mut visits = VisitStats::default();
    let mut b = config.initial_b;
    let mut rounds = 0u32;
    let mut hit_budget = false;

    if budget.max_units == 0 {
        return ReductionOutcome {
            gq,
            visits,
            hit_budget: true,
            final_b: b,
            rounds,
        };
    }

    let p = q.pattern();
    let ReductionScratch {
        stack,
        pairs,
        lists,
        scored,
        picked,
        uniq_out,
        uniq_in,
        guard,
        ..
    } = scratch;
    pairs.begin_query(p.node_count(), g.node_count());
    lists.clear();
    // The potential's deduplicated query-neighbor label sets depend only on
    // the query: computed once here, not once per scored candidate.
    if uniq_out.len() < p.node_count() {
        // rbq-lint: allow(hot-path-alloc, "cold first-use growth of the scratch label pools; steady state re-enters the branch only for a larger pattern")
        uniq_out.resize_with(p.node_count(), Vec::new);
        // rbq-lint: allow(hot-path-alloc, "cold first-use growth, same as the line above")
        uniq_in.resize_with(p.node_count(), Vec::new);
    }
    for u in p.nodes() {
        let lo = &mut uniq_out[u.index()];
        lo.clear();
        lo.extend(p.out(u).iter().map(|&uq| q.label(uq)));
        lo.sort_unstable();
        lo.dedup();
        let li = &mut uniq_in[u.index()];
        li.clear();
        li.extend(p.inn(u).iter().map(|&uq| q.label(uq)));
        li.sort_unstable();
        li.dedup();
    }

    'rounds: loop {
        rounds += 1;
        let mut changed = false;
        pairs.begin_round();
        stack.clear();
        stack.push((q.up(), q.vp()));
        pairs.in_stack.insert(pairs.idx(q.up(), q.vp()), ());

        while let Some((u, v)) = stack.pop() {
            cancel.tick(Point::ReductionPick);
            pairs.in_stack.remove(pairs.idx(u, v));

            // Line 5: add v to G_Q if new, charging its node + induced edges
            // against the budget — one adjacency scan probes and inserts.
            if !gq.contains(v) {
                visits.edges(g.out(v).len());
                visits.edges(g.inn(v).len());
                let remaining = budget.max_units - gq.size();
                if gq.try_add_node(v, remaining).is_none() {
                    hit_budget = true;
                    break 'rounds;
                }
                visits.node();
                changed = true;
            }

            // Each (u, v) pair expands its query edges once per round
            // (lines 8–10).
            if !pairs.expanded.insert(pairs.idx(u, v), ()) {
                continue;
            }

            // Children edges (u, u') then parent edges (u', u). Candidates
            // ranked best-last so the best ends on top of the stack.
            let directions = [(true, g.out(v), p.out(u)), (false, g.inn(v), p.inn(u))];
            for (out, adj, query_nbrs) in directions {
                for &u2 in query_nbrs {
                    let cands = lists.get(g, v, q.label(u2), out);
                    // Fig. 3 charges Pick's scan of N(v), read as a length.
                    visits.edges(adj.len());
                    pick(
                        &ctx,
                        u2,
                        cands,
                        &gq,
                        pairs,
                        b,
                        config.pick_policy,
                        &mut visits,
                        scored,
                        picked,
                        &uniq_out[u2.index()],
                        &uniq_in[u2.index()],
                        guard,
                    );
                    for k in (0..picked.len()).rev() {
                        let v2 = picked[k];
                        stack.push((u2, v2));
                        pairs.in_stack.insert(pairs.idx(u2, v2), ());
                    }
                    // Continue the traversal through neighbors already in
                    // G_Q: they consume no candidate slot and no budget, but
                    // their onward edges must be re-expanded so that beam
                    // restarts (with larger b) can reach deeper unexplored
                    // regions.
                    for &v2 in cands {
                        if gq.contains(v2)
                            && !pairs.expanded.contains(pairs.idx(u2, v2))
                            && !pairs.in_stack.contains(pairs.idx(u2, v2))
                            && memo(&ctx, pairs, v2, u2, None, &mut visits, guard).is_some()
                        {
                            stack.push((u2, v2));
                            pairs.in_stack.insert(pairs.idx(u2, v2), ());
                        }
                    }
                }
            }

            if budget.over_cap(&visits) {
                break 'rounds;
            }
        }

        // Lines 11-13: widen the beam and retry, or terminate.
        if config.adaptive_b && changed && gq.size() < budget.max_units {
            b += 1;
        } else {
            break;
        }
    }

    ReductionOutcome {
        gq,
        visits,
        hit_budget,
        final_b: b,
        rounds,
    }
}

/// The guard `C(v, u)` through the per-query memo: `None` if it fails,
/// else `Some` of the potential `p(v, u)` when `labels` (`u`'s deduplicated
/// child and parent labels) asks for it, or of 0. The guard and then the
/// potential are evaluated, and charged to `visits`, at most once per pair.
fn memo(
    ctx: &GuardCtx<'_>,
    pairs: &mut PairScratch,
    v: NodeId,
    u: PNode,
    labels: Option<(&[Label], &[Label])>,
    visits: &mut VisitStats,
    scratch: &mut GuardScratch,
) -> Option<u32> {
    let i = pairs.idx(u, v);
    if let Some(hit) = pairs.memo.get(i) {
        return hit;
    }
    let verdict = ctx.guard(v, u, visits, scratch).then(|| match labels {
        Some((out, inn)) => ctx.potential_with(v, u, out, inn, visits),
        None => 0,
    });
    pairs.memo.insert(i, verdict);
    verdict
}

/// `Pick`'s rank order, best first: weight descending, then degree
/// descending (§4.2 favors high-degree candidates for isomorphism; harmless
/// determinism for simulation), then id ascending. Total, since no weight
/// is NaN.
fn by_rank(a: &(f64, u32, NodeId), b: &(f64, u32, NodeId)) -> Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(Ordering::Equal)
        .then(b.1.cmp(&a.1))
        .then(a.2.cmp(&b.2))
}

/// `Pick`: the top-`b` new candidates for query node `u2` among `cands` —
/// the neighbors of the expanded data node that carry `u2`'s label, in
/// adjacency order — ranked by weight `p/(c+1)` and written best-first into
/// `picked`. The caller charges the scan of the full adjacency list.
///
/// Nodes already in `G_Q` or already on the stack for the same query node
/// are skipped; candidates failing the guarded condition are filtered. The
/// guard and the potential `p(v2, u2)` are served from the per-query memo
/// (neither depends on `G_Q`); the cost is recomputed, as it must be. Only
/// the `b` best are sorted, after a selection; `Fifo` keeps the first `b`
/// in adjacency order.
#[allow(clippy::too_many_arguments)]
fn pick(
    ctx: &GuardCtx<'_>,
    u2: PNode,
    cands: &[NodeId],
    gq: &DynamicSubgraph<'_>,
    pairs: &mut PairScratch,
    b: u32,
    policy: PickPolicy,
    visits: &mut VisitStats,
    scored: &mut Vec<(f64, u32, NodeId)>,
    picked: &mut Vec<NodeId>,
    uniq_out: &[Label],
    uniq_in: &[Label],
    gs: &mut GuardScratch,
) {
    scored.clear();
    let labels = (policy == PickPolicy::Weighted).then_some((uniq_out, uniq_in));
    for &v2 in cands {
        if gq.contains(v2) || pairs.in_stack.contains(pairs.idx(u2, v2)) {
            continue;
        }
        let Some(pot) = memo(ctx, pairs, v2, u2, labels, visits, gs) else {
            continue;
        };
        let key = match policy {
            PickPolicy::Weighted => {
                let c = ctx.cost(v2, u2, gq, visits, gs);
                pot as f64 / (c as f64 + 1.0)
            }
            PickPolicy::Fifo => 0.0,
            PickPolicy::Random => {
                // Deterministic hash-based score; no weight computation.
                let mut x = (v2.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 31;
                (x % 1_000_003) as f64
            }
        };
        scored.push((key, ctx.idx.degree(v2), v2));
    }
    let ranked = policy != PickPolicy::Fifo;
    let b = b as usize;
    if ranked && b > 0 && scored.len() > b {
        scored.select_nth_unstable_by(b - 1, by_rank);
    }
    scored.truncate(b);
    if ranked {
        scored.sort_unstable_by(by_rank);
    }
    picked.clear();
    picked.extend(scored.iter().map(|&(_, _, v2)| v2));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::GraphBuilder;
    use rbq_pattern::pattern::fig1_pattern;

    /// Fig. 1 graph at the scale of Example 2/4: Michael, m hiking-group
    /// nodes (only `hgm` connected onward to CLs), cc1..cc3, n cycling
    /// lovers with only the last two fully connected.
    fn example_graph(m: usize, n: usize) -> (Graph, NodeId, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let michael = b.add_node("Michael");
        let mut hgs = Vec::new();
        for _ in 0..m {
            hgs.push(b.add_node("HG"));
        }
        let cc1 = b.add_node("CC");
        let cc2 = b.add_node("CC");
        let cc3 = b.add_node("CC");
        let mut cls = Vec::new();
        for _ in 0..n {
            cls.push(b.add_node("CL"));
        }
        for &h in &hgs {
            b.add_edge(michael, h);
        }
        b.add_edge(michael, cc1);
        b.add_edge(michael, cc3);
        let cln_1 = cls[n - 2];
        let cln = cls[n - 1];
        b.add_edge(cc2, cls[0]);
        b.add_edge(cc1, cln_1);
        b.add_edge(cc1, cln);
        b.add_edge(cc3, cln);
        let hgm = hgs[m - 1];
        b.add_edge(hgm, cln_1);
        b.add_edge(hgm, cln);
        (b.build(), michael, vec![cln_1, cln])
    }

    fn run(
        g: &Graph,
        units: usize,
        semantics: Semantics,
    ) -> (ReductionOutcome<'_>, ResolvedPattern) {
        let idx = NeighborIndex::build(g);
        let q = fig1_pattern().resolve(g).unwrap();
        let budget = ResourceBudget::from_units(g, units);
        let out = search_reduced_graph(g, &idx, &q, &budget, semantics);
        (out, q)
    }

    #[test]
    fn example2_finds_ideal_gq_within_16_units() {
        let (g, michael, answers) = example_graph(10, 20);
        let (out, _q) = run(&g, 16, Semantics::Simulation);
        // G_Q must fit the budget.
        assert!(out.gq.size() <= 16, "|G_Q| = {}", out.gq.size());
        assert!(out.gq.contains(michael));
        // The ideal G_Q contains both answers.
        for a in answers {
            assert!(out.gq.contains(a), "missing answer node {a:?}");
        }
    }

    #[test]
    fn budget_is_respected_exactly() {
        let (g, _, _) = example_graph(30, 50);
        for units in [1usize, 2, 4, 8, 12, 20, 40] {
            let (out, _) = run(&g, units, Semantics::Simulation);
            assert!(
                out.gq.size() <= units,
                "budget {units} violated: {}",
                out.gq.size()
            );
        }
    }

    #[test]
    fn zero_budget_returns_empty() {
        let (g, _, _) = example_graph(5, 6);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let budget = ResourceBudget::from_units(&g, 0);
        let out = search_reduced_graph(&g, &idx, &q, &budget, Semantics::Simulation);
        assert_eq!(out.gq.num_nodes(), 0);
        assert!(out.hit_budget);
    }

    #[test]
    fn guard_filters_decoys_out_of_gq() {
        let (g, _, _) = example_graph(10, 20);
        let (out, q) = run(&g, 60, Semantics::Simulation);
        // cc2 (CC without a Michael parent) must never enter G_Q: its guard
        // fails. cc2's id: Michael=0, HGs=1..=10, cc1=11, cc2=12, cc3=13.
        let cc2 = NodeId(12);
        assert!(!out.gq.contains(cc2));
        let _ = q;
    }

    #[test]
    fn large_budget_reaches_fixpoint_without_hitting_it() {
        let (g, _, _) = example_graph(5, 8);
        let (out, _) = run(&g, 1000, Semantics::Simulation);
        assert!(!out.hit_budget);
        // Guarded traversal stops well short of the graph: hg decoys and
        // cl decoys are excluded.
        assert!(out.gq.size() < g.size());
        assert!(out.rounds >= 1);
    }

    #[test]
    fn beam_restart_widens_b() {
        // Many valid CC-like candidates forces multiple rounds when the
        // budget allows more than 2 per query node.
        let mut b = GraphBuilder::new();
        let michael = b.add_node("Michael");
        let hg = b.add_node("HG");
        b.add_edge(michael, hg);
        let mut cls = Vec::new();
        for _ in 0..6 {
            let cc = b.add_node("CC");
            let cl = b.add_node("CL");
            b.add_edge(michael, cc);
            b.add_edge(cc, cl);
            b.add_edge(hg, cl);
            cls.push(cl);
        }
        let g = b.build();
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let budget = ResourceBudget::from_units(&g, g.size());
        let out = search_reduced_graph(&g, &idx, &q, &budget, Semantics::Simulation);
        assert!(out.final_b > INITIAL_B, "b should have grown");
        // Eventually all 6 CC branches are explored.
        for cl in cls {
            assert!(out.gq.contains(cl));
        }
    }

    #[test]
    fn visit_cap_stops_search() {
        let (g, _, _) = example_graph(50, 80);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let budget = ResourceBudget::from_units(&g, 200).with_visit_cap(30);
        let out = search_reduced_graph(&g, &idx, &q, &budget, Semantics::Simulation);
        // The search must stop shortly after the cap trips; allow the
        // within-iteration overshoot of the expansion that tripped it.
        assert!(out.visits.total() <= 30 + g.max_degree() * 8);
    }

    #[test]
    fn isomorphism_semantics_also_bounded() {
        let (g, _, answers) = example_graph(10, 20);
        let (out, _) = run(&g, 16, Semantics::Isomorphism);
        assert!(out.gq.size() <= 16);
        for a in answers {
            assert!(out.gq.contains(a));
        }
    }

    #[test]
    fn gq_is_subgraph_of_dq_neighborhood() {
        let (g, michael, _) = example_graph(10, 20);
        let (out, q) = run(&g, 100, Semantics::Simulation);
        let ball = rbq_pattern::strongsim::ball_nodes(&g, michael, q.dq());
        for &v in out.gq.members() {
            assert!(ball.binary_search(&v).is_ok(), "{v:?} outside G_dQ(v_p)");
        }
    }

    #[test]
    fn visits_stay_within_degree_bound() {
        // Theorem 3(a): at most d_G · α|G| nodes and edges visited, where
        // d_G is the max degree of G_dQ(v_p). Our accounting also includes
        // the candidate-scoring scans, so allow a small constant factor.
        let (g, michael, _) = example_graph(20, 40);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let units = 30usize;
        let budget = ResourceBudget::from_units(&g, units);
        let out = search_reduced_graph(&g, &idx, &q, &budget, Semantics::Simulation);
        let ball = rbq_pattern::strongsim::ball_nodes(&g, michael, q.dq());
        let dg = ball.iter().map(|&v| g.deg(v)).max().unwrap_or(1);
        let bound = dg * units;
        assert!(
            out.visits.total() <= bound * 4,
            "visits {} vs d_G·α|G| = {bound}",
            out.visits.total()
        );
    }

    #[test]
    fn scratch_reuse_across_mixed_pattern_sizes_is_identical_to_fresh() {
        // Alternating pattern sizes through one scratch: the pair tables
        // only grow at the high-water mark and a smaller pattern reuses
        // them, and results must match fresh runs.
        let (g, _, _) = example_graph(8, 16);
        let idx = NeighborIndex::build(&g);
        let q4 = fig1_pattern().resolve(&g).unwrap();
        let mut pb = rbq_pattern::PatternBuilder::new();
        let m = pb.add_node("Michael");
        let cc = pb.add_node("CC");
        pb.add_edge(m, cc).personalized(m).output(cc);
        let q2 = pb.build().resolve(&g).unwrap();
        let mut scratch = ReductionScratch::new();
        let budget = ResourceBudget::from_units(&g, 20);
        for _ in 0..3 {
            for q in [&q2, &q4] {
                let fresh = search_reduced_graph(&g, &idx, q, &budget, Semantics::Simulation);
                let warm = search_reduced_graph_scratch(
                    &g,
                    &idx,
                    q,
                    &budget,
                    Semantics::Simulation,
                    ReductionConfig::default(),
                    &mut scratch,
                );
                assert_eq!(warm.gq.members(), fresh.gq.members());
                assert_eq!(warm.visits, fresh.visits);
                assert_eq!(warm.final_b, fresh.final_b);
                scratch.recycle(warm.gq);
            }
        }
    }

    #[test]
    fn scratch_reuse_is_identical_to_fresh_runs() {
        let (g, _, _) = example_graph(12, 24);
        let idx = NeighborIndex::build(&g);
        let q = fig1_pattern().resolve(&g).unwrap();
        let mut scratch = ReductionScratch::new();
        for units in [1usize, 3, 8, 16, 40, 200, 8, 3] {
            let budget = ResourceBudget::from_units(&g, units);
            for policy in [PickPolicy::Weighted, PickPolicy::Fifo, PickPolicy::Random] {
                let config = ReductionConfig {
                    pick_policy: policy,
                    ..Default::default()
                };
                let fresh =
                    search_reduced_graph_with(&g, &idx, &q, &budget, Semantics::Simulation, config);
                let warm = search_reduced_graph_scratch(
                    &g,
                    &idx,
                    &q,
                    &budget,
                    Semantics::Simulation,
                    config,
                    &mut scratch,
                );
                assert_eq!(warm.gq.members(), fresh.gq.members(), "{units} {policy:?}");
                assert_eq!(warm.gq.size(), fresh.gq.size());
                assert_eq!(warm.visits, fresh.visits);
                assert_eq!(warm.hit_budget, fresh.hit_budget);
                assert_eq!(warm.final_b, fresh.final_b);
                assert_eq!(warm.rounds, fresh.rounds);
                scratch.recycle(warm.gq);
            }
        }
    }
}
