//! Guarded conditions, costs, and potentials — the node-selection weights of
//! dynamic reduction (§4.1, §4.2).
//!
//! For a data node `v` and query node `u`:
//!
//! * **Guard `C(v, u)`** — may `v` be a candidate match of `u`? For
//!   simulation (§4.1): labels agree and every query parent/child label of
//!   `u` occurs among `v`'s parents/children (checked against the offline
//!   [`NeighborIndex`], like the paper's `S_l`). For subgraph isomorphism
//!   (§4.2) the guard is enriched with degree constraints: every query
//!   neighbor `u'` needs a *distinct* data neighbor with the same label and
//!   degree `≥ deg(u')`. That Hall check runs on the two `(label, degree)`
//!   buffers of a caller-owned [`GuardScratch`], sorted by label and then
//!   degree descending and compared label group by label group, so a warm
//!   guard evaluation never allocates.
//! * **Cost `c(v, u)`** — how many query neighbors of `u` still lack a
//!   candidate among `v`'s neighbors *already in `G_Q`* (the extra nodes a
//!   commitment to `v` would pull in).
//! * **Potential `p(v, u)`** — how many of `v`'s neighbors could serve as
//!   candidates for `u`'s query neighbors (Example 4's `p(cc1, CC) = 3`).
//!
//! `Pick` ranks candidates by the estimated weight `p(v,u) / (c(v,u) + 1)`,
//! favoring high potential and low cost.

use crate::neighbor_index::NeighborIndex;
use rbq_graph::traverse::VisitStats;
use rbq_graph::{DynamicSubgraph, Graph, GraphView, Label, NodeId};
use rbq_pattern::{PNode, ResolvedPattern};
use std::cmp::Ordering;

/// Which matching semantics the reduction serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Strong simulation (RBSim, §4.1).
    Simulation,
    /// Subgraph isomorphism (RBSub, §4.2).
    Isomorphism,
}

/// Caller-owned `(label, degree)` buffers for the isomorphism guard's Hall
/// check and the cost scan; thread one through repeated evaluations and
/// neither allocates once warm.
#[derive(Debug, Clone, Default)]
pub struct GuardScratch {
    /// The query side: `(label, pattern degree)` of `u`'s neighbors.
    query: Vec<(Label, u32)>,
    /// The data side: `(label, degree)` of `v`'s neighbors.
    data: Vec<(Label, u32)>,
}

/// Label ascending, then degree descending: each label's group starts with
/// its largest degree.
fn label_then_degree_desc(a: &(Label, u32), b: &(Label, u32)) -> Ordering {
    a.0.cmp(&b.0).then(b.1.cmp(&a.1))
}

/// Shared context for guard/cost/potential evaluation.
pub struct GuardCtx<'a> {
    /// The data graph.
    pub g: &'a Graph,
    /// The offline neighbor index.
    pub idx: &'a NeighborIndex,
    /// The resolved query.
    pub q: &'a ResolvedPattern,
    /// Matching semantics.
    pub semantics: Semantics,
}

impl<'a> GuardCtx<'a> {
    /// Create a context.
    pub fn new(
        g: &'a Graph,
        idx: &'a NeighborIndex,
        q: &'a ResolvedPattern,
        semantics: Semantics,
    ) -> Self {
        GuardCtx {
            g,
            idx,
            q,
            semantics,
        }
    }

    /// The guarded condition `C(v, u)`. A label mismatch is rejected before
    /// anything is charged to `acc`.
    // rbq-lint: hot
    pub fn guard(
        &self,
        v: NodeId,
        u: PNode,
        acc: &mut VisitStats,
        scratch: &mut GuardScratch,
    ) -> bool {
        if self.g.node_label(v) != self.q.label(u) {
            return false;
        }
        match self.semantics {
            Semantics::Simulation => self.guard_sim(v, u, acc),
            Semantics::Isomorphism => self.guard_sub(v, u, acc, scratch),
        }
    }

    /// Simulation guard: every query-neighbor label must occur in the right
    /// direction among `v`'s neighbors. Pure index lookups (the `S_l`
    /// structure) — one node-record inspection.
    fn guard_sim(&self, v: NodeId, u: PNode, acc: &mut VisitStats) -> bool {
        acc.node();
        let s = self.idx.summary(v);
        let p = self.q.pattern();
        for &uc in p.out(u) {
            if s.out_count(self.q.label(uc)) == 0 {
                return false;
            }
        }
        for &up_ in p.inn(u) {
            if s.in_count(self.q.label(up_)) == 0 {
                return false;
            }
        }
        true
    }

    /// Isomorphism guard: per direction and label, the multiset of query
    /// neighbor degrees must be dominated by distinct data-neighbor degrees.
    // rbq-lint: hot
    fn guard_sub(&self, v: NodeId, u: PNode, acc: &mut VisitStats, s: &mut GuardScratch) -> bool {
        acc.node();
        let p = self.q.pattern();
        // Quick degree screen.
        if self.g.deg_out(v) < p.out(u).len() || self.g.deg_in(v) < p.inn(u).len() {
            return false;
        }
        self.feasible_dir(v, u, true, acc, s) && self.feasible_dir(v, u, false, acc, s)
    }

    /// Hall-style feasibility for one direction. `s.query` holds the query
    /// neighbors' `(label, required degree)`, `s.data` the `(label, degree)`
    /// of the data neighbors whose label some query neighbor carries, both
    /// sorted label ascending and degree descending. Each query label group
    /// must then be dominated position by position by the same label's data
    /// group: the `i`-th largest requirement needs an `i`-th largest degree
    /// at least as large. Correct because the constraint is a single scalar
    /// threshold (exchange argument).
    // rbq-lint: hot
    fn feasible_dir(
        &self,
        v: NodeId,
        u: PNode,
        out: bool,
        acc: &mut VisitStats,
        s: &mut GuardScratch,
    ) -> bool {
        let p = self.q.pattern();
        let qn: &[PNode] = if out { p.out(u) } else { p.inn(u) };
        if qn.is_empty() {
            return true;
        }
        let need = &mut s.query;
        need.clear();
        need.extend(qn.iter().map(|&uq| (self.q.label(uq), p.degree(uq) as u32)));
        need.sort_unstable_by(label_then_degree_desc);
        let dn: &[NodeId] = if out { self.g.out(v) } else { self.g.inn(v) };
        acc.edges(dn.len());
        let have = &mut s.data;
        have.clear();
        for &w in dn {
            let lw = self.g.node_label(w);
            if need.iter().any(|&(l, _)| l == lw) {
                have.push((lw, self.idx.degree(w)));
            }
        }
        have.sort_unstable_by(label_then_degree_desc);
        // Every data label occurs in `need`, so the data groups come in the
        // same label order as the query groups and each query group's data
        // group (possibly empty) is a prefix of what is left.
        let mut rest = &have[..];
        for group in need.chunk_by(|a, b| a.0 == b.0) {
            let n = rest.iter().take_while(|h| h.0 == group[0].0).count();
            let (avail, tail) = rest.split_at(n);
            if avail.len() < group.len() || group.iter().zip(avail).any(|(r, h)| h.1 < r.1) {
                return false;
            }
            rest = tail;
        }
        true
    }

    /// The dynamic cost `c(v, u)`: query neighbors of `u` without a
    /// suitable candidate among `v`'s neighbors already in `G_Q`. Both of
    /// `v`'s adjacency lists are scanned and charged in full.
    // rbq-lint: hot
    pub fn cost(
        &self,
        v: NodeId,
        u: PNode,
        gq: &DynamicSubgraph<'_>,
        acc: &mut VisitStats,
        scratch: &mut GuardScratch,
    ) -> u32 {
        let p = self.q.pattern();
        let need_degree = self.semantics == Semantics::Isomorphism;
        let mut missing = 0u32;
        for (list, qn) in [(self.g.out(v), p.out(u)), (self.g.inn(v), p.inn(u))] {
            // (label, degree) of v's neighbors already in G_Q, this direction.
            acc.edges(list.len());
            let in_gq = &mut scratch.data;
            in_gq.clear();
            in_gq.extend(
                list.iter()
                    .filter(|w| gq.contains(**w))
                    .map(|&w| (self.g.node_label(w), self.idx.degree(w))),
            );
            for &uq in qn {
                let l = self.q.label(uq);
                let d = p.degree(uq) as u32;
                let ok = in_gq
                    .iter()
                    .any(|&(lw, dw)| lw == l && (!need_degree || dw >= d));
                if !ok {
                    missing += 1;
                }
            }
        }
        missing
    }

    /// The potential `p(v, u)`: neighbors of `v` that could be candidates
    /// for `u`'s query neighbors.
    ///
    /// For simulation this is exactly the paper's summary-based count
    /// (Example 4: `p(cc1, CC) = out-CL(2) + in-Michael(1) = 3`): for every
    /// distinct query-neighbor label per direction, the number of `v`
    /// neighbors carrying it. For isomorphism it additionally applies the
    /// degree threshold (one neighborhood scan).
    pub fn potential(&self, v: NodeId, u: PNode, acc: &mut VisitStats) -> u32 {
        let p = self.q.pattern();
        let mut out_labels: Vec<rbq_graph::Label> =
            p.out(u).iter().map(|&uq| self.q.label(uq)).collect();
        out_labels.sort_unstable();
        out_labels.dedup();
        let mut in_labels: Vec<rbq_graph::Label> =
            p.inn(u).iter().map(|&uq| self.q.label(uq)).collect();
        in_labels.sort_unstable();
        in_labels.dedup();
        self.potential_with(v, u, &out_labels, &in_labels, acc)
    }

    /// [`GuardCtx::potential`] with the deduplicated query-neighbor label
    /// sets of `u` precomputed by the caller (they depend only on the query,
    /// so the reduction computes them once per query node, not once per
    /// candidate). The slices are only read under simulation semantics.
    pub fn potential_with(
        &self,
        v: NodeId,
        u: PNode,
        out_labels: &[rbq_graph::Label],
        in_labels: &[rbq_graph::Label],
        acc: &mut VisitStats,
    ) -> u32 {
        let p = self.q.pattern();
        match self.semantics {
            Semantics::Simulation => {
                acc.node();
                let s = self.idx.summary(v);
                let mut total = 0u32;
                for &l in out_labels {
                    total += s.out_count(l);
                }
                for &l in in_labels {
                    total += s.in_count(l);
                }
                total
            }
            Semantics::Isomorphism => {
                let mut total = 0u32;
                let outs = self.g.out(v);
                acc.edges(outs.len());
                for &w in outs {
                    let lw = self.g.node_label(w);
                    let dw = self.idx.degree(w);
                    if p.out(u)
                        .iter()
                        .any(|&uq| self.q.label(uq) == lw && dw >= p.degree(uq) as u32)
                    {
                        total += 1;
                    }
                }
                let ins = self.g.inn(v);
                acc.edges(ins.len());
                for &w in ins {
                    let lw = self.g.node_label(w);
                    let dw = self.idx.degree(w);
                    if p.inn(u)
                        .iter()
                        .any(|&uq| self.q.label(uq) == lw && dw >= p.degree(uq) as u32)
                    {
                        total += 1;
                    }
                }
                total
            }
        }
    }

    /// The selection weight `p(v,u) / (c(v,u) + 1)`.
    pub fn weight(
        &self,
        v: NodeId,
        u: PNode,
        gq: &DynamicSubgraph<'_>,
        acc: &mut VisitStats,
        scratch: &mut GuardScratch,
    ) -> f64 {
        let p = self.potential(v, u, acc) as f64;
        let c = self.cost(v, u, gq, acc, scratch) as f64;
        p / (c + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::GraphBuilder;
    use rbq_pattern::pattern::fig1_pattern;
    use rustc_hash::FxHashMap;

    /// Fig. 1 fragment used by Example 4.
    fn fig1() -> (Graph, FxHashMap<&'static str, NodeId>) {
        let mut b = GraphBuilder::new();
        let mut m = FxHashMap::default();
        m.insert("michael", b.add_node("Michael"));
        m.insert("hg1", b.add_node("HG"));
        m.insert("hgm", b.add_node("HG"));
        m.insert("cc1", b.add_node("CC"));
        m.insert("cc2", b.add_node("CC"));
        m.insert("cc3", b.add_node("CC"));
        m.insert("cl1", b.add_node("CL"));
        m.insert("cln_1", b.add_node("CL"));
        m.insert("cln", b.add_node("CL"));
        b.add_edge(m["michael"], m["hg1"]);
        b.add_edge(m["michael"], m["hgm"]);
        b.add_edge(m["michael"], m["cc1"]);
        b.add_edge(m["michael"], m["cc3"]);
        b.add_edge(m["cc2"], m["cl1"]);
        b.add_edge(m["cc1"], m["cln_1"]);
        b.add_edge(m["cc1"], m["cln"]);
        b.add_edge(m["cc3"], m["cln"]);
        b.add_edge(m["hgm"], m["cln_1"]);
        b.add_edge(m["hgm"], m["cln"]);
        (b.build(), m)
    }

    fn ctx_parts(g: &Graph) -> (NeighborIndex, ResolvedPattern) {
        let idx = NeighborIndex::build(g);
        let q = fig1_pattern().resolve(g).unwrap();
        (idx, q)
    }

    // Pattern node ids in fig1_pattern: 0=Michael, 1=CC, 2=HG, 3=CL.
    const Q_CC: PNode = PNode(1);
    const Q_HG: PNode = PNode(2);

    #[test]
    fn example4_guard_rules_out_cc2() {
        let (g, m) = fig1();
        let (idx, q) = ctx_parts(&g);
        let ctx = GuardCtx::new(&g, &idx, &q, Semantics::Simulation);
        let mut acc = VisitStats::default();
        let mut gs = GuardScratch::default();
        // cc2 has a CL child but no Michael parent.
        assert!(!ctx.guard(m["cc2"], Q_CC, &mut acc, &mut gs));
        assert!(ctx.guard(m["cc1"], Q_CC, &mut acc, &mut gs));
        assert!(ctx.guard(m["cc3"], Q_CC, &mut acc, &mut gs));
    }

    #[test]
    fn example4_potentials() {
        let (g, m) = fig1();
        let (idx, q) = ctx_parts(&g);
        let ctx = GuardCtx::new(&g, &idx, &q, Semantics::Simulation);
        let mut acc = VisitStats::default();
        // Paper: p(cc1, CC) = 3, p(cc3, CC) = 2.
        assert_eq!(ctx.potential(m["cc1"], Q_CC, &mut acc), 3);
        assert_eq!(ctx.potential(m["cc3"], Q_CC, &mut acc), 2);
    }

    #[test]
    fn example4_costs_with_michael_in_gq() {
        let (g, m) = fig1();
        let (idx, q) = ctx_parts(&g);
        let ctx = GuardCtx::new(&g, &idx, &q, Semantics::Simulation);
        let mut acc = VisitStats::default();
        let mut gs = GuardScratch::default();
        let mut gq = DynamicSubgraph::new(&g);
        gq.add_node(m["michael"]);
        // Paper: both cc1 and cc3 have cost 1 (CL child not in G_Q yet,
        // Michael parent already present).
        assert_eq!(ctx.cost(m["cc1"], Q_CC, &gq, &mut acc, &mut gs), 1);
        assert_eq!(ctx.cost(m["cc3"], Q_CC, &gq, &mut acc, &mut gs), 1);
    }

    #[test]
    fn example4_weights_rank_cc1_first() {
        let (g, m) = fig1();
        let (idx, q) = ctx_parts(&g);
        let ctx = GuardCtx::new(&g, &idx, &q, Semantics::Simulation);
        let mut acc = VisitStats::default();
        let mut gs = GuardScratch::default();
        let mut gq = DynamicSubgraph::new(&g);
        gq.add_node(m["michael"]);
        let w1 = ctx.weight(m["cc1"], Q_CC, &gq, &mut acc, &mut gs);
        let w3 = ctx.weight(m["cc3"], Q_CC, &gq, &mut acc, &mut gs);
        assert!(w1 > w3, "paper ranks Sp = [cc1, cc3]");
        assert!((w1 - 1.5).abs() < 1e-12);
        assert!((w3 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn example4_hgm_cost_drops_to_zero() {
        let (g, m) = fig1();
        let (idx, q) = ctx_parts(&g);
        let ctx = GuardCtx::new(&g, &idx, &q, Semantics::Simulation);
        let mut acc = VisitStats::default();
        let mut gs = GuardScratch::default();
        let mut gq = DynamicSubgraph::new(&g);
        for key in ["michael", "cc3", "cln", "cln_1"] {
            gq.add_node(m[key]);
        }
        // hgm has child cln and parent Michael in G_Q -> cost 0.
        assert_eq!(ctx.cost(m["hgm"], Q_HG, &gq, &mut acc, &mut gs), 0);
        // p(hgm, HG): paper says 4 (3 CL children + Michael parent... our
        // fragment gives hgm 2 CL children + 1 Michael parent = 3; the
        // paper's full graph has one more CL child).
        assert_eq!(ctx.potential(m["hgm"], Q_HG, &mut acc), 3);
    }

    #[test]
    fn hg_nodes_without_cl_child_fail_guard() {
        let (g, m) = fig1();
        let (idx, q) = ctx_parts(&g);
        let ctx = GuardCtx::new(&g, &idx, &q, Semantics::Simulation);
        let mut acc = VisitStats::default();
        let mut gs = GuardScratch::default();
        assert!(!ctx.guard(m["hg1"], Q_HG, &mut acc, &mut gs));
        assert!(ctx.guard(m["hgm"], Q_HG, &mut acc, &mut gs));
    }

    #[test]
    fn label_mismatch_fails_guard_fast() {
        let (g, m) = fig1();
        let (idx, q) = ctx_parts(&g);
        let ctx = GuardCtx::new(&g, &idx, &q, Semantics::Simulation);
        let mut acc = VisitStats::default();
        let mut gs = GuardScratch::default();
        assert!(!ctx.guard(m["hgm"], Q_CC, &mut acc, &mut gs));
    }

    #[test]
    fn sub_guard_degree_constraints() {
        // Query u (A) needs two distinct B children each with degree >= 2.
        // v1 has two B children of degree 2; v2 has two B children but one
        // has degree 1.
        let mut b = GraphBuilder::new();
        let root = b.add_node("R");
        let v1 = b.add_node("A");
        let v2 = b.add_node("A");
        let b11 = b.add_node("B");
        let b12 = b.add_node("B");
        let b21 = b.add_node("B");
        let b22 = b.add_node("B");
        let t = b.add_node("T");
        b.add_edge(root, v1);
        b.add_edge(root, v2);
        b.add_edge(v1, b11);
        b.add_edge(v1, b12);
        b.add_edge(v2, b21);
        b.add_edge(v2, b22);
        // Give b11, b12, b21 an extra edge so their degree is 2; b22 stays 1.
        b.add_edge(b11, t);
        b.add_edge(b12, t);
        b.add_edge(b21, t);
        let g = b.build();

        let mut pb = rbq_pattern::PatternBuilder::new();
        let qr = pb.add_node("R");
        let qa = pb.add_node("A");
        let qb1 = pb.add_node("B");
        let qb2 = pb.add_node("B");
        let qt = pb.add_node("T");
        pb.add_edge(qr, qa);
        pb.add_edge(qa, qb1);
        pb.add_edge(qa, qb2);
        pb.add_edge(qb1, qt);
        pb.add_edge(qb2, qt);
        pb.personalized(qr).output(qb1);
        let q = pb.build().resolve(&g).unwrap();
        let idx = NeighborIndex::build(&g);
        let ctx = GuardCtx::new(&g, &idx, &q, Semantics::Isomorphism);
        let mut acc = VisitStats::default();
        let mut gs = GuardScratch::default();
        // qb1/qb2 have pattern degree 2, so children must have data degree >= 2.
        assert!(
            ctx.guard(v1, qa, &mut acc, &mut gs),
            "v1's B children both have degree 2"
        );
        assert!(
            !ctx.guard(v2, qa, &mut acc, &mut gs),
            "v2's b22 has degree 1 < required 2"
        );
        // A G_Q neighbor whose degree equals the requirement fits in the
        // cost too: b11 (degree 2) serves both B children, the R parent is
        // missing.
        let mut gq = DynamicSubgraph::new(&g);
        gq.add_node(b11);
        assert_eq!(ctx.cost(v1, qa, &gq, &mut acc, &mut gs), 1);
        gq.add_node(root);
        assert_eq!(ctx.cost(v1, qa, &gq, &mut acc, &mut gs), 0);
        // b22 (degree 1) fits neither B child.
        let mut gq = DynamicSubgraph::new(&g);
        gq.add_node(b22);
        assert_eq!(ctx.cost(v2, qa, &gq, &mut acc, &mut gs), 3);
    }

    #[test]
    fn sub_guard_requires_distinct_neighbors() {
        // Query A needs two B children; data node has only one.
        let mut b = GraphBuilder::new();
        let r = b.add_node("R");
        let a = b.add_node("A");
        let bb = b.add_node("B");
        b.add_edge(r, a);
        b.add_edge(a, bb);
        let g = b.build();
        let mut pb = rbq_pattern::PatternBuilder::new();
        let qr = pb.add_node("R");
        let qa = pb.add_node("A");
        let qb1 = pb.add_node("B");
        let qb2 = pb.add_node("B");
        pb.add_edge(qr, qa).add_edge(qa, qb1).add_edge(qa, qb2);
        pb.personalized(qr).output(qb1);
        let q = pb.build().resolve(&g).unwrap();
        let idx = NeighborIndex::build(&g);
        let ctx = GuardCtx::new(&g, &idx, &q, Semantics::Isomorphism);
        let mut acc = VisitStats::default();
        let mut gs = GuardScratch::default();
        assert!(!ctx.guard(a, qa, &mut acc, &mut gs));
    }

    #[test]
    fn visits_are_accounted() {
        let (g, m) = fig1();
        let (idx, q) = ctx_parts(&g);
        let ctx = GuardCtx::new(&g, &idx, &q, Semantics::Simulation);
        let mut acc = VisitStats::default();
        let mut gs = GuardScratch::default();
        let gq = DynamicSubgraph::new(&g);
        let _ = ctx.guard(m["cc1"], Q_CC, &mut acc, &mut gs);
        let _ = ctx.cost(m["cc1"], Q_CC, &gq, &mut acc, &mut gs);
        let _ = ctx.potential(m["cc1"], Q_CC, &mut acc);
        assert!(acc.total() > 0);
    }
}
