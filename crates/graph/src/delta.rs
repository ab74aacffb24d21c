//! Live updates: delta batches over the CSR overlay.
//!
//! Production graphs churn; the ROADMAP's serving goal therefore needs a
//! mutation path that does not rebuild the world per update. A
//! [`DeltaBatch`] records edge insertions/removals and node additions; and
//! [`Graph::apply_delta`] folds it into a *new* [`Graph`] value that shares
//! the untouched base CSR with its parent (cheap `Arc` clone) and carries
//! the changed adjacency rows in an overlay:
//!
//! * The batch's per-node add/remove side-lists are merged against the
//!   base rows once at apply time, so every read — [`Graph::out`],
//!   [`Graph::inn`], [`crate::GraphView`] adjacency, degree and edge
//!   tests — keeps returning plain sorted slices with no per-probe merging
//!   or allocation. A merged row is found by one probe of a dense per-node
//!   slot array, so a read costs the same as on a compacted graph.
//! * The label partition is rebuilt over all nodes (`O(|V|)`), keeping
//!   label-based candidate seeding `O(1)` + output.
//! * Once cumulative churn passes a quarter of the base edge count (and at
//!   least 64 edges), the apply compacts: a fresh overlay-free CSR is
//!   rebuilt in `O(|V| + |E|)` and the overlay is dropped.
//!
//! Batch semantics are last-op-wins per edge: an add followed by a remove
//! of the same edge in one batch removes it, and vice versa. Adding an
//! edge that already exists (or removing one that does not) is a no-op, so
//! re-applying a delta is idempotent and parallel edges can never
//! double-count — the applied graph always answers exactly like a fresh
//! [`crate::GraphBuilder`] rebuild from the effective edge set.

use crate::graph::{label_partition, Graph, Overlay, SideTable};
use crate::types::{Direction, Label, NodeId};
use rustc_hash::FxHashMap;
use std::fmt;
use std::ops::Range;

/// Effective churn (adds + removes since the last compaction) at which
/// [`Graph::apply_delta`] compacts, as a fraction of the base edge count:
/// `churn >= max(64, |E_base| / 4)`.
const COMPACTION_THRESHOLD_DENOM: usize = 4;

/// Churn floor below which small graphs never auto-compact mid-batch
/// (compaction would cost more than it saves).
const COMPACTION_THRESHOLD_MIN: usize = 64;

/// One recorded update operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Add a node with the given label string. The node receives the next
    /// free id (`|V|` plus its rank among the batch's added nodes).
    AddNode(String),
    /// Add the directed edge `u -> v`. May reference nodes added by this
    /// batch. Adding a present edge is a no-op.
    AddEdge(NodeId, NodeId),
    /// Remove the directed edge `u -> v`. Removing an absent edge is a
    /// no-op.
    RemoveEdge(NodeId, NodeId),
}

/// A recorded batch of updates, applied atomically by
/// [`Graph::apply_delta`]. Operation order matters only per edge (last op
/// wins); node additions are independent of edge order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    ops: Vec<DeltaOp>,
    added_nodes: usize,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a node addition; returns the rank of the new node among this
    /// batch's additions (its final id is `|V| + rank` at apply time).
    pub fn add_node(&mut self, label: &str) -> usize {
        self.ops.push(DeltaOp::AddNode(label.to_owned()));
        self.added_nodes += 1;
        self.added_nodes - 1
    }

    /// Record an edge insertion `u -> v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.ops.push(DeltaOp::AddEdge(u, v));
    }

    /// Record an edge removal `u -> v`.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        self.ops.push(DeltaOp::RemoveEdge(u, v));
    }

    /// The recorded operations, in order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch records nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of node additions recorded.
    pub fn added_nodes(&self) -> usize {
        self.added_nodes
    }
}

/// Typed rejection of a malformed delta batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An edge op references a node id beyond `|V|` plus this batch's
    /// added nodes.
    EdgeOutOfRange {
        /// Source node of the offending edge.
        u: NodeId,
        /// Target node of the offending edge.
        v: NodeId,
        /// Node count after this batch's additions.
        nodes: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::EdgeOutOfRange { u, v, nodes } => write!(
                f,
                "delta edge {u} -> {v} references a node id out of range (|V| after adds = {nodes})"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// What one [`Graph::apply_delta`] actually changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Nodes added.
    pub nodes_added: usize,
    /// Edges effectively inserted (absent before, present after).
    pub edges_added: usize,
    /// Edges effectively removed (present before, absent after).
    pub edges_removed: usize,
    /// Labels of every endpoint of an effective edge change plus every
    /// added node — sorted, deduplicated. The cache-invalidation signal:
    /// a cached answer whose pattern mentions none of these labels is
    /// unaffected by the batch.
    pub touched_labels: Vec<String>,
    /// Whether this apply triggered a compaction.
    pub compacted: bool,
    /// Overlay churn after this apply (0 when compacted).
    pub overlay_churn: usize,
}

impl Graph {
    /// Apply `batch`, returning the updated graph and a [`DeltaReport`].
    ///
    /// The receiver is untouched (it keeps answering on the old state —
    /// the epoch-swap contract upstream layers rely on); the returned
    /// graph shares the base CSR and differs only in the overlay. Cost is
    /// `O(|V| + |batch| log |batch| + Σ degree(touched))`, where the touched
    /// rows are this batch's and every row the overlay already carried
    /// (copied forward), plus an `O(|V| + |E|)` compaction when cumulative
    /// churn passes the threshold.
    pub fn apply_delta(&self, batch: &DeltaBatch) -> Result<(Graph, DeltaReport), DeltaError> {
        let n0 = self.node_count();
        let n1 = n0 + batch.added_nodes();

        // Extend the interner and node labels with this batch's nodes.
        // Interners are append-only, so every pre-existing label id keeps
        // its meaning across generations.
        let mut labels = self.labels().clone();
        let mut node_labels = self.node_labels().to_vec();
        node_labels.reserve(batch.added_nodes());
        let mut new_node_labels: Vec<Label> = Vec::with_capacity(batch.added_nodes());
        for op in batch.ops() {
            if let DeltaOp::AddNode(name) = op {
                let l = labels.intern(name);
                node_labels.push(l);
                new_node_labels.push(l);
            }
        }

        // Fold edge ops, last-op-wins per edge.
        let mut edge_state: FxHashMap<(NodeId, NodeId), bool> = FxHashMap::default();
        for op in batch.ops() {
            match *op {
                DeltaOp::AddNode(_) => {}
                DeltaOp::AddEdge(u, v) => {
                    if u.index() >= n1 || v.index() >= n1 {
                        return Err(DeltaError::EdgeOutOfRange { u, v, nodes: n1 });
                    }
                    edge_state.insert((u, v), true);
                }
                DeltaOp::RemoveEdge(u, v) => {
                    if u.index() >= n1 || v.index() >= n1 {
                        return Err(DeltaError::EdgeOutOfRange { u, v, nodes: n1 });
                    }
                    edge_state.insert((u, v), false);
                }
            }
        }

        // Keep only effective changes: an add of an absent edge, a remove
        // of a present one. `self.edge` consults any existing overlay, so
        // stacked deltas compose.
        let mut adds: Vec<(NodeId, NodeId)> = Vec::new();
        let mut removes: Vec<(NodeId, NodeId)> = Vec::new();
        for (&(u, v), &insert) in &edge_state {
            let present = u.index() < n0 && self.edge(u, v);
            if insert && !present {
                adds.push((u, v));
            } else if !insert && present {
                removes.push((u, v));
            }
        }
        adds.sort_unstable();
        removes.sort_unstable();

        // Touched-label signal for downstream cache invalidation: mark the
        // label ids first, then name each distinct one once.
        let mut touched = vec![false; labels.len()];
        let endpoints = adds.iter().chain(removes.iter()).flat_map(|&(u, v)| [u, v]);
        for l in endpoints
            .map(|w| node_labels[w.index()])
            .chain(new_node_labels)
        {
            touched[l.index()] = true;
        }
        let mut touched_labels: Vec<String> = (0..labels.len())
            .filter(|&l| touched[l])
            .map(|l| labels.name(Label::new(l)).to_owned())
            .collect();
        touched_labels.sort_unstable();
        touched_labels.dedup();

        let report_base = DeltaReport {
            nodes_added: batch.added_nodes(),
            edges_added: adds.len(),
            edges_removed: removes.len(),
            touched_labels,
            compacted: false,
            overlay_churn: 0,
        };

        if batch.added_nodes() == 0 && adds.is_empty() && removes.is_empty() {
            // Nothing effective: share everything, even the overlay.
            let mut g = self.clone();
            g.labels = labels;
            let report = DeltaReport {
                overlay_churn: g.overlay_churn(),
                ..report_base
            };
            return Ok((g, report));
        }

        let base_nodes = match &self.overlay {
            Some(ov) => ov.base_nodes,
            None => n0,
        };
        let prev_churn = self.overlay_churn();
        let churn = prev_churn + adds.len() + removes.len();
        let edge_count = self.edge_count() + adds.len() - removes.len();

        let out = merge_side(
            self,
            base_nodes..n1,
            Direction::Out,
            &adds,
            &removes,
            self.overlay.as_ref().map(|ov| &ov.out),
        );
        let inn = merge_side(
            self,
            base_nodes..n1,
            Direction::In,
            &adds,
            &removes,
            self.overlay.as_ref().map(|ov| &ov.inn),
        );
        let (label_offsets, label_nodes) = label_partition(&labels, &node_labels);

        let overlay = Overlay {
            base_nodes,
            churn,
            edge_count,
            out,
            inn,
            label_offsets,
            label_nodes,
        };
        let g = Graph::with_overlay(labels, node_labels, self.csr.clone(), overlay);

        let base_edges = g.csr.out_targets.len();
        let threshold = (base_edges / COMPACTION_THRESHOLD_DENOM).max(COMPACTION_THRESHOLD_MIN);
        if churn >= threshold {
            let report = DeltaReport {
                compacted: true,
                overlay_churn: 0,
                ..report_base
            };
            Ok((g.compact(), report))
        } else {
            let report = DeltaReport {
                overlay_churn: churn,
                ..report_base
            };
            Ok((g, report))
        }
    }
}

/// Build one direction's merged side table: every row this batch changes
/// is its current effective row (which may already come from a previous
/// overlay) merged with the batch's sorted adds and removes; every row the
/// previous overlay carried and this batch leaves alone is copied as is;
/// every overlay-only node (`overlay_only`, ending at the new node count)
/// gets a row so it never falls through to the base CSR. Rows are laid out
/// in node order.
fn merge_side(
    g: &Graph,
    overlay_only: Range<usize>,
    side: Direction,
    adds: &[(NodeId, NodeId)],
    removes: &[(NodeId, NodeId)],
    prev: Option<&SideTable>,
) -> SideTable {
    // The batch's (owner, other) pairs for this direction, sorted once so
    // each owner's side-list is one sorted, duplicate-free run.
    let by_owner = |pairs: &[(NodeId, NodeId)]| {
        let mut keyed: Vec<_> = match side {
            Direction::Out => pairs.to_vec(),
            Direction::In => pairs.iter().map(|&(u, v)| (v, u)).collect(),
        };
        keyed.sort_unstable();
        keyed
    };
    let (adds, removes) = (by_owner(adds), by_owner(removes));
    let (mut adds_left, mut removes_left) = (&adds[..], &removes[..]);

    let carried = prev.map_or(0, |p| p.targets.len());
    let mut slot = vec![SideTable::UNTOUCHED; overlay_only.end];
    let mut offsets: Vec<u32> = vec![0];
    let mut targets: Vec<NodeId> = Vec::with_capacity(carried + adds.len());
    for (i, s) in slot.iter_mut().enumerate() {
        let v = NodeId::new(i);
        let add = owned_by(&mut adds_left, v);
        let rem = owned_by(&mut removes_left, v);
        if add.is_empty() && rem.is_empty() {
            match prev.and_then(|p| p.row(v)) {
                Some(row) => targets.extend_from_slice(row),
                None if overlay_only.contains(&i) => {}
                None => continue,
            }
        } else {
            // Current effective row (empty for nodes this very batch adds).
            let base: &[NodeId] = if i < g.node_count() {
                g.adj(v, side)
            } else {
                &[]
            };
            // (base ∖ rem) ∪ add — all three sorted, adds disjoint from
            // base and removes ⊆ base by effectiveness filtering.
            let mut add = add.iter().map(|&(_, w)| w).peekable();
            let mut rem = rem.iter().map(|&(_, w)| w).peekable();
            for &w in base {
                while let Some(a) = add.next_if(|&a| a < w) {
                    targets.push(a);
                }
                if rem.next_if_eq(&w).is_none() {
                    targets.push(w);
                }
            }
            targets.extend(add);
        }
        *s = (offsets.len() - 1) as u32;
        offsets.push(targets.len() as u32);
    }
    // Both only grow, so final lengths that fit mean no offset or slot
    // above was truncated, and no row index reads as UNTOUCHED.
    assert!(
        u32::try_from(targets.len().max(offsets.len())).is_ok(),
        "an overlay side table holds at most u32::MAX rows and row entries"
    );
    SideTable {
        slot,
        offsets,
        targets,
    }
}

/// Split off the leading run of `pairs` owned by `v`; `pairs` is sorted by
/// owner and holds no owner below `v`.
fn owned_by<'p>(pairs: &mut &'p [(NodeId, NodeId)], v: NodeId) -> &'p [(NodeId, NodeId)] {
    let (run, rest) = pairs.split_at(pairs.iter().take_while(|&&(owner, _)| owner == v).count());
    *pairs = rest;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, GraphBuilder};
    use crate::view::GraphView;

    /// Oracle: rebuild from scratch with the effective node/edge sets and
    /// compare every observable surface.
    fn assert_matches_rebuild(g: &Graph, expect_labels: &[&str], expect_edges: &[(u32, u32)]) {
        let want = graph_from_edges(expect_labels, expect_edges);
        assert_eq!(g.node_count(), want.node_count(), "node count");
        assert_eq!(g.edge_count(), want.edge_count(), "edge count");
        for v in want.nodes() {
            assert_eq!(g.node_label_str(v), want.node_label_str(v), "label of {v}");
            assert_eq!(g.out(v), want.out(v), "out({v})");
            assert_eq!(g.inn(v), want.inn(v), "inn({v})");
            assert_eq!(g.deg_out(v), want.deg_out(v), "deg_out({v})");
            assert_eq!(g.deg_in(v), want.deg_in(v), "deg_in({v})");
        }
        for l in 0..want.labels().len() {
            let name = want.labels().name(Label::new(l));
            let got_l = g.labels().get(name).expect("label interned");
            let got: Vec<NodeId> = g.nodes_with_label(got_l).to_vec();
            let exp: Vec<NodeId> = want.nodes_with_label(Label::new(l)).to_vec();
            assert_eq!(got, exp, "label partition for {name}");
        }
    }

    fn abc() -> Graph {
        graph_from_edges(&["A", "B", "C"], &[(0, 1), (1, 2)])
    }

    #[test]
    fn add_and_remove_edges() {
        let g = abc();
        let mut d = DeltaBatch::new();
        d.add_edge(NodeId(0), NodeId(2));
        d.remove_edge(NodeId(1), NodeId(2));
        let (g2, r) = g.apply_delta(&d).unwrap();
        assert_eq!((r.edges_added, r.edges_removed, r.nodes_added), (1, 1, 0));
        assert!(g2.is_overlaid());
        assert_matches_rebuild(&g2, &["A", "B", "C"], &[(0, 1), (0, 2)]);
        // The receiver still answers on the old state.
        assert!(g.edge(NodeId(1), NodeId(2)));
        assert!(!g.edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn add_nodes_with_edges() {
        let g = abc();
        let mut d = DeltaBatch::new();
        assert_eq!(d.add_node("B"), 0); // becomes node 3
        assert_eq!(d.add_node("D"), 1); // becomes node 4, new label
        d.add_edge(NodeId(2), NodeId(3));
        d.add_edge(NodeId(3), NodeId(4));
        let (g2, r) = g.apply_delta(&d).unwrap();
        assert_eq!(r.nodes_added, 2);
        assert_eq!(r.edges_added, 2);
        assert_matches_rebuild(
            &g2,
            &["A", "B", "C", "B", "D"],
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
        );
        assert_eq!(
            r.touched_labels,
            vec!["B".to_string(), "C".to_string(), "D".to_string()]
        );
    }

    #[test]
    fn last_op_wins_and_noops_are_free() {
        let g = abc();
        let mut d = DeltaBatch::new();
        d.add_edge(NodeId(0), NodeId(2));
        d.remove_edge(NodeId(0), NodeId(2)); // net: nothing
        d.remove_edge(NodeId(0), NodeId(1));
        d.add_edge(NodeId(0), NodeId(1)); // net: nothing (already present)
        d.add_edge(NodeId(0), NodeId(1)); // duplicate add of present edge
        d.remove_edge(NodeId(2), NodeId(0)); // absent: no-op
        let (g2, r) = g.apply_delta(&d).unwrap();
        assert_eq!((r.edges_added, r.edges_removed), (0, 0));
        assert!(
            !g2.is_overlaid(),
            "no effective change keeps the overlay off"
        );
        assert_matches_rebuild(&g2, &["A", "B", "C"], &[(0, 1), (1, 2)]);
    }

    #[test]
    fn duplicate_adds_never_double_count() {
        // Regression guard for delta ingest over parallel edges: adding an
        // existing edge (or the same new edge thrice) leaves |E| exact.
        let g = abc();
        let mut d = DeltaBatch::new();
        d.add_edge(NodeId(2), NodeId(0));
        d.add_edge(NodeId(2), NodeId(0));
        d.add_edge(NodeId(2), NodeId(0));
        d.add_edge(NodeId(0), NodeId(1)); // already present
        let (g2, r) = g.apply_delta(&d).unwrap();
        assert_eq!(r.edges_added, 1);
        assert_eq!(g2.edge_count(), 3);
        assert_matches_rebuild(&g2, &["A", "B", "C"], &[(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn self_loops_round_trip() {
        let g = abc();
        let mut d = DeltaBatch::new();
        d.add_edge(NodeId(1), NodeId(1));
        let (g2, _) = g.apply_delta(&d).unwrap();
        assert_matches_rebuild(&g2, &["A", "B", "C"], &[(0, 1), (1, 1), (1, 2)]);
        let mut d2 = DeltaBatch::new();
        d2.remove_edge(NodeId(1), NodeId(1));
        let (g3, r) = g2.apply_delta(&d2).unwrap();
        assert_eq!(r.edges_removed, 1);
        assert_matches_rebuild(&g3, &["A", "B", "C"], &[(0, 1), (1, 2)]);
    }

    #[test]
    fn stacked_deltas_compose() {
        let mut g = abc();
        // 0->1, 1->2 ; apply three batches and track the expected edge set.
        let mut d1 = DeltaBatch::new();
        d1.add_edge(NodeId(2), NodeId(0));
        g = g.apply_delta(&d1).unwrap().0;
        let mut d2 = DeltaBatch::new();
        d2.remove_edge(NodeId(0), NodeId(1));
        d2.add_node("A"); // node 3
        d2.add_edge(NodeId(3), NodeId(0));
        g = g.apply_delta(&d2).unwrap().0;
        let mut d3 = DeltaBatch::new();
        d3.add_edge(NodeId(0), NodeId(1)); // re-add
        g = g.apply_delta(&d3).unwrap().0;
        assert_matches_rebuild(&g, &["A", "B", "C", "A"], &[(0, 1), (1, 2), (2, 0), (3, 0)]);
    }

    #[test]
    fn out_of_range_edge_is_typed_error() {
        let g = abc();
        let mut d = DeltaBatch::new();
        d.add_edge(NodeId(0), NodeId(9));
        let err = g.apply_delta(&d).unwrap_err();
        assert_eq!(
            err,
            DeltaError::EdgeOutOfRange {
                u: NodeId(0),
                v: NodeId(9),
                nodes: 3
            }
        );
        assert!(err.to_string().contains("out of range"));
        // Referencing a node this batch adds is fine.
        let mut d2 = DeltaBatch::new();
        d2.add_node("X");
        d2.add_edge(NodeId(0), NodeId(3));
        assert!(g.apply_delta(&d2).is_ok());
    }

    #[test]
    fn churn_triggers_compaction() {
        // A graph small enough that the floor (64) governs: pile up churn
        // until the apply reports a compaction and the overlay is gone.
        let n = 40u32;
        let labels: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "E" } else { "O" }).collect();
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let mut g = graph_from_edges(&labels, &edges);
        let mut compacted = false;
        let mut expect: Vec<(u32, u32)> = edges.clone();
        for round in 0..8u32 {
            let mut d = DeltaBatch::new();
            for i in 0..10u32 {
                let (u, v) = ((round * 10 + i) % n, (round * 7 + i * 3 + 2) % n);
                d.add_edge(NodeId(u), NodeId(v));
                if !expect.contains(&(u, v)) {
                    expect.push((u, v));
                }
            }
            let (g2, r) = g.apply_delta(&d).unwrap();
            if r.compacted {
                compacted = true;
                assert!(!g2.is_overlaid());
                assert_eq!(r.overlay_churn, 0);
            }
            g = g2;
        }
        assert!(compacted, "expected at least one auto-compaction");
        expect.sort_unstable();
        expect.dedup();
        let got: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        let mut want = expect.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn explicit_compact_preserves_everything() {
        let g = abc();
        let mut d = DeltaBatch::new();
        d.add_node("D");
        d.add_edge(NodeId(3), NodeId(0));
        d.remove_edge(NodeId(1), NodeId(2));
        let (g2, _) = g.apply_delta(&d).unwrap();
        assert!(g2.is_overlaid());
        let c = g2.compact();
        assert!(!c.is_overlaid());
        assert_matches_rebuild(&c, &["A", "B", "C", "D"], &[(0, 1), (3, 0)]);
    }

    #[test]
    fn graph_view_surface_reflects_overlay() {
        let g = abc();
        let mut d = DeltaBatch::new();
        d.add_node("C"); // node 3
        d.add_edge(NodeId(3), NodeId(1));
        d.remove_edge(NodeId(0), NodeId(1));
        let (g2, _) = g.apply_delta(&d).unwrap();
        assert_eq!(g2.num_nodes(), 4);
        assert_eq!(g2.num_edges(), 2);
        assert_eq!(g2.size(), 6);
        assert!(g2.contains(NodeId(3)));
        assert!(g2.has_edge(NodeId(3), NodeId(1)));
        assert!(!g2.has_edge(NodeId(0), NodeId(1)));
        let c = g2.labels().get("C").unwrap();
        assert_eq!(g2.count_nodes_with_label(c), 2);
        let mut seen = Vec::new();
        g2.for_each_node_with_label(c, &mut |v| seen.push(v));
        assert_eq!(seen, vec![NodeId(2), NodeId(3)]);
        assert_eq!(g2.out_neighbors(NodeId(3)), [NodeId(1)]);
        assert_eq!(g2.node_ids().count(), 4);
    }

    #[test]
    fn empty_batch_is_identity() {
        let g = abc();
        let (g2, r) = g.apply_delta(&DeltaBatch::new()).unwrap();
        assert_eq!(r, DeltaReport::default());
        assert_matches_rebuild(&g2, &["A", "B", "C"], &[(0, 1), (1, 2)]);
    }

    #[test]
    fn isolated_new_node_queries_empty() {
        let mut b = GraphBuilder::new();
        b.add_node("A");
        let g = b.build();
        let mut d = DeltaBatch::new();
        d.add_node("A");
        let (g2, _) = g.apply_delta(&d).unwrap();
        assert_eq!(g2.node_count(), 2);
        assert_eq!(g2.out(NodeId(1)), &[]);
        assert_eq!(g2.inn(NodeId(1)), &[]);
        assert_eq!(g2.deg(NodeId(1)), 0);
    }
}
