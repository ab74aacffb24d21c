//! The once-for-all offline auxiliary structure of §4.1.
//!
//! For each node `v`, the paper precomputes (Example 3): the degree `d(v)`
//! and the set `S_l` of `(label, occurrence-count)` pairs over the
//! neighborhood `N(v)`. We refine `S_l` by direction (separate child and
//! parent label counts) — a strict superset of the paper's structure that
//! lets the guarded condition `C(v, u)` check parents and children exactly,
//! as its definition demands, by binary search over a handful of sorted
//! pairs.
//!
//! The index is computed by one linear traversal of `G` and its cost is
//! *offline*: it is excluded from the online `α·c·|G|` visiting budget
//! (§3 "Remarks").

use rbq_graph::{Graph, Label, NodeId};

/// Per-node neighbor-label summary, split by direction — a view borrowed
/// from the index's flat arrays.
#[derive(Debug, Clone, Copy)]
pub struct NodeSummary<'a> {
    /// `(label, count)` over children (out-neighbors), sorted by label.
    pub out_labels: &'a [(Label, u32)],
    /// `(label, count)` over parents (in-neighbors), sorted by label.
    pub in_labels: &'a [(Label, u32)],
    /// Total degree `d(v)`.
    pub degree: u32,
}

impl NodeSummary<'_> {
    fn count_in(list: &[(Label, u32)], l: Label) -> u32 {
        match list.binary_search_by_key(&l, |&(x, _)| x) {
            Ok(i) => list[i].1,
            Err(_) => 0,
        }
    }

    /// Occurrences of label `l` among children.
    pub fn out_count(&self, l: Label) -> u32 {
        Self::count_in(self.out_labels, l)
    }

    /// Occurrences of label `l` among parents.
    pub fn in_count(&self, l: Label) -> u32 {
        Self::count_in(self.in_labels, l)
    }

    /// Pooled count over `N(v)` — the paper's original `S_l` view.
    pub fn pooled_count(&self, l: Label) -> u32 {
        self.out_count(l) + self.in_count(l)
    }
}

/// `(label, count)` runs of every node for one direction, in one
/// allocation: node `v`'s runs are `runs[offsets[v]..offsets[v + 1]]`.
#[derive(Debug, Clone)]
struct LabelCounts {
    offsets: Vec<usize>,
    runs: Vec<(Label, u32)>,
}

impl LabelCounts {
    /// Sort each neighbor list's labels on one reused scratch buffer and
    /// run-length encode them.
    fn build<'g>(g: &'g Graph, adj: impl Fn(NodeId) -> &'g [NodeId]) -> Self {
        let mut offsets = Vec::with_capacity(g.node_count() + 1);
        let mut runs: Vec<(Label, u32)> = Vec::new();
        let mut scratch: Vec<Label> = Vec::new();
        offsets.push(0);
        for v in g.nodes() {
            scratch.clear();
            scratch.extend(adj(v).iter().map(|&w| g.node_label(w)));
            scratch.sort_unstable();
            for run in scratch.chunk_by(|a, b| a == b) {
                runs.push((run[0], run.len() as u32));
            }
            offsets.push(runs.len());
        }
        LabelCounts { offsets, runs }
    }

    #[inline]
    fn row(&self, v: NodeId) -> &[(Label, u32)] {
        &self.runs[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }
}

/// The offline index: a neighbor-label summary per node.
///
/// Construction is `O(|V| + |E|)` plus a sort of each neighbor list's
/// labels; lookups never touch the graph.
#[derive(Debug, Clone)]
pub struct NeighborIndex {
    out: LabelCounts,
    inn: LabelCounts,
    degrees: Vec<u32>,
}

impl NeighborIndex {
    /// Build the index by a single linear traversal of `g`.
    pub fn build(g: &Graph) -> Self {
        NeighborIndex {
            out: LabelCounts::build(g, |v| g.out(v)),
            inn: LabelCounts::build(g, |v| g.inn(v)),
            degrees: g.nodes().map(|v| g.deg(v) as u32).collect(),
        }
    }

    /// The summary for node `v`.
    #[inline]
    pub fn summary(&self, v: NodeId) -> NodeSummary<'_> {
        NodeSummary {
            out_labels: self.out.row(v),
            in_labels: self.inn.row(v),
            degree: self.degrees[v.index()],
        }
    }

    /// Degree `d(v)` without touching the graph.
    #[inline]
    pub fn degree(&self, v: NodeId) -> u32 {
        self.degrees[v.index()]
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::GraphBuilder;

    /// Example 3's shape: Michael with 96 HG children, 3 CC children.
    #[test]
    fn example3_counts() {
        let mut b = GraphBuilder::new();
        let michael = b.add_node("Michael");
        let mut hgs = Vec::new();
        for _ in 0..96 {
            hgs.push(b.add_node("HG"));
        }
        let ccs: Vec<_> = (0..3).map(|_| b.add_node("CC")).collect();
        for &h in &hgs {
            b.add_edge(michael, h);
        }
        for &c in &ccs {
            b.add_edge(michael, c);
        }
        let g = b.build();
        let idx = NeighborIndex::build(&g);
        let hg = g.labels().get("HG").unwrap();
        let cc = g.labels().get("CC").unwrap();
        let s = idx.summary(michael);
        assert_eq!(s.out_count(hg), 96);
        assert_eq!(s.out_count(cc), 3);
        assert_eq!(s.pooled_count(hg), 96);
        assert_eq!(idx.degree(michael), 99);
    }

    #[test]
    fn direction_split() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("X");
        let p = b.add_node("P");
        let c = b.add_node("C");
        b.add_edge(p, x); // parent labeled P
        b.add_edge(x, c); // child labeled C
        let g = b.build();
        let idx = NeighborIndex::build(&g);
        let lp = g.labels().get("P").unwrap();
        let lc = g.labels().get("C").unwrap();
        let s = idx.summary(x);
        assert_eq!(s.in_count(lp), 1);
        assert_eq!(s.out_count(lp), 0);
        assert_eq!(s.out_count(lc), 1);
        assert_eq!(s.in_count(lc), 0);
        assert_eq!(s.pooled_count(lp), 1);
        assert_eq!(idx.degree(x), 2);
    }

    #[test]
    fn missing_label_counts_zero() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("X");
        let g = b.build();
        let idx = NeighborIndex::build(&g);
        assert_eq!(idx.summary(x).out_count(Label(7)), 0);
        assert_eq!(idx.summary(x).in_count(Label(7)), 0);
        assert_eq!(idx.degree(x), 0);
    }

    #[test]
    fn len_matches_graph() {
        let mut b = GraphBuilder::new();
        b.add_node("A");
        b.add_node("B");
        let g = b.build();
        let idx = NeighborIndex::build(&g);
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
    }

    #[test]
    fn self_loop_counts_both_directions() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("A");
        b.add_edge(x, x);
        let g = b.build();
        let idx = NeighborIndex::build(&g);
        let la = g.labels().get("A").unwrap();
        let s = idx.summary(x);
        assert_eq!(s.out_count(la), 1);
        assert_eq!(s.in_count(la), 1);
        assert_eq!(s.pooled_count(la), 2);
    }
}
