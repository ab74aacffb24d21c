//! The graph-pattern query type `Q = (V_p, E_p, f_v, u_p, u_o)` (§2).

use rbq_graph::{Graph, Label, NodeId};
use std::collections::VecDeque;
use std::fmt;

/// A pattern (query) node index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PNode(pub u32);

impl PNode {
    /// The index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a `usize`.
    #[inline]
    pub fn new(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize);
        PNode(i as u32)
    }
}

impl fmt::Debug for PNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A graph pattern with string labels, independent of any data graph.
///
/// Build with [`PatternBuilder`], then [`Pattern::resolve`] against a data
/// graph to obtain a [`ResolvedPattern`] ready for matching.
#[derive(Debug, Clone)]
pub struct Pattern {
    labels: Vec<String>,
    edges: Vec<(PNode, PNode)>,
    out_adj: Vec<Vec<PNode>>,
    in_adj: Vec<Vec<PNode>>,
    personalized: PNode,
    output: PNode,
}

impl Pattern {
    /// Number of query nodes `|V_p|`.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of query edges `|E_p|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Query size `|Q| = |V_p| + |E_p|`.
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// The personalized node `u_p`.
    pub fn personalized(&self) -> PNode {
        self.personalized
    }

    /// The output node `u_o`.
    pub fn output(&self) -> PNode {
        self.output
    }

    /// Label string of query node `u`.
    pub fn label_str(&self, u: PNode) -> &str {
        &self.labels[u.index()]
    }

    /// Children of `u` in the pattern.
    pub fn out(&self, u: PNode) -> &[PNode] {
        &self.out_adj[u.index()]
    }

    /// Parents of `u` in the pattern.
    pub fn inn(&self, u: PNode) -> &[PNode] {
        &self.in_adj[u.index()]
    }

    /// All pattern edges.
    pub fn edges(&self) -> &[(PNode, PNode)] {
        &self.edges
    }

    /// Iterate all pattern node ids.
    pub fn nodes(&self) -> impl Iterator<Item = PNode> + '_ {
        (0..self.labels.len() as u32).map(PNode)
    }

    /// Total degree of `u` within the pattern.
    pub fn degree(&self, u: PNode) -> usize {
        self.out(u).len() + self.inn(u).len()
    }

    /// Diameter of the pattern treated as an *undirected* graph — the `d`
    /// of Theorem 3, and the ball radius `d_Q` we use for locality (matches
    /// within a ball must be within `d_Q` undirected hops of any ball
    /// member).
    ///
    /// Returns `node_count - 1` as a conservative value for disconnected
    /// patterns. Those still match under strong simulation: each ball is
    /// evaluated on its own, so a component without `u_p` may be witnessed
    /// anywhere in a ball that also holds `v_p`.
    pub fn undirected_diameter(&self) -> usize {
        let n = self.node_count();
        if n == 0 {
            return 0;
        }
        let mut best = 0usize;
        let mut connected = true;
        let mut dist = vec![usize::MAX; n];
        for s in 0..n {
            dist.iter_mut().for_each(|d| *d = usize::MAX);
            dist[s] = 0;
            let mut q = VecDeque::new();
            q.push_back(PNode::new(s));
            let mut reached = 1usize;
            while let Some(u) = q.pop_front() {
                let du = dist[u.index()];
                for &w in self.out(u).iter().chain(self.inn(u)) {
                    if dist[w.index()] == usize::MAX {
                        dist[w.index()] = du + 1;
                        best = best.max(du + 1);
                        reached += 1;
                        q.push_back(w);
                    }
                }
            }
            if reached < n {
                connected = false;
            }
        }
        if connected {
            best
        } else {
            n.saturating_sub(1)
        }
    }

    /// Whether the pattern is weakly connected. Patterns in the paper's
    /// evaluation are connected; disconnected ones are legal and match
    /// ball by ball (see [`Pattern::undirected_diameter`]).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut q = VecDeque::from([PNode(0)]);
        let mut cnt = 1usize;
        while let Some(u) = q.pop_front() {
            for &w in self.out(u).iter().chain(self.inn(u)) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    cnt += 1;
                    q.push_back(w);
                }
            }
        }
        cnt == n
    }

    /// Resolve against a data graph with an explicit anchor assignment
    /// `u_anchor ↦ v_anchor`, bypassing the unique-label requirement.
    ///
    /// Used for patterns *without* a personalized node (the paper's §7
    /// future work): the caller enumerates candidate anchors and unions the
    /// per-anchor answers. The anchor's label must match.
    pub fn resolve_with_anchor(
        &self,
        g: &Graph,
        v_anchor: NodeId,
    ) -> Result<ResolvedPattern, ResolveError> {
        let mut labels = Vec::with_capacity(self.labels.len());
        for (i, name) in self.labels.iter().enumerate() {
            match g.labels().get(name) {
                Some(l) => labels.push(l),
                None => return Err(ResolveError::UnknownLabel(PNode::new(i), name.clone())),
            }
        }
        if g.node_label(v_anchor) != labels[self.personalized.index()] {
            return Err(ResolveError::NoPersonalizedMatch);
        }
        Ok(ResolvedPattern {
            dq: self.undirected_diameter(),
            connected: self.is_connected(),
            pattern: self.clone(),
            labels,
            vp: v_anchor,
        })
    }

    /// Resolve against a data graph: intern labels and locate the unique
    /// match `v_p` of the personalized node.
    pub fn resolve(&self, g: &Graph) -> Result<ResolvedPattern, ResolveError> {
        let mut labels = Vec::with_capacity(self.labels.len());
        for (i, name) in self.labels.iter().enumerate() {
            match g.labels().get(name) {
                Some(l) => labels.push(l),
                None => return Err(ResolveError::UnknownLabel(PNode::new(i), name.clone())),
            }
        }
        let lp = labels[self.personalized.index()];
        let vp = match g.nodes_with_label(lp) {
            [] => return Err(ResolveError::NoPersonalizedMatch),
            [v] => *v,
            _ => return Err(ResolveError::AmbiguousPersonalizedMatch),
        };
        Ok(ResolvedPattern {
            dq: self.undirected_diameter(),
            connected: self.is_connected(),
            pattern: self.clone(),
            labels,
            vp,
        })
    }
}

/// Errors from [`Pattern::resolve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// A pattern label does not occur in the data graph at all.
    UnknownLabel(PNode, String),
    /// No data node carries the personalized node's label.
    NoPersonalizedMatch,
    /// More than one data node carries the personalized node's label; the
    /// paper requires the personalized match `v_p` to be unique (§2).
    AmbiguousPersonalizedMatch,
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::UnknownLabel(u, name) => {
                write!(
                    f,
                    "pattern node {u:?} has label {name:?} absent from the graph"
                )
            }
            ResolveError::NoPersonalizedMatch => {
                write!(f, "no data node matches the personalized node's label")
            }
            ResolveError::AmbiguousPersonalizedMatch => {
                write!(f, "multiple data nodes match the personalized node's label")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// A pattern bound to a data graph: labels interned, `v_p` located.
#[derive(Debug, Clone)]
pub struct ResolvedPattern {
    pattern: Pattern,
    labels: Vec<Label>,
    vp: NodeId,
    /// Cached `d_Q` — strong simulation reads it per ball, and recomputing
    /// the diameter BFS there would put allocations back on the warm path.
    dq: usize,
    /// Cached weak connectivity, for the same reason: it picks strong
    /// simulation's evaluation rule on every call.
    connected: bool,
}

impl ResolvedPattern {
    /// The underlying pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The interned label of query node `u`.
    #[inline]
    pub fn label(&self, u: PNode) -> Label {
        self.labels[u.index()]
    }

    /// The unique data-graph match `v_p` of the personalized node.
    #[inline]
    pub fn vp(&self) -> NodeId {
        self.vp
    }

    /// Shorthand for `self.pattern().personalized()`.
    #[inline]
    pub fn up(&self) -> PNode {
        self.pattern.personalized()
    }

    /// Shorthand for `self.pattern().output()`.
    #[inline]
    pub fn uo(&self) -> PNode {
        self.pattern.output()
    }

    /// Ball radius `d_Q` used for locality.
    pub fn dq(&self) -> usize {
        self.dq
    }

    /// Whether the pattern is weakly connected.
    #[inline]
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Re-anchor at `v` in place: only `v_p` changes — labels, `d_Q` and
    /// connectivity are anchor-independent, so enumerating candidate
    /// anchors (the §7 anonymous-pattern evaluation) needs one resolve plus
    /// one cheap `set_anchor` per candidate instead of a full pattern clone
    /// each.
    /// Returns `false` (and leaves the anchor unchanged) when `v` does not
    /// carry the personalized node's label.
    pub fn set_anchor(&mut self, g: &Graph, v: NodeId) -> bool {
        if g.node_label(v) != self.labels[self.pattern.personalized().index()] {
            return false;
        }
        self.vp = v;
        true
    }
}

/// Builder for [`Pattern`].
///
/// ```
/// use rbq_pattern::PatternBuilder;
/// // Fig. 1's query: Michael -> CC -> CL, Michael -> HG -> CL, output CL.
/// let mut b = PatternBuilder::new();
/// let michael = b.add_node("Michael");
/// let cc = b.add_node("CC");
/// let hg = b.add_node("HG");
/// let cl = b.add_node("CL");
/// b.add_edge(michael, cc);
/// b.add_edge(michael, hg);
/// b.add_edge(cc, cl);
/// b.add_edge(hg, cl);
/// let q = b.personalized(michael).output(cl).build();
/// assert_eq!(q.node_count(), 4);
/// assert_eq!(q.undirected_diameter(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct PatternBuilder {
    labels: Vec<String>,
    edges: Vec<(PNode, PNode)>,
    personalized: Option<PNode>,
    output: Option<PNode>,
}

impl PatternBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a query node with the given label.
    pub fn add_node(&mut self, label: &str) -> PNode {
        let id = PNode::new(self.labels.len());
        self.labels.push(label.to_owned());
        id
    }

    /// Add a query edge `u -> v`.
    pub fn add_edge(&mut self, u: PNode, v: PNode) -> &mut Self {
        debug_assert!(u.index() < self.labels.len());
        debug_assert!(v.index() < self.labels.len());
        self.edges.push((u, v));
        self
    }

    /// Designate the personalized node `u_p`.
    pub fn personalized(&mut self, u: PNode) -> &mut Self {
        self.personalized = Some(u);
        self
    }

    /// Designate the output node `u_o`.
    pub fn output(&mut self, u: PNode) -> &mut Self {
        self.output = Some(u);
        self
    }

    /// Finish the pattern.
    ///
    /// # Panics
    /// Panics if the pattern has no nodes or the personalized/output nodes
    /// were not set.
    pub fn build(&self) -> Pattern {
        assert!(!self.labels.is_empty(), "pattern must have nodes");
        // invariant: documented `# Panics` contract of `build` — pattern
        // construction is an offline/setup step, not a serving-path one.
        let personalized = self.personalized.expect("personalized node not set");
        // invariant: same documented `# Panics` contract as above.
        let output = self.output.expect("output node not set");
        let n = self.labels.len();
        let mut edges = self.edges.clone();
        edges.sort_unstable();
        edges.dedup();
        let mut out_adj = vec![Vec::new(); n];
        let mut in_adj = vec![Vec::new(); n];
        for &(u, v) in &edges {
            out_adj[u.index()].push(v);
            in_adj[v.index()].push(u);
        }
        Pattern {
            labels: self.labels.clone(),
            edges,
            out_adj,
            in_adj,
            personalized,
            output,
        }
    }
}

/// The running example of the paper (Fig. 1): pattern
/// `Michael -> CC -> CL <- HG <- Michael` with output `CL`.
/// Handy for tests and docs across the workspace.
pub fn fig1_pattern() -> Pattern {
    let mut b = PatternBuilder::new();
    let michael = b.add_node("Michael");
    let cc = b.add_node("CC");
    let hg = b.add_node("HG");
    let cl = b.add_node("CL");
    b.add_edge(michael, cc);
    b.add_edge(michael, hg);
    b.add_edge(cc, cl);
    b.add_edge(hg, cl);
    b.personalized(michael).output(cl);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::GraphBuilder;

    #[test]
    fn builder_basics() {
        let q = fig1_pattern();
        assert_eq!(q.node_count(), 4);
        assert_eq!(q.edge_count(), 4);
        assert_eq!(q.size(), 8);
        assert_eq!(q.label_str(q.personalized()), "Michael");
        assert_eq!(q.label_str(q.output()), "CL");
    }

    #[test]
    fn adjacency() {
        let q = fig1_pattern();
        let michael = PNode(0);
        let cl = PNode(3);
        assert_eq!(q.out(michael).len(), 2);
        assert_eq!(q.inn(cl).len(), 2);
        assert_eq!(q.degree(michael), 2);
        assert_eq!(q.degree(cl), 2);
    }

    #[test]
    fn diameter_undirected() {
        let q = fig1_pattern();
        assert_eq!(q.undirected_diameter(), 2);

        // Directed path of 3 edges has undirected diameter 3.
        let mut b = PatternBuilder::new();
        let n0 = b.add_node("a");
        let n1 = b.add_node("b");
        let n2 = b.add_node("c");
        let n3 = b.add_node("d");
        b.add_edge(n0, n1).add_edge(n1, n2).add_edge(n2, n3);
        b.personalized(n0).output(n3);
        assert_eq!(b.build().undirected_diameter(), 3);
    }

    #[test]
    fn disconnected_pattern_detected() {
        let mut b = PatternBuilder::new();
        let a = b.add_node("A");
        let c = b.add_node("B");
        b.personalized(a).output(c);
        let q = b.build();
        assert!(!q.is_connected());
        assert_eq!(q.undirected_diameter(), 1); // conservative n-1
    }

    #[test]
    fn connected_pattern_detected() {
        assert!(fig1_pattern().is_connected());
    }

    fn fig1_like_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let michael = b.add_node("Michael");
        let cc = b.add_node("CC");
        let hg = b.add_node("HG");
        let cl = b.add_node("CL");
        b.add_edge(michael, cc);
        b.add_edge(michael, hg);
        b.add_edge(cc, cl);
        b.add_edge(hg, cl);
        b.build()
    }

    #[test]
    fn resolve_success() {
        let q = fig1_pattern();
        let g = fig1_like_graph();
        let r = q.resolve(&g).unwrap();
        assert_eq!(r.vp(), NodeId(0));
        assert_eq!(r.up(), PNode(0));
        assert_eq!(r.uo(), PNode(3));
        assert_eq!(r.dq(), 2);
        assert_eq!(r.label(PNode(1)), g.labels().get("CC").unwrap());
    }

    #[test]
    fn resolve_unknown_label() {
        let q = fig1_pattern();
        let mut b = GraphBuilder::new();
        b.add_node("Michael");
        let g = b.build();
        match q.resolve(&g) {
            Err(ResolveError::UnknownLabel(_, name)) => assert_eq!(name, "CC"),
            other => panic!("expected UnknownLabel, got {other:?}"),
        }
    }

    #[test]
    fn resolve_ambiguous_personalized() {
        let q = fig1_pattern();
        let mut b = GraphBuilder::new();
        b.add_node("Michael");
        b.add_node("Michael");
        b.add_node("CC");
        b.add_node("HG");
        b.add_node("CL");
        let g = b.build();
        assert!(matches!(
            q.resolve(&g),
            Err(ResolveError::AmbiguousPersonalizedMatch)
        ));
    }

    #[test]
    fn resolve_no_personalized() {
        // All pattern labels exist, but the personalized label "Michael"
        // does not.
        let mut pb = PatternBuilder::new();
        let a = pb.add_node("Michael");
        let c = pb.add_node("CC");
        pb.add_edge(a, c).personalized(a).output(c);
        let q = pb.build();
        let mut b = GraphBuilder::new();
        b.add_node("CC");
        b.intern_label("Michael");
        let g = b.build();
        assert!(matches!(
            q.resolve(&g),
            Err(ResolveError::NoPersonalizedMatch)
        ));
    }

    #[test]
    fn duplicate_pattern_edges_deduped() {
        let mut b = PatternBuilder::new();
        let a = b.add_node("A");
        let c = b.add_node("B");
        b.add_edge(a, c).add_edge(a, c).personalized(a).output(c);
        assert_eq!(b.build().edge_count(), 1);
    }

    #[test]
    fn error_display() {
        let e = ResolveError::NoPersonalizedMatch;
        assert!(format!("{e}").contains("personalized"));
    }
}
