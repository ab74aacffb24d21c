//! The graph-pattern query type `Q = (V_p, E_p, f_v, u_p, u_o)` (§2).

use rbq_graph::{Graph, Label, NodeId};
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
    labels: Labels,
    /// Sorted and deduplicated.
    edges: Vec<(PNode, PNode)>,
    /// Every node's children, then every node's parents, back to back:
    /// list `k` is `adj[start[k]..start[k + 1]]`, children of `u` at
    /// `k = u`, parents of `u` at `k = n + u`. Both sorted ascending. Two
    /// allocations whatever the pattern's shape.
    adj: Vec<PNode>,
    start: Vec<usize>,
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
        self.labels.get(u.index())
    }

    /// Children of `u` in the pattern.
    #[inline]
    pub fn out(&self, u: PNode) -> &[PNode] {
        self.list(u.index())
    }

    /// Parents of `u` in the pattern.
    #[inline]
    pub fn inn(&self, u: PNode) -> &[PNode] {
        self.list(self.node_count() + u.index())
    }

    #[inline]
    fn list(&self, k: usize) -> &[PNode] {
        &self.adj[self.start[k]..self.start[k + 1]]
    }

    /// All pattern edges.
    pub fn edges(&self) -> &[(PNode, PNode)] {
        &self.edges
    }

    /// Iterate all pattern node ids.
    pub fn nodes(&self) -> impl Iterator<Item = PNode> + '_ {
        (0..self.node_count() as u32).map(PNode)
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
        self.shape().0
    }

    /// Whether the pattern is weakly connected. Patterns in the paper's
    /// evaluation are connected; disconnected ones are legal and match
    /// ball by ball (see [`Pattern::undirected_diameter`]).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        n == 0 || self.bfs(0, &mut vec![0; 2 * n]).0 == n
    }

    /// [`Pattern::undirected_diameter`] and [`Pattern::is_connected`]
    /// together: one [`Pattern::bfs`] per source over one buffer. The
    /// first source that leaves a node unreached settles both.
    fn shape(&self) -> (usize, bool) {
        let n = self.node_count();
        let mut buf = vec![0; 2 * n];
        let mut diameter = 0;
        for s in 0..n {
            let (reached, eccentricity) = self.bfs(s, &mut buf);
            if reached < n {
                return (n - 1, false);
            }
            diameter = diameter.max(eccentricity);
        }
        (diameter, true)
    }

    /// Undirected BFS from node `s`: `(nodes reached, eccentricity of s)`.
    /// `buf` holds `2 · node_count` words — hop distances, then the queue
    /// (each node enters it at most once).
    fn bfs(&self, s: usize, buf: &mut [u32]) -> (usize, usize) {
        let (dist, queue) = buf.split_at_mut(self.node_count());
        dist.fill(u32::MAX);
        dist[s] = 0;
        queue[0] = s as u32;
        let (mut head, mut tail, mut eccentricity) = (0, 1, 0);
        while head < tail {
            let u = PNode(queue[head]);
            head += 1;
            let du = dist[u.index()];
            for &w in self.out(u).iter().chain(self.inn(u)) {
                if dist[w.index()] == u32::MAX {
                    dist[w.index()] = du + 1;
                    eccentricity = du + 1;
                    queue[tail] = w.0;
                    tail += 1;
                }
            }
        }
        (tail, eccentricity as usize)
    }

    /// `self` with its nodes permuted into `order` (position `new` holds
    /// original node `order[new]`); edges and the personalized/output
    /// designations follow the permutation. Equal to adding the nodes to a
    /// [`PatternBuilder`] in `order`, built without the builder's copies.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..node_count`.
    pub fn permuted(&self, order: &[usize]) -> Pattern {
        const UNSET: PNode = PNode(u32::MAX);
        assert_eq!(order.len(), self.node_count(), "not a permutation");
        let mut inv = vec![UNSET; order.len()];
        for (new, &old) in order.iter().enumerate() {
            assert!(inv[old] == UNSET, "not a permutation");
            inv[old] = PNode::new(new);
        }
        let at = |u: PNode| inv[u.index()];
        let mut labels = Labels::with_capacity(order.len(), self.labels.text.len());
        for &old in order {
            labels.push(self.labels.get(old));
        }
        let mut edges: Vec<_> = self.edges.iter().map(|&(u, v)| (at(u), at(v))).collect();
        edges.sort_unstable();
        Pattern::from_parts(labels, edges, at(self.personalized), at(self.output))
    }

    /// A pattern over `labels` and the sorted, deduplicated `edges`.
    fn from_parts(
        labels: Labels,
        edges: Vec<(PNode, PNode)>,
        personalized: PNode,
        output: PNode,
    ) -> Pattern {
        let (n, m) = (labels.len(), edges.len());
        // Counting sort into the two halves of `adj`: `start[k + 1]`
        // counts list `k`, prefix sums turn counts into offsets.
        let mut start = vec![0usize; 2 * n + 1];
        for &(u, v) in &edges {
            start[u.index() + 1] += 1;
            start[n + v.index() + 1] += 1;
        }
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        let mut adj = vec![PNode(0); 2 * m];
        // Sorted edges list every child list in order: the first half is
        // the edges' heads. Parent lists fill through a cursor per node
        // (`start[n + v]`, advanced past each entry) …
        for (slot, &(_, v)) in adj.iter_mut().zip(&edges) {
            *slot = v;
        }
        for &(u, v) in &edges {
            adj[start[n + v.index()]] = u;
            start[n + v.index()] += 1;
        }
        // … which leaves `start[n + v]` at the start of list `n + v + 1`:
        // shift the parent offsets back by one list.
        for v in (1..n).rev() {
            start[n + v] = start[n + v - 1];
        }
        start[n] = m;
        Pattern {
            labels,
            edges,
            adj,
            start,
            personalized,
            output,
        }
    }

    /// The interned label of every node, in node order.
    fn intern(&self, g: &Graph) -> Result<Vec<Label>, ResolveError> {
        let mut labels = Vec::with_capacity(self.node_count());
        for u in self.nodes() {
            let name = self.label_str(u);
            match g.labels().get(name) {
                Some(l) => labels.push(l),
                None => return Err(ResolveError::UnknownLabel(u, name.to_owned())),
            }
        }
        Ok(labels)
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
        let labels = self.intern(g)?;
        if g.node_label(v_anchor) != labels[self.personalized.index()] {
            return Err(ResolveError::NoPersonalizedMatch);
        }
        Ok(ResolvedPattern::new(self.clone(), labels, v_anchor))
    }

    /// Resolve against a data graph: intern labels and locate the unique
    /// match `v_p` of the personalized node. [`Pattern::into_resolved`] on
    /// a copy of `self`.
    pub fn resolve(&self, g: &Graph) -> Result<ResolvedPattern, ResolveError> {
        self.clone().into_resolved(g)
    }

    /// [`Pattern::resolve`], moving `self` into the [`ResolvedPattern`]
    /// instead of copying it — for callers done with the pattern, like the
    /// engine resolving the canonical relabeling it just built.
    pub fn into_resolved(self, g: &Graph) -> Result<ResolvedPattern, ResolveError> {
        let labels = self.intern(g)?;
        let vp = match g.nodes_with_label(labels[self.personalized.index()]) {
            [] => return Err(ResolveError::NoPersonalizedMatch),
            [v] => *v,
            _ => return Err(ResolveError::AmbiguousPersonalizedMatch),
        };
        Ok(ResolvedPattern::new(self, labels, vp))
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
    fn new(pattern: Pattern, labels: Vec<Label>, vp: NodeId) -> Self {
        let (dq, connected) = pattern.shape();
        ResolvedPattern {
            pattern,
            labels,
            vp,
            dq,
            connected,
        }
    }

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

/// Node labels back to back in one string: node `i`'s label ends at
/// `end[i]` and starts where node `i - 1`'s ends. Two allocations for any
/// number of labels, and a copy is two more.
#[derive(Debug, Default, Clone)]
struct Labels {
    text: String,
    end: Vec<usize>,
}

impl Labels {
    fn with_capacity(labels: usize, bytes: usize) -> Self {
        Labels {
            text: String::with_capacity(bytes),
            end: Vec::with_capacity(labels),
        }
    }

    fn len(&self) -> usize {
        self.end.len()
    }

    fn get(&self, i: usize) -> &str {
        let from = if i == 0 { 0 } else { self.end[i - 1] };
        &self.text[from..self.end[i]]
    }

    fn push(&mut self, label: &str) {
        self.text.push_str(label);
        self.end.push(self.text.len());
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
/// b.personalized(michael).output(cl);
/// let q = b.build();
/// assert_eq!(q.node_count(), 4);
/// assert_eq!(q.undirected_diameter(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct PatternBuilder {
    labels: Labels,
    edges: Vec<(PNode, PNode)>,
    personalized: Option<PNode>,
    output: Option<PNode>,
}

impl PatternBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder sized for `nodes` nodes whose labels total
    /// `label_bytes` bytes and `edges` edges: building a pattern of that
    /// size allocates only the buffers the [`Pattern`] keeps.
    pub fn with_capacity(nodes: usize, label_bytes: usize, edges: usize) -> Self {
        PatternBuilder {
            labels: Labels::with_capacity(nodes, label_bytes),
            edges: Vec::with_capacity(edges),
            ..Self::default()
        }
    }

    /// Add a query node with the given label.
    pub fn add_node(&mut self, label: &str) -> PNode {
        let id = PNode::new(self.labels.len());
        self.labels.push(label);
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

    /// Finish the pattern, moving the builder's label and edge buffers
    /// into it. A caller that builds twice from one builder clones it.
    ///
    /// # Panics
    /// Panics if the pattern has no nodes or the personalized/output nodes
    /// were not set.
    pub fn build(self) -> Pattern {
        assert!(self.labels.len() > 0, "pattern must have nodes");
        // invariant: documented `# Panics` contract of `build` — pattern
        // construction is an offline/setup step, not a serving-path one.
        let personalized = self.personalized.expect("personalized node not set");
        // invariant: same documented `# Panics` contract as above.
        let output = self.output.expect("output node not set");
        let mut edges = self.edges;
        edges.sort_unstable();
        edges.dedup();
        Pattern::from_parts(self.labels, edges, personalized, output)
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
    use proptest::{Just, Strategy};
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

    proptest::proptest! {
        /// Adjacency, `d_Q`, connectivity and `permuted` against plain
        /// definitions: lists filtered from the edge set, all-pairs hop
        /// distances by relaxation, and a rebuild through the builder.
        #[test]
        fn shape_and_adjacency_match_plain_definitions(
            (n, edges, order_seed) in (1usize..9).prop_flat_map(|n| {
                (Just(n), proptest::collection::vec((0..n, 0..n), 0..20), 0usize..1000)
            })
        ) {
            let mut b = PatternBuilder::new();
            let ids: Vec<_> = (0..n).map(|i| b.add_node(&format!("L{}", i % 3))).collect();
            for &(u, v) in &edges {
                b.add_edge(ids[u], ids[v]);
            }
            b.personalized(ids[0]).output(ids[n - 1]);
            let q = b.build();
            let (mut es, far) = (edges.clone(), usize::MAX / 4);
            es.sort_unstable();
            es.dedup();
            for u in 0..n {
                let kids: Vec<_> = es.iter().filter(|e| e.0 == u).map(|e| PNode::new(e.1)).collect();
                let parents: Vec<_> = es.iter().filter(|e| e.1 == u).map(|e| PNode::new(e.0)).collect();
                proptest::prop_assert_eq!(q.out(PNode::new(u)), &kids[..]);
                proptest::prop_assert_eq!(q.inn(PNode::new(u)), &parents[..]);
            }
            let mut dist: Vec<Vec<usize>> = (0..n)
                .map(|u| (0..n).map(|v| if u == v { 0 } else { far }).collect())
                .collect();
            for &(u, v) in &es {
                if u != v {
                    dist[u][v] = 1;
                    dist[v][u] = 1;
                }
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        dist[i][j] = dist[i][j].min(dist[i][k] + dist[k][j]);
                    }
                }
            }
            let connected = dist.iter().flatten().all(|&d| d < far);
            let diameter = if connected {
                dist.iter().flatten().copied().max().unwrap_or(0)
            } else {
                n - 1
            };
            proptest::prop_assert_eq!(q.is_connected(), connected);
            proptest::prop_assert_eq!(q.undirected_diameter(), diameter);

            // A rotation of the node order, rebuilt through the builder.
            let order: Vec<usize> = (0..n).map(|i| (i + order_seed) % n).collect();
            let mut inv = vec![0; n];
            for (new, &old) in order.iter().enumerate() {
                inv[old] = new;
            }
            let mut b = PatternBuilder::new();
            let ids: Vec<_> = order.iter().map(|&old| b.add_node(q.label_str(PNode::new(old)))).collect();
            for &(u, v) in q.edges() {
                b.add_edge(ids[inv[u.index()]], ids[inv[v.index()]]);
            }
            b.personalized(ids[inv[0]]).output(ids[inv[n - 1]]);
            proptest::prop_assert_eq!(format!("{:?}", q.permuted(&order)), format!("{:?}", b.build()));
        }
    }

    #[test]
    fn error_display() {
        let e = ResolveError::NoPersonalizedMatch;
        assert!(format!("{e}").contains("personalized"));
    }
}
