//! The hierarchical landmark index (`RBIndex`, §5.1) and its
//! resource-bounded query procedure (`RBReach`, §5.2).
//!
//! ## Structure
//!
//! After query-preserving compression reduces `G` to a DAG, `RBIndex`
//! selects `⌊α|G|/2⌋` landmarks greedily by `deg·rank` (high topological
//! rank × high degree ≈ covers many connected pairs), organizes them into a
//! forest of at most `⌊log_a |G|⌋+1` levels (`a = ⌊2/α⌋`) by repeatedly
//! promoting the best landmarks of each level's *landmark graph* (nodes =
//! landmarks, edges = reachability), and annotates every landmark with:
//!
//! * its **cover size** `v.cs` (≈ ancestors × descendants — how many
//!   connected pairs it covers),
//! * its **topological range** `v.R = [r1, r2]` over the subtree (the
//!   pruning guard of Lemma 5(2)),
//! * the **direction** of each tree edge (whether parent reaches child or
//!   vice versa — the paper's `<0/1, ·, ·>` labels).
//!
//! Every graph node also carries label sets `v.E`: the *first-hit*
//! landmarks reachable from / reaching `v` along landmark-free paths.
//!
//! ## Querying
//!
//! `RBReach` runs a bidirectional, weight-ordered search over the index
//! only: `s.Active` grows landmarks certified reachable *from* `s`,
//! `t.Active` grows landmarks certified to reach `t`; any intersection
//! proves `s → t` (Lemma 5(1)). Expansion rolls up / drills down tree edges
//! and follows first-hit hop labels, ranked by `p(v)/(c(v)+1)` where `p` is
//! the remaining cover size and `c` the remaining subtree size. The search
//! visits at most `α|G|` data and never reports a false positive
//! (Theorem 4).

pub mod build;
pub mod query;
#[cfg(test)]
mod reference;

pub use build::{HierarchicalIndex, IndexParams, IndexStats, SelectionStrategy};
pub use query::{ReachAnswer, ReachScratch};

use rbq_graph::NodeId;

/// Dense landmark identifier within an index.
pub(crate) type LmId = u32;

/// "Not a landmark" in per-node landmark-id arrays.
pub(crate) const NO_LM: LmId = LmId::MAX;

/// One sorted landmark-id list per DAG node, in one allocation: node `v`'s
/// list is `data[offsets[v]..offsets[v + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LabelRows {
    pub offsets: Vec<usize>,
    pub data: Vec<LmId>,
}

impl LabelRows {
    /// The list of DAG node `v`.
    #[inline]
    pub fn row(&self, v: NodeId) -> &[LmId] {
        &self.data[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }
}

/// A landmark: a DAG node promoted into the index forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Landmark {
    /// The DAG node this landmark stands for.
    pub node: NodeId,
    /// Forest level (leaves = 1).
    pub level: u32,
    /// Parent landmark in the forest, if any.
    pub parent: Option<LmId>,
    /// Direction of the edge to the parent: `true` if the parent reaches
    /// this landmark in the DAG, `false` if this landmark reaches the
    /// parent. (Exactly one holds: the DAG is acyclic.)
    pub parent_reaches_child: bool,
    /// Child landmarks in the forest.
    pub children: Vec<LmId>,
    /// Cover-size estimate `v.cs` (ancestors × descendants, saturating).
    pub cs: u64,
    /// Topological rank of `node` in the DAG.
    pub rank: u32,
    /// Topological range `[r1, r2]` over the forest subtree rooted here.
    pub range: (u32, u32),
    /// Number of landmarks in the subtree rooted here (cost `c(v)`).
    pub subtree_size: u32,
    /// First-hit landmark hops: landmarks reachable from this landmark via
    /// landmark-free paths (forward), and reaching it (backward).
    pub hop_fwd: Vec<LmId>,
    /// See [`Landmark::hop_fwd`].
    pub hop_bwd: Vec<LmId>,
}
