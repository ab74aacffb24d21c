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
//! The build grows the forest as `Landmark` records, then freezes it
//! (`build::freeze`) into the one representation a query reads, a
//! `Forest`: flat per-landmark tables (node, level, parent and edge
//! direction, the Lemma 5(2) guard, the weight's two terms), children as
//! rows, and per side one **pre-sorted expansion list** per landmark — its
//! composing parent, its composing children and its first-hit hops,
//! ordered by *static* weight (the weight with no child active), then id,
//! both descending.
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
//!
//! Expanding a landmark pushes one **run cursor** over its sorted list
//! rather than every target, plus, on their own, the few targets whose
//! weight differs from the static one because a child of theirs is active.
//! A query seeded at a root with thousands of children therefore pays for
//! the candidates it pops. Pops — and so every verdict and visit count —
//! are those of pushing every target; [`query`] gives the argument.

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

/// One landmark-id list per key (a DAG node or a landmark), in one
/// allocation: key `i`'s list is `data[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LmRows {
    offsets: Vec<u32>,
    data: Vec<LmId>,
}

impl Default for LmRows {
    fn default() -> Self {
        LmRows {
            offsets: vec![0],
            data: Vec::new(),
        }
    }
}

impl LmRows {
    /// The list of key `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[LmId] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Append the next key's list.
    ///
    /// # Panics
    /// Panics if the table would outgrow its `u32` offsets.
    pub fn push(&mut self, row: &[LmId]) {
        self.data.extend_from_slice(row);
        assert!(
            self.data.len() <= u32::MAX as usize,
            "landmark-id rows overflow their u32 offsets"
        );
        self.offsets.push(self.data.len() as u32);
    }

    /// Entries over all lists.
    pub fn entries(&self) -> usize {
        self.data.len()
    }
}

/// A landmark as the build grows it: a DAG node promoted into the index
/// forest. [`build::freeze`] turns the finished records into a [`Forest`].
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
}

/// The Lemma 5(2) guard of one landmark: its own topological rank and the
/// range `[r1, r2]` over its subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Guard {
    pub rank: u32,
    pub range: (u32, u32),
}

/// The s-side (`fwd`) row of [`Forest::expand`].
pub(crate) const FWD: usize = 0;
/// The t-side row of [`Forest::expand`].
pub(crate) const BWD: usize = 1;

/// The finished forest as the query reads it: flat per-landmark tables,
/// indexed by [`LmId`], and one pre-sorted expansion list per landmark and
/// side. There is no other copy of the forest in a built index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Forest {
    /// The DAG node each landmark stands for.
    pub node: Vec<NodeId>,
    /// Forest level (leaves = 1).
    pub level: Vec<u32>,
    /// Parent landmark, or [`NO_LM`] at a root.
    pub parent: Vec<LmId>,
    /// See [`Landmark::parent_reaches_child`].
    pub parent_reaches_child: Vec<bool>,
    /// Rank and subtree range: the usefulness guard.
    pub guard: Vec<Guard>,
    /// `(v.cs, c(v))`: the two terms of the weight `p(v)/(c(v)+1)`.
    pub terms: Vec<(u64, u32)>,
    /// Child landmarks, in the order promotion hung them.
    pub children: LmRows,
    /// Heap key of the *static* weight — the weight with no child active.
    pub key: Vec<u64>,
    /// Per side ([`FWD`], [`BWD`]): every landmark's expansion targets —
    /// the parent where the tree edge composes with the side, the children
    /// whose edge does, and the first-hit hops — deduplicated and sorted by
    /// `(key, id)` descending, the order the search pops them in.
    pub expand: [LmRows; 2],
}

impl Forest {
    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.node.len()
    }
}
