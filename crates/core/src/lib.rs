#![warn(missing_docs)]
//! # rbq-core — resource-bounded query answering
//!
//! The primary contribution of *"Querying Big Graphs within Bounded
//! Resources"* (Fan, Wang & Wu, SIGMOD 2014): answer a query `Q` over a big
//! graph `G` by **dynamic reduction** — extract a query-specific fraction
//! `G_Q` with `|G_Q| ≤ α·|G|` while visiting a bounded amount of data, then
//! evaluate `Q(G_Q)` as an approximate (often exact) answer.
//!
//! * [`budget`] — the resource ratio `α`, the visiting coefficient `c`, and
//!   budget/visit accounting;
//! * [`neighbor_index`] — the once-for-all offline auxiliary structure
//!   (per-node degrees and neighbor-label summaries `S_l`, §4.1);
//! * [`guard`] — the guarded conditions `C(v, u)`, dynamic costs `c(v, u)`
//!   and potentials `p(v, u)` for both simulation (§4.1) and subgraph
//!   isomorphism (§4.2) semantics;
//! * [`reduction`] — the `Search`/`Pick` procedures of Fig. 3, generic over
//!   the matching semantics;
//! * [`rbsim`](mod@rbsim) — **RBSim**: resource-bounded strong simulation (Theorem 3);
//! * [`rbsub`](mod@rbsub) — **RBSub**: resource-bounded subgraph isomorphism;
//! * [`accuracy`] — the precision / recall / F-measure accuracy metrics of
//!   §3, for pattern answers and reachability query sets.

pub mod accuracy;
pub mod budget;
pub mod guard;
pub mod neighbor_index;
pub mod rbsim;
pub mod rbsim_any;
pub mod rbsub;
pub mod reduction;

pub use accuracy::{pattern_accuracy, reachability_accuracy, Accuracy};
pub use budget::ResourceBudget;
pub use neighbor_index::NeighborIndex;
pub use rbsim::{rbsim, rbsim_with, PatternScratch};
pub use rbsim_any::{rbsim_any, AnyAnswer, AnyConfig};
pub use rbsub::{rbsub, rbsub_scratch, rbsub_with};
pub use reduction::{
    search_reduced_graph, search_reduced_graph_scratch, search_reduced_graph_with, PatternAnswer,
    PickPolicy, ReductionConfig, ReductionOutcome, ReductionScratch,
};
