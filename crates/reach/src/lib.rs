#![warn(missing_docs)]
//! # rbq-reach — resource-bounded reachability (§5)
//!
//! Reachability queries are *non-localized*: deciding whether `v_p` reaches
//! `v_o` may require visiting the whole graph, and Theorem 2 shows no
//! traversal algorithm can be 100% accurate while visiting at most an
//! `α`-fraction of `G` (α < 1). This crate implements the paper's response
//! (Theorem 4): an algorithm that
//!
//! 1. visits at most `α·|G|` data using an index of size `≤ α·|G|`,
//! 2. answers in `O(α·|G|)` time, and
//! 3. returns `true` **only if** the answer is truly `true` (100% true
//!    positives, no false positives).
//!
//! Components:
//!
//! * [`compress`] — query-preserving compression (Fan et al. SIGMOD'12
//!   \[12\]): SCC condensation followed by a reachability-equivalence merge;
//! * [`hierarchy`] — the hierarchical landmark index `RBIndex` (§5.1) and
//!   the roll-up / drill-down query procedure `RBReach` (§5.2);
//! * [`bfs`] — the `BFS` and `BFSOPT` baselines of §6;
//! * [`landmark_vec`] — the `LM` landmark-vector baseline (Gubichev et al.
//!   \[13\]) with `4·log|V|` sampled landmarks.

pub mod bfs;
pub mod compress;
pub mod hierarchy;
pub mod landmark_vec;

pub use bfs::{bfs_query, BfsOptIndex};
pub use compress::{compress_for_reachability, condense_only, CompressedGraph};
pub use hierarchy::{HierarchicalIndex, IndexParams, IndexStats, ReachAnswer, SelectionStrategy};
pub use landmark_vec::LandmarkVectors;
