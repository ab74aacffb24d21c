#![warn(missing_docs)]
//! # rbq-workload — datasets and query workloads for the evaluation
//!
//! The paper evaluates on two real snapshots — **Youtube** (1.6M nodes,
//! 4.5M edges) and **Yahoo** web (3M nodes, 15M edges) — plus synthetic
//! graphs `|V| = 2M..10M, |E| = 2|V|` over a 15-label alphabet (§6). The
//! real snapshots are not redistributable, so [`generate`] provides
//! statistically matched substitutes (see `DESIGN.md` §3, "Substitutions"):
//! preferential-attachment digraphs with the same edge/node ratios and
//! label alphabet, scaled by a size parameter.
//!
//! [`queries`] mirrors the paper's query generators: patterns controlled by
//! `(|V_p|, |E_p|)` with labels drawn from the data graph and a designated
//! personalized node (every generated graph gives node 0 the unique label
//! `"ME"`), and reachability query sets sampled as ordered node pairs.
//!
//! [`mixed`] samples heterogeneous [`rbq_engine::Query`] streams (with
//! tunable repetition) for engine batch serving.

pub mod generate;
pub mod mixed;
pub mod queries;

pub use generate::{
    layered_dag, me_node, power_law, social_groups, uniform_random, yahoo_like, youtube_like,
};
pub use mixed::{sample_mixed_workload, MixedWorkloadSpec};
pub use queries::{
    extract_pattern, reachability_ground_truth, sample_hard_reachability_queries,
    sample_reachability_queries, PatternSpec,
};
