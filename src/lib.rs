#![warn(missing_docs)]
//! # rbq — Querying Big Graphs within Bounded Resources
//!
//! Facade crate re-exporting the full `rbq` workspace: a Rust implementation
//! of *"Querying Big Graphs within Bounded Resources"* (Fan, Wang & Wu,
//! SIGMOD 2014).
//!
//! Given a query `Q`, a graph `G`, and a resource ratio `α ∈ (0, 1)`, the
//! library answers `Q` while visiting only an `α`-bounded fraction of `G`:
//!
//! * [`rbq_core::rbsim`](mod@rbq_core::rbsim) /
//!   [`rbq_core::rbsub`](mod@rbq_core::rbsub) — resource-bounded graph
//!   pattern matching (strong simulation / subgraph isomorphism);
//! * [`rbq_reach`] — resource-bounded reachability via a hierarchical
//!   landmark index;
//! * [`rbq_pattern`] — the unbounded baselines (`Match`, `MatchOpt`, `VF2`,
//!   `VF2OPT`);
//! * [`rbq_graph`] — the graph substrate;
//! * [`rbq_engine`] — the concurrent mixed-workload engine: shared lazy
//!   indexes, a canonical-signature reduction cache, batch scheduling
//!   with per-query plus aggregate budget accounting, typed errors, and
//!   the versioned query/answer wire format;
//! * [`rbq_router`] — sharded serving: a partition-aware router fanning
//!   batches across per-shard engine replicas with deterministic merge
//!   (`Router(k) ≡ Engine(1)`, pinned differentially);
//! * [`rbq_workload`] — synthetic datasets and query generators mirroring
//!   the paper's evaluation, including mixed engine workloads.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use rbq_core;
pub use rbq_engine;
pub use rbq_graph;
pub use rbq_pattern;
pub use rbq_reach;
pub use rbq_router;
pub use rbq_workload;
