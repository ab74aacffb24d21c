#![warn(missing_docs)]
//! # rbq-engine — a concurrent mixed-workload query engine
//!
//! The paper answers one query at a time within an `α`-bounded budget;
//! serving *traffic* needs an engine that amortizes the offline structures
//! across a stream of heterogeneous queries. This crate provides it:
//!
//! * a unified [`Query`] enum (reachability / simulation / isomorphism)
//!   and [`Answer`] type, with a one-line text serialization for query
//!   files;
//! * an [`Engine`] owning `Arc`-shared immutable structures — the graph,
//!   the [`rbq_core::NeighborIndex`] (§4.1), and the
//!   [`rbq_reach::HierarchicalIndex`] (§5.1) — each built lazily on the
//!   first query of its class;
//! * per-query **and** aggregate [`rbq_core::ResourceBudget`] accounting:
//!   every pattern query runs under the configured `α` budget, and an
//!   optional batch-level aggregate visit budget is settled
//!   deterministically in input order (excess answers come back
//!   [`Answer::Denied`]);
//! * a bounded, O(1) LRU **reduction cache** keyed by canonical pattern
//!   form ([`canonical`]) and graph generation, so repeated or isomorphic
//!   queries reuse their `G_Q` answer byte-for-byte and no post-mutation
//!   lookup can surface a pre-mutation answer. A memo in front of it
//!   remembers each raw pattern's canonical form, so a repeat costs one
//!   probe under one lock: no canonicalisation, no label resolution, no
//!   allocation but the copy of the matches it returns;
//! * **live updates** ([`Engine::apply_deltas`], [`ingest`]): a
//!   [`rbq_graph::DeltaBatch`] swaps in a new epoch — graph plus rebuilt
//!   indexes — while in-flight queries drain on the old one, with a
//!   versioned `#rbq-deltas` wire format ([`wire::parse_delta_file`]).
//!   [`ingest`] is the only write path in the workspace: apply → WAL
//!   append + fsync ([`durability`]) → index rebuild → install →
//!   checkpoint, under one writer lock, for a single engine or — with
//!   [`Engine::replica`]s as followers — for every shard of a router;
//! * the only batch pipeline in the workspace
//!   ([`Engine::run_batch_shared`]; [`Engine::run_batch`] is it with no
//!   followers): admission → schedule → contain → record → settle, for a
//!   single engine or — with replicas as followers, as on the write side —
//!   for every shard of a router. `std::thread::scope` workers claim
//!   queries off their replica's atomic cursor, a lost worker's claims
//!   are retried once on the calling thread, answers return in input
//!   order and are identical for any thread or replica count, and
//!   [`EngineStats`] reports visits, cache hit rate and per-class latency.

mod cache;
pub mod canonical;
pub mod durability;
pub mod engine;
pub mod error;
pub mod ingest;
pub mod query;
pub mod wire;

pub use canonical::canonical_pattern;
pub use durability::{ApplyError, Durability, DurabilityError, RecoveryReport};
pub use engine::{
    settle_aggregate, AdmissionPolicy, AggregateSettlement, BatchReport, BudgetSpec, ClassStats,
    Engine, EngineConfig, EngineStats, ShardReport,
};
pub use error::{EngineError, QueryParseError};
pub use query::{Answer, Query, QueryClass, QueryResult};
pub use rbq_graph::faultpoint;
pub use wire::{WireWriteError, QUERY_FILE_HEADER};
