#![warn(missing_docs)]
//! # rbq-graph — graph substrate for resource-bounded querying
//!
//! This crate provides the data-graph substrate used by the `rbq` family of
//! crates, which together reproduce *"Querying Big Graphs within Bounded
//! Resources"* (Fan, Wang & Wu, SIGMOD 2014).
//!
//! A data graph is a **node-labeled directed graph** `G = (V, E, L)`
//! (paper §2). This crate supplies:
//!
//! * [`Graph`] — an immutable CSR (compressed sparse row) representation with
//!   both out- and in-adjacency, built via [`GraphBuilder`];
//! * [`LabelInterner`] — string labels interned to dense `u32` ids, and
//!   [`labels::stable_hash`], the interning-independent label hash the
//!   sharded front door routes by;
//! * [`GraphView`] — the read-only abstraction all matching algorithms are
//!   generic over, so they run unchanged on a full graph or on a subgraph
//!   of it (an induced `G[V_s]`, a dynamically grown `G_Q`);
//! * traversals ([`traverse`]) — BFS and the `reaches` baseline, with visit
//!   accounting;
//! * neighborhoods ([`neighborhood`]) — `N_r(v)` node sets (the balls of
//!   §2) through the reusable [`BallScratch`], which evaluates many balls
//!   without per-ball allocation;
//! * [`stamps`] — [`Stamps`], a dense map over `0..len` that forgets every
//!   key in O(1) by bumping an epoch: the ball BFS's visited set and
//!   `G_Q`'s membership sit on it;
//! * [`scc`] — Tarjan strongly connected components, and [`condense`] —
//!   reachability-preserving DAG condensation (the first half of the
//!   query-preserving compression of §5);
//! * [`delta`] — live updates: [`DeltaBatch`] edge/node batches applied via
//!   a CSR overlay with threshold-triggered compaction, the substrate for
//!   serving under churn;
//! * [`topo`] — topological ranks `v.r` on DAGs (auxiliary info of §5.1);
//! * [`subgraph`] — [`subgraph::DynamicSubgraph`], the one subgraph view:
//!   grown incrementally as `G_Q`, or induced by a node set in one call;
//! * [`stats`] — degree and label statistics (`d_G`, `l`, `f` of Theorem 3);
//! * [`io`] — a plain-text edge-list interchange format, plus the atomic
//!   write-temp-then-rename helper every durable artifact goes through;
//! * [`codec`] — the table of every `#rbq-*` file format and the framing
//!   they share (magic line, little-endian fields, CRC trailer, record
//!   frame, the one [`FormatError`]);
//! * [`snapshot`] — a versioned, checksummed binary snapshot of the
//!   compacted CSR (the mmap-loader precursor of ROADMAP item 5), and
//! * [`wal`] — a length-prefixed, per-record-CRC append-only log of
//!   [`DeltaBatch`]es whose replay stops at a torn tail: together the
//!   durability substrate for crash-recoverable serving.

pub mod builder;
pub mod cancel;
pub mod codec;
pub mod condense;
pub mod delta;
pub mod faultpoint;
pub mod graph;
pub mod io;
pub mod labels;
pub mod neighborhood;
pub mod scc;
pub mod snapshot;
pub mod stamps;
pub mod stats;
pub mod subgraph;
pub mod topo;
pub mod traverse;
pub mod types;
pub mod view;
pub mod wal;

pub use builder::GraphBuilder;
pub use cancel::{CancelPanic, CancelTicker, CancelToken};
pub use codec::FormatError;
pub use delta::{DeltaBatch, DeltaError, DeltaOp, DeltaReport};
pub use faultpoint::Point;
pub use graph::Graph;
pub use labels::LabelInterner;
pub use neighborhood::BallScratch;
pub use snapshot::{load_snapshot, write_snapshot};
pub use stamps::Stamps;
pub use subgraph::{DynamicSubgraph, SubgraphScratch};
pub use types::{Label, NodeId};
pub use view::{GraphView, NodeIds};
pub use wal::{replay as wal_replay, WalReplay, WalWriter};
