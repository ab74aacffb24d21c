#![warn(missing_docs)]
//! # rbq-router — sharded serving behind one front door
//!
//! The paper closes by noting its resource-bounded techniques "adapt
//! readily to distributed settings": the offline structures are built once,
//! and each query touches an `α`-bounded fragment of `G`. This crate is the
//! serving-layer half of that remark — a [`Router`] fronting `k`
//! cache-affine [`rbq_engine::Engine`] replicas over one shared graph:
//!
//! * every replica serves the same epoch — one `Arc`'d graph and the same
//!   two offline indexes — so any of them answers any query with
//!   byte-identical answers and visit counts to a standalone engine; what
//!   differs between replicas is only which answers their caches hold;
//! * the router has no write path and no read path of its own: ingest,
//!   durability and recovery ([`rbq_engine::ingest`]) and every batch
//!   ([`rbq_engine::Engine::run_batch_shared`]) are shard 0's, with the
//!   other shards as followers — one admission decision, one deadline,
//!   one scheduler, one retry of a lost worker, one settlement of the
//!   aggregate budget, one statistics fold — so a sharded deployment
//!   answers, fails, logs and recovers exactly as one engine does;
//! * every query is routed to exactly one replica by a pure function of
//!   its text and the label table — the [`Partitioner`] policy applied to
//!   the label of the personalized node (patterns) or of the source node
//!   (reachability); the shipped policy is [`LabelHashPartitioner`]. The
//!   router holds no per-node state, so live updates never re-route.
//!
//! What a router owns, then, is `k` caches and the function that picks
//! one. `Router(k) ≡ Engine(1)` for every `k`, every routing policy and
//! every thread count is pinned by the differential suite, at any budget.

pub mod partitioner;
pub mod router;

pub use partitioner::{LabelHashPartitioner, Partitioner};
pub use rbq_engine::ShardReport;
pub use router::{Router, RouterError, RouterReport};
