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
//! * the router has no write path of its own: ingest, durability and
//!   recovery are shard 0's ([`rbq_engine::ingest`]), with the other
//!   shards following it through every batch, so a sharded deployment
//!   fails, logs and recovers exactly as one engine does;
//! * every query is routed to exactly one replica by a pure function of
//!   its text and the label table — the [`Partitioner`] policy applied to
//!   the label of the personalized node (patterns) or of the source node
//!   (reachability); the shipped policy is [`LabelHashPartitioner`]. The
//!   router holds no per-node state, so live updates never re-route;
//! * per-shard answers are merged back **deterministically**: results
//!   scatter to input order, per-shard [`rbq_engine::EngineStats`] fold
//!   together, and the batch's aggregate visit budget is settled once at
//!   the front door (in input order, via [`rbq_engine::settle_aggregate`])
//!   so [`rbq_engine::Answer::Denied`] falls on exactly the same queries as
//!   a single engine would deny.
//!
//! `Router(k) ≡ Engine(1)` for every `k` and every routing policy is pinned
//! by the differential suite, at any budget.

pub mod partitioner;
pub mod router;

pub use partitioner::{LabelHashPartitioner, Partitioner};
pub use router::{Router, RouterError, RouterReport, ShardReport};
