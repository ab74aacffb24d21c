//! The router: replica construction and per-query routing. Batches run on
//! the engine's one pipeline ([`Engine::run_batch_shared`]).

use crate::partitioner::Partitioner;
use rbq_engine::{
    ApplyError, BatchReport, DurabilityError, Engine, EngineConfig, EngineError, EngineStats,
    Query, RecoveryReport,
};
use rbq_graph::{DeltaBatch, DeltaReport, Graph};
use std::path::Path;
use std::sync::Arc;

/// Errors constructing or operating a [`Router`].
#[derive(Debug)]
pub enum RouterError {
    /// A shard count of zero.
    InvalidShards,
    /// The engine configuration was rejected (wrapped losslessly).
    Engine(EngineError),
    /// [`Router::apply_deltas`] failed (wrapped losslessly): the engine's
    /// one ingest policy decides what was and was not installed, see
    /// [`ApplyError`].
    Apply(ApplyError),
    /// Seeding or recovering the durable state failed (wrapped losslessly).
    Durability(DurabilityError),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::InvalidShards => write!(f, "shard count must be >= 1"),
            RouterError::Engine(e) => write!(f, "{e}"),
            RouterError::Apply(e) => write!(f, "{e}"),
            RouterError::Durability(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::InvalidShards => None,
            RouterError::Engine(e) => Some(e),
            RouterError::Apply(e) => Some(e),
            RouterError::Durability(e) => Some(e),
        }
    }
}

impl From<EngineError> for RouterError {
    fn from(e: EngineError) -> Self {
        RouterError::Engine(e)
    }
}

impl From<ApplyError> for RouterError {
    fn from(e: ApplyError) -> Self {
        RouterError::Apply(e)
    }
}

impl From<DurabilityError> for RouterError {
    fn from(e: DurabilityError) -> Self {
        RouterError::Durability(e)
    }
}

/// Result of [`Router::run_batch`]: the engine's own report, one
/// [`crate::ShardReport`] per shard.
pub type RouterReport = BatchReport;

/// A sharded serving front: `k` cache-affine engine replicas over
/// `Arc`-shared immutable structures, each query served by one of them.
///
/// A router is a constructor, a routing function and a handful of one-line
/// delegations. Construction pays the offline cost once — both offline
/// indexes (§4.1 neighbor index, §5.1 reachability index) are built eagerly
/// on shard 0 and every other shard is a [`Engine::replica`] of it, serving
/// the same epoch. Routing is a pure function of the query
/// ([`Router::route`]); the router holds no per-node routing state. It has
/// no read path and no write path of its own: batches, ingest, durability,
/// recovery and statistics are shard 0's, with the other shards riding
/// along as followers. What it owns is `k` caches and which of them sees a
/// query.
pub struct Router {
    /// The graph every shard serves, kept here so [`Router::route`] reads
    /// labels without taking a shard's epoch lock.
    g: Arc<Graph>,
    policy: &'static dyn Partitioner,
    /// `shards[0]` leads: it owns the durable state, the front-door
    /// configuration and the lifetime statistics; `shards[1..]` follow it
    /// through every batch and every ingest.
    shards: Vec<Engine>,
}

impl Router {
    /// A router over `g` with `shards` replicas, routed by `partitioner`
    /// (kept for the router's lifetime, hence `'static` — which a
    /// `&LabelHashPartitioner` literal already is).
    ///
    /// `cfg` is the front-door configuration, exactly as a single engine
    /// would read it: one deadline, one admission decision and one
    /// aggregate budget per batch, and worker threads divided across the
    /// shards (`max(1, threads / k)` each, so a fanned-out batch uses about
    /// the configured parallelism in total).
    pub fn new(
        g: Arc<Graph>,
        cfg: EngineConfig,
        shards: usize,
        partitioner: &'static dyn Partitioner,
    ) -> Result<Router, RouterError> {
        check(&cfg, shards)?;
        Ok(Router::over(Engine::new(g, cfg), shards, partitioner))
    }

    /// Recover a sharded deployment from a durability directory: shard 0
    /// recovers it ([`Engine::recover`]) and keeps logging further ingest
    /// there; the other shards are built over the recovered state.
    pub fn recover(
        dir: &Path,
        cfg: EngineConfig,
        shards: usize,
        partitioner: &'static dyn Partitioner,
    ) -> Result<(Router, RecoveryReport), RouterError> {
        check(&cfg, shards)?;
        let (lead, report) = Engine::recover(dir, cfg)?;
        Ok((Router::over(lead, shards, partitioner), report))
    }

    /// Build the deployment around its lead shard: pay for both offline
    /// indexes once, then replicate — identical `Arc`'d indexes are what
    /// make shard answers byte-identical to a standalone engine's.
    fn over(lead: Engine, shards: usize, policy: &'static dyn Partitioner) -> Router {
        lead.neighbor_index();
        lead.reach_index();
        let followers: Vec<Engine> = (1..shards).map(|_| lead.replica()).collect();
        Router {
            g: lead.graph(),
            policy,
            shards: std::iter::once(lead).chain(followers).collect(),
        }
    }

    /// Enable durability on shard 0 ([`Engine::enable_durability`]): one
    /// log for the whole deployment, appended and fsynced before any shard
    /// installs the new epoch.
    pub fn enable_durability(&self, dir: &Path) -> Result<(), RouterError> {
        Ok(self.shards[0].enable_durability(dir)?)
    }

    /// Whether durability is currently enabled.
    pub fn durability_enabled(&self) -> bool {
        self.shards[0].durability_enabled()
    }

    /// Apply a delta batch to the whole sharded deployment: the engine's
    /// ingest pipeline ([`Engine::apply_deltas_shared`]) led by shard 0
    /// with every other shard as a follower — the delta applied, logged
    /// and indexed **once**, the one new epoch installed on all shards or
    /// on none. Routing needs no update: it is a function of the query and
    /// the post-delta label table, so a node or label the batch adds
    /// routes exactly as a fresh router would route it. Batches already in
    /// flight on shard engines drain on their pinned pre-delta epochs.
    ///
    /// Requires `&mut self`: the graph swaps atomically with respect to
    /// [`Router::run_batch`] borrows.
    pub fn apply_deltas(&mut self, batch: &DeltaBatch) -> Result<DeltaReport, RouterError> {
        let result = self.shards[0].apply_deltas_shared(batch, &self.shards[1..]);
        // Unconditionally: a checkpoint failure is an `Err` with the batch
        // installed.
        self.g = self.shards[0].graph();
        Ok(result?)
    }

    /// Lifetime statistics across every batch served (shard 0 leads every
    /// batch and absorbs it).
    pub fn stats(&self) -> EngineStats {
        self.shards[0].stats()
    }

    /// The shard that serves `q` — the only shard that will evaluate it. A
    /// pure function of the query and the current label table:
    ///
    /// * A pattern routes by the label **string** of its personalized
    ///   node, whether or not the graph knows that label or holds a unique
    ///   match for it — an unlocatable anchor is answered by whichever
    ///   replica the policy names, with exactly the error a single engine
    ///   would return.
    /// * Reachability routes by the label of its **source** node; an
    ///   out-of-range source routes to shard 0 (same error as a single
    ///   engine, again).
    ///
    /// The policy's value is reduced `mod k`, never used as a raw index.
    pub fn route(&self, q: &Query) -> usize {
        let label = match q {
            Query::Reach { source, .. } if source.index() < self.g.node_count() => {
                self.g.node_label_str(*source)
            }
            Query::Reach { .. } => return 0,
            Query::PatternSim { pattern } | Query::PatternIso { pattern } => {
                pattern.label_str(pattern.personalized())
            }
        };
        let k = self.shards.len();
        self.policy.shard(label, k) % k
    }

    /// Answer a batch of heterogeneous queries across the shards: the
    /// engine's batch pipeline ([`Engine::run_batch_shared`]) led by shard
    /// 0 with every other shard as a follower and [`Router::route`] as the
    /// routing function. Answers, visit counts, denials and charged visits
    /// are byte-identical to a single engine running the same batch — for
    /// any shard count and any routing policy — and a lost worker is
    /// retried exactly as a single engine retries it.
    pub fn run_batch(&self, queries: &[Query]) -> RouterReport {
        self.shards[0].run_batch_shared(queries, &self.shards[1..], &|q| self.route(q))
    }
}

/// Whether a front-door `cfg` can serve `shards` replicas, or why not.
fn check(cfg: &EngineConfig, shards: usize) -> Result<(), RouterError> {
    if shards == 0 {
        return Err(RouterError::InvalidShards);
    }
    Ok(cfg.validate()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::LabelHashPartitioner;
    use rbq_engine::{Answer, BudgetSpec, QueryResult};
    use rbq_graph::{DeltaError, GraphBuilder, NodeId};
    use rbq_pattern::PatternBuilder;
    use std::time::Duration;

    /// The shipped policy plus adversarial ones: `Router(k) ≡ Engine(1)` is a
    /// claim about every routing function, not just the label hash.
    struct Policy(fn(&str, usize) -> usize);
    impl Partitioner for Policy {
        fn shard(&self, label: &str, shards: usize) -> usize {
            (self.0)(label, shards)
        }
    }
    const POLICIES: [&dyn Partitioner; 4] = [
        &LabelHashPartitioner,
        &Policy(|_, _| 0),
        &Policy(|label, _| label.len()),
        // Always ≥ k: only the router's `mod k` keeps it an index.
        &Policy(|label, k| k + label.len()),
    ];

    fn fig1_graph() -> Arc<Graph> {
        let mut b = GraphBuilder::new();
        let michael = b.add_node("Michael");
        let hg = b.add_node("HG");
        let cc = b.add_node("CC");
        let cl = b.add_node("CL");
        b.add_edge(michael, hg);
        b.add_edge(michael, cc);
        b.add_edge(cc, cl);
        b.add_edge(hg, cl);
        Arc::new(b.build())
    }

    fn cfg() -> EngineConfig {
        EngineConfig {
            pattern_budget: BudgetSpec::Ratio(1.0),
            reach_alpha: 1.0,
            threads: 2,
            ..Default::default()
        }
    }

    fn pattern_query(label: &str) -> Query {
        let mut b = PatternBuilder::new();
        let u = b.add_node(label);
        b.personalized(u).output(u);
        Query::PatternSim { pattern: b.build() }
    }

    /// A batch of one query, for its one result.
    fn run(router: &Router, q: &Query) -> QueryResult {
        router.run_batch(std::slice::from_ref(q)).results.remove(0)
    }

    #[test]
    fn zero_shards_rejected() {
        let Err(err) = Router::new(fig1_graph(), cfg(), 0, &LabelHashPartitioner) else {
            panic!("zero shards accepted");
        };
        assert!(matches!(err, RouterError::InvalidShards));
    }

    #[test]
    fn bad_config_surfaces_typed() {
        let bad = EngineConfig {
            reach_alpha: 0.0,
            ..cfg()
        };
        match Router::new(fig1_graph(), bad, 2, &LabelHashPartitioner) {
            Err(RouterError::Engine(EngineError::InvalidAlpha { .. })) => {}
            Err(other) => panic!("expected typed alpha error, got {other:?}"),
            Ok(_) => panic!("bad config accepted"),
        }
    }

    #[test]
    fn reach_routes_to_source_owner() {
        let g = fig1_graph();
        let router = Router::new(g.clone(), cfg(), 3, &LabelHashPartitioner).unwrap();
        for v in g.nodes() {
            let q = Query::Reach {
                source: v,
                target: NodeId(0),
            };
            assert_eq!(
                router.route(&q),
                LabelHashPartitioner.shard(g.node_label_str(v), 3)
            );
        }
        // Out-of-range source falls back to shard 0.
        let q = Query::Reach {
            source: NodeId(99),
            target: NodeId(0),
        };
        assert_eq!(router.route(&q), 0);
    }

    /// A pattern routes by its anchor's label string alone — an unknown
    /// label included (by hash, not to shard 0); whichever replica gets it
    /// answers with the same error `Engine(1)` would produce.
    #[test]
    fn pattern_routes_to_anchor_owner() {
        let router = Router::new(fig1_graph(), cfg(), 3, &LabelHashPartitioner).unwrap();
        for label in ["Michael", "NoSuchLabel"] {
            assert_eq!(
                router.route(&pattern_query(label)),
                LabelHashPartitioner.shard(label, 3)
            );
        }
        let r = run(&router, &pattern_query("NoSuchLabel"));
        assert!(matches!(r.answer, Answer::Error(_)));
        // Out-of-range policy values are reduced, never used as an index.
        let past_k = &Policy(|label, k| k + label.len());
        let router = Router::new(fig1_graph(), cfg(), 3, past_k).unwrap();
        assert_eq!(router.route(&pattern_query("Michael")), (3 + 7) % 3);
    }

    /// A routed batch of one query records exactly what `Engine::run`
    /// records.
    #[test]
    fn run_stats_match_single_engine() {
        let reach = Query::Reach {
            source: NodeId(0),
            target: NodeId(3),
        };
        // A reach, a pattern miss, the same pattern again (a hit), an error.
        let stream = [
            reach,
            pattern_query("Michael"),
            pattern_query("Michael"),
            pattern_query("NoSuchLabel"),
        ];
        let engine = Engine::new(fig1_graph(), cfg());
        for q in &stream {
            engine.run(q);
        }
        let mut want = engine.stats();
        assert_eq!((want.cache_hits, want.cache_misses, want.errors), (1, 1, 1));
        for k in [1usize, 2, 4] {
            let router = Router::new(fig1_graph(), cfg(), k, &LabelHashPartitioner).unwrap();
            for q in &stream {
                run(&router, q);
            }
            // Latency is the one schedule-dependent field.
            let mut got = router.stats();
            for s in [&mut want, &mut got] {
                s.reach.latency = Duration::ZERO;
                s.sim.latency = Duration::ZERO;
                s.iso.latency = Duration::ZERO;
            }
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn batch_matches_single_engine() {
        let g = fig1_graph();
        let queries = vec![
            Query::Reach {
                source: NodeId(0),
                target: NodeId(3),
            },
            pattern_query("Michael"),
            Query::Reach {
                source: NodeId(3),
                target: NodeId(0),
            },
            pattern_query("NoSuchLabel"),
        ];
        let engine = Engine::new(g.clone(), cfg());
        let baseline = engine.run_batch(&queries);
        for partitioner in POLICIES {
            for k in [1usize, 2, 4] {
                let router = Router::new(g.clone(), cfg(), k, partitioner).unwrap();
                let report = router.run_batch(&queries);
                assert_eq!(report.per_shard.len(), k);
                assert_eq!(
                    report.per_shard.iter().map(|s| s.routed).sum::<usize>(),
                    queries.len()
                );
                for (i, (a, b)) in baseline.results.iter().zip(&report.results).enumerate() {
                    assert_eq!(a.answer, b.answer, "answer {i} diverged at k={k}");
                    assert_eq!(a.visits, b.visits, "visits {i} diverged at k={k}");
                }
                assert_eq!(report.stats.queries, baseline.stats.queries);
                assert_eq!(report.stats.errors, baseline.stats.errors);
                assert_eq!(report.stats.total_visits, baseline.stats.total_visits);
                assert_eq!(report.stats.charged_visits, baseline.stats.charged_visits);
            }
        }
    }

    #[test]
    fn empty_batch() {
        let router = Router::new(fig1_graph(), cfg(), 2, &LabelHashPartitioner).unwrap();
        let report = router.run_batch(&[]);
        assert!(report.results.is_empty());
        assert_eq!(report.stats.queries, 0);
        assert_eq!(report.per_shard.len(), 2);
    }

    #[test]
    fn lifetime_stats_accumulate() {
        let router = Router::new(fig1_graph(), cfg(), 2, &LabelHashPartitioner).unwrap();
        let qs = [Query::Reach {
            source: NodeId(0),
            target: NodeId(1),
        }];
        router.run_batch(&qs);
        router.run_batch(&qs);
        assert_eq!(router.stats().queries, 2);
    }

    #[test]
    fn apply_deltas_matches_fresh_router() {
        let queries = vec![
            Query::Reach {
                source: NodeId(0),
                target: NodeId(3),
            },
            pattern_query("Michael"),
            pattern_query("Newcomer"),
        ];
        let mut batch = DeltaBatch::new();
        let rank = batch.add_node("Newcomer");
        batch.add_edge(NodeId(3), NodeId(4 + rank as u32));
        batch.remove_edge(NodeId(1), NodeId(3));

        for partitioner in POLICIES {
            for k in [1usize, 2, 4] {
                let mut live = Router::new(fig1_graph(), cfg(), k, partitioner).unwrap();
                let newcomer_before = live.route(&queries[2]);
                let report = live.apply_deltas(&batch).unwrap();
                assert_eq!(report.nodes_added, 1);
                assert_eq!(report.edges_added, 1);
                assert_eq!(report.edges_removed, 1);

                let (g2, _) = fig1_graph().apply_delta(&batch).unwrap();
                let fresh = Router::new(Arc::new(g2), cfg(), k, partitioner).unwrap();

                // Nothing to re-resolve: identical routing for every query,
                // including the one anchored at the label the batch
                // introduced — where it already routed before the batch.
                for q in &queries {
                    assert_eq!(live.route(q), fresh.route(q), "routing diverged at k={k}");
                }
                assert_eq!(live.route(&queries[2]), newcomer_before);
                assert_eq!(newcomer_before, partitioner.shard("Newcomer", k) % k);
                let a = live.run_batch(&queries);
                let b = fresh.run_batch(&queries);
                for (i, (x, y)) in a.results.iter().zip(&b.results).enumerate() {
                    assert_eq!(x.answer, y.answer, "answer {i} diverged at k={k}");
                    assert_eq!(x.visits, y.visits, "visits {i} diverged at k={k}");
                }
            }
        }
    }

    #[test]
    fn apply_deltas_rejects_bad_batch() {
        let mut router = Router::new(fig1_graph(), cfg(), 2, &LabelHashPartitioner).unwrap();
        let mut batch = DeltaBatch::new();
        batch.add_edge(NodeId(0), NodeId(99));
        match router.apply_deltas(&batch) {
            Err(RouterError::Apply(ApplyError::Delta(DeltaError::EdgeOutOfRange { .. }))) => {}
            other => panic!("expected typed delta error, got {other:?}"),
        }
        // Nothing changed: the old graph still serves.
        assert_eq!(
            router.run_batch(&[pattern_query("Michael")]).results.len(),
            1
        );
    }

    #[test]
    fn expired_deadline_times_out_every_shard() {
        let g = fig1_graph();
        let queries = vec![
            Query::Reach {
                source: NodeId(0),
                target: NodeId(3),
            },
            pattern_query("Michael"),
            pattern_query("CL"),
        ];
        let zero = EngineConfig {
            batch_timeout: Some(Duration::ZERO),
            ..cfg()
        };
        for k in [1usize, 2, 4] {
            let router = Router::new(g.clone(), zero.clone(), k, &LabelHashPartitioner).unwrap();
            let report = router.run_batch(&queries);
            for (i, r) in report.results.iter().enumerate() {
                assert_eq!(
                    r.answer,
                    Answer::TimedOut,
                    "query {i} not timed out at k={k}"
                );
            }
            assert_eq!(report.stats.timed_out, 3);
            // Still healthy afterwards: a router without the deadline
            // serves a clean single query.
            let healthy = Router::new(g.clone(), cfg(), k, &LabelHashPartitioner).unwrap();
            assert!(run(&healthy, &queries[0]).answer.is_ok());
        }
    }

    #[test]
    fn sjf_admission_matches_single_engine() {
        let g = fig1_graph();
        let sjf = EngineConfig {
            aggregate_visit_budget: Some(5),
            admission: rbq_engine::AdmissionPolicy::ShortestJobFirst,
            ..cfg()
        };
        let queries = vec![
            Query::Reach {
                source: NodeId(0),
                target: NodeId(3),
            },
            pattern_query("Michael"),
            Query::Reach {
                source: NodeId(3),
                target: NodeId(0),
            },
        ];
        let baseline = Engine::new(g.clone(), sjf.clone()).run_batch(&queries);
        assert!(
            baseline
                .results
                .iter()
                .any(|r| matches!(r.answer, Answer::Denied { .. })),
            "fixture must actually shed"
        );
        for partitioner in POLICIES {
            for k in [1usize, 2, 4] {
                let router = Router::new(g.clone(), sjf.clone(), k, partitioner).unwrap();
                let report = router.run_batch(&queries);
                for (i, (a, b)) in baseline.results.iter().zip(&report.results).enumerate() {
                    assert_eq!(a.answer, b.answer, "answer {i} diverged at k={k}");
                    assert_eq!(a.visits, b.visits, "visits {i} diverged at k={k}");
                }
                assert_eq!(report.stats.queries, baseline.stats.queries);
                assert_eq!(report.stats.denied, baseline.stats.denied);
                assert_eq!(report.stats.charged_visits, baseline.stats.charged_visits);
                assert_eq!(report.stats.reach.queries, baseline.stats.reach.queries);
                assert_eq!(report.stats.sim.queries, baseline.stats.sim.queries);
            }
        }
    }
}
