//! The router: replica construction, per-query routing, deterministic merge.

use crate::partitioner::Partitioner;
use rbq_engine::{
    settle_aggregate, Answer, ApplyError, BatchReport, DurabilityError, Engine, EngineConfig,
    EngineError, EngineStats, Query, QueryResult, RecoveryReport,
};
use rbq_graph::{DeltaBatch, DeltaReport, Graph};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Lock a mutex, recovering from poisoning: the guarded statistics stay
/// consistent (merges are all-or-nothing from the reader's perspective),
/// and a shard that panicked must not take the router's bookkeeping down.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// Result of [`Router::run_batch`]: input-order answers, merged statistics,
/// and the per-shard breakdown.
#[derive(Debug, Clone)]
pub struct RouterReport {
    /// One result per input query, in input order — byte-identical to what
    /// a single [`Engine`] would return for the same batch.
    pub results: Vec<QueryResult>,
    /// Statistics merged across shards, with the aggregate budget settled
    /// at the router (so `denied` / `charged_visits` match a single
    /// engine's settlement exactly).
    pub stats: EngineStats,
    /// Per-shard breakdown, one entry per shard (including idle ones).
    pub per_shard: Vec<ShardReport>,
}

/// One shard's share of a routed batch.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Queries routed to this shard.
    pub routed: usize,
    /// The shard engine's statistics for its sub-batch (settlement
    /// happens at the router, so `denied` is always 0 here).
    pub stats: EngineStats,
}

/// A sharded serving front: `k` cache-affine engine replicas over
/// `Arc`-shared immutable structures, each query served by one of them.
///
/// Construction pays the offline cost once — both offline indexes (§4.1
/// neighbor index, §5.1 reachability index) are built eagerly on shard 0
/// and every other shard is a [`Engine::replica`] of it, serving the same
/// epoch — so shards are cheap replicas and routing, a pure function of
/// the query ([`Router::route`]), is the only per-query work the router
/// adds. The router holds no per-node routing state, and no write path of
/// its own: ingest, durability and recovery are shard 0's, with the other
/// shards riding along as followers.
pub struct Router {
    /// The graph every shard serves, kept here so [`Router::route`] reads
    /// labels without taking a shard's epoch lock.
    g: Arc<Graph>,
    policy: &'static dyn Partitioner,
    /// `shards[0]` leads: it owns the durable state and is the template
    /// for cold replicas; `shards[1..]` follow it through every ingest.
    shards: Vec<Engine>,
    /// The front-door aggregate budget; shard engines run unbudgeted and
    /// the router settles once, in input order.
    aggregate_visit_budget: Option<usize>,
    totals: Mutex<EngineStats>,
}

impl Router {
    /// A router over `g` with `shards` replicas, routed by `partitioner`
    /// (kept for the router's lifetime, hence `'static` — which a
    /// `&LabelHashPartitioner` literal already is).
    ///
    /// `cfg` is the front-door configuration: every shard engine inherits
    /// it, except that the aggregate visit budget is held back and settled
    /// at the router, and worker threads are divided across shards (each
    /// shard gets `max(1, threads / k)` so a fanned-out batch uses about
    /// the configured parallelism in total).
    pub fn new(
        g: Arc<Graph>,
        cfg: EngineConfig,
        shards: usize,
        partitioner: &'static dyn Partitioner,
    ) -> Result<Router, RouterError> {
        let lead = Engine::new(g, shard_config(&cfg, shards)?);
        Ok(Router::over(lead, &cfg, shards, partitioner))
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
        let (lead, report) = Engine::recover(dir, shard_config(&cfg, shards)?)?;
        Ok((Router::over(lead, &cfg, shards, partitioner), report))
    }

    /// Build the deployment around its lead shard: pay for both offline
    /// indexes once, then replicate — identical `Arc`'d indexes are what
    /// make shard answers byte-identical to a standalone engine's.
    fn over(
        lead: Engine,
        cfg: &EngineConfig,
        shards: usize,
        policy: &'static dyn Partitioner,
    ) -> Router {
        lead.neighbor_index();
        lead.reach_index();
        let followers: Vec<Engine> = (1..shards).map(|_| lead.replica()).collect();
        Router {
            g: lead.graph(),
            policy,
            shards: std::iter::once(lead).chain(followers).collect(),
            aggregate_visit_budget: cfg.aggregate_visit_budget,
            totals: Mutex::new(EngineStats::default()),
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

    /// Lifetime statistics merged across every batch served.
    pub fn stats(&self) -> EngineStats {
        relock(&self.totals).clone()
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

    /// Answer one query on the shard it routes to (no aggregate-budget
    /// settlement, mirroring [`Engine::run`] — lifetime statistics
    /// included).
    pub fn run(&self, q: &Query) -> QueryResult {
        let started = Instant::now();
        let result = self.shards[self.route(q)].run(q);
        let mut totals = relock(&self.totals);
        totals.record(&result, q.class(), started.elapsed());
        if result.answer.is_ok() {
            totals.charged_visits += result.visits;
        }
        result
    }

    /// Answer a batch of heterogeneous queries across the shards.
    ///
    /// Each query is routed to one shard; non-empty sub-batches run
    /// concurrently (one scoped thread per shard, each shard scheduling
    /// its own workers); results scatter back to input order; and the
    /// aggregate visit budget is settled once at the router in input
    /// order. Answers, visit counts, denials and charged visits are all
    /// byte-identical to a single engine running the same batch — for any
    /// shard count and any routing policy. That parity extends to the
    /// robustness knobs: the front door computes one deadline instant and
    /// one [shortest-job-first](rbq_engine::AdmissionPolicy) shed set and
    /// every shard serves under them.
    ///
    /// **Degraded mode.** A shard whose worker thread is lost (a panic
    /// that escaped the engine's per-query containment) does not take the
    /// batch down: the router rebuilds a cold replica over the shared
    /// offline structures and retries that sub-batch once. If the retry is
    /// also lost, the sub-batch settles as [`Answer::Failed`] — every
    /// other shard's answers are unaffected.
    pub fn run_batch(&self, queries: &[Query]) -> RouterReport {
        let deadline = self.shards[0]
            .config()
            .batch_timeout
            .map(|t: Duration| Instant::now() + t);
        let k = self.shards.len();
        // Front-door admission: one deterministic shed decision for the
        // whole batch (shard engines hold no aggregate budget).
        let shed = self.shards[0].admission_shed_for(queries, self.aggregate_visit_budget);
        let mut sub: Vec<Vec<Query>> = vec![Vec::new(); k];
        let mut origin: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut slots: Vec<Option<QueryResult>> = Vec::new();
        slots.resize_with(queries.len(), || None);
        let mut stats = EngineStats::default();
        let mut shed_count = 0;
        for (i, q) in queries.iter().enumerate() {
            if let Some(answer) = &shed[i] {
                let denied = QueryResult {
                    answer: answer.clone(),
                    visits: 0,
                    cached: false,
                };
                stats.record(&denied, q.class(), Duration::ZERO);
                shed_count += 1;
                slots[i] = Some(denied);
                continue;
            }
            let s = self.route(q);
            sub[s].push(q.clone());
            origin[s].push(i);
        }

        let mut reports: Vec<Option<BatchReport>> = Vec::new();
        reports.resize_with(k, || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = sub
                .iter()
                .enumerate()
                .filter(|(_, batch)| !batch.is_empty())
                .map(|(s, batch)| {
                    (
                        s,
                        scope.spawn(move || {
                            rbq_graph::faultpoint::fire_at("router.shard", s as u64);
                            self.shards[s].run_batch_until(batch, deadline)
                        }),
                    )
                })
                .collect();
            for (s, h) in handles {
                reports[s] = match h.join() {
                    Ok(report) => Some(report),
                    Err(_) => self.retry_shard(&sub[s], deadline),
                };
            }
        });

        // Deterministic merge: scatter to input order, fold stats, settle
        // the aggregate budget once (shards ran unbudgeted).
        let mut per_shard = Vec::with_capacity(k);
        for (s, report) in reports.into_iter().enumerate() {
            match report {
                Some(report) => {
                    stats.merge(&report.stats);
                    per_shard.push(ShardReport {
                        routed: origin[s].len(),
                        stats: report.stats,
                    });
                    for (&i, r) in origin[s].iter().zip(report.results) {
                        slots[i] = Some(r);
                    }
                }
                None => {
                    // Lost twice (original shard and its replica): settle
                    // the whole sub-batch Failed, in input order.
                    for &i in &origin[s] {
                        let failed = QueryResult {
                            answer: Answer::Failed(
                                "shard worker lost; replica retry also lost".to_string(),
                            ),
                            visits: 0,
                            cached: false,
                        };
                        stats.record(&failed, queries[i].class(), Duration::ZERO);
                        slots[i] = Some(failed);
                    }
                    per_shard.push(ShardReport {
                        routed: origin[s].len(),
                        stats: EngineStats::default(),
                    });
                }
            }
        }
        let mut results: Vec<QueryResult> = slots
            .into_iter()
            .map(|r| {
                // invariant: every slot was filled above — shed, scattered
                // from a shard report, or settled Failed.
                r.expect("query answered")
            })
            .collect();
        let settlement = settle_aggregate(&mut results, self.aggregate_visit_budget);
        stats.denied = shed_count + settlement.denied;
        stats.charged_visits = settlement.charged_visits;

        relock(&self.totals).merge(&stats);
        RouterReport {
            results,
            stats,
            per_shard,
        }
    }

    /// Second (and last) chance for a lost shard: take a cold replica of
    /// shard 0 (same epoch, same shared indexes — no offline cost re-paid)
    /// and re-run the sub-batch under the same deadline. Answers are
    /// deterministic functions of the batch and the epoch, so a replica's
    /// answers are byte-identical to what the lost shard would have
    /// returned — only cache warmth differs.
    fn retry_shard(&self, batch: &[Query], deadline: Option<Instant>) -> Option<BatchReport> {
        let replica = self.shards[0].replica();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rbq_graph::faultpoint::fire("router.shard.retry");
            replica.run_batch_until(batch, deadline)
        }))
        .ok()
    }
}

/// The per-shard configuration behind a front-door `cfg` for `shards`
/// replicas, or why there cannot be one.
fn shard_config(cfg: &EngineConfig, shards: usize) -> Result<EngineConfig, RouterError> {
    if shards == 0 {
        return Err(RouterError::InvalidShards);
    }
    cfg.validate()?;
    let base_threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        cfg.threads
    };
    Ok(EngineConfig {
        aggregate_visit_budget: None,
        threads: (base_threads / shards).max(1),
        ..cfg.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::LabelHashPartitioner;
    use rbq_engine::{Answer, BudgetSpec};
    use rbq_graph::{DeltaError, GraphBuilder, NodeId};
    use rbq_pattern::PatternBuilder;

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
        let r = router.run(&pattern_query("NoSuchLabel"));
        assert!(matches!(r.answer, Answer::Error(_)));
        // Out-of-range policy values are reduced, never used as an index.
        let past_k = &Policy(|label, k| k + label.len());
        let router = Router::new(fig1_graph(), cfg(), 3, past_k).unwrap();
        assert_eq!(router.route(&pattern_query("Michael")), (3 + 7) % 3);
    }

    /// `Router::run` records exactly what `Engine::run` records.
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
                router.run(q);
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
            batch_timeout: Some(std::time::Duration::ZERO),
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
            // Still healthy afterwards: the same router serves a clean
            // single query (Router::run takes the engine timeout path,
            // but a fresh instant makes fig. 1 unreachable to expire).
            let healthy = Router::new(g.clone(), cfg(), k, &LabelHashPartitioner).unwrap();
            assert!(healthy.run(&queries[0]).answer.is_ok());
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
