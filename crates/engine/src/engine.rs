//! The engine's read side: configuration, statistics, per-query
//! evaluation against a pinned epoch, and the work-stealing batch
//! scheduler. The write side — the epoch itself and the one pipeline that
//! replaces it — is [`crate::ingest`].

use crate::cache::{CacheKey, CachedAnswer, ReductionCache};
use crate::canonical::{encode_raw, Canonical};
use crate::durability::Durability;
use crate::error::EngineError;
use crate::ingest::Epoch;
use crate::{Answer, Query, QueryClass, QueryResult};
use rbq_core::guard::Semantics;
use rbq_core::{
    rbsim_with, rbsub_scratch, NeighborIndex, PatternAnswer, PatternScratch, ResourceBudget,
};
use rbq_graph::{CancelPanic, CancelToken, Graph, NodeId};
use rbq_pattern::{Pattern, Vf2Config};
use rbq_reach::HierarchicalIndex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// How the per-query pattern budget is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetSpec {
    /// Resource ratio `α ∈ (0, 1]` of the graph size.
    Ratio(f64),
    /// Absolute unit count `α·|G|` (size-independent, as in the paper's
    /// cross-dataset comparisons).
    Units(usize),
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Per-query size budget for pattern queries.
    pub pattern_budget: BudgetSpec,
    /// Resource ratio for the lazily built reachability index, `(0, 1]`.
    pub reach_alpha: f64,
    /// Worker threads per batch ([`Engine::run_batch_shared`] divides them
    /// among its replicas); 0 = available parallelism.
    pub threads: usize,
    /// Reduction-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Aggregate visit budget per batch: the total canonical visit cost the
    /// engine will *deliver*; queries beyond it are answered
    /// [`Answer::Denied`], settled deterministically in input order.
    pub aggregate_visit_budget: Option<usize>,
    /// VF2 knobs for isomorphism queries.
    pub vf2: Vf2Config,
    /// Per-batch deadline, measured from batch entry. Queries that have not
    /// started when it expires — and queries whose kernels hit a cooperative
    /// cancellation point after it — settle as [`Answer::TimedOut`].
    pub batch_timeout: Option<Duration>,
    /// How queries are admitted against the aggregate visit budget.
    pub admission: AdmissionPolicy,
}

/// How a batch's queries are admitted against the aggregate visit budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Evaluate everything; settle delivered answers against the aggregate
    /// budget in input order (the historical behavior).
    #[default]
    InputOrder,
    /// Shed *before* evaluation: rank queries by a deterministic cost
    /// estimate (ties broken by input index), greedily admit the cheapest
    /// within the aggregate budget, and answer the rest [`Answer::Denied`]
    /// without evaluating them — overload degrades answers-per-budget
    /// predictably instead of timing out arbitrarily. No-op without an
    /// aggregate budget.
    ShortestJobFirst,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            pattern_budget: BudgetSpec::Ratio(0.01),
            reach_alpha: 0.05,
            threads: 0,
            cache_capacity: 1024,
            aggregate_visit_budget: None,
            vf2: Vf2Config::default(),
            batch_timeout: None,
            admission: AdmissionPolicy::InputOrder,
        }
    }
}

impl EngineConfig {
    /// Validate ranges. The typed error renders the same message the old
    /// `Result<_, String>` API produced, so CLI output is unchanged.
    pub fn validate(&self) -> Result<(), EngineError> {
        if let BudgetSpec::Ratio(a) = self.pattern_budget {
            if !(a.is_finite() && a > 0.0 && a <= 1.0) {
                return Err(EngineError::InvalidAlpha {
                    what: "pattern alpha",
                    got: a,
                });
            }
        }
        if !(self.reach_alpha.is_finite() && self.reach_alpha > 0.0 && self.reach_alpha <= 1.0) {
            return Err(EngineError::InvalidAlpha {
                what: "reach alpha",
                got: self.reach_alpha,
            });
        }
        Ok(())
    }
}

/// Per-class accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Queries of this class evaluated (including cache hits).
    pub queries: usize,
    /// Canonical visit cost accumulated.
    pub visits: usize,
    /// Wall time spent evaluating (cache hits count their ~zero lookup).
    pub latency: Duration,
}

impl ClassStats {
    /// Mean per-query latency, zero when no queries ran.
    fn mean_latency(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.latency / self.queries as u32
        }
    }

    fn merge(&mut self, other: &ClassStats) {
        self.queries += other.queries;
        self.visits += other.visits;
        self.latency += other.latency;
    }
}

/// Batch / lifetime engine statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total queries processed.
    pub queries: usize,
    /// Reachability class.
    pub reach: ClassStats,
    /// Strong-simulation class.
    pub sim: ClassStats,
    /// Subgraph-isomorphism class.
    pub iso: ClassStats,
    /// Answers served from the reduction cache.
    pub cache_hits: usize,
    /// Pattern evaluations that missed the cache.
    pub cache_misses: usize,
    /// Malformed queries answered [`Answer::Error`].
    pub errors: usize,
    /// Queries denied at aggregate-budget settlement or shed by admission
    /// control.
    pub denied: usize,
    /// Queries settled [`Answer::TimedOut`] by a batch deadline.
    pub timed_out: usize,
    /// Queries whose evaluation panicked and was contained
    /// ([`Answer::Failed`]).
    pub failed: usize,
    /// Visit cost charged against the aggregate budget (delivered answers
    /// only — never exceeds the configured aggregate budget).
    pub charged_visits: usize,
    /// Canonical visit cost of every answered query, delivered or denied.
    pub total_visits: usize,
}

impl EngineStats {
    /// Cache hit rate over pattern queries, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let n = self.cache_hits + self.cache_misses;
        if n == 0 {
            0.0
        } else {
            self.cache_hits as f64 / n as f64
        }
    }

    /// Fold another stats block into this one.
    pub fn merge(&mut self, other: &EngineStats) {
        self.queries += other.queries;
        self.reach.merge(&other.reach);
        self.sim.merge(&other.sim);
        self.iso.merge(&other.iso);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.errors += other.errors;
        self.denied += other.denied;
        self.timed_out += other.timed_out;
        self.failed += other.failed;
        self.charged_visits += other.charged_visits;
        self.total_visits += other.total_visits;
    }

    fn class_mut(&mut self, class: QueryClass) -> &mut ClassStats {
        match class {
            QueryClass::Reach => &mut self.reach,
            QueryClass::Sim => &mut self.sim,
            QueryClass::Iso => &mut self.iso,
        }
    }

    /// Record one settled query: the single recorder behind
    /// [`Engine::run`] and [`Engine::run_batch_shared`].
    /// Counts the query and its class, then by outcome — errors, timeouts
    /// and contained failures in their counters; delivered answers add
    /// their visits and (for patterns) a cache hit or miss. A
    /// [`Answer::Denied`] here was shed before evaluation: counted as a
    /// query, but it did no visits and never consulted the cache.
    /// (Settlement-time denials are recorded before settlement converts
    /// them, so they never reach that arm.)
    fn record(&mut self, result: &QueryResult, class: QueryClass, latency: Duration) {
        self.queries += 1;
        let c = self.class_mut(class);
        c.queries += 1;
        c.latency += latency;
        match &result.answer {
            Answer::Error(_) => self.errors += 1,
            Answer::TimedOut => self.timed_out += 1,
            Answer::Failed(_) => self.failed += 1,
            Answer::Denied { .. } => {}
            _ => {
                c.visits += result.visits;
                self.total_visits += result.visits;
                if class != QueryClass::Reach {
                    if result.cached {
                        self.cache_hits += 1;
                    } else {
                        self.cache_misses += 1;
                    }
                }
            }
        }
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "queries {} (reach {}, sim {}, iso {}); errors {}, denied {}, timed out {}, failed {}",
            self.queries,
            self.reach.queries,
            self.sim.queries,
            self.iso.queries,
            self.errors,
            self.denied,
            self.timed_out,
            self.failed
        )?;
        writeln!(
            f,
            "cache: {} hits / {} misses ({:.1}% hit rate)",
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate() * 100.0
        )?;
        writeln!(
            f,
            "visits: {} charged, {} total",
            self.charged_visits, self.total_visits
        )?;
        write!(
            f,
            "mean latency: reach {:?}, sim {:?}, iso {:?}",
            self.reach.mean_latency(),
            self.sim.mean_latency(),
            self.iso.mean_latency()
        )
    }
}

/// Result of [`Engine::run_batch_shared`]: input-order answers, the
/// batch's statistics, and the per-replica breakdown.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One result per input query, in input order — byte-identical for any
    /// thread count, replica count and routing function.
    pub results: Vec<QueryResult>,
    /// Statistics for this batch alone, the aggregate budget settled once
    /// at the front door.
    pub stats: EngineStats,
    /// One entry per replica, idle ones included: the leader first, then
    /// the followers in order (a single entry for a lone engine).
    pub per_shard: Vec<ShardReport>,
}

/// One replica's share of a batch.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Admitted queries routed to this replica.
    pub routed: usize,
    /// The fold of every query this replica evaluated. Admission and
    /// settlement happen once at the front door, so `denied` and
    /// `charged_visits` are always 0 here and appear only in
    /// [`BatchReport::stats`] (before the read path was shared, a shard
    /// reported its unbudgeted total as `charged_visits`).
    pub stats: EngineStats,
}

/// One evaluated query before settlement: result, class, wall latency.
type Evaluated = (QueryResult, QueryClass, Duration);

/// A mixed-workload query engine over a live-updatable graph.
///
/// The engine serves from an [`Epoch`]: an immutable snapshot holding the
/// graph, the pattern [`NeighborIndex`] (§4.1) and the reachability
/// [`HierarchicalIndex`] (§5.1), each built lazily on the first query of
/// its class and reused by every subsequent query — the "once for all
/// queries" amortization the paper's offline/online split calls for (§3,
/// Remarks). [`Engine::apply_deltas`] applies a [`rbq_graph::DeltaBatch`],
/// rebuilds whichever indexes the old epoch had materialized, and swaps the
/// new epoch in behind a short write lock; queries already running keep
/// their pinned old epoch and drain untouched.
pub struct Engine {
    cfg: EngineConfig,
    pub(crate) epoch: RwLock<Arc<Epoch>>,
    pub(crate) cache: Mutex<ReductionCache>,
    totals: Mutex<EngineStats>,
    /// The writer lock, and the durable state (WAL appender + snapshot
    /// directory, present when durability is enabled) it guards. One
    /// [`Engine::apply_deltas`] holds it from the epoch pin to the install
    /// and checkpoint, so appliers run one at a time; queries never take
    /// it.
    pub(crate) writer: Mutex<Option<Durability>>,
    /// Warm per-worker evaluation scratches. Each batch worker checks one
    /// out for its whole run (no contention on the hot path) and returns
    /// it afterwards, so steady-state serving reuses warm buffers across
    /// batches instead of allocating per query.
    scratches: Mutex<Vec<WorkerScratch>>,
}

/// One worker's reusable evaluation state: the pattern scratch, the
/// recycled answer buffer, and the buffer the memo key of each pattern
/// query is encoded into.
#[derive(Default)]
struct WorkerScratch {
    pattern: PatternScratch,
    answer: PatternAnswer,
    raw: Vec<u8>,
}

impl Engine {
    /// An engine over `g` with `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`EngineConfig::validate`]; front ends should
    /// validate first and exit gracefully.
    pub fn new(g: Arc<Graph>, cfg: EngineConfig) -> Self {
        if let Err(e) = cfg.validate() {
            // invariant: documented `# Panics` contract of `Engine::new`;
            // front ends validate the config and exit gracefully before
            // constructing an engine.
            panic!("invalid engine config: {e}");
        }
        Engine::over(Arc::new(Epoch::new(g, 0)), cfg)
    }

    /// An engine serving `epoch` under an already validated `cfg`, with an
    /// empty cache and no durable state.
    pub(crate) fn over(epoch: Arc<Epoch>, cfg: EngineConfig) -> Self {
        Engine {
            epoch: RwLock::new(epoch),
            cache: Mutex::new(ReductionCache::new(cfg.cache_capacity)),
            cfg,
            totals: Mutex::new(EngineStats::default()),
            scratches: Mutex::new(Vec::new()),
            writer: Mutex::new(None),
        }
    }

    /// Pin the current epoch. Everything a query touches comes from this
    /// one snapshot, so a mid-query [`Engine::apply_deltas`] cannot mix
    /// old-graph and new-graph state inside a single evaluation.
    pub(crate) fn pin(&self) -> Arc<Epoch> {
        relock_read(&self.epoch).clone()
    }

    /// Check out a warm worker scratch (or a fresh one when the pool is
    /// dry — first use, or more workers than ever before).
    fn take_scratch(&self) -> WorkerScratch {
        relock(&self.scratches).pop().unwrap_or_default()
    }

    /// Return a worker scratch to the pool, keeping its warm buffers.
    /// Callers never return a scratch an unwind passed through — a caught
    /// panic discards the scratch and pools a fresh one instead.
    fn put_scratch(&self, s: WorkerScratch) {
        relock(&self.scratches).push(s);
    }

    /// Like [`Engine::new`], but seeding pre-built indexes so callers that
    /// already paid for offline construction (benches, the router, the
    /// experiments harness) share them instead of rebuilding.
    pub fn with_indexes(
        g: Arc<Graph>,
        cfg: EngineConfig,
        neighbor: Option<Arc<NeighborIndex>>,
        reach: Option<Arc<HierarchicalIndex>>,
    ) -> Self {
        let e = Engine::new(g, cfg);
        let ep = e.pin();
        if let Some(n) = neighbor {
            let _ = ep.nbr.set(n);
        }
        if let Some(r) = reach {
            let _ = ep.reach.set(r);
        }
        e
    }

    /// The engine's current graph snapshot.
    pub fn graph(&self) -> Arc<Graph> {
        self.pin().g.clone()
    }

    /// The current graph generation: 0 at construction, +1 per installed
    /// delta batch. Part of every cache key.
    pub fn generation(&self) -> u64 {
        self.pin().generation
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The current epoch's neighbor index, building it on first use.
    pub fn neighbor_index(&self) -> Arc<NeighborIndex> {
        self.pin().neighbor_index()
    }

    /// The current epoch's reachability index, building it on first use.
    pub fn reach_index(&self) -> Arc<HierarchicalIndex> {
        self.pin().reach_index(self.cfg.reach_alpha)
    }

    /// The per-query pattern budget derived from the configuration and the
    /// current graph snapshot.
    pub fn pattern_budget(&self) -> ResourceBudget {
        self.pattern_budget_on(&self.pin().g)
    }

    fn pattern_budget_on(&self, g: &Graph) -> ResourceBudget {
        match self.cfg.pattern_budget {
            BudgetSpec::Ratio(a) => ResourceBudget::from_ratio(g, a),
            // `from_units` clamps to |G| itself (α ∈ (0, 1] invariant).
            BudgetSpec::Units(u) => ResourceBudget::from_units(g, u),
        }
    }

    /// Lifetime statistics across every batch and single query served.
    pub fn stats(&self) -> EngineStats {
        relock(&self.totals).clone()
    }

    /// Current reduction-cache entry count.
    pub fn cache_len(&self) -> usize {
        relock(&self.cache).len()
    }

    /// Answer one query (no aggregate-budget settlement). The configured
    /// [`EngineConfig::batch_timeout`], if any, applies to this single
    /// query.
    pub fn run(&self, q: &Query) -> QueryResult {
        let deadline = self.cfg.batch_timeout.map(|t| Instant::now() + t);
        let ep = self.pin();
        let mut scratch = self.take_scratch();
        let (result, class, latency) = self.run_one(&ep, q, &mut scratch, deadline, 0);
        self.put_scratch(scratch);
        let mut totals = relock(&self.totals);
        totals.record(&result, class, latency);
        totals.charged_visits += if result.answer.is_ok() {
            result.visits
        } else {
            0
        };
        result
    }

    /// Answer a batch of heterogeneous queries:
    /// [`Engine::run_batch_shared`] with no followers.
    pub fn run_batch(&self, queries: &[Query]) -> BatchReport {
        self.run_batch_shared(queries, &[], &|_| 0)
    }

    /// The one batch pipeline — admission → schedule → contain → record →
    /// settle — for a lone engine or, with [`Engine::replica`]s as
    /// `followers`, for every shard of a router.
    ///
    /// * **Admission.** `self` leads: its configuration gives the one
    ///   deadline instant, the one shed decision and the aggregate budget,
    ///   and it pins its epoch once — every replica evaluates against that
    ///   pin, so a concurrent [`Engine::apply_deltas`] affects only later
    ///   batches.
    /// * **Schedule.** Admitted queries are grouped by `route(q) % k`,
    ///   `k = 1 + followers.len()` (`route` is not consulted at `k = 1`).
    ///   A replica with a non-empty group gets `max(1, threads / k)`
    ///   workers, which claim batch positions off that replica's cursor
    ///   (work-stealing in the sense that fast workers drain more of the
    ///   group) and evaluate with that replica's cache and a scratch from
    ///   its pool. All workers of all replicas share one thread scope; a
    ///   batch that needs a single worker runs it inline.
    /// * **Contain.** A panicking query is contained per query (it settles
    ///   [`Answer::Failed`]). A worker lost outside that containment loses
    ///   what it claimed: those queries are re-evaluated once on the
    ///   calling thread, through the same replica with a fresh scratch, and
    ///   settle `Failed` only if that retry is lost too — every other
    ///   answer is unaffected.
    /// * **Record, settle.** Every result is recorded once, into the
    ///   batch's statistics and its replica's [`ShardReport`]; answers
    ///   come back in input order; delivered answers are settled against
    ///   the aggregate budget in input order and the remainder are
    ///   [`Answer::Denied`]; the leader's lifetime totals absorb the batch.
    ///
    /// Answers, visit counts, denials and charged visits are identical for
    /// any thread count, any follower count and any `route`.
    pub fn run_batch_shared(
        &self,
        queries: &[Query],
        followers: &[Engine],
        route: &(dyn Fn(&Query) -> usize + Sync),
    ) -> BatchReport {
        let deadline = self.cfg.batch_timeout.map(|t| Instant::now() + t);
        let ep = self.pin();
        let k = 1 + followers.len();
        let replica = |s: usize| s.checked_sub(1).map_or(self, |f| &followers[f]);
        // Right after admission the filled slots are exactly the shed ones.
        let mut slots = self.admission_shed(&ep, queries);
        let mut stats = EngineStats::default();
        for (result, class, latency) in slots.iter().flatten() {
            stats.record(result, *class, *latency);
        }
        stats.denied = stats.queries;
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, q) in queries.iter().enumerate() {
            if slots[i].is_none() {
                groups[if k == 1 { 0 } else { route(q) % k }].push(i);
            }
        }

        let cursors: Vec<AtomicUsize> = groups.iter().map(|_| AtomicUsize::new(0)).collect();
        // The one worker body: drain replica `s`'s group with one warm
        // scratch (no cross-thread contention on the evaluation hot path).
        let work = |s: usize| {
            let (engine, group) = (replica(s), &groups[s]);
            let mut scratch = engine.take_scratch();
            let mut out = Vec::new();
            while let Some(&i) = group.get(cursors[s].fetch_add(1, Ordering::Relaxed)) {
                let q = &queries[i];
                out.push((i, engine.run_one(&ep, q, &mut scratch, deadline, i as u64)));
                // Outside the per-query containment, with results in hand.
                rbq_graph::faultpoint::fire_at("engine.worker", s as u64);
            }
            engine.put_scratch(scratch);
            out
        };
        let per_replica = (self.threads() / k).max(1);
        let workers: Vec<usize> = (0..k)
            .flat_map(|s| std::iter::repeat_n(s, per_replica.min(groups[s].len())))
            .collect();
        // AssertUnwindSafe (here and on the retry): a lost worker's scratch
        // and claimed results are dropped with it, and the shared locks it
        // took recover from poisoning.
        let done: Vec<Vec<(usize, Evaluated)>> = if let [s] = workers[..] {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(s)))
                .into_iter()
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = workers
                    .iter()
                    .map(|&s| scope.spawn(move || work(s)))
                    .collect();
                handles.into_iter().filter_map(|h| h.join().ok()).collect()
            })
        };
        for (i, evaluated) in done.into_iter().flatten() {
            slots[i] = Some(evaluated);
        }
        // Degraded mode: whatever a lost worker claimed is still empty.
        if slots.iter().any(Option::is_none) {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rbq_graph::faultpoint::fire("engine.worker.retry");
                let mut scratch = WorkerScratch::default();
                for (s, group) in groups.iter().enumerate() {
                    for &i in group {
                        if slots[i].is_none() {
                            let q = &queries[i];
                            slots[i] =
                                Some(replica(s).run_one(&ep, q, &mut scratch, deadline, i as u64));
                        }
                    }
                }
            }));
        }

        let settled: Vec<Evaluated> = slots
            .into_iter()
            .zip(queries)
            .map(|(slot, q)| {
                slot.unwrap_or_else(|| {
                    let lost = Answer::Failed("batch worker lost; retry also lost".to_string());
                    (QueryResult::unevaluated(lost), q.class(), Duration::ZERO)
                })
            })
            .collect();
        let per_shard: Vec<ShardReport> = groups
            .iter()
            .map(|group| {
                let mut shard = EngineStats::default();
                for &i in group {
                    let (result, class, latency) = &settled[i];
                    shard.record(result, *class, *latency);
                }
                stats.merge(&shard);
                ShardReport {
                    routed: group.len(),
                    stats: shard,
                }
            })
            .collect();
        let mut results: Vec<QueryResult> = settled.into_iter().map(|(r, _, _)| r).collect();
        let settlement = settle_aggregate(&mut results, self.cfg.aggregate_visit_budget);
        stats.denied += settlement.denied;
        stats.charged_visits = settlement.charged_visits;
        relock(&self.totals).merge(&stats);
        BatchReport {
            results,
            stats,
            per_shard,
        }
    }

    /// Admission control: the batch's result slots with every query shed
    /// before evaluation already settled [`Answer::Denied`] and every
    /// admitted one empty. Deterministic — a pure function of the batch,
    /// the configuration, and the epoch's graph, independent of thread and
    /// replica count. Admits everything unless the policy is
    /// [`AdmissionPolicy::ShortestJobFirst`] under an aggregate budget.
    fn admission_shed(&self, ep: &Epoch, queries: &[Query]) -> Vec<Option<Evaluated>> {
        let mut slots: Vec<Option<Evaluated>> = vec![None; queries.len()];
        let (AdmissionPolicy::ShortestJobFirst, Some(budget)) =
            (self.cfg.admission, self.cfg.aggregate_visit_budget)
        else {
            return slots;
        };
        let estimates: Vec<usize> = queries
            .iter()
            .map(|q| estimate_cost(q, &ep.g, &self.pattern_budget_on(&ep.g)))
            .collect();
        // Shortest job first, ties broken by input index: both the order
        // and the greedy admission below are deterministic.
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by_key(|&i| (estimates[i], i));
        let mut remaining = budget;
        for i in order {
            if estimates[i] <= remaining {
                remaining -= estimates[i];
            } else {
                let needed = estimates[i];
                let shed = QueryResult::unevaluated(Answer::Denied { needed, remaining });
                slots[i] = Some((shed, queries[i].class(), Duration::ZERO));
            }
        }
        slots
    }

    /// Configured worker threads (0 = available parallelism).
    fn threads(&self) -> usize {
        match self.cfg.threads {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            t => t,
        }
    }

    /// Evaluate one query under panic containment. `index` is the query's
    /// batch position (a fault-injection coordinate). A deadline already
    /// expired at entry settles as [`Answer::TimedOut`] without evaluating
    /// — so fully-expired batches are deterministic at any thread count. A
    /// kernel unwind is caught here: a [`CancelPanic`] (cooperative
    /// deadline expiry) becomes `TimedOut`, anything else becomes
    /// [`Answer::Failed`]; either way the scratch an unwind passed through
    /// is discarded, so the pool never recycles torn buffers.
    // rbq-lint: hot
    fn run_one(
        &self,
        ep: &Epoch,
        q: &Query,
        scratch: &mut WorkerScratch,
        deadline: Option<Instant>,
        index: u64,
    ) -> Evaluated {
        let start = Instant::now();
        let token = match deadline {
            Some(d) => CancelToken::at(d),
            None => CancelToken::none(),
        };
        if token.is_expired() {
            let timed_out = QueryResult::unevaluated(Answer::TimedOut);
            return (timed_out, q.class(), start.elapsed());
        }
        // AssertUnwindSafe: on Err every structure the closure touched
        // mutably (the scratch) is discarded below, and the shared locks it
        // takes recover from poisoning — no broken invariant survives.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rbq_graph::faultpoint::fire_at("engine.run_one", index);
            match q {
                Query::Reach { source, target } => self.run_reach(ep, *source, *target),
                Query::PatternSim { pattern } => {
                    self.run_pattern(ep, pattern, Semantics::Simulation, scratch, token)
                }
                Query::PatternIso { pattern } => {
                    self.run_pattern(ep, pattern, Semantics::Isomorphism, scratch, token)
                }
            }
        }));
        let result = match outcome {
            Ok(r) => r,
            Err(payload) => {
                *scratch = WorkerScratch::default();
                QueryResult::unevaluated(if payload.downcast_ref::<CancelPanic>().is_some() {
                    Answer::TimedOut
                } else {
                    Answer::Failed(panic_message(payload.as_ref()))
                })
            }
        };
        (result, q.class(), start.elapsed())
    }

    fn run_reach(&self, ep: &Epoch, s: NodeId, t: NodeId) -> QueryResult {
        let n = ep.g.node_count();
        if s.index() >= n || t.index() >= n {
            return QueryResult::unevaluated(Answer::Error(format!(
                "node id out of range ({} or {} >= {n})",
                s.0, t.0
            )));
        }
        let idx = ep.reach_index(self.cfg.reach_alpha);
        let a = idx.query(s, t);
        QueryResult {
            answer: Answer::Reach {
                reachable: a.reachable,
                certified: a.certified,
            },
            visits: a.visits,
            cached: false,
        }
    }

    /// The engine's whole share of a repeated pattern query: encode the
    /// pattern as given, find its canonical form in the memo, probe the
    /// answers — one lock acquisition, no label resolution, and no
    /// allocation beyond the copy of the matches handed to the caller. A
    /// miss returns the key the evaluated answer is to be inserted under.
    // rbq-lint: hot
    fn probe(
        &self,
        ep: &Epoch,
        pattern: &Pattern,
        sem: Semantics,
        budget: &ResourceBudget,
        raw: &mut Vec<u8>,
    ) -> Result<QueryResult, CacheKey> {
        encode_raw(pattern, raw);
        let mut cache = relock(&self.cache);
        let canon = match cache.canonical(raw) {
            Some(canon) => canon,
            None => {
                // Canonicalise outside the lock: it is the expensive step.
                drop(cache);
                // rbq-lint: allow(hot-path-alloc, "memo miss: the first sight of a raw pattern pays for its canonical form, every repeat reuses it")
                let canon = Arc::new(Canonical::of(pattern));
                cache = relock(&self.cache);
                cache.remember(raw, Arc::clone(&canon));
                canon
            }
        };
        let key = CacheKey {
            canon,
            semantics: match sem {
                Semantics::Simulation => 0,
                Semantics::Isomorphism => 1,
            },
            max_units: budget.max_units,
            generation: ep.generation,
        };
        match cache.get(&key) {
            Some(hit) => Ok(QueryResult {
                // rbq-lint: allow(hot-path-alloc, "the public Answer owns its matches: one Vec copy per hit, none when it is empty")
                answer: hit.answer.clone(),
                visits: hit.visits,
                cached: true,
            }),
            None => Err(key),
        }
    }

    fn run_pattern(
        &self,
        ep: &Epoch,
        pattern: &Pattern,
        sem: Semantics,
        scratch: &mut WorkerScratch,
        cancel: CancelToken,
    ) -> QueryResult {
        let budget = self.pattern_budget_on(&ep.g);
        let key = match self.probe(ep, pattern, sem, &budget, &mut scratch.raw) {
            Ok(hit) => return hit,
            Err(key) => key,
        };
        // Evaluate the canonical relabeling: isomorphic queries then run the
        // byte-identical computation, so cache hits equal cold answers.
        let resolved = match key.canon.pattern(pattern).resolve(&ep.g) {
            Ok(r) => r,
            Err(e) => return QueryResult::unevaluated(Answer::Error(e.to_string())),
        };
        let idx = ep.neighbor_index();
        let WorkerScratch {
            pattern: ps,
            answer: ans,
            ..
        } = scratch;
        // Arm the deadline on every kernel this evaluation can enter; the
        // unarmed default makes each tick a single branch.
        ps.set_cancel(cancel);
        match sem {
            Semantics::Simulation => rbsim_with(&ep.g, &idx, &resolved, &budget, ps, ans),
            Semantics::Isomorphism => {
                let vf2 = Vf2Config {
                    cancel,
                    ..self.cfg.vf2
                };
                rbsub_scratch(&ep.g, &idx, &resolved, &budget, vf2, ps, ans)
            }
        };
        let answer = Answer::Pattern {
            matches: ans.matches.clone(),
            gq_size: ans.gq_size,
            gq_nodes: ans.gq_nodes,
            hit_budget: ans.hit_budget,
        };
        let visits = ans.visits.total();
        relock(&self.cache).insert(
            key,
            CachedAnswer {
                answer: answer.clone(),
                visits,
            },
        );
        QueryResult {
            answer,
            visits,
            cached: false,
        }
    }
}

/// Outcome of aggregate-budget settlement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregateSettlement {
    /// Delivered answers converted to [`Answer::Denied`].
    pub denied: usize,
    /// Visit cost charged for the answers that were delivered.
    pub charged_visits: usize,
}

/// Settle a batch's delivered answers against an aggregate visit budget,
/// in input order (deterministic regardless of evaluation scheduling).
///
/// Each delivered (non-error, non-denied) answer is considered in order:
/// if its canonical visit cost fits the remaining budget it is charged,
/// otherwise it is replaced by [`Answer::Denied`] recording what it needed
/// and what remained. With `budget = None` everything is delivered and the
/// full cost charged. This is the single settlement routine shared by
/// [`Engine::run_batch`] and the sharded router, so a batch settles
/// identically whether it ran on one engine or was fanned out and merged.
pub fn settle_aggregate(results: &mut [QueryResult], budget: Option<usize>) -> AggregateSettlement {
    let mut out = AggregateSettlement::default();
    let mut remaining = budget;
    for result in results {
        if !result.answer.is_ok() {
            continue;
        }
        match remaining.as_mut() {
            Some(rem) if result.visits > *rem => {
                out.denied += 1;
                result.answer = Answer::Denied {
                    needed: result.visits,
                    remaining: *rem,
                };
            }
            other => {
                if let Some(rem) = other {
                    *rem -= result.visits;
                }
                out.charged_visits += result.visits;
            }
        }
    }
    out
}

/// Lock a mutex, recovering the guard if a past panic poisoned it. Every
/// structure the engine guards this way (cache, stats, scratch pool, the
/// writer's durable state — a WAL writer a panic unwound through refuses
/// further appends by itself) keeps its own invariants across a panic —
/// the poison flag adds no safety.
pub(crate) fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Read-lock an `RwLock`, recovering the guard if a past panic poisoned
/// it. The engine's only `RwLock` guards the epoch `Arc` swap, which is
/// consistent under any poison history.
fn relock_read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-lock an `RwLock`, recovering from poisoning (see [`relock_read`]).
pub(crate) fn relock_write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Render a caught panic payload as a message for [`Answer::Failed`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deterministic pre-evaluation cost estimate in canonical visit units, for
/// [`AdmissionPolicy::ShortestJobFirst`]. Reachability answers from the
/// hierarchical index in a handful of probes; a pattern's reduction charges
/// at most its budget, approached in proportion to how much structure the
/// pattern can drag in (nodes × mean degree of the data graph).
fn estimate_cost(q: &Query, g: &Graph, budget: &ResourceBudget) -> usize {
    match q {
        Query::Reach { .. } => 2,
        Query::PatternSim { pattern } | Query::PatternIso { pattern } => {
            let mean_degree = if g.node_count() == 0 {
                0
            } else {
                g.edge_count().div_ceil(g.node_count())
            };
            budget
                .max_units
                .min(pattern.node_count() * (1 + 2 * mean_degree))
                .max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::{DeltaBatch, GraphBuilder};
    use rbq_pattern::pattern::fig1_pattern;

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

    #[test]
    fn mixed_batch_answers_all_classes() {
        let g = fig1_graph();
        let engine = Engine::new(g, cfg());
        let queries = vec![
            Query::Reach {
                source: NodeId(0),
                target: NodeId(3),
            },
            Query::PatternSim {
                pattern: fig1_pattern(),
            },
            Query::PatternIso {
                pattern: fig1_pattern(),
            },
            Query::Reach {
                source: NodeId(3),
                target: NodeId(0),
            },
        ];
        let report = engine.run_batch(&queries);
        assert_eq!(report.results.len(), 4);
        assert_eq!(
            report.results[0].answer,
            Answer::Reach {
                reachable: true,
                certified: true
            }
        );
        match &report.results[1].answer {
            Answer::Pattern { matches, .. } => assert_eq!(matches, &[NodeId(3)]),
            other => panic!("expected pattern answer, got {other:?}"),
        }
        match &report.results[2].answer {
            Answer::Pattern { matches, .. } => assert_eq!(matches, &[NodeId(3)]),
            other => panic!("expected pattern answer, got {other:?}"),
        }
        assert!(matches!(
            report.results[3].answer,
            Answer::Reach {
                reachable: false,
                ..
            }
        ));
        assert_eq!(report.stats.queries, 4);
        assert_eq!(report.stats.reach.queries, 2);
        assert_eq!(report.stats.sim.queries, 1);
        assert_eq!(report.stats.iso.queries, 1);
    }

    #[test]
    fn repeat_queries_hit_cache() {
        let g = fig1_graph();
        let engine = Engine::new(
            g,
            EngineConfig {
                threads: 1,
                ..cfg()
            },
        );
        let q = Query::PatternSim {
            pattern: fig1_pattern(),
        };
        let first = engine.run(&q);
        let second = engine.run(&q);
        assert!(!first.cached);
        assert!(second.cached);
        assert_eq!(first.answer, second.answer);
        assert_eq!(first.visits, second.visits);
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.cache_len(), 1);
    }

    #[test]
    fn out_of_range_reach_is_an_error_not_a_panic() {
        let g = fig1_graph();
        let engine = Engine::new(g, cfg());
        let r = engine.run(&Query::Reach {
            source: NodeId(0),
            target: NodeId(999),
        });
        assert!(matches!(r.answer, Answer::Error(_)));
        assert_eq!(engine.stats().errors, 1);
    }

    #[test]
    fn unknown_label_is_an_error() {
        let g = fig1_graph();
        let engine = Engine::new(g, cfg());
        let mut b = rbq_pattern::PatternBuilder::new();
        let x = b.add_node("NoSuchLabel");
        b.personalized(x).output(x);
        let r = engine.run(&Query::PatternSim { pattern: b.build() });
        assert!(matches!(r.answer, Answer::Error(_)));
    }

    #[test]
    fn aggregate_budget_denies_tail_in_input_order() {
        let g = fig1_graph();
        let mut c = cfg();
        c.threads = 1;
        let probe = Engine::new(g.clone(), c.clone());
        let q = Query::PatternSim {
            pattern: fig1_pattern(),
        };
        let per_query = probe.run(&q).visits;
        assert!(per_query > 0);

        c.aggregate_visit_budget = Some(per_query); // room for exactly one
        c.cache_capacity = 0; // keep both queries full-cost
        let engine = Engine::new(g, c);
        let report = engine.run_batch(&[q.clone(), q]);
        assert!(report.results[0].answer.is_ok());
        assert!(matches!(report.results[1].answer, Answer::Denied { .. }));
        assert_eq!(report.stats.denied, 1);
        assert!(report.stats.charged_visits <= per_query);
    }

    #[test]
    fn lifetime_stats_accumulate_across_batches() {
        let g = fig1_graph();
        let engine = Engine::new(g, cfg());
        let qs = [Query::Reach {
            source: NodeId(0),
            target: NodeId(1),
        }];
        engine.run_batch(&qs);
        engine.run_batch(&qs);
        assert_eq!(engine.stats().queries, 2);
    }

    #[test]
    fn empty_batch() {
        let g = fig1_graph();
        let engine = Engine::new(g, cfg());
        let report = engine.run_batch(&[]);
        assert!(report.results.is_empty());
        assert_eq!(report.stats.queries, 0);
    }

    #[test]
    fn validate_rejects_out_of_range_knobs() {
        let ok = EngineConfig {
            pattern_budget: BudgetSpec::Ratio(0.5),
            reach_alpha: 0.2,
            threads: 3,
            cache_capacity: 16,
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
        assert!(matches!(
            EngineConfig {
                pattern_budget: BudgetSpec::Ratio(2.0),
                ..Default::default()
            }
            .validate(),
            Err(EngineError::InvalidAlpha {
                what: "pattern alpha",
                ..
            })
        ));
        // 0 threads is "available parallelism", not an error.
        assert!(EngineConfig {
            threads: 0,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn settle_aggregate_matches_inline_settlement() {
        let mk = |visits| QueryResult {
            answer: Answer::Reach {
                reachable: true,
                certified: true,
            },
            visits,
            cached: false,
        };
        let mut rs = vec![
            mk(4),
            QueryResult::unevaluated(Answer::Error("x".into())),
            mk(5),
            mk(1),
        ];
        let s = settle_aggregate(&mut rs, Some(6));
        assert_eq!(s.denied, 1);
        assert_eq!(s.charged_visits, 5);
        assert!(rs[0].answer.is_ok());
        assert!(matches!(rs[1].answer, Answer::Error(_)));
        assert_eq!(
            rs[2].answer,
            Answer::Denied {
                needed: 5,
                remaining: 2
            }
        );
        assert!(rs[3].answer.is_ok());

        let mut unlimited = vec![mk(7), mk(9)];
        let s = settle_aggregate(&mut unlimited, None);
        assert_eq!((s.denied, s.charged_visits), (0, 16));
    }

    #[test]
    fn config_validation_catches_bad_alpha() {
        assert!(EngineConfig {
            pattern_budget: BudgetSpec::Ratio(0.0),
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EngineConfig {
            reach_alpha: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn apply_deltas_swaps_graph_and_answers_change() {
        let g = fig1_graph();
        let engine = Engine::new(
            g,
            EngineConfig {
                threads: 1,
                ..cfg()
            },
        );
        let q = Query::PatternSim {
            pattern: fig1_pattern(),
        };
        let before = engine.run(&q);
        match &before.answer {
            Answer::Pattern { matches, .. } => assert_eq!(matches, &[NodeId(3)]),
            other => panic!("expected pattern answer, got {other:?}"),
        }
        assert_eq!(engine.generation(), 0);

        // Sever CL from both its supporters: the fig. 1 match disappears.
        let mut batch = DeltaBatch::new();
        batch.remove_edge(NodeId(2), NodeId(3));
        batch.remove_edge(NodeId(1), NodeId(3));
        let report = engine.apply_deltas(&batch).unwrap();
        assert_eq!(report.edges_removed, 2);
        assert_eq!(engine.generation(), 1);
        assert_eq!(engine.graph().edge_count(), 2);

        let after = engine.run(&q);
        assert!(!after.cached, "post-mutation lookup must not hit");
        match &after.answer {
            Answer::Pattern { matches, .. } => assert!(matches.is_empty()),
            other => panic!("expected pattern answer, got {other:?}"),
        }

        // And the mutated engine answers exactly like a fresh rebuild.
        let rebuilt = {
            let (g2, _) = fig1_graph().apply_delta(&batch).unwrap();
            Engine::new(
                Arc::new(g2),
                EngineConfig {
                    threads: 1,
                    ..cfg()
                },
            )
        };
        let fresh = rebuilt.run(&q);
        assert_eq!(after.answer, fresh.answer);
        assert_eq!(after.visits, fresh.visits);
    }

    /// A delta over labels the pattern never mentions, to show that the
    /// cache rules below do not depend on what the delta touched.
    fn zebra_batch(n: u32) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        let x = batch.add_node("Zebra");
        let y = batch.add_node("Zebra");
        batch.add_edge(NodeId(n + x as u32), NodeId(n + y as u32));
        batch
    }

    #[test]
    fn post_mutation_lookup_never_serves_pre_mutation_answer() {
        let g = fig1_graph();
        let engine = Engine::new(
            g,
            EngineConfig {
                threads: 1,
                ..cfg()
            },
        );
        let q = Query::PatternSim {
            pattern: fig1_pattern(),
        };
        let first = engine.run(&q);
        assert!(!first.cached);
        assert_eq!(engine.cache_len(), 1);

        let report = engine.apply_deltas(&zebra_batch(4)).unwrap();
        assert_eq!(report.touched_labels, vec!["Zebra".to_string()]);
        assert_eq!(engine.cache_len(), 0);

        // The lookup misses and recomputes on the new graph.
        let second = engine.run(&q);
        assert!(!second.cached, "stale pre-mutation entry must not serve");
        assert_eq!(engine.cache_len(), 1);
        assert_eq!(first.answer, second.answer); // answer unaffected here
        let third = engine.run(&q);
        assert!(third.cached, "new-generation entry is hittable");

        // In flight across the swap: a query pinned before the install
        // finishes after it. Its answer belongs to a generation no lookup
        // will ask for again, so the cache drops it on arrival.
        let pinned = engine.pin();
        engine.apply_deltas(&zebra_batch(6)).unwrap();
        assert_eq!(engine.cache_len(), 0);
        let mut scratch = engine.take_scratch();
        let (late, _, _) = engine.run_one(&pinned, &q, &mut scratch, None, 0);
        assert!(!late.cached);
        assert_eq!(engine.cache_len(), 0, "the in-flight insert was dropped");
        let fourth = engine.run(&q);
        assert!(!fourth.cached, "old-generation answer must not serve");
        assert_eq!(engine.cache_len(), 1);
    }

    #[test]
    fn apply_deltas_reclaims_the_whole_cache() {
        let q = Query::PatternSim {
            pattern: fig1_pattern(),
        };
        // Touches "CL", which the fig. 1 pattern mentions — and then a
        // batch whose labels it does not: either way nothing is kept.
        let mut touching = DeltaBatch::new();
        touching.remove_edge(NodeId(2), NodeId(3));
        for batch in [touching, zebra_batch(4)] {
            let engine = Engine::new(
                fig1_graph(),
                EngineConfig {
                    threads: 1,
                    ..cfg()
                },
            );
            engine.run(&q);
            assert_eq!(engine.cache_len(), 1);
            engine.apply_deltas(&batch).unwrap();
            assert_eq!(engine.cache_len(), 0);
        }
    }

    #[test]
    fn apply_deltas_rebuilds_only_built_indexes() {
        let g = fig1_graph();
        let engine = Engine::new(g, cfg());
        // Touch only the pattern side: the reach index stays lazy.
        engine.run(&Query::PatternSim {
            pattern: fig1_pattern(),
        });
        let mut batch = DeltaBatch::new();
        batch.add_node("New");
        engine.apply_deltas(&batch).unwrap();
        let ep = engine.pin();
        assert!(ep.nbr.get().is_some(), "built index carried forward");
        assert!(ep.reach.get().is_none(), "unbuilt index stays lazy");
        // And reach queries still work (building on demand post-swap).
        let r = engine.run(&Query::Reach {
            source: NodeId(0),
            target: NodeId(3),
        });
        assert!(matches!(
            r.answer,
            Answer::Reach {
                reachable: true,
                ..
            }
        ));
    }

    #[test]
    fn delta_error_leaves_engine_untouched() {
        let g = fig1_graph();
        let engine = Engine::new(g, cfg());
        let mut batch = DeltaBatch::new();
        batch.add_edge(NodeId(0), NodeId(99));
        assert!(engine.apply_deltas(&batch).is_err());
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.graph().edge_count(), 4);
    }

    fn mixed_queries() -> Vec<Query> {
        vec![
            Query::Reach {
                source: NodeId(0),
                target: NodeId(3),
            },
            Query::PatternSim {
                pattern: fig1_pattern(),
            },
            Query::PatternIso {
                pattern: fig1_pattern(),
            },
            Query::Reach {
                source: NodeId(3),
                target: NodeId(0),
            },
        ]
    }

    #[test]
    fn expired_deadline_times_out_whole_batch_at_any_thread_count() {
        let g = fig1_graph();
        for threads in [1usize, 2, 4] {
            let mut engine = Engine::new(
                g.clone(),
                EngineConfig {
                    batch_timeout: Some(Duration::ZERO),
                    threads,
                    ..cfg()
                },
            );
            let report = engine.run_batch(&mixed_queries());
            for (i, r) in report.results.iter().enumerate() {
                assert_eq!(
                    r.answer,
                    Answer::TimedOut,
                    "query {i} not timed out at {threads} threads"
                );
                assert_eq!(r.visits, 0, "timed-out query {i} charged visits");
            }
            assert_eq!(report.stats.timed_out, 4);
            assert_eq!(report.stats.charged_visits, 0);
            // The engine is still healthy: a fresh deadline-free batch on
            // the same instance answers normally.
            engine.cfg.batch_timeout = None;
            let clean = engine.run_batch(&mixed_queries());
            assert!(clean.results[0].answer.is_ok());
            assert!(clean.results[1].answer.is_ok());
        }
    }

    #[test]
    fn unreachable_deadline_leaves_answers_identical() {
        let g = fig1_graph();
        let plain = Engine::new(g.clone(), cfg());
        let with_deadline = Engine::new(
            g,
            EngineConfig {
                batch_timeout: Some(Duration::from_secs(3600)),
                ..cfg()
            },
        );
        let qs = mixed_queries();
        let a = plain.run_batch(&qs);
        let b = with_deadline.run_batch(&qs);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.answer, y.answer);
            assert_eq!(x.visits, y.visits);
        }
        assert_eq!(b.stats.timed_out, 0);
    }

    #[test]
    fn timed_out_answers_round_trip_the_wire() {
        let g = fig1_graph();
        let engine = Engine::new(
            g,
            EngineConfig {
                batch_timeout: Some(Duration::ZERO),
                threads: 1,
                ..cfg()
            },
        );
        let report = engine.run_batch(&mixed_queries());
        let mut buf = Vec::new();
        let answers: Vec<Answer> = report.results.iter().map(|r| r.answer.clone()).collect();
        crate::wire::write_answer_file(&mut buf, &answers).unwrap();
        let parsed = crate::wire::parse_answer_file(&String::from_utf8(buf).unwrap()).unwrap();
        assert_eq!(parsed.answers, answers);
    }

    #[test]
    fn sjf_admission_sheds_expensive_queries_without_evaluating() {
        let g = fig1_graph();
        let engine = Engine::new(
            g,
            EngineConfig {
                aggregate_visit_budget: Some(10),
                admission: AdmissionPolicy::ShortestJobFirst,
                threads: 1,
                ..cfg()
            },
        );
        // Reach estimates at 2 each; a ratio-1.0 pattern estimates at the
        // full per-query budget (|G| = 8 units here), so the pattern is
        // shed and both reach queries are admitted.
        let qs = vec![
            Query::Reach {
                source: NodeId(0),
                target: NodeId(3),
            },
            Query::PatternSim {
                pattern: fig1_pattern(),
            },
            Query::Reach {
                source: NodeId(3),
                target: NodeId(0),
            },
        ];
        let report = engine.run_batch(&qs);
        assert!(report.results[0].answer.is_ok());
        match report.results[1].answer {
            Answer::Denied { needed, .. } => assert!(needed > 0),
            ref other => panic!("expected shed pattern, got {other:?}"),
        }
        assert_eq!(report.results[1].visits, 0, "shed query must not run");
        assert!(report.results[2].answer.is_ok());
        assert_eq!(report.stats.denied, 1);
    }

    #[test]
    fn sjf_without_aggregate_budget_is_a_no_op() {
        let g = fig1_graph();
        let sjf = Engine::new(
            g.clone(),
            EngineConfig {
                admission: AdmissionPolicy::ShortestJobFirst,
                ..cfg()
            },
        );
        let plain = Engine::new(g, cfg());
        let qs = mixed_queries();
        let a = sjf.run_batch(&qs);
        let b = plain.run_batch(&qs);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.answer, y.answer);
        }
        assert_eq!(a.stats.denied, 0);
    }

    #[test]
    fn sjf_shed_set_is_thread_count_invariant() {
        let g = fig1_graph();
        let mut baseline: Option<Vec<bool>> = None;
        for threads in [1usize, 2, 4] {
            let engine = Engine::new(
                g.clone(),
                EngineConfig {
                    aggregate_visit_budget: Some(10),
                    admission: AdmissionPolicy::ShortestJobFirst,
                    threads,
                    ..cfg()
                },
            );
            let report = engine.run_batch(&mixed_queries());
            let shed: Vec<bool> = report
                .results
                .iter()
                .map(|r| matches!(r.answer, Answer::Denied { .. }))
                .collect();
            match &baseline {
                None => baseline = Some(shed),
                Some(b) => assert_eq!(b, &shed, "shed set diverges at {threads} threads"),
            }
        }
    }
}
