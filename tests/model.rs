//! The reference model: a seeded state machine runs a long-lived `Engine`
//! (k = 1) or `Router(k)` through query batches, deltas, forced compactions,
//! checkpoints and restarts (with `--features fault-injection` also WAL
//! crashes, worker losses and query faults) and checks it after every step
//! against labels and a plain edge set re-evaluated from scratch — the
//! Berkholz–Keppeler–Schweikardt criterion: correct exactly when nothing
//! tells it apart from re-evaluation on the current database. The checks
//! are `Run::{apply, restart, check_exact, batch}`'s. A failure names the
//! case seed and step; `run(seed, ..)` replays it from `Case::new(seed)`.

mod support;

#[cfg(feature = "fault-injection")]
use rbq_engine::faultpoint::{arm, FaultAction, FaultPlan};
use rbq_engine::{
    AdmissionPolicy, Answer, BatchReport, BudgetSpec, Engine, EngineStats, Query, QueryClass,
    QueryResult, RecoveryReport,
};
use rbq_graph::traverse::reaches;
use rbq_graph::{DeltaBatch, DeltaOp, DeltaReport, Graph, GraphBuilder, NodeId};
use rbq_pattern::{match_opt, vf2_opt, Vf2Config};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use support::{graph_sig, reach, Case, Deployment, Edges, Sut, POLICIES};

/// One case per deployment cell: case `s` starts in cell `s`, and every
/// restart moves to a random cell.
const CASES: u64 = Deployment::CELLS as u64;
const STEPS: usize = 8;
const STEP_KINDS: [&str; 5] = ["batch", "apply", "compact", "checkpoint", "restart"];
const FAULT_STEPS: &[&str] = if cfg!(feature = "fault-injection") {
    &["crash", "worker-loss", "query-fault"]
} else {
    &[]
};

/// A true reach verdict: always certified.
const CERTAIN: Answer = Answer::Reach {
    reachable: true,
    certified: true,
};

/// A batch's report, and the slots an armed fault may fail.
type Ran = (BatchReport, Vec<usize>);

/// What the whole run reached: `cell N` per deployment cell, and counts.
type Coverage = BTreeMap<String, usize>;

#[test]
fn the_system_is_indistinguishable_from_the_model() {
    let mut cov = Coverage::new();
    for seed in 0..CASES {
        run(seed, &mut cov);
    }
    let n = |what: &str| cov.get(what).copied().unwrap_or(0);
    for c in 0..Deployment::CELLS {
        assert!(n(&format!("cell {c}")) > 0, "cell {c} never deployed");
    }
    for kind in STEP_KINDS.iter().chain(FAULT_STEPS) {
        assert!(n(kind) >= 5, "step {kind} ran {} times", n(kind));
    }
    // "two shards busy" counts label-hash batches only; an in-batch repeat
    // at 8 threads with a cache on races its twin for one cache key.
    let reached = "two shards busy,checkpointed,replayed tail,denied,shed,warm hit";
    for what in reached.split(',').chain(["in-batch repeat at 8 threads"]) {
        assert!(n(what) > 0, "no {what}");
    }
    // At least 4 × 96 pattern answers and 2 × 96 all-pairs reach sweeps
    // checked against the exact evaluators, split by α.
    for (what, floor) in [("exact pattern", 192), ("bounded pattern", 192)] {
        assert!(n(what) >= floor, "{what}: {}", n(what));
    }
    for (what, floor) in [("exact sweep", 96), ("bounded sweep", 96)] {
        assert!(n(what) >= floor, "{what}: {}", n(what));
    }
}

/// Run case `seed`, naming the seed and step in any failure.
fn run(seed: u64, cov: &mut Coverage) {
    let mut at = (0, "setup");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (run, sut) = Run::start(Case::new(seed), cov);
        run.steps(sut, &mut at)
    }));
    if let Err(panic) = outcome {
        let msg = (panic.downcast_ref::<String>().map(String::as_str))
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        panic!(
            "model: case seed {seed}, step {} ({}): {msg}\n\
             replay: run({seed}, ..) derives everything from Case::new({seed})",
            at.0, at.1
        );
    }
}

/// Labels and a plain edge set, plus what the compaction threshold reads:
/// the edge count at the last compaction or load, and the churn since.
#[derive(Clone)]
struct Model {
    labels: Vec<String>,
    edges: Edges,
    base: usize,
    churn: usize,
}

impl Model {
    fn of(g: &Graph) -> Model {
        let (labels, edges) = graph_sig(g);
        let (base, edges) = (edges.len(), edges.into_iter().collect());
        Model {
            labels,
            edges,
            base,
            churn: 0,
        }
    }

    fn graph(&self) -> Arc<Graph> {
        let mut b = GraphBuilder::new();
        for l in &self.labels {
            b.add_node(l);
        }
        for &(u, v) in &self.edges {
            b.add_edge(NodeId(u), NodeId(v));
        }
        Arc::new(b.build())
    }

    /// Apply `batch` op by op, the last op on an edge winning, and predict its
    /// report: an effective apply compacts at churn `max(64, base / 4)`.
    fn apply(&mut self, batch: &DeltaBatch) -> DeltaReport {
        let (old, mut last) = (self.labels.len(), BTreeMap::new());
        for op in batch.ops() {
            match op {
                DeltaOp::AddNode(label) => self.labels.push(label.clone()),
                DeltaOp::AddEdge(u, v) => last.extend([((u.0, v.0), true)]),
                DeltaOp::RemoveEdge(u, v) => last.extend([((u.0, v.0), false)]),
            }
        }
        let mut touched: BTreeSet<String> = self.labels[old..].iter().cloned().collect();
        let (mut added, mut removed) = (0, 0);
        for ((u, v), add) in last {
            if add && self.edges.insert((u, v)) {
                added += 1;
            } else if !add && self.edges.remove(&(u, v)) {
                removed += 1;
            } else {
                continue;
            }
            touched.extend([u, v].map(|w| self.labels[w as usize].clone()));
        }
        self.churn += added + removed;
        let compacted = batch.added_nodes() + added + removed > 0 && self.churn_to_compact() == 0;
        if compacted {
            (self.base, self.churn) = (self.edges.len(), 0);
        }
        DeltaReport {
            nodes_added: batch.added_nodes(),
            edges_added: added,
            edges_removed: removed,
            touched_labels: touched.into_iter().collect(),
            compacted,
            overlay_churn: self.churn,
        }
    }

    fn churn_to_compact(&self) -> usize {
        (self.base / 4).max(64).saturating_sub(self.churn)
    }
}

struct Run<'c> {
    case: Case,
    model: Model,
    deployment: Deployment,
    /// Since the deployment started: every batch's stats, the applies (a lone
    /// engine's generation), and the patterns a cache must answer now.
    lifetime: EngineStats,
    generation: u64,
    warm: BTreeSet<String>,
    /// The durable directory, its snapshot and sequence, the log after it.
    dir: Option<PathBuf>,
    snapshot: (Model, u64),
    tail: Vec<DeltaBatch>,
    cov: &'c mut Coverage,
}

impl<'c> Run<'c> {
    fn start(case: Case, cov: &'c mut Coverage) -> (Run<'c>, Sut) {
        let model = Model::of(&case.graph);
        let mut run = Run {
            snapshot: (model.clone(), 0),
            model,
            deployment: case.deployment.clone(),
            case,
            lifetime: EngineStats::default(),
            generation: 0,
            warm: BTreeSet::new(),
            dir: None,
            tail: Vec::new(),
            cov,
        };
        run.deploy(run.deployment.clone());
        let sut = Sut::new(Arc::new(run.case.graph.clone()), &run.deployment);
        if run.case.durable {
            run.checkpoint(&sut, Some(support::fresh_dir("model")));
        }
        (run, sut)
    }

    fn count(&mut self, what: &str, n: usize) {
        *self.cov.entry(what.to_string()).or_default() += n;
    }

    fn steps(mut self, mut sut: Sut, at: &mut (usize, &'static str)) {
        for step in 0..STEPS {
            let n = self.model.labels.len();
            let possible = |kind: &&str| match *kind {
                "compact" => n * n >= self.model.churn_to_compact(),
                "checkpoint" | "restart" | "crash" => self.dir.is_some(),
                _ => true,
            };
            // Batches and plain applies are the bulk of a run.
            let kinds = STEP_KINDS.iter().chain(FAULT_STEPS);
            let kinds = kinds.chain(&["batch", "batch", "apply"]).copied();
            let kinds: Vec<&str> = kinds.filter(possible).collect();
            let kind = kinds[self.case.rng.below(kinds.len())];
            *at = (step, kind);
            self.count(kind, 1);
            match kind {
                "batch" => drop(self.batch(&sut, |qs| (sut.run_batch(qs), vec![]))),
                "apply" | "compact" => {
                    let need = usize::from(kind == "compact") * self.model.churn_to_compact();
                    let batch = self.case.delta(n, &self.model.edges, need);
                    let compacted = self.apply(&mut sut, &batch).compacted;
                    assert!(compacted || need == 0, "forced compaction");
                }
                "checkpoint" => self.checkpoint(&sut, None),
                "restart" => {
                    drop(sut);
                    sut = self.restart(None);
                }
                #[cfg(feature = "fault-injection")]
                "crash" => sut = self.crash(sut),
                #[cfg(feature = "fault-injection")]
                "worker-loss" => self.worker_loss(&sut),
                #[cfg(feature = "fault-injection")]
                "query-fault" => self.query_fault(&sut),
                other => unreachable!("step {other}"),
            }
            if let Sut::Engine(e) = &sut {
                let (labels, edges) = graph_sig(&e.graph());
                assert_eq!(labels, self.model.labels, "served labels");
                assert!(edges.iter().eq(&self.model.edges), "served edges");
                assert_eq!(e.generation(), self.generation, "generation");
            }
        }
        drop(sut);
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Serve from deployment `d` from now on — when it is budgeted, with
    /// an aggregate budget of about half of what an 8-query batch costs.
    fn deploy(&mut self, mut d: Deployment) {
        self.count(&format!("cell {}", d.cell), 1);
        (self.lifetime, self.generation) = (EngineStats::default(), 0);
        self.warm.clear();
        d.cfg.aggregate_visit_budget = d.budgeted.then(|| {
            let g = self.model.graph();
            let probe = self.case.batch(&g, 8);
            let results = Engine::new(g, d.cfg.clone()).run_batch(&probe).results;
            let ok = results.iter().filter(|r| r.answer.is_ok());
            (ok.map(|r| r.visits).sum::<usize>() / 2).max(1)
        });
        self.deployment = d;
    }

    /// `enable_durability` into `dir` (or the current one): state at seq 0.
    fn checkpoint(&mut self, sut: &Sut, dir: Option<PathBuf>) {
        let dir = dir.or_else(|| self.dir.take()).expect("durable");
        sut.enable_durability(&dir);
        (self.dir, self.snapshot) = (Some(dir), (self.model.clone(), 0));
        self.tail.clear();
    }

    /// Apply `batch` to both sides: the report must be the model's; a durable
    /// apply is logged, and checkpoints when it compacts.
    fn apply(&mut self, sut: &mut Sut, batch: &DeltaBatch) -> DeltaReport {
        let want = self.model.apply(batch);
        let got = sut.apply_deltas(batch).expect("generated batches apply");
        assert_eq!(got, want, "delta report");
        self.generation += 1;
        self.warm.clear();
        if self.dir.is_some() {
            self.tail.push(batch.clone());
            if got.compacted {
                self.snapshot = (self.model.clone(), self.snapshot.1 + self.tail.len() as u64);
                self.tail.clear();
                self.count("checkpointed", 1);
            }
        }
        got
    }

    /// Recover the dropped system into a random deployment: report and state
    /// must be the model's snapshot with its tail replayed. `crashed`, a batch
    /// whose apply died in the WAL, is kept exactly when the recovered
    /// `last_seq` says it survived — which must be it or the batch before.
    fn restart(&mut self, crashed: Option<&DeltaBatch>) -> Sut {
        let rng = &mut self.case.rng;
        let next = Deployment::new(rng.below(Deployment::CELLS), rng);
        self.deploy(next);
        let dir = self.dir.as_ref().expect("durable");
        let (sut, report) = Sut::recover(dir, &self.deployment);
        let seq = self.snapshot.1 + self.tail.len() as u64;
        if let Some(batch) = crashed {
            let last = report.last_seq;
            let adjacent = last == seq || last == seq + 1;
            assert!(adjacent, "last_seq {last} after crashing {seq} + 1");
            self.tail.extend((last > seq).then(|| batch.clone()));
        }
        let (snapshot, snapshot_seq) = &self.snapshot;
        let mut model = Model::of(&snapshot.graph());
        self.tail.iter().for_each(|batch| drop(model.apply(batch)));
        let same = model.labels == self.model.labels && model.edges == self.model.edges;
        assert!(same || crashed.is_some(), "recovered graph");
        self.model = model;
        let want = RecoveryReport {
            snapshot_seq: *snapshot_seq,
            replayed: self.tail.len(),
            skipped: 0,
            torn_tail: false,
            quarantined: 0,
            last_seq: snapshot_seq + self.tail.len() as u64,
            nodes: self.model.labels.len(),
            edges: self.model.edges.len(),
        };
        assert_eq!(report, want, "recovery report");
        self.count("replayed tail", usize::from(report.replayed > 0));
        sut
    }

    /// Draw a batch (up to 40 nodes: maybe plus every pair's reach query) and
    /// evaluate it on a fresh single-threaded, cacheless, unbudgeted engine
    /// over the model's graph, checked by `check_exact`, and with SJF for the
    /// slots it sheds; `run` it through the system, maybe under a fault that
    /// may fail one of the returned slots. Every other answer and visit count
    /// must be the reference's as the model's input-order fold settles the
    /// budget; a warm repeat must hit; routing, per-shard, batch and lifetime
    /// statistics must fold the results; outcomes are conserved.
    fn batch(&mut self, sut: &Sut, run: impl FnOnce(&[Query]) -> Ran) -> BatchReport {
        let g = self.model.graph();
        let (n, len) = (g.node_count(), self.case.rng.range(1..12));
        let mut queries = self.case.batch(&g, len);
        let sweep = n <= 40 && self.case.rng.one_in(2);
        if sweep {
            queries.extend((0..n * n).map(|i| reach(i / n, i % n)));
        }
        let mut cfg = self.deployment.cfg.clone();
        let budget = cfg.aggregate_visit_budget.take();
        (cfg.threads, cfg.cache_capacity) = (1, 0);
        let reference = Engine::new(g.clone(), cfg.clone());
        let raw = reference.run_batch(&queries).results;
        self.check_exact(&g, &reference, &queries, &raw);
        let exact = self.deployment.cfg.reach_alpha == 1.0;
        let what = ["bounded sweep", "exact sweep"][usize::from(exact)];
        self.count(what, usize::from(sweep));
        let mut shed = vec![None; queries.len()];
        if cfg.admission == AdmissionPolicy::ShortestJobFirst && budget.is_some() {
            cfg.aggregate_visit_budget = budget;
            let results = Engine::new(g, cfg).run_batch(&queries).results;
            let slot = |r: QueryResult| is_shed(&r).then_some(r.answer);
            shed = results.into_iter().map(slot).collect();
        }

        let (report, may_fail) = run(&queries);
        let results = &report.results;
        assert_eq!(results.len(), queries.len());
        let failed = |i: &usize| matches!(results[*i].answer, Answer::Failed(_) | Answer::TimedOut);
        let faulted: Vec<usize> = (0..results.len()).filter(failed).collect();
        let contained = faulted.len() <= 1 && faulted.iter().all(|i| may_fail.contains(i));
        assert!(contained, "faulted slots {faulted:?}, allowed {may_fail:?}");
        let (mut remaining, mut charged, mut evaluated_now) = (budget, 0, Vec::new());
        let cache = self.deployment.cfg.cache_capacity > 0;
        let racing = cache && self.deployment.cfg.threads == 8;
        for (i, (got, r)) in results.iter().zip(&raw).enumerate() {
            let want = match (&shed[i], remaining) {
                (Some(shed), _) => (shed.clone(), 0),
                _ if faulted.contains(&i) => (got.answer.clone(), 0),
                (None, Some(remaining)) if r.answer.is_ok() && r.visits > remaining => {
                    let needed = r.visits;
                    (Answer::Denied { needed, remaining }, needed)
                }
                _ => (r.answer.clone(), r.visits),
            };
            if want.0.is_ok() {
                charged += r.visits;
                remaining = remaining.map(|rem| rem - r.visits);
            }
            let q = &queries[i];
            assert_eq!((got.answer.clone(), got.visits), want, "query {i}: {q:?}");
            assert!(cache || !got.cached, "hit without a cache");
            if q.class() != QueryClass::Reach && evaluated(got) {
                let line = q.to_line().expect("generated labels serialise");
                if cache && self.warm.contains(&line) {
                    assert!(got.cached, "query {i} missed a warm cache");
                    self.count("warm hit", 1);
                }
                let repeat = racing && evaluated_now.contains(&line);
                self.count("in-batch repeat at 8 threads", usize::from(repeat));
                evaluated_now.push(line);
            }
        }
        self.warm.extend(evaluated_now);
        assert!(budget.is_none_or(|b| charged <= b), "over budget");
        self.count("shed", shed.iter().flatten().count());
        let denied = results.iter().filter(|r| evaluated(r) && !r.answer.is_ok());
        self.count("denied", denied.count());

        let stats = latency_free(&report.stats);
        assert_eq!(stats, fold(queries.iter().zip(results)), "batch stats");
        assert_eq!(stats.charged_visits, charged, "charged visits");
        let delivered = results.iter().filter(|r| r.answer.is_ok()).count();
        let outcomes = delivered + stats.denied + stats.timed_out + stats.failed + stats.errors;
        assert_eq!(outcomes, stats.queries, "outcomes not conserved");
        let shards = report.per_shard.len();
        assert_eq!(shards, self.deployment.shards, "one report per shard");
        let routes: Vec<usize> = queries.iter().map(|q| self.route(q)).collect();
        for (q, &s) in queries.iter().zip(&routes) {
            assert_eq!(sut.route(q), s, "route of {q:?}");
        }
        for (s, shard) in report.per_shard.iter().enumerate() {
            let mine = (0..queries.len()).filter(|&i| shed[i].is_none() && routes[i] == s);
            let mine: Vec<usize> = mine.collect();
            assert_eq!(shard.routed, mine.len(), "shard {s} routed");
            let mut want = fold(mine.iter().map(|&i| (&queries[i], &results[i])));
            (want.denied, want.charged_visits) = (0, 0);
            assert_eq!(latency_free(&shard.stats), want, "shard {s} stats");
        }
        let busy = report.per_shard.iter().filter(|s| s.routed > 0).count();
        let spread = busy >= 2 && self.deployment.policy == 0;
        self.count("two shards busy", usize::from(spread));
        self.lifetime.merge(&stats);
        assert_eq!(latency_free(&sut.stats()), self.lifetime, "lifetime stats");
        report
    }

    /// The paper's contract: exact at α = 1, one-sided below, `|G_Q|` and reach
    /// visits within bounds; an error exactly for bad nodes or labels.
    fn check_exact(&mut self, g: &Graph, reference: &Engine, qs: &[Query], raw: &[QueryResult]) {
        let (units, n) = (reference.pattern_budget().max_units, g.node_count());
        let exact_reach = self.deployment.cfg.reach_alpha == 1.0;
        let exact_patterns = self.deployment.cfg.pattern_budget == BudgetSpec::Ratio(1.0);
        // A query repeated in the batch is evaluated exactly once.
        let mut memo = BTreeMap::new();
        for (q, r) in qs.iter().zip(raw) {
            let answer = &r.answer;
            let pattern = match q {
                Query::PatternSim { pattern } | Query::PatternIso { pattern } => pattern,
                &Query::Reach { source, target } => {
                    let in_range = source.index().max(target.index()) < n;
                    assert!(is_error(r) != in_range, "{q:?}: {answer:?}");
                    if let Answer::Reach { reachable, .. } = r.answer {
                        let truth = reaches(g, source, target).0;
                        let cap = reference.reach_index().visit_cap();
                        assert!(r.visits <= cap + 2, "{q:?}: {} visits, cap {cap}", r.visits);
                        assert!(!reachable || truth, "false positive on {q:?}");
                        assert!(!reachable || *answer == CERTAIN, "uncertified {q:?}");
                        assert!(reachable == truth || !exact_reach, "α = 1, {q:?}");
                    }
                    continue;
                }
            };
            let resolved = pattern.resolve(g);
            assert!(is_error(r) == resolved.is_err(), "{q:?}: {answer:?}");
            if let Answer::Pattern { gq_size, .. } = r.answer {
                assert!(gq_size <= units, "{q:?}: |G_Q| = {gq_size} > {units}");
            }
            let (Ok(resolved), Answer::Pattern { matches, .. }) = (resolved, answer) else {
                continue;
            };
            let line = q.to_line().expect("generated labels serialise");
            let exact = memo.entry(line).or_insert_with(|| match q {
                Query::PatternSim { .. } => match_opt(&resolved, g),
                _ => vf2_opt(&resolved, g, Vf2Config::default()).output_matches,
            });
            assert!(matches.iter().all(|v| exact.contains(v)), "unsound {q:?}");
            assert!(matches == exact || !exact_patterns, "α = 1, {q:?}");
            let what = ["bounded pattern", "exact pattern"][usize::from(exact_patterns)];
            self.count(what, 1);
        }
    }

    /// Where `Router::route` must send `q`: the policy's value for the anchor's
    /// or source's label mod k; an out-of-range source goes to shard 0.
    fn route(&self, q: &Query) -> usize {
        let label = match q {
            Query::Reach { source, .. } => {
                self.model.labels.get(source.index()).map(String::as_str)
            }
            Query::PatternSim { pattern } | Query::PatternIso { pattern } => {
                Some(pattern.label_str(pattern.personalized()))
            }
        };
        let k = self.deployment.shards;
        label.map_or(0, |l| POLICIES[self.deployment.policy].shard(l, k) % k)
    }
}

/// Fault steps: each arms one plan around one system call, after the
/// reference and the exact evaluators ran, so only the system sees it.
#[cfg(feature = "fault-injection")]
impl Run<'_> {
    /// A `wal.append` / `wal.fsync` panic during a durable apply, then a
    /// restart that keeps the batch exactly when its record reached the log.
    fn crash(&mut self, mut sut: Sut) -> Sut {
        let point = ["wal.append", "wal.fsync"][self.case.rng.below(2)];
        let n = self.model.labels.len();
        let batch = self.case.delta(n, &self.model.edges, 0);
        let crashed = support::crashes(point, 0, || sut.apply_deltas(&batch));
        assert!(crashed, "{point} never fired");
        drop(sut);
        self.restart(Some(&batch))
    }

    /// A batch worker lost at one replica — a panic, or starvation outside
    /// any query — or delayed: the batch comes back byte-identical.
    fn worker_loss(&mut self, sut: &Sut) {
        let rng = &mut self.case.rng;
        let victim = rng.below(self.deployment.shards) as u64;
        let delay = FaultAction::Delay(Duration::from_millis(1));
        let action = [FaultAction::Panic, FaultAction::Starve, delay][rng.below(3)];
        self.batch(sut, |qs| {
            let _plan = arm(FaultPlan::new().on_index("engine.worker", victim, action));
            (sut.run_batch(qs), vec![])
        });
    }

    /// A panic or starvation at `engine.run_one` for position `i` fails
    /// exactly `results[i]` at every k, unless shed; at a kernel point's n-th
    /// firing it fails at most one query, and a delay none.
    fn query_fault(&mut self, sut: &Sut) {
        let rng = &mut self.case.rng;
        let (pick, panic, nth) = (rng.below(usize::MAX), rng.one_in(2), rng.below(6) as u64);
        let delay = FaultAction::Delay(Duration::from_millis(1));
        let action = [FaultAction::Starve, FaultAction::Panic][usize::from(panic)];
        if rng.one_in(2) {
            let report = self.batch(sut, |qs| {
                let i = pick % qs.len();
                let _plan = arm(FaultPlan::new().on_index("engine.run_one", i as u64, action));
                (sut.run_batch(qs), vec![i])
            });
            let hit = &report.results[pick % report.results.len()];
            let failed = matches!(hit.answer, Answer::Failed(_)) && panic;
            let settled = failed || (hit.answer == Answer::TimedOut && !panic) || is_shed(hit);
            assert!(settled, "run_one fault settled {:?}", hit.answer);
        } else {
            let point = ["ball.bfs", "dualsim.fixpoint", "reduction.pick", "vf2.step"][pick % 4];
            let action = [action, delay][usize::from(rng.one_in(3))];
            self.batch(sut, |qs| {
                let _plan = arm(FaultPlan::new().on_nth(point, nth, action));
                let all = (0..qs.len()).filter(|_| action != delay).collect();
                (sut.run_batch(qs), all)
            });
        }
    }
}

fn is_error(r: &QueryResult) -> bool {
    matches!(r.answer, Answer::Error(_))
}

fn is_shed(r: &QueryResult) -> bool {
    matches!(r.answer, Answer::Denied { .. }) && r.visits == 0
}

/// Delivered, or denied only at settlement: evaluated, counted, cached.
fn evaluated(r: &QueryResult) -> bool {
    r.answer.is_ok() || (matches!(r.answer, Answer::Denied { .. }) && !is_shed(r))
}

/// The statistics a batch must report, folded over its results: queries per
/// class, outcome counters, an evaluated query's visits and cache hit or
/// miss, a delivered one's charge.
fn fold<'a>(items: impl Iterator<Item = (&'a Query, &'a QueryResult)>) -> EngineStats {
    let mut s = EngineStats::default();
    for (q, r) in items {
        match &r.answer {
            Answer::Error(_) => s.errors += 1,
            Answer::TimedOut => s.timed_out += 1,
            Answer::Failed(_) => s.failed += 1,
            Answer::Denied { .. } => s.denied += 1,
            _ => s.charged_visits += r.visits,
        }
        let (evaluated, pattern) = (evaluated(r), q.class() != QueryClass::Reach);
        s.queries += 1;
        s.total_visits += if evaluated { r.visits } else { 0 };
        s.cache_hits += usize::from(evaluated && pattern && r.cached);
        s.cache_misses += usize::from(evaluated && pattern && !r.cached);
        let class = match q.class() {
            QueryClass::Reach => &mut s.reach,
            QueryClass::Sim => &mut s.sim,
            QueryClass::Iso => &mut s.iso,
        };
        class.queries += 1;
        class.visits += if evaluated { r.visits } else { 0 };
    }
    s
}

/// `s` with its one schedule-dependent part, the latencies, zeroed.
fn latency_free(s: &EngineStats) -> EngineStats {
    let mut s = s.clone();
    for class in [&mut s.reach, &mut s.sim, &mut s.iso] {
        class.latency = Duration::ZERO;
    }
    s
}
