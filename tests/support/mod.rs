//! The one test-model generator and the fixtures the integration suites
//! share (`tests/counting_alloc/` is the precedent): [`Case`] derives a
//! whole model run from one seed, [`Sut`] is the deployment under test,
//! [`graphs`] and [`graphs_with_chains`] hand the generator to the
//! proptest suites, and [`fixture`] and [`tiny_graph`] with their
//! batches, [`fresh_dir`], [`serial`], [`POLICIES`] and [`AllTo`] serve
//! the scenario suites. [`plain_search`] is the reduction's oracle: Fig. 3
//! written plainly, over the graphs of [`reduction_cases`]. Each test
//! binary uses its own subset.
#![allow(dead_code)]

use proptest::prelude::Strategy;
use rbq_core::guard::Semantics;
use rbq_core::{PickPolicy, ReductionConfig, ReductionOutcome, ResourceBudget};
use rbq_engine::AdmissionPolicy::{InputOrder, ShortestJobFirst};
use rbq_engine::{
    Answer, ApplyError, BatchReport, BudgetSpec, Engine, EngineConfig, EngineStats, Query,
    QueryResult, RecoveryReport,
};
use rbq_graph::traverse::VisitStats;
use rbq_graph::{DeltaBatch, DeltaReport, Graph, GraphBuilder, GraphView, Label, NodeId};
use rbq_pattern::{PNode, Pattern, PatternBuilder, ResolvedPattern};
use rbq_router::{LabelHashPartitioner, Partitioner, Router, RouterError};
use rbq_workload::{power_law, sample_mixed_workload, youtube_like, MixedWorkloadSpec};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// SplitMix64 from a seed, the generator's only source of randomness: a
/// case is a pure function of its seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`, `n > 0`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.u64() % n as u64) as usize
    }

    pub fn range(&mut self, r: Range<usize>) -> usize {
        r.start + self.below(r.end - r.start)
    }

    pub fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// A digraph on a node count drawn from `nodes`, under three random edges
/// per node (self-loops and 2-cycles included), labels from `L0..L3`; an
/// anchored graph gives node 0 the unique label `ME`.
pub fn graph(rng: &mut Rng, nodes: Range<usize>, anchored: bool) -> Graph {
    let n = rng.range(nodes);
    let mut b = GraphBuilder::new();
    for v in 0..n {
        let label = format!("L{}", rng.below(4));
        b.add_node(if anchored && v == 0 { "ME" } else { &label });
    }
    for _ in 0..rng.below(3 * n) {
        b.add_edge(NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32));
    }
    b.build()
}

/// `edges`, each flipped at random, over `ME` and `n - 1` nodes labelled
/// from `L0..L3`; the output is the last node.
fn anchored_pattern(rng: &mut Rng, n: usize, edges: Vec<(usize, usize)>) -> Pattern {
    let mut labels = vec!["ME".to_string()];
    labels.extend((1..n).map(|_| format!("L{}", rng.below(4))));
    let flip = |(u, v)| [(u, v), (v, u)][rng.below(2)];
    let edges: Vec<_> = edges.into_iter().map(flip).collect();
    build_pattern(&labels, &edges, 0, n - 1)
}

fn build_pattern(labels: &[String], edges: &[(usize, usize)], up: usize, uo: usize) -> Pattern {
    let mut b = PatternBuilder::new();
    let ids: Vec<_> = labels.iter().map(|l| b.add_node(l)).collect();
    for &(u, v) in edges {
        b.add_edge(ids[u], ids[v]);
    }
    b.personalized(ids[up]).output(ids[uo]);
    b.build()
}

/// A pattern's labels and edges as plain values, for rebuilding a variant.
fn parts(p: &Pattern) -> (Vec<String>, Vec<(usize, usize)>) {
    let labels = p.nodes().map(|u| p.label_str(u).to_string()).collect();
    let edges = p.edges().iter().map(|&(u, v)| (u.index(), v.index()));
    (labels, edges.collect())
}

/// A chain anchored at `ME` with a hop count drawn from `hops`.
pub fn chain(rng: &mut Rng, hops: Range<usize>) -> Pattern {
    let n = 1 + rng.range(hops);
    anchored_pattern(rng, n, (1..n).map(|v| (v - 1, v)).collect())
}

/// A branching pattern anchored at `ME`: a random-parent tree over 2–5
/// nodes plus up to two extra edges.
pub fn tree(rng: &mut Rng) -> Pattern {
    let n = rng.range(2..6);
    let mut edges: Vec<_> = (1..n).map(|v| (rng.below(v), v)).collect();
    for _ in 0..rng.below(3) {
        let (a, b) = (rng.below(n), rng.below(n));
        if a != b {
            edges.push((a, b));
        }
    }
    anchored_pattern(rng, n, edges)
}

/// A [`tree`] (its extra edges close cycles and 2-cycles), and in one case
/// of four a second tree beside it that no edge joins to the anchor's; the
/// output is any node of either.
pub fn shaped(rng: &mut Rng) -> Pattern {
    let p = tree(rng);
    if !rng.one_in(4) {
        return p;
    }
    let (mut labels, mut edges) = parts(&p);
    let (more, more_edges) = parts(&tree(rng));
    let n = labels.len();
    labels.push(format!("L{}", rng.below(4)));
    labels.extend(more.into_iter().skip(1));
    edges.extend(more_edges.into_iter().map(|(u, v)| (u + n, v + n)));
    let out = rng.below(labels.len());
    build_pattern(&labels, &edges, 0, out)
}

/// A near-twin of `p` (≥ 2 nodes): the same labels and edges with another
/// output node, or with one edge reversed — what a memo keyed on less than
/// the whole pattern would alias.
pub fn twin(rng: &mut Rng, p: &Pattern) -> Pattern {
    let (labels, mut edges) = parts(p);
    let mut out = p.output().index();
    if edges.is_empty() || rng.one_in(2) {
        out = (out + 1 + rng.below(labels.len() - 1)) % labels.len();
    } else {
        let e = rng.below(edges.len());
        edges[e] = (edges[e].1, edges[e].0);
    }
    build_pattern(&labels, &edges, p.personalized().index(), out)
}

/// [`graph`] (unanchored) as a proptest strategy. It draws a seed, not the
/// graph's parts, so it could not shrink a failure to a smaller graph; the
/// vendored proptest never shrinks anyway, and reports the failing case's
/// rng seed instead, which replays the same graph.
pub fn graphs(nodes: Range<usize>) -> impl Strategy<Value = Graph> {
    (0..u64::MAX).prop_map(move |seed| graph(&mut Rng(seed), nodes.clone(), false))
}

/// An anchored [`graph`] with a [`chain`] over it, as a proptest strategy
/// that, like [`graphs`], does not shrink.
pub fn graphs_with_chains(
    nodes: Range<usize>,
    hops: Range<usize>,
) -> impl Strategy<Value = (Graph, Pattern)> {
    (0..u64::MAX).prop_map(move |seed| {
        let mut rng = Rng(seed);
        let g = graph(&mut rng, nodes.clone(), true);
        (g, chain(&mut rng, hops.clone()))
    })
}

/// A cell of threads {1, 2, 8} × k {1, 2, 3, 8} × [`POLICIES`] × budget
/// {none, aggregate} × admission {`InputOrder`, `ShortestJobFirst`}, with a
/// cache or none, pattern budget `Ratio(1.0)` or `Units(n)`, reach α ≤ 1.
#[derive(Debug, Clone)]
pub struct Deployment {
    pub cell: usize,
    /// The configuration; a budgeted deployment's aggregate budget is set
    /// once a probe has priced a batch.
    pub cfg: EngineConfig,
    /// `k`: a lone `Engine` at 1, a `Router` above.
    pub shards: usize,
    /// Index into [`POLICIES`].
    pub policy: usize,
    pub budgeted: bool,
}

impl Deployment {
    pub const CELLS: usize = 3 * 4 * 4 * 2 * 2;

    /// The deployment in `cell < CELLS`, its other knobs drawn from `rng`.
    pub fn new(cell: usize, rng: &mut Rng) -> Deployment {
        let (threads, shards) = ([1, 2, 8][cell % 3], [1, 2, 3, 8][cell / 3 % 4]);
        let (policy, budgeted, sjf) = (cell / 12 % 4, cell / 48 % 2 == 1, cell / 96 % 2);
        let default = EngineConfig::default();
        let units = BudgetSpec::Units(rng.range(1..48));
        let cfg = EngineConfig {
            pattern_budget: [BudgetSpec::Ratio(1.0), units][rng.below(2)],
            reach_alpha: [1.0, 0.05 + rng.below(90) as f64 / 100.0][rng.below(2)],
            threads,
            cache_capacity: [0, default.cache_capacity, default.cache_capacity][rng.below(3)],
            admission: [InputOrder, ShortestJobFirst][sjf],
            ..default
        };
        Deployment {
            cell,
            cfg,
            shards,
            policy,
            budgeted,
        }
    }
}

/// The deployment under test: a lone engine, or a router.
pub enum Sut {
    Engine(Box<Engine>),
    Router(Router),
}

/// `$body` with `$s` bound to whichever front `$sut` is.
macro_rules! either {
    ($sut:expr, $s:ident => $body:expr) => {
        match $sut {
            Sut::Engine($s) => $body,
            Sut::Router($s) => $body,
        }
    };
}

impl Sut {
    /// `g` served by `d`: an engine at k = 1, a router above.
    pub fn new(g: Arc<Graph>, d: &Deployment) -> Sut {
        match d.shards {
            1 => Sut::Engine(Box::new(Engine::new(g, d.cfg.clone()))),
            k => Sut::Router(Router::new(g, d.cfg.clone(), k, POLICIES[d.policy]).unwrap()),
        }
    }

    /// [`Sut::new`], recovered from a durability directory instead.
    pub fn recover(dir: &Path, d: &Deployment) -> (Sut, RecoveryReport) {
        let cfg = d.cfg.clone();
        match d.shards {
            1 => {
                let (engine, report) = Engine::recover(dir, cfg).expect("engine recovers");
                (Sut::Engine(Box::new(engine)), report)
            }
            k => {
                let (router, report) =
                    Router::recover(dir, cfg, k, POLICIES[d.policy]).expect("router recovers");
                (Sut::Router(router), report)
            }
        }
    }

    pub fn run_batch(&self, queries: &[Query]) -> BatchReport {
        either!(self, s => s.run_batch(queries))
    }

    pub fn apply_deltas(&mut self, batch: &DeltaBatch) -> Result<DeltaReport, ApplyError> {
        match self {
            Sut::Engine(e) => e.apply_deltas(batch),
            Sut::Router(r) => r.apply_deltas(batch).map_err(|e| match e {
                RouterError::Apply(e) => e,
                other => panic!("apply failed outside the ingest pipeline: {other}"),
            }),
        }
    }

    pub fn enable_durability(&self, dir: &Path) {
        either!(self, s => s.enable_durability(dir).expect("durability enabled"))
    }

    pub fn stats(&self) -> EngineStats {
        either!(self, s => s.stats())
    }

    pub fn route(&self, q: &Query) -> usize {
        match self {
            Sut::Engine(_) => 0,
            Sut::Router(r) => r.route(q),
        }
    }
}

/// One model run derived from `seed`: a tiny (n < 14), small (n < 40),
/// power-law (200–400 nodes) or youtube-like (100–200 nodes, 15 labels)
/// graph, the first deployment (cell `seed mod CELLS`), durability, and
/// `rng` for every batch and delta.
pub struct Case {
    pub rng: Rng,
    pub graph: Graph,
    pub deployment: Deployment,
    pub durable: bool,
    /// A youtube-like case: batches are the benchmark's mixed workload.
    mixed: bool,
    /// Every query drawn so far: later queries repeat and twin them.
    history: Vec<Query>,
}

impl Case {
    pub fn new(seed: u64) -> Case {
        let mut rng = Rng(seed);
        let band = rng.below(16);
        let graph = match band {
            0 => power_law(rng.range(200..400), 3, 4, rng.u64()),
            1 => youtube_like(rng.range(100..200), rng.u64()),
            2..=7 => graph(&mut rng, 2..14, true),
            _ => graph(&mut rng, 2..40, true),
        };
        let deployment = Deployment::new(seed as usize % Deployment::CELLS, &mut rng);
        let durable = !rng.one_in(3);
        Case {
            rng,
            graph,
            deployment,
            durable,
            mixed: band == 1,
            history: Vec::new(),
        }
    }

    /// `len` queries over `g`: reach (an endpoint may be one past the last
    /// node), trees and chains under both semantics — some using `L4`, which
    /// only a delta adds — repeats of earlier queries, this batch's
    /// included, and near-twins. A youtube-like case draws `3 · len` queries
    /// of the benchmark's mixed workload instead, 40 % of its patterns
    /// repeats within the batch.
    pub fn batch(&mut self, g: &Graph, len: usize) -> Vec<Query> {
        if self.mixed {
            let spec = MixedWorkloadSpec {
                count: 3 * len,
                repeat_fraction: 0.4,
                ..Default::default()
            };
            let batch = sample_mixed_workload(g, &spec, self.rng.u64());
            self.history.extend(batch.iter().cloned());
            return batch;
        }
        let query = |_| {
            let q = self.query(g.node_count());
            self.history.push(q.clone());
            q
        };
        (0..len).map(query).collect()
    }

    fn query(&mut self, nodes: usize) -> Query {
        let rng = &mut self.rng;
        let earlier =
            (!self.history.is_empty()).then(|| &self.history[rng.below(self.history.len())]);
        let pattern = match (earlier, rng.below(6)) {
            (Some(q), 0) => return q.clone(),
            (Some(Query::PatternSim { pattern } | Query::PatternIso { pattern }), 1) => {
                twin(rng, pattern)
            }
            (_, 0..=1) => return reach(rng.below(nodes + 1), rng.below(nodes + 1)),
            (_, 2..=3) => tree(rng),
            _ => chain(rng, 1..4),
        };
        let (mut labels, edges) = parts(&pattern);
        if rng.one_in(6) {
            let u = rng.below(labels.len());
            labels[u] = "L4".to_string();
        }
        let (up, uo) = (pattern.personalized().index(), pattern.output().index());
        let pattern = build_pattern(&labels, &edges, up, uo);
        match rng.one_in(2) {
            true => Query::PatternSim { pattern },
            false => Query::PatternIso { pattern },
        }
    }

    /// A batch against `nodes` nodes and `edges`: up to two new nodes (`L0..L4`),
    /// adds and removes of random pairs and present edges (endpoints below
    /// the post-add node count), then `churn ≤ nodes²` distinct pairs
    /// flipped, overriding earlier ops on them: the last op on an edge wins.
    pub fn delta(&mut self, nodes: usize, edges: &Edges, churn: usize) -> DeltaBatch {
        let rng = &mut self.rng;
        let mut b = DeltaBatch::new();
        for _ in 0..rng.below(3) {
            b.add_node(&format!("L{}", rng.below(5)));
        }
        let total = nodes + b.added_nodes();
        let pair = |rng: &mut Rng| (rng.below(total) as u32, rng.below(total) as u32);
        let mut op = |add: bool, (u, v): (u32, u32)| match add {
            true => b.add_edge(NodeId(u), NodeId(v)),
            false => b.remove_edge(NodeId(u), NodeId(v)),
        };
        for _ in 0..rng.range(1..8) {
            let present = edges.iter().nth(rng.below(edges.len().max(1))).copied();
            let present = present.filter(|_| rng.one_in(2));
            op(rng.one_in(2), present.unwrap_or_else(|| pair(rng)));
        }
        let mut flips = BTreeSet::new();
        while flips.len() < churn {
            flips.insert(pair(rng));
        }
        for e in flips {
            op(!edges.contains(&e), e);
        }
        b
    }
}

pub type Edges = BTreeSet<(u32, u32)>;

pub fn reach(s: usize, t: usize) -> Query {
    let (source, target) = (NodeId(s as u32), NodeId(t as u32));
    Query::Reach { source, target }
}

/// Labels in node order and the sorted edge list: graph equality that is
/// blind to overlay vs compacted representation and interner order.
pub fn graph_sig(g: &Graph) -> (Vec<String>, Vec<(u32, u32)>) {
    let labels = g.nodes().map(|v| g.node_label_str(v).to_string()).collect();
    let mut edges: Vec<_> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
    edges.sort_unstable();
    (labels, edges)
}

struct Policy(fn(&str, usize) -> usize);

impl Partitioner for Policy {
    fn shard(&self, label: &str, shards: usize) -> usize {
        (self.0)(label, shards)
    }
}

/// The shipped policy plus adversarial ones: `Router(k) ≡ Engine(1)` is a
/// claim about every routing function, not just the label hash.
pub const POLICIES: [&dyn Partitioner; 4] = [
    &LabelHashPartitioner,
    &Policy(|_, _| 0),
    &Policy(|label, _| label.len()),
    // Always ≥ k: only the router's `mod k` keeps it an index.
    &Policy(|label, k| k + label.len()),
];

/// Routes every query to one fixed shard, so a test can ask a chosen
/// replica what it serves.
pub struct AllTo(pub usize);

impl Partitioner for AllTo {
    fn shard(&self, _label: &str, _shards: usize) -> usize {
        self.0
    }
}

/// Fault plans are process-global: every test that arms one holds this
/// lock for its whole body (arm → run → drop guard).
static SERIAL: Mutex<()> = Mutex::new(());

pub fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh, absent scratch directory, unique per call and per process
/// (tests and test binaries run in parallel).
pub fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rbq_test_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub const FIXTURE_NODES: u32 = 300;

/// The scenario fixture: a power-law graph of [`FIXTURE_NODES`] nodes
/// (~900 edges) and a 24-query mixed workload over it.
pub fn fixture() -> (Arc<Graph>, Vec<Query>) {
    static FIX: OnceLock<(Arc<Graph>, Vec<Query>)> = OnceLock::new();
    let (g, qs) = FIX.get_or_init(|| {
        let g = Arc::new(power_law(FIXTURE_NODES as usize, 3, 4, 0xd15c));
        let spec = MixedWorkloadSpec {
            count: 24,
            ..Default::default()
        };
        let qs = sample_mixed_workload(&g, &spec, 11);
        (g, qs)
    });
    (g.clone(), qs.clone())
}

/// The fixture's configuration: bounded answers and no cache, so every
/// evaluation is full-cost and comparable.
pub fn fixture_cfg(threads: usize) -> EngineConfig {
    EngineConfig {
        pattern_budget: BudgetSpec::Ratio(0.2),
        reach_alpha: 0.2,
        threads,
        cache_capacity: 0,
        ..Default::default()
    }
}

/// The `i`-th new node (id `n + i`) of a graph of `n` nodes, with `fan`
/// edges in and out; on the fixture a fan of 150 passes the churn threshold,
/// so the apply compacts.
pub fn new_node_batch(n: u32, i: u32, fan: u32) -> DeltaBatch {
    let mut b = DeltaBatch::new();
    b.add_node("NEW");
    let v = NodeId(n + i);
    for j in 0..fan {
        b.add_edge(NodeId((i * 37 + j) % n), v);
        b.add_edge(v, NodeId((i * 53 + 7 + j) % n));
    }
    b
}

/// Four small batches over a graph of `n` nodes, each adding one node with
/// an edge in and out, and each after the first removing the previous
/// batch's in-edge.
pub fn sample_batches(n: u32) -> Vec<DeltaBatch> {
    let batch = |i| {
        let mut b = new_node_batch(n, i, 1);
        if i > 0 {
            b.remove_edge(NodeId((i - 1) * 37 % n), NodeId(n + i - 1));
        }
        b
    };
    (0..4).map(batch).collect()
}

/// The durability suites' base: a 6-node, 11-edge graph from the generator
/// (self-loops and 2-cycles included), whose snapshot (~230 bytes) a
/// corruption position covers end to end.
pub fn tiny_graph() -> Arc<Graph> {
    Arc::new(graph(&mut Rng(7), 6..7, false))
}

/// `base` with the first `k` of `batches` plainly applied.
pub fn prefix_graph(base: &Graph, batches: &[DeltaBatch], k: usize) -> Graph {
    let mut g = base.clone();
    for b in &batches[..k] {
        g = g.apply_delta(b).expect("reference apply").0;
    }
    g
}

/// Whether `f` panics with a panic armed at the `nth` firing of `point`.
#[cfg(feature = "fault-injection")]
pub fn crashes<T>(point: &'static str, nth: u64, f: impl FnOnce() -> T) -> bool {
    use rbq_engine::faultpoint::{arm, FaultAction, FaultPlan};
    let _plan = arm(FaultPlan::new().on_nth(point, nth, FaultAction::Panic));
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
}

pub fn answers(results: &[QueryResult]) -> Vec<Answer> {
    results.iter().map(|r| r.answer.clone()).collect()
}

/// A hub-heavy anchored graph: `ME` plus 20–60 nodes labelled from
/// `L0..L{labels - 1}`, one to three hubs each joined to about half the
/// nodes in random directions, `ME` joined to every hub, and a sparse random
/// remainder. Few labels and big hubs make long same-label neighbor lists.
pub fn hub_graph(rng: &mut Rng, labels: usize) -> Graph {
    let n = rng.range(20..60);
    let mut b = GraphBuilder::new();
    b.add_node("ME");
    for _ in 1..n {
        b.add_node(&format!("L{}", rng.below(labels)));
    }
    let edge = |b: &mut GraphBuilder, u: usize, v: usize, rng: &mut Rng| {
        let (u, v) = [(u, v), (v, u)][rng.below(2)];
        b.add_edge(NodeId(u as u32), NodeId(v as u32));
    };
    for _ in 0..rng.range(1..4) {
        let hub = rng.range(1..n);
        edge(&mut b, 0, hub, rng);
        for v in 0..n {
            if v != hub && rng.one_in(2) {
                edge(&mut b, hub, v, rng);
            }
        }
    }
    for _ in 0..n {
        let (u, v) = (rng.below(n), rng.below(n));
        edge(&mut b, u, v, rng);
    }
    b.build()
}

/// `p` with every non-anchor label `Li` folded to `L(i mod labels)`.
pub fn fold_labels(p: &Pattern, labels: usize) -> Pattern {
    let (names, edges) = parts(p);
    let fold = |l: String| match l.strip_prefix('L').and_then(|i| i.parse::<usize>().ok()) {
        Some(i) => format!("L{}", i % labels),
        None => l,
    };
    let names: Vec<String> = names.into_iter().map(fold).collect();
    build_pattern(&names, &edges, p.personalized().index(), p.output().index())
}

/// A graph and an anchored pattern for the reduction suites: a [`graph`]
/// under a [`chain`] or a [`tree`], or a [`hub_graph`] over at most four
/// labels under a tree or chain folded onto them.
pub fn reduction_cases() -> impl Strategy<Value = (Graph, Pattern)> {
    (0..u64::MAX).prop_map(|seed| {
        let mut rng = Rng(seed);
        let pattern = |rng: &mut Rng| match rng.one_in(2) {
            true => tree(rng),
            false => chain(rng, 1..5),
        };
        if rng.one_in(3) {
            let labels = rng.range(1..5);
            let g = hub_graph(&mut rng, labels);
            let p = pattern(&mut rng);
            (g, fold_labels(&p, labels))
        } else {
            let g = graph(&mut rng, 3..40, true);
            (g, pattern(&mut rng))
        }
    })
}

/// What `Search` returned, as plain values: `G_Q`'s members in insertion
/// order, `|G_Q|`, the visit account and the termination data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reduced {
    pub members: Vec<NodeId>,
    pub size: usize,
    pub visited_nodes: usize,
    pub visited_edges: usize,
    pub hit_budget: bool,
    pub final_b: u32,
    pub rounds: u32,
}

impl Reduced {
    pub fn of(out: &ReductionOutcome<'_>) -> Reduced {
        Reduced {
            members: out.gq.members().to_vec(),
            size: out.gq.size(),
            visited_nodes: out.visits.nodes,
            visited_edges: out.visits.edges,
            hit_budget: out.hit_budget,
            final_b: out.final_b,
            rounds: out.rounds,
        }
    }
}

/// `Search` and `Pick` of Fig. 3 written plainly, as the oracle for the
/// serving implementation: hash sets for `in_stack` / `expanded`, rebuilt
/// every round; full adjacency scans in `Pick` and in the `G_Q`
/// continuation; per-query hash-map memos of the guard and the potential;
/// the cost by a full scan of both adjacency lists; the isomorphism guard's
/// Hall check over per-label hash maps. Every charge to the visit account
/// falls where the serving code's does.
pub fn plain_search(
    g: &Graph,
    q: &ResolvedPattern,
    budget: &ResourceBudget,
    semantics: Semantics,
    config: ReductionConfig,
) -> Reduced {
    let mut s = Plain {
        g,
        q,
        iso: semantics == Semantics::Isomorphism,
        visits: VisitStats::default(),
        guards: HashMap::new(),
        potentials: HashMap::new(),
    };
    let mut members: Vec<NodeId> = Vec::new();
    let mut in_gq: HashSet<NodeId> = HashSet::new();
    let mut size = 0;
    let (mut b, mut rounds, mut hit_budget) = (config.initial_b, 0, budget.max_units == 0);
    let p = q.pattern();
    'rounds: while !hit_budget {
        rounds += 1;
        let mut changed = false;
        let mut in_stack = HashSet::new();
        let mut expanded = HashSet::new();
        let mut stack = vec![(q.up(), q.vp())];
        in_stack.insert((q.up(), q.vp()));
        while let Some((u, v)) = stack.pop() {
            in_stack.remove(&(u, v));
            if !in_gq.contains(&v) {
                s.visits.edges(g.out(v).len() + g.inn(v).len());
                // One unit for v and one per edge to a member; a self-loop
                // counts once.
                let to_members = g.out(v).iter().filter(|&&w| w == v || in_gq.contains(&w));
                let from_members = g.inn(v).iter().filter(|&&w| w != v && in_gq.contains(&w));
                let units = 1 + to_members.count() + from_members.count();
                if units > budget.max_units - size {
                    hit_budget = true;
                    break 'rounds;
                }
                size += units;
                members.push(v);
                in_gq.insert(v);
                s.visits.node();
                changed = true;
            }
            if !expanded.insert((u, v)) {
                continue;
            }
            for (adj, query_nbrs) in [(g.out(v), p.out(u)), (g.inn(v), p.inn(u))] {
                for &u2 in query_nbrs {
                    // Pick.
                    s.visits.edges(adj.len());
                    let mut scored = Vec::new();
                    for &v2 in adj {
                        if in_gq.contains(&v2) || in_stack.contains(&(u2, v2)) || !s.guard(v2, u2) {
                            continue;
                        }
                        let key = match config.pick_policy {
                            PickPolicy::Weighted => {
                                let pot = s.potential(v2, u2);
                                pot as f64 / (s.cost(v2, u2, &in_gq) as f64 + 1.0)
                            }
                            PickPolicy::Fifo => 0.0,
                            PickPolicy::Random => {
                                let x = (v2.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                                ((x ^ (x >> 31)) % 1_000_003) as f64
                            }
                        };
                        scored.push((key, g.deg(v2), v2));
                    }
                    if config.pick_policy != PickPolicy::Fifo {
                        scored.sort_by(|x, y| {
                            y.0.partial_cmp(&x.0)
                                .unwrap()
                                .then(y.1.cmp(&x.1))
                                .then(x.2.cmp(&y.2))
                        });
                    }
                    scored.truncate(b as usize);
                    for &(_, _, v2) in scored.iter().rev() {
                        stack.push((u2, v2));
                        in_stack.insert((u2, v2));
                    }
                    // Continue through neighbors already in G_Q.
                    for &v2 in adj {
                        if in_gq.contains(&v2)
                            && !expanded.contains(&(u2, v2))
                            && !in_stack.contains(&(u2, v2))
                            && s.guard(v2, u2)
                        {
                            stack.push((u2, v2));
                            in_stack.insert((u2, v2));
                        }
                    }
                }
            }
            if budget.over_cap(&s.visits) {
                break 'rounds;
            }
        }
        if !(config.adaptive_b && changed && size < budget.max_units) {
            break;
        }
        b += 1;
    }
    Reduced {
        members,
        size,
        visited_nodes: s.visits.nodes,
        visited_edges: s.visits.edges,
        hit_budget,
        final_b: b,
        rounds,
    }
}

/// The guard, potential and cost of §4.1–4.2 over plain data, with the
/// visit account they charge.
struct Plain<'a> {
    g: &'a Graph,
    q: &'a ResolvedPattern,
    iso: bool,
    visits: VisitStats,
    guards: HashMap<(PNode, NodeId), bool>,
    potentials: HashMap<(PNode, NodeId), u32>,
}

impl Plain<'_> {
    fn labelled(&self, list: &[NodeId], l: Label) -> usize {
        list.iter().filter(|&&w| self.g.node_label(w) == l).count()
    }

    /// `C(v, u)`, charged on its first evaluation per query.
    fn guard(&mut self, v: NodeId, u: PNode) -> bool {
        if let Some(&pass) = self.guards.get(&(u, v)) {
            return pass;
        }
        let pass = self.guard_once(v, u);
        self.guards.insert((u, v), pass);
        pass
    }

    fn guard_once(&mut self, v: NodeId, u: PNode) -> bool {
        let (g, q, p) = (self.g, self.q, self.q.pattern());
        if g.node_label(v) != q.label(u) {
            return false;
        }
        self.visits.node();
        if !self.iso {
            let child_ok = p
                .out(u)
                .iter()
                .all(|&c| self.labelled(g.out(v), q.label(c)) > 0);
            let parent_ok = p
                .inn(u)
                .iter()
                .all(|&c| self.labelled(g.inn(v), q.label(c)) > 0);
            return child_ok && parent_ok;
        }
        if g.out(v).len() < p.out(u).len() || g.inn(v).len() < p.inn(u).len() {
            return false;
        }
        self.hall(p.out(u), g.out(v)) && self.hall(p.inn(u), g.inn(v))
    }

    /// Distinct data neighbors, one per query neighbor, of the same label
    /// and at least its degree: per label, the sorted requirements must be
    /// dominated by the sorted available degrees.
    fn hall(&mut self, query_nbrs: &[PNode], data_nbrs: &[NodeId]) -> bool {
        if query_nbrs.is_empty() {
            return true;
        }
        let (g, q) = (self.g, self.q);
        let mut need: HashMap<Label, Vec<usize>> = HashMap::new();
        for &uq in query_nbrs {
            need.entry(q.label(uq))
                .or_default()
                .push(q.pattern().degree(uq));
        }
        self.visits.edges(data_nbrs.len());
        let mut have: HashMap<Label, Vec<usize>> = HashMap::new();
        for &w in data_nbrs {
            if need.contains_key(&g.node_label(w)) {
                have.entry(g.node_label(w)).or_default().push(g.deg(w));
            }
        }
        need.into_iter().all(|(l, mut need)| {
            let mut have = have.remove(&l).unwrap_or_default();
            need.sort_unstable_by(|a, b| b.cmp(a));
            have.sort_unstable_by(|a, b| b.cmp(a));
            have.len() >= need.len() && need.iter().zip(&have).all(|(n, h)| h >= n)
        })
    }

    /// `p(v, u)`, charged on its first evaluation per query.
    fn potential(&mut self, v: NodeId, u: PNode) -> u32 {
        if let Some(&pot) = self.potentials.get(&(u, v)) {
            return pot;
        }
        let (g, q, p) = (self.g, self.q, self.q.pattern());
        let mut pot = 0;
        for (data_nbrs, query_nbrs) in [(g.out(v), p.out(u)), (g.inn(v), p.inn(u))] {
            if self.iso {
                self.visits.edges(data_nbrs.len());
                let fits = |w: NodeId| {
                    let ok =
                        |&uq: &PNode| q.label(uq) == g.node_label(w) && g.deg(w) >= p.degree(uq);
                    query_nbrs.iter().any(ok)
                };
                pot += data_nbrs.iter().filter(|&&w| fits(w)).count();
            } else {
                let labels: BTreeSet<Label> = query_nbrs.iter().map(|&uq| q.label(uq)).collect();
                pot += labels
                    .into_iter()
                    .map(|l| self.labelled(data_nbrs, l))
                    .sum::<usize>();
            }
        }
        if !self.iso {
            self.visits.node();
        }
        self.potentials.insert((u, v), pot as u32);
        pot as u32
    }

    /// `c(v, u)`: query neighbors of `u` with no fitting neighbor of `v`
    /// in `G_Q`, by a full scan of both adjacency lists.
    fn cost(&mut self, v: NodeId, u: PNode, in_gq: &HashSet<NodeId>) -> u32 {
        let (g, q, p) = (self.g, self.q, self.q.pattern());
        let mut missing = 0;
        for (data_nbrs, query_nbrs) in [(g.out(v), p.out(u)), (g.inn(v), p.inn(u))] {
            self.visits.edges(data_nbrs.len());
            for &uq in query_nbrs {
                let fits = |&w: &NodeId| {
                    in_gq.contains(&w)
                        && g.node_label(w) == q.label(uq)
                        && (!self.iso || g.deg(w) >= p.degree(uq))
                };
                if !data_nbrs.iter().any(fits) {
                    missing += 1;
                }
            }
        }
        missing
    }
}
