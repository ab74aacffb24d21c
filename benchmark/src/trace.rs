//! The traced run: spans recorded by the benchmark around the layers'
//! public functions, kept in memory until the run ends.
//!
//! The engine does not expose its stages, so each operation is served
//! twice. First for real — `Query::parse_line` → `Engine::run` →
//! `answer_to_line`, three spans. Then through a *shadow pipeline* that
//! calls the same public functions the engine calls, in the engine's
//! order: `canonical_pattern` → `Pattern::resolve` →
//! `search_reduced_graph_scratch` → `strong_simulation_on_view_with` /
//! `vf2_all_output_matches` (or `HierarchicalIndex::query`). The shadow
//! answer is asserted equal to the engine's, so the split is faithful. On
//! a cache hit the engine never reaches the kernels, and neither does the
//! shadow. Every stage keeps a per-operation floor over the traced passes,
//! exactly like the timed run.

use crate::common::{Args, Outcome};
use crate::estimator::{self_times, Floors, Span};
use crate::gen::inputs_root;
use rbq_core::guard::Semantics;
use rbq_core::reduction::{search_reduced_graph_scratch, ReductionConfig};
use rbq_core::PatternScratch;
use rbq_engine::wire::answer_to_line;
use rbq_engine::{canonical_pattern, Answer, Engine, Query, QueryResult};
use rbq_graph::{BallScratch, GraphView, NodeId};
use rbq_pattern::{strong_simulation_on_view_with, vf2_all_output_matches};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The stages a floor is kept for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Parse,
    Run,
    Serialize,
    Canonical,
    Resolve,
    Reduction,
    BallBfs,
    StrongSim,
    Vf2,
    ReachQuery,
}

const STAGES: usize = 10;

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Parse => "engine.parse",
            Stage::Run => "engine.run",
            Stage::Serialize => "engine.serialize",
            Stage::Canonical => "engine.canonical",
            Stage::Resolve => "pattern.resolve",
            Stage::Reduction => "core.reduction",
            Stage::BallBfs => "graph.ball_bfs",
            Stage::StrongSim => "pattern.strongsim",
            Stage::Vf2 => "pattern.vf2",
            Stage::ReachQuery => "reach.query",
        }
    }
}

/// Where a traced run of `workload` writes its span dump:
/// `benchmark/target/inputs/trace-<workload>-<scale>-<seed>.jsonl`.
pub fn dump_path(workload: &str, a: &Args) -> PathBuf {
    inputs_root().join(format!("trace-{workload}-{}-{}.jsonl", a.tag, a.seed))
}

/// Spans of the first this-many operations of the latest traced pass are
/// kept for the trace dump.
const DUMP_OPS: usize = 64;

/// Exact counts of one traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TraceCounts {
    patterns: u64,
    hits: u64,
    hit_budget: u64,
    gq_units: u64,
    ball_nodes: u64,
    reach: u64,
    reach_visits: u64,
    certified: u64,
}

/// Shadow-pipeline state for one engine workload.
pub struct Shadow {
    epoch: Instant,
    stage: Vec<Floors>,
    /// Whether the engine served operation `i` from its cache.
    hit: Vec<bool>,
    spans: Vec<Span>,
    dump: Vec<(Span, u64)>,
    counts: TraceCounts,
    first_counts: Option<TraceCounts>,
    scratch: PatternScratch,
    ball: BallScratch,
    domain: Vec<NodeId>,
    centers: Vec<NodeId>,
    matches: Vec<NodeId>,
}

impl Shadow {
    /// Shadow state for `n` operations.
    pub fn new(n: usize) -> Self {
        Shadow {
            epoch: Instant::now(),
            stage: (0..STAGES).map(|_| Floors::new(n)).collect(),
            hit: vec![false; n],
            spans: Vec::new(),
            dump: Vec::new(),
            counts: TraceCounts::default(),
            first_counts: None,
            scratch: PatternScratch::new(),
            ball: BallScratch::new(),
            domain: Vec::new(),
            centers: Vec::new(),
            matches: Vec::new(),
        }
    }

    /// Run `f` inside a span of `stage` under `parent`.
    fn span<T>(&mut self, op: usize, stage: Stage, parent: usize, f: impl FnOnce() -> T) -> T {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let v = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stage[stage as usize].record(op, end_ns - start_ns);
        self.spans.push(Span {
            op: op as u32,
            name: stage.name(),
            parent: Some(parent),
            start_ns,
            end_ns,
        });
        v
    }

    /// Open a root span; closed by [`Shadow::close_root`].
    fn open_root(&mut self, op: usize, name: &'static str) -> usize {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op: op as u32,
            name,
            parent: None,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    fn close_root(&mut self, root: usize) {
        self.spans[root].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// One traced pass over `lines`.
    pub fn pass(&mut self, engine: &Engine, lines: &[String], out: &mut Outcome) {
        self.begin_pass();
        for (i, line) in lines.iter().enumerate() {
            if let Err(e) = self.op(i, engine, line) {
                out.fail(1, || format!("traced op {i}: {e}"));
            }
        }
        self.end_pass(out);
    }

    /// Start a traced pass (for callers that interleave other work).
    pub fn begin_pass(&mut self) {
        self.counts = TraceCounts::default();
        self.dump.clear();
    }

    /// Finish a traced pass: exact counts must repeat pass to pass.
    pub fn end_pass(&mut self, out: &mut Outcome) {
        let first = *self.first_counts.get_or_insert(self.counts);
        if first != self.counts {
            let got = self.counts;
            out.fail(1, || {
                format!("traced counts {got:?} differ from the first pass {first:?}")
            });
        }
    }

    /// Serve operation `i` for real, then through the shadow pipeline.
    pub fn op(
        &mut self,
        i: usize,
        engine: &Engine,
        line: &str,
    ) -> Result<(QueryResult, String), String> {
        self.spans.clear();
        let root = self.open_root(i, "op");
        let q = self
            .span(i, Stage::Parse, root, || Query::parse_line(line))
            .map_err(|e| e.to_string())?;
        let r = self.span(i, Stage::Run, root, || engine.run(&q));
        let answer = self.span(i, Stage::Serialize, root, || answer_to_line(&r.answer));
        self.close_root(root);
        self.hit[i] = r.cached;

        let shadow = self.open_root(i, "shadow");
        let verdict = self.shadow(i, shadow, engine, &q, &r);
        self.close_root(shadow);
        if i < DUMP_OPS {
            let own = self_times(&self.spans);
            self.dump.extend(self.spans.iter().cloned().zip(own));
        }
        verdict.map(|()| (r, answer))
    }

    fn shadow(
        &mut self,
        i: usize,
        root: usize,
        engine: &Engine,
        q: &Query,
        real: &QueryResult,
    ) -> Result<(), String> {
        let (pattern, sem) = match q {
            Query::Reach { source, target } => {
                let idx = engine.reach_index();
                let a = self.span(i, Stage::ReachQuery, root, || idx.query(*source, *target));
                self.counts.reach += 1;
                self.counts.reach_visits += a.visits as u64;
                self.counts.certified += u64::from(a.certified);
                let shadow = Answer::Reach {
                    reachable: a.reachable,
                    certified: a.certified,
                };
                return same(&shadow, a.visits, real);
            }
            Query::PatternSim { pattern } => (pattern, Semantics::Simulation),
            Query::PatternIso { pattern } => (pattern, Semantics::Isomorphism),
        };
        self.counts.patterns += 1;
        let g = engine.graph();
        let (canon, _) = self.span(i, Stage::Canonical, root, || canonical_pattern(pattern));
        let resolved = self
            .span(i, Stage::Resolve, root, || canon.resolve(&g))
            .map_err(|e| e.to_string())?;
        if real.cached {
            // The engine stopped at its cache probe; so does the shadow.
            self.counts.hits += 1;
            return Ok(());
        }
        let nbr = engine.neighbor_index();
        let budget = engine.pattern_budget();
        let vf2 = engine.config().vf2;
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut ball = std::mem::take(&mut self.ball);
        let (mut domain, mut centers, mut matches) = (
            std::mem::take(&mut self.domain),
            std::mem::take(&mut self.centers),
            std::mem::take(&mut self.matches),
        );
        let red = self.span(i, Stage::Reduction, root, || {
            search_reduced_graph_scratch(
                &g,
                &nbr,
                &resolved,
                &budget,
                sem,
                ReductionConfig::default(),
                &mut scratch.reduction,
            )
        });
        // Replay of the first traversal strong simulation makes on G_Q: the
        // 2·d_Q domain and the d_Q centers around v_p.
        let dq = resolved.dq();
        self.span(i, Stage::BallBfs, root, || {
            ball.ball_pair_into(
                &red.gq,
                resolved.vp(),
                2 * dq,
                dq,
                &mut domain,
                &mut centers,
            )
        });
        match sem {
            Semantics::Simulation => self.span(i, Stage::StrongSim, root, || {
                strong_simulation_on_view_with(&resolved, &red.gq, &mut scratch.eval, &mut matches)
            }),
            Semantics::Isomorphism => {
                matches = self
                    .span(i, Stage::Vf2, root, || {
                        vf2_all_output_matches(&resolved, &red.gq, vf2)
                    })
                    .output_matches;
            }
        }
        self.counts.hit_budget += u64::from(red.hit_budget);
        self.counts.gq_units += red.gq.size() as u64;
        self.counts.ball_nodes += domain.len() as u64;
        let shadow = Answer::Pattern {
            matches: matches.clone(),
            gq_size: red.gq.size(),
            gq_nodes: red.gq.num_nodes(),
            hit_budget: red.hit_budget,
        };
        let visits = red.visits.total();
        scratch.reduction.recycle(red.gq);
        self.scratch = scratch;
        self.ball = ball;
        (self.domain, self.centers, self.matches) = (domain, centers, matches);
        same(&shadow, visits, real)
    }

    /// Fold the stage floors into per-layer metrics. `plain` holds the
    /// floors of the untraced passes of the same run, for the overhead.
    pub fn report(&self, out: &mut Outcome, plain: &Floors) {
        let f = |s: Stage| &self.stage[s as usize];
        out.set("engine.parse_us", f(Stage::Parse).mean_us());
        out.set("engine.run_us", f(Stage::Run).mean_us());
        out.set("engine.serialize_us", f(Stage::Serialize).mean_us());
        out.set("engine.canonical_us", f(Stage::Canonical).mean_us());
        out.set("pattern.resolve_us", f(Stage::Resolve).mean_us());
        out.set("core.reduction_us", f(Stage::Reduction).mean_us());
        out.set("graph.ball_bfs_us", f(Stage::BallBfs).mean_us());
        out.set("pattern.vf2_us", f(Stage::Vf2).mean_us());
        out.set("reach.query_us", f(Stage::ReachQuery).mean_us());

        // Per-operation arithmetic over floors. A miss is an operation
        // whose reduction stage ran.
        let ns = |s: Stage, i: usize| f(s).get(i).unwrap_or(0);
        let (mut run_all, mut kernel, mut own, mut misses) = (0u64, 0u64, 0u64, 0u64);
        let (mut hit_run, mut hits, mut sim_self, mut sims) = (0u64, 0u64, 0u64, 0u64);
        for i in 0..self.hit.len() {
            let run = ns(Stage::Run, i);
            run_all += run;
            if self.hit[i] {
                hit_run += run;
                hits += 1;
            } else if f(Stage::Reduction).get(i).is_some() {
                let eval = ns(Stage::StrongSim, i) + ns(Stage::Vf2, i);
                let children = ns(Stage::Canonical, i)
                    + ns(Stage::Resolve, i)
                    + ns(Stage::Reduction, i)
                    + eval;
                kernel += ns(Stage::Reduction, i) + eval;
                own += run.saturating_sub(children);
                misses += 1;
                if let Some(sim) = f(Stage::StrongSim).get(i) {
                    // The replayed domain BFS happens inside the span too.
                    sim_self += sim.saturating_sub(ns(Stage::BallBfs, i));
                    sims += 1;
                }
            }
        }
        let mean_us = |sum: u64, n: u64| {
            if n == 0 {
                0.0
            } else {
                sum as f64 / n as f64 / 1e3
            }
        };
        out.set("engine.hit_path_us", mean_us(hit_run, hits));
        out.set("engine.self_us", mean_us(own, misses));
        out.set("pattern.strongsim_us", mean_us(sim_self, sims));
        out.set("engine.kernel_share", kernel as f64 / run_all.max(1) as f64);

        let c = self.first_counts.unwrap_or_default();
        let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let cold = c.patterns - c.hits;
        out.set("graph.ball_nodes_per_q", share(c.ball_nodes, cold));
        out.set("core.gq_units_per_q", share(c.gq_units, cold));
        out.set("core.budget_bound_share", share(c.hit_budget, cold));
        out.set("reach.visits_per_q", share(c.reach_visits, c.reach));
        out.set("reach.certified_share", share(c.certified, c.reach));

        // Tracing overhead: the real part of a traced operation (parse +
        // run + serialize) against the same operation in the plain passes.
        let (mut traced, mut base) = (0u64, 0u64);
        for i in 0..self.hit.len() {
            if let Some(p) = plain.get(i) {
                base += p;
                traced += ns(Stage::Parse, i) + ns(Stage::Run, i) + ns(Stage::Serialize, i);
            }
        }
        out.set(
            "bench.trace_overhead_share",
            (traced as f64 - base as f64) / base.max(1) as f64,
        );
    }

    /// Write the kept spans as JSON lines: one object per span with its
    /// operation, name, parent index within the operation, start, end and
    /// self time (nanoseconds since the trace epoch).
    pub fn write_dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in &self.dump {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// The shadow pipeline must reproduce the engine's answer and visit count.
fn same(shadow: &Answer, visits: usize, real: &QueryResult) -> Result<(), String> {
    if *shadow == real.answer && visits == real.visits {
        Ok(())
    } else {
        Err(format!(
            "shadow pipeline answered {shadow} ({visits} visits), the engine {} ({} visits)",
            real.answer, real.visits
        ))
    }
}
