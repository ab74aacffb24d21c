//! What the four workloads share: the fixed serving configuration, timed
//! set-up, the correctness gate, pass bookkeeping, and the measuring phase
//! with its interleaved set-up repetitions.

use crate::estimator::Floors;
use crate::gen::{query_file_lines, Sizes, QUERY_FILE};
use crate::host::{status_mib, HostProbe};
use rbq_core::{pattern_accuracy, NeighborIndex};
use rbq_engine::wire::{answer_from_line, answer_to_line, parse_query_file};
use rbq_engine::{Answer, BudgetSpec, Engine, EngineConfig, Query, QueryResult};
use rbq_graph::snapshot::{crc32, load_snapshot, SNAPSHOT_FILE};
use rbq_graph::Graph;
use rbq_reach::HierarchicalIndex;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-query pattern resource ratio α (fixed by `BENCHMARK.json`'s
/// workload definitions).
pub const PATTERN_ALPHA: f64 = 0.001;
/// Resource ratio of the reachability index.
pub const REACH_ALPHA: f64 = 0.01;

/// One invocation's arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Seed the replay order is drawn from.
    pub seed: u64,
    /// How long the measuring phase replays.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Scale.
    pub sizes: Sizes,
    /// Tag for the input directory (`smoke` runs keep their own).
    pub tag: &'static str,
    /// Generate a missing corpus in a child process (the unit tests, whose
    /// executable is not the benchmark, generate in process).
    pub child_gen: bool,
}

/// What a workload hands back: operation counts and every metric value it
/// computed, by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations executed.
    pub attempted: u64,
    /// Operations that failed the correctness gate.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count `n` failed operations, keeping the first few reasons.
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(why());
        }
    }
}

/// The serving configuration every workload starts from: pattern α =
/// 0.001, reach α = 0.01, the default 1024-entry cache, `threads` workers.
pub fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig {
        pattern_budget: BudgetSpec::Ratio(PATTERN_ALPHA),
        reach_alpha: REACH_ALPHA,
        threads,
        ..EngineConfig::default()
    }
}

/// Wall time of the parts of one set-up, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `load_snapshot`.
    pub load: u64,
    /// `NeighborIndex::build` (0 when a router builds it internally).
    pub nbr: u64,
    /// `HierarchicalIndex::build` (0 when a router builds it internally).
    pub reach: u64,
    /// `Engine::with_indexes` / `Router::new`.
    pub construct: u64,
    /// Reading and parsing the query file.
    pub parse: u64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> u64 {
        self.load + self.nbr + self.reach + self.construct + self.parse
    }
}

/// Time `f`, returning its value and the nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_nanos() as u64)
}

/// The loaded graph, both offline indexes, and the query lines of one
/// run's inputs.
pub struct Loaded {
    /// The graph, loaded from `snapshot.bin`.
    pub g: Arc<Graph>,
    /// §4.1 neighbor index.
    pub nbr: Arc<NeighborIndex>,
    /// §5.1 reachability index at [`REACH_ALPHA`].
    pub reach: Arc<HierarchicalIndex>,
    /// Non-comment lines of `queries.txt`, in file order.
    pub lines: Vec<String>,
}

/// Load the graph from `dir`'s snapshot. Errors are strings: a failed
/// set-up ends the run.
pub fn load_graph(dir: &Path, t: &mut SetupTimes) -> Result<Arc<Graph>, String> {
    let (loaded, ns) = timed(|| load_snapshot(&dir.join(SNAPSHOT_FILE)));
    t.load = ns;
    Ok(Arc::new(loaded.map_err(|e| e.to_string())?.0))
}

/// Read the run directory's query file, validate it with the program's own
/// parser, and keep the wire lines for replay.
pub fn load_lines(run: &Path, t: &mut SetupTimes) -> Result<Vec<String>, String> {
    let (lines, ns) = timed(|| -> Result<Vec<String>, String> {
        let text = std::fs::read_to_string(run.join(QUERY_FILE)).map_err(|e| e.to_string())?;
        let file = parse_query_file(&text).map_err(|e| e.to_string())?;
        let lines = query_file_lines(&text);
        if lines.len() != file.queries.len() {
            return Err("query file line count disagrees with its parse".into());
        }
        Ok(lines)
    });
    t.parse = ns;
    lines
}

/// The full single-engine set-up: snapshot load from the corpus directory,
/// both index builds forced (never a lazy no-op), parse of the run's query
/// file. Engine construction is timed by the caller, which owns the
/// configuration.
pub fn load(corpus: &Path, run: &Path) -> Result<(Loaded, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let g = load_graph(corpus, &mut t)?;
    let (nbr, ns) = timed(|| Arc::new(NeighborIndex::build(&g)));
    t.nbr = ns;
    let (reach, ns) = timed(|| Arc::new(HierarchicalIndex::build(&g, REACH_ALPHA)));
    t.reach = ns;
    let lines = load_lines(run, &mut t)?;
    Ok((
        Loaded {
            g,
            nbr,
            reach,
            lines,
        },
        t,
    ))
}

/// An engine over already-loaded structures.
pub fn engine_over(l: &Loaded, cfg: &EngineConfig) -> Engine {
    Engine::with_indexes(
        l.g.clone(),
        cfg.clone(),
        Some(l.nbr.clone()),
        Some(l.reach.clone()),
    )
}

/// Set-up, repeated *between* passes, spread over the run, instead of back
/// to back: memory latency on this host moves from one second to the next,
/// and repetitions crammed into one second all see the same one. It keeps
/// its floor, like every other timing here, because noise only ever adds
/// time.
pub struct Sidecar<'a> {
    setup: Box<dyn FnMut() -> Result<SetupTimes, String> + 'a>,
    best_setup: SetupTimes,
    error: Option<String>,
}

impl<'a> Sidecar<'a> {
    /// `first` is the set-up that produced the serving instance; `setup`
    /// repeats it (dropping what it builds).
    pub fn new(first: SetupTimes, setup: impl FnMut() -> Result<SetupTimes, String> + 'a) -> Self {
        Sidecar {
            setup: Box::new(setup),
            best_setup: first,
            error: None,
        }
    }

    /// One repetition.
    pub fn tick(&mut self) {
        match (self.setup)() {
            Ok(t) if t.total() < self.best_setup.total() => self.best_setup = t,
            Ok(_) => {}
            Err(e) => {
                self.error.get_or_insert(e);
            }
        }
    }

    /// Report the floor and return the fastest set-up's parts; the first
    /// error of any tick, if there was one, ends the run.
    pub fn finish(self, out: &mut Outcome) -> Result<SetupTimes, String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let t = self.best_setup;
        out.set("setup_s", t.total() as f64 * 1e-9);
        out.set("graph.load_snapshot_ms", t.load as f64 * 1e-6);
        if t.nbr > 0 {
            out.set("core.nbr_index_build_ms", t.nbr as f64 * 1e-6);
            out.set("reach.index_build_ms", t.reach as f64 * 1e-6);
        }
        Ok(t)
    }
}

/// Wire line in → answer line out through one engine: the end-to-end
/// operation `lat_*` and `qps` measure.
#[inline]
pub fn serve_line(engine: &Engine, line: &str) -> Result<(QueryResult, String), String> {
    let q = Query::parse_line(line).map_err(|e| e.to_string())?;
    let r = engine.run(&q);
    let out = answer_to_line(&r.answer);
    Ok((r, out))
}

/// Exact counts of one pass. Equal inputs and a deterministic program make
/// every field repeat exactly from the second pass on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCounts {
    /// Order-sensitive digest of every answer line.
    pub answers: u64,
    /// Sum of `QueryResult.visits`.
    pub visits: u64,
    /// Answers served from the reduction cache.
    pub hits: u64,
    /// Answers delivered (`Reach` / `Pattern`), as opposed to `Denied`.
    pub delivered: u64,
    /// Queries answered.
    pub queries: u64,
}

impl PassCounts {
    /// Fold one answered query.
    #[inline]
    pub fn fold(&mut self, r: &QueryResult, line: &str) {
        self.answers = (self.answers ^ u64::from(crc32(line.as_bytes())))
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(17);
        self.visits += r.visits as u64;
        self.hits += u64::from(r.cached);
        self.delivered += u64::from(r.answer.is_ok());
        self.queries += 1;
    }

    /// Fold an operation that produced no answer at all.
    pub fn fold_error(&mut self) {
        self.answers = self.answers.wrapping_add(1).rotate_left(7);
        self.queries += 1;
    }
}

/// Compare pass `p`'s counts with the reference pass (the second: the
/// first fills the cache, so its hit count legitimately differs).
pub fn check_repeat(out: &mut Outcome, reference: &PassCounts, got: &PassCounts, pass: usize) {
    if reference != got {
        out.fail(got.queries.max(1), || {
            format!("pass {pass} counts {got:?} differ from pass 2 {reference:?}")
        });
    }
}

/// The per-answer contract that needs no oracle: no error-class answer,
/// `|G_Q|` within the unit budget, reach visits within the index's cap, and
/// an exact wire round trip of both the query and the answer.
pub fn contract(
    line: &str,
    r: &QueryResult,
    out_line: &str,
    max_units: usize,
    reach_cap: usize,
) -> Result<(), String> {
    match &r.answer {
        Answer::Error(e) | Answer::Failed(e) => return Err(format!("{line}: {e}")),
        Answer::TimedOut => return Err(format!("{line}: timed out")),
        Answer::Denied { .. } => {}
        Answer::Pattern { gq_size, .. } => {
            if *gq_size > max_units {
                return Err(format!("{line}: |G_Q| {gq_size} > budget {max_units}"));
            }
        }
        Answer::Reach { .. } => {
            if r.visits > reach_cap {
                return Err(format!("{line}: {} visits > cap {reach_cap}", r.visits));
            }
        }
    }
    if answer_from_line(out_line).ok().as_ref() != Some(&r.answer) {
        return Err(format!("{line}: answer does not round-trip: {out_line}"));
    }
    let requery = Query::parse_line(line).and_then(|q| q.to_line());
    if requery.as_deref().ok() != Some(line) {
        return Err(format!("{line}: query does not round-trip"));
    }
    Ok(())
}

/// The exact evaluators bounded answers are scored against: an α = 1
/// engine for patterns, plain BFS for reachability (a `HierarchicalIndex`
/// at α = 1 is not a usable oracle — it does not finish at this scale).
pub struct Oracle {
    exact: Engine,
    g: Arc<Graph>,
}

impl Oracle {
    /// Oracle over `g`; `nbr` is shared when the caller already built it.
    pub fn new(g: Arc<Graph>, nbr: Option<Arc<NeighborIndex>>) -> Self {
        let cfg = EngineConfig {
            pattern_budget: BudgetSpec::Ratio(1.0),
            threads: 1,
            cache_capacity: 0,
            ..EngineConfig::default()
        };
        Oracle {
            exact: Engine::with_indexes(g.clone(), cfg, nbr, None),
            g,
        }
    }

    /// Score a delivered bounded answer in `[0, 1]`: F1 of the match set
    /// for patterns, 1/0 for reachability. `Err` when the answer is not
    /// one-sided (a match the exact evaluator lacks, or a false positive).
    pub fn score(&self, q: &Query, got: &Answer) -> Result<f64, String> {
        match (q, got) {
            (Query::Reach { source, target }, Answer::Reach { reachable, .. }) => {
                let truth = rbq_reach::bfs_query(&self.g, *source, *target).0;
                if *reachable && !truth {
                    return Err(format!("false positive {source} -> {target}"));
                }
                Ok(f64::from(u8::from(*reachable == truth)))
            }
            (_, Answer::Pattern { matches, .. }) => {
                let Answer::Pattern {
                    matches: mut exact, ..
                } = self.exact.run(q).answer
                else {
                    return Err("the exact engine did not answer".into());
                };
                exact.sort_unstable();
                if let Some(extra) = matches.iter().find(|v| exact.binary_search(v).is_err()) {
                    return Err(format!("match {extra} is not an exact match"));
                }
                Ok(pattern_accuracy(&exact, matches).f1)
            }
            _ => Err("answer class does not match the query".into()),
        }
    }
}

/// Mean of oracle scores. The scores are summed in sorted order, so the
/// mean of one set of queries is the same number — to the last bit —
/// whatever order the seed replayed them in.
#[derive(Debug, Default, Clone)]
pub struct Accuracy {
    scores: Vec<f64>,
}

impl Accuracy {
    /// Add one score.
    pub fn add(&mut self, score: f64) {
        self.scores.push(score);
    }

    /// Mean score; 1 when nothing was scored.
    pub fn mean(&self) -> f64 {
        if self.scores.is_empty() {
            return 1.0;
        }
        let mut sorted = self.scores.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.iter().sum::<f64>() / sorted.len() as f64
    }
}

/// Replay passes until `seconds` have elapsed and at least `min_passes`
/// ran, calling `tick` `ticks` times at even intervals between passes (any
/// still owed when the time is up run at the end). `pass(p)` runs pass `p`
/// (0-based, after the warm-up). Returns the number of passes.
pub fn replay(
    seconds: f64,
    min_passes: usize,
    ticks: usize,
    mut pass: impl FnMut(usize),
    mut tick: impl FnMut(),
) -> usize {
    let start = Instant::now();
    let (mut p, mut ticked, mut in_ticks) = (0, 0, 0.0);
    let mut timed_tick = |ticked: &mut usize| {
        let t = Instant::now();
        tick();
        *ticked += 1;
        in_ticks += t.elapsed().as_secs_f64();
    };
    while p < min_passes || start.elapsed().as_secs_f64() < seconds {
        pass(p);
        p += 1;
        let due = seconds * ticked as f64 / ticks.max(1) as f64;
        if ticked < ticks && start.elapsed().as_secs_f64() >= due {
            timed_tick(&mut ticked);
        }
    }
    while ticked < ticks {
        timed_tick(&mut ticked);
    }
    eprintln!(
        "replay: {p} passes and {ticks} sidecar ticks in {:.2} s, {in_ticks:.2} s of it in the ticks",
        start.elapsed().as_secs_f64()
    );
    p
}

/// The measuring phase of every workload. A timed run replays `plain` for
/// `--seconds` with the sidecar ticking in between. A traced run spends a
/// third of the time on `plain` (the tracing-overhead baseline) and the
/// rest on `traced`, with the `host.*` probe sampling between passes.
/// Both closures get the 0-based pass number after the warm-up. Returns
/// the number of passes.
pub fn measure(
    a: &Args,
    out: &mut Outcome,
    sidecar: &mut Sidecar<'_>,
    plain: &mut dyn FnMut(usize, &mut Outcome),
    traced: &mut dyn FnMut(usize, &mut Outcome),
) -> usize {
    let mut plain = |p: usize, out: &mut Outcome| {
        plain(p, out);
        if p == 0 {
            // Steady state: one cold start, the warm-up and a full pass are
            // behind (the corpus was generated by another process); later
            // passes add nothing, and the sidecar's second instance and the
            // oracle are the harness's memory, not the workload's.
            out.set("rss_mb", status_mib("VmHWM"));
        }
    };
    let (min, ticks) = (a.sizes.min_passes, a.sizes.reps);
    if !a.trace {
        return replay(a.seconds, min, ticks, |p| plain(p, out), || sidecar.tick());
    }
    let base = replay(a.seconds / 3.0, 1, 0, |p| plain(p, out), || {});
    let mut host = HostProbe::start();
    let more = replay(
        a.seconds * 2.0 / 3.0,
        min,
        ticks,
        |p| {
            traced(base + p, out);
            host.tick();
        },
        || sidecar.tick(),
    );
    let (wait, chase) = host.readings();
    out.set("host.runq_wait_share", wait);
    out.set("host.chase_ns", chase);
    base + more
}

/// `qps`, `lat_p50_us` and `lat_p99_us` from per-operation floors, where
/// each operation answers `queries_per_op` queries.
pub fn latency_metrics(out: &mut Outcome, floors: &Floors, queries_per_op: usize) {
    let queries = (floors.observed().count() * queries_per_op) as f64;
    out.set("qps", queries / floors.sum_s());
    out.set("lat_p50_us", floors.percentile_ns(50.0) as f64 / 1e3);
    out.set("lat_p99_us", floors.percentile_ns(99.0) as f64 / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_counts_are_order_sensitive_and_repeatable() {
        let r = |visits| QueryResult {
            answer: Answer::Reach {
                reachable: true,
                certified: false,
            },
            visits,
            cached: false,
        };
        let fold = |lines: &[&str]| {
            let mut c = PassCounts::default();
            for (i, l) in lines.iter().enumerate() {
                c.fold(&r(i), l);
            }
            c
        };
        assert_eq!(
            fold(&["reach 1 0", "reach 0 0"]),
            fold(&["reach 1 0", "reach 0 0"])
        );
        assert_ne!(
            fold(&["reach 1 0", "reach 0 0"]).answers,
            fold(&["reach 0 0", "reach 1 0"]).answers
        );
        assert_eq!(fold(&["a", "b", "c"]).visits, 3);
    }

    #[test]
    fn replay_honours_the_pass_minimum() {
        let mut seen = Vec::new();
        let mut ticks = 0;
        let n = replay(0.0, 3, 5, |p| seen.push(p), || ticks += 1);
        assert_eq!((n, seen, ticks), (3, vec![0, 1, 2], 5));
    }
}
