//! `rbq` — command-line front end for resource-bounded graph querying.
//!
//! ```text
//! rbq generate --kind youtube --nodes 20000 --seed 42 -o g.txt
//! rbq stats g.txt
//! rbq compress g.txt
//! rbq reach g.txt 17 4242 --alpha 0.01
//! rbq pattern g.txt --spec 4,8 --alpha 0.001 --seed 7
//! rbq workload g.txt --count 200 --seed 7 --out q.txt
//! rbq batch g.txt q.txt --alpha 0.005 --threads 8
//! rbq batch g.txt q.txt --shards 4 --answers a.txt
//! rbq ingest g.txt d.txt --out g2.txt
//! rbq snapshot g.txt --out state/
//! rbq ingest g.txt d.txt --durable state/
//! rbq recover state/ --queries q.txt --answers a.txt
//! ```
//!
//! Every subcommand's arguments are declared once, in [`COMMANDS`]. The
//! serving commands (`batch`, `ingest`, `snapshot`, `recover`) only fill a
//! [`Plan`]: one opener ([`open`]) builds the engine from a graph file or a
//! durable directory, and one executor ([`execute`]) runs the plan's steps
//! through the engine's write and read pipelines.
//!
//! Graphs use the plain-text format of `rbq_graph::io` (`n <id> <label>` /
//! `e <src> <dst>` lines); query and answer files use the versioned wire
//! format of `rbq_engine::wire` (`#rbq-queries v2` / `#rbq-answers v2`
//! headers over the one-line `r <src> <dst>` / `s|i <up> <uo> <labels>
//! <edges>` query serialization).

use rbq::rbq_core::{pattern_accuracy, rbsim, NeighborIndex, ResourceBudget};
use rbq::rbq_engine::wire::{parse_delta_file, parse_query_file, write_answer_file};
use rbq::rbq_engine::{
    AdmissionPolicy, Answer, ApplyError, BudgetSpec, Engine, EngineConfig, EngineError, Query,
    QueryParseError, WireWriteError, QUERY_FILE_HEADER,
};
use rbq::rbq_graph::snapshot::SNAPSHOT_FILE;
use rbq::rbq_graph::{io as gio, DeltaBatch, DeltaError, FormatError, Graph, GraphView, NodeId};
use rbq::rbq_pattern::{bisimulation_compress, match_opt};
use rbq::rbq_reach::{compress_for_reachability, HierarchicalIndex};
use rbq::rbq_router::{LabelHashPartitioner, Router, RouterError};
use rbq::rbq_workload::{extract_pattern, sample_mixed_workload, MixedWorkloadSpec, PatternSpec};
use std::fs::File;
use std::io::{BufReader, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Top-level CLI error: typed wrappers around the library layers plus
/// plain usage messages; any of them exits with code 2.
#[derive(Debug)]
enum CliError {
    /// Usage/argument errors and ad-hoc messages.
    Msg(String),
    /// Engine configuration or resolution errors, wrapped losslessly.
    Engine(EngineError),
    /// A query or delta file failed to parse (the wire layer tags the
    /// line; the CLI adds the path).
    Parse {
        /// Path of the offending file.
        path: String,
        /// The typed parse error, line-tagged.
        source: QueryParseError,
    },
    /// Router construction failed.
    Router(RouterError),
    /// A delta batch was rejected at apply time.
    Delta(DeltaError),
    /// A durability operation (snapshot, WAL, recovery) failed.
    Durability(FormatError),
    /// Writing a wire-format file failed.
    Wire(WireWriteError),
    /// Other I/O.
    Io(std::io::Error),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self, std::error::Error::source(self)) {
            (CliError::Msg(m), _) => write!(f, "{m}"),
            (CliError::Parse { path, source }, _) => write!(f, "{path}: {source}"),
            (_, Some(e)) => write!(f, "{e}"),
            (_, None) => Ok(()),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Msg(_) => None,
            CliError::Engine(e) => Some(e),
            CliError::Parse { source, .. } => Some(source),
            CliError::Router(e) => Some(e),
            CliError::Delta(e) => Some(e),
            CliError::Durability(e) => Some(e),
            CliError::Wire(e) => Some(e),
            CliError::Io(e) => Some(e),
        }
    }
}

/// `From` for every error a variant wraps as is.
macro_rules! wrap {
    ($($variant:ident($t:ty)),*) => {$(
        impl From<$t> for CliError {
            fn from(e: $t) -> Self {
                CliError::$variant(e)
            }
        }
    )*};
}
wrap! { Msg(String), Engine(EngineError), Router(RouterError) }
wrap! { Durability(FormatError), Wire(WireWriteError), Io(std::io::Error) }

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Msg(m.to_owned())
    }
}

impl From<ApplyError> for CliError {
    fn from(e: ApplyError) -> Self {
        match e {
            ApplyError::Delta(d) => CliError::Delta(d),
            ApplyError::Durability(d) => CliError::Durability(d),
        }
    }
}

impl From<QueryParseError> for CliError {
    fn from(e: QueryParseError) -> Self {
        CliError::Wire(WireWriteError::Format(e))
    }
}

/// A subcommand: its name, its usage (positionals, then flags; `[…]` is
/// optional, `--flag VALUE` takes a value) and what it does.
type Command = (&'static str, &'static str, Action);

/// What a subcommand does with its parsed arguments.
enum Action {
    /// A one-shot command that prints its own result.
    Run(fn(&Args) -> Result<(), CliError>),
    /// A serving command: its arguments fill a [`Source`] and a [`Plan`]
    /// for [`serve`].
    Serve(fn(&Args) -> Result<(Source, Plan), CliError>),
}

/// Every subcommand, declared once: drives dispatch, flag parsing and the
/// usage lines.
const COMMANDS: &[Command] = &[
    (
        "generate",
        "[--kind youtube|yahoo|uniform|social] [--nodes N] [--seed S] --out FILE",
        Action::Run(cmd_generate),
    ),
    ("stats", "GRAPH", Action::Run(cmd_stats)),
    ("compress", "GRAPH", Action::Run(cmd_compress)),
    ("reach", "GRAPH SRC DST [--alpha A]", Action::Run(cmd_reach)),
    (
        "pattern",
        "GRAPH [--spec N,M] [--alpha A] [--seed S]",
        Action::Run(cmd_pattern),
    ),
    (
        "workload",
        "GRAPH [--count N] [--seed S] --out FILE [--spec N,M] [--reach-frac F] [--iso-frac F] [--repeat-frac F]",
        Action::Run(cmd_workload),
    ),
    (
        "batch",
        "GRAPH QUERYFILE [--alpha A] [--reach-alpha A] [--threads T] [--cache N] [--aggregate N] [--verbose 1] [--shards K] [--answers FILE] [--timeout-ms MS] [--admission input|sjf]",
        Action::Serve(plan_batch),
    ),
    (
        "ingest",
        "GRAPH DELTAFILE [--out FILE] [--durable DIR] [--inject POINT[:N]]",
        Action::Serve(plan_ingest),
    ),
    ("snapshot", "GRAPH --out DIR", Action::Serve(plan_snapshot)),
    (
        "recover",
        "DIR [--queries FILE] [--answers FILE]",
        Action::Serve(plan_recover),
    ),
];

/// Look the subcommand up in [`COMMANDS`] and parse its arguments against
/// its usage: every flag declared, every unbracketed word present, no
/// extra positional.
fn parse_command(args: &[String]) -> Result<(&'static Action, Args<'_>), CliError> {
    let name = args.first().ok_or("missing subcommand")?;
    let (name, usage, action) = COMMANDS
        .iter()
        .find(|c| c.0 == name)
        .ok_or_else(|| format!("unknown subcommand {name:?}"))?;
    let words: Vec<&str> = usage.split(' ').collect();
    let mut flags: Vec<(&str, Option<String>)> = words
        .iter()
        .filter_map(|w| w.trim_start_matches('[').strip_prefix("--"))
        .map(|flag| (flag, None))
        .collect();
    let mut slots: Vec<_> = flags.iter_mut().map(|(n, v)| (*n, v)).collect();
    let pos = parse_flags(&args[1..], &mut slots)?;
    let positionals = &words[..words.iter().take_while(|w| !w.contains("--")).count()];
    let required = positionals.iter().filter(|w| !w.starts_with('[')).count();
    if !(required..=positionals.len()).contains(&pos.len()) {
        return Err(format!("usage: rbq {name} {usage}").into());
    }
    let args = Args { pos, flags };
    match words
        .iter()
        .filter_map(|w| w.strip_prefix("--"))
        .find(|f| args.get(f).is_none())
    {
        Some(flag) => Err(format!("{name}: --{flag} is required").into()),
        None => Ok((action, args)),
    }
}

/// A command line parsed against its usage: the positionals in order,
/// and each declared flag's value if it was given.
struct Args<'a> {
    pos: Vec<&'a str>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args<'_> {
    fn get(&self, name: &str) -> Option<&str> {
        let flag = self.flags.iter().find(|(n, _)| *n == name);
        flag.and_then(|(_, v)| v.as_deref())
    }

    fn owned(&self, name: &str) -> Option<String> {
        self.get(name).map(str::to_owned)
    }

    /// `--name` parsed as a `T`, if given.
    fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        let parse = |s: &str| s.parse().map_err(|_| format!("bad --{name}").into());
        self.get(name).map(parse).transpose()
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// A resource ratio flag (see [`parse_alpha`]), `default` when absent.
    fn alpha(&self, name: &str, default: f64) -> Result<f64, CliError> {
        let parse = |s| parse_alpha(s, &format!("--{name}"));
        Ok(self.get(name).map(parse).transpose()?.unwrap_or(default))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage:");
            for (name, usage, _) in COMMANDS {
                eprintln!("  rbq {name} {usage}");
            }
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let (action, args) = parse_command(args)?;
    match action {
        Action::Run(f) => f(&args),
        Action::Serve(f) => {
            let (source, plan) = f(&args)?;
            let (mut out, mut warn) = (std::io::stdout().lock(), std::io::stderr().lock());
            serve(&source, &plan, &mut out, &mut warn)
        }
    }
}

/// Extract `--flag value` from an argument list. Returns remaining
/// positional arguments. `-x` is accepted for a flag only when it is the
/// one flag of the subcommand starting with `x`.
fn parse_flags<'a>(
    args: &'a [String],
    flags: &mut [(&str, &mut Option<String>)],
) -> Result<Vec<&'a str>, String> {
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        i += 1;
        let Some(body) = arg.strip_prefix('-') else {
            positional.push(arg);
            continue;
        };
        let hit = match body.strip_prefix('-') {
            Some(long) => flags.iter().position(|(name, _)| *name == long),
            None if body.len() == 1 => {
                let starts: Vec<usize> = (0..flags.len())
                    .filter(|&k| flags[k].0.starts_with(body))
                    .collect();
                match starts.as_slice() {
                    [] => None,
                    [k] => Some(*k),
                    many => {
                        let names: Vec<String> =
                            many.iter().map(|&k| format!("--{}", flags[k].0)).collect();
                        return Err(format!("ambiguous flag {arg:?}: {}", names.join(", ")));
                    }
                }
            }
            None => None,
        };
        let (name, slot) = match hit {
            Some(k) => &mut flags[k],
            None => return Err(format!("unknown flag {arg:?}")),
        };
        let v = args
            .get(i)
            .ok_or_else(|| format!("--{name} needs a value"))?;
        **slot = Some(v.clone());
        i += 1;
    }
    Ok(positional)
}

fn parse_spec(s: &str) -> Result<PatternSpec, String> {
    let (a, b) = s
        .split_once(',')
        .ok_or(format!("bad --spec {s:?}, expected N,M"))?;
    let count = |x: &str, what| {
        x.trim()
            .parse()
            .map_err(|_| format!("bad {what} count {x:?}"))
    };
    let (nodes, edges) = (count(a, "node")?, count(b, "edge")?);
    if nodes == 0 {
        return Err("pattern needs at least one node".into());
    }
    Ok(PatternSpec::new(nodes, edges))
}

/// Parse a resource ratio, rejecting anything outside `(0, 1]` — the
/// library layers `assert!` on bad ratios, and a panic is not an
/// acceptable CLI failure mode.
fn parse_alpha(s: &str, what: &str) -> Result<f64, String> {
    let a: f64 = s.parse().map_err(|_| format!("bad {what} {s:?}"))?;
    if !(a.is_finite() && a > 0.0 && a <= 1.0) {
        return Err(format!("{what} must lie in (0, 1], got {s}"));
    }
    Ok(a)
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    gio::read_graph(BufReader::new(f)).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Write `path` atomically (temp file, then rename) through `body`.
fn save<F>(path: &str, body: F) -> Result<(), CliError>
where
    F: FnOnce(&mut std::io::BufWriter<File>) -> std::io::Result<()>,
{
    gio::atomic_write(Path::new(path), body).map_err(|e| format!("cannot write {path}: {e}").into())
}

fn cmd_generate(args: &Args) -> Result<(), CliError> {
    let (nodes, seed) = (args.num("nodes", 10_000)?, args.num("seed", 42)?);
    let g = match args.get("kind").unwrap_or("youtube") {
        "youtube" => rbq::rbq_workload::youtube_like(nodes, seed),
        "yahoo" => rbq::rbq_workload::yahoo_like(nodes, seed),
        "uniform" => rbq::rbq_workload::uniform_random(nodes, 2 * nodes, 15, seed),
        "social" => rbq::rbq_workload::social_groups(8, nodes / 8, nodes / 4, seed),
        other => {
            return Err(format!("unknown kind {other:?} (youtube|yahoo|uniform|social)").into())
        }
    };
    let out = args.owned("out").unwrap_or_default();
    save(&out, |w| gio::write_graph(&g, w))?;
    let (n, m) = (g.node_count(), g.edge_count());
    println!("wrote {n} nodes, {m} edges to {out}");
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    let g = load_graph(args.pos[0])?;
    let ds = rbq::rbq_graph::stats::degree_stats(&g);
    let fanout = rbq::rbq_graph::stats::max_label_fanout(&g);
    println!("nodes      {}", g.node_count());
    println!("edges      {}", g.edge_count());
    println!("size |G|   {}", g.size());
    println!("labels     {}", g.labels().len());
    println!("max degree {}", ds.max_degree);
    println!("avg degree {:.2}", ds.avg_degree);
    println!("label fanout f = {fanout}");
    Ok(())
}

fn cmd_compress(args: &Args) -> Result<(), CliError> {
    let g = load_graph(args.pos[0])?;
    let size = g.size();
    let reach = compress_for_reachability(&g);
    let (units, pct) = (reach.dag.size(), reach.ratio(&g) * 100.0);
    println!("reachability compression: {size} -> {units} units ({pct:.1}%)");
    let sim = bisimulation_compress(&g);
    let (units, pct) = (sim.quotient.size(), sim.ratio(&g) * 100.0);
    println!("simulation compression:   {size} -> {units} units ({pct:.1}%)");
    Ok(())
}

fn cmd_reach(args: &Args) -> Result<(), CliError> {
    let (s, t) = (args.pos[1], args.pos[2]);
    let alpha = args.alpha("alpha", 0.01)?;
    let g = load_graph(args.pos[0])?;
    let s: u32 = s.parse().map_err(|_| format!("bad source id {s:?}"))?;
    let t: u32 = t.parse().map_err(|_| format!("bad target id {t:?}"))?;
    if s as usize >= g.node_count() || t as usize >= g.node_count() {
        return Err("node id out of range".into());
    }
    let idx = HierarchicalIndex::build(&g, alpha);
    let ans = idx.query(NodeId(s), NodeId(t));
    let (reachable, visits, cap) = (ans.reachable, ans.visits, idx.visit_cap());
    println!("RBReach[alpha={alpha}]: {reachable} (visited {visits} of cap {cap})");
    let (exact, stats) = rbq::rbq_graph::traverse::reaches(&g, NodeId(s), NodeId(t));
    let visits = stats.total();
    println!("exact BFS:            {exact} (visited {visits} data units)");
    Ok(())
}

fn cmd_pattern(args: &Args) -> Result<(), CliError> {
    let spec = parse_spec(args.get("spec").unwrap_or("4,8"))?;
    let alpha = args.alpha("alpha", 0.001)?;
    let seed: u64 = args.num("seed", 7)?;
    let g = load_graph(args.pos[0])?;
    let q = (0..200u64)
        .find_map(|s| extract_pattern(&g, spec, seed.wrapping_add(s)))
        .ok_or("could not extract a pattern (graph too small or no ME node)")?
        .resolve(&g)
        .map_err(|e| e.to_string())?;
    let (n, m, dq) = (q.pattern().node_count(), q.pattern().edge_count(), q.dq());
    println!("pattern: {n} nodes, {m} edges, d_Q = {dq}");
    let budget = ResourceBudget::from_ratio(&g, alpha);
    let ans = rbsim(&g, &NeighborIndex::build(&g), &q, &budget);
    let (n, gq, cap, visits) = (
        ans.matches.len(),
        ans.gq_size,
        budget.max_units,
        ans.visits.total(),
    );
    println!("RBSim[alpha={alpha}]: {n} matches, |G_Q| = {gq} of budget {cap}, visited {visits}");
    let exact = match_opt(&q, &g);
    let acc = pattern_accuracy(&exact, &ans.matches).f1 * 100.0;
    println!(
        "exact (MatchOpt):     {} matches; accuracy {acc:.1}%",
        exact.len()
    );
    Ok(())
}

fn cmd_workload(args: &Args) -> Result<(), CliError> {
    let frac = |name: &str, default: f64| -> Result<f64, CliError> {
        let f = args.num(name, default)?;
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("--{name} must lie in [0, 1], got {f}").into());
        }
        Ok(f)
    };
    let mut mspec = MixedWorkloadSpec {
        count: args.num("count", 200)?,
        reach_fraction: frac("reach-frac", 0.4)?,
        iso_fraction: frac("iso-frac", 0.3)?,
        repeat_fraction: frac("repeat-frac", 0.3)?,
        ..Default::default()
    };
    if let Some(s) = args.get("spec") {
        mspec.spec = parse_spec(s)?;
    }
    let seed: u64 = args.num("seed", 7)?;
    let out = args.owned("out").unwrap_or_default();
    let g = load_graph(args.pos[0])?;
    let queries = sample_mixed_workload(&g, &mspec, seed);
    // Serialize before opening the file: a to_line failure must not leave
    // a half-written artifact, and the write itself is atomic.
    let mut lines = Vec::with_capacity(queries.len());
    for q in &queries {
        lines.push(q.to_line()?);
    }
    save(&out, |w| {
        let n = lines.len();
        writeln!(
            w,
            "{QUERY_FILE_HEADER}\n# rbq mixed workload: {n} queries, seed {seed}"
        )?;
        for line in &lines {
            writeln!(w, "{line}")?;
        }
        Ok(())
    })?;
    println!("wrote {} queries to {out}", queries.len());
    Ok(())
}

/// Where a serving command's state comes from.
enum Source {
    /// A graph file, served from memory.
    Graph(String),
    /// A durable directory whose contents are replaced by a snapshot of
    /// `graph` and a fresh WAL.
    Seed { graph: String, dir: String },
    /// A durable directory, recovered if it holds state and otherwise
    /// seeded from `seed` (with no `seed`, recovery is the only option).
    Resume { dir: String, seed: Option<String> },
}

/// What a serving command does with the opened source: optional steps,
/// run in a fixed order — apply deltas, run queries, write answers, write
/// the graph.
#[derive(Default)]
struct Plan {
    cfg: EngineConfig,
    /// Replicas to route the query step across (none or 1: the engine).
    shards: Option<usize>,
    /// `POINT[:N]` to arm before any durability IO.
    inject: Option<String>,
    deltas: Option<String>,
    queries: Option<String>,
    /// Print every answer of the query step.
    verbose: bool,
    answers: Option<String>,
    graph_out: Option<String>,
}

fn plan_batch(args: &Args) -> Result<(Source, Plan), CliError> {
    let admission = match args.get("admission") {
        None | Some("input") => AdmissionPolicy::InputOrder,
        Some("sjf") => AdmissionPolicy::ShortestJobFirst,
        Some(other) => return Err(format!("bad --admission {other:?} (want input|sjf)").into()),
    };
    let cfg = EngineConfig {
        pattern_budget: BudgetSpec::Ratio(args.alpha("alpha", 0.01)?),
        reach_alpha: args.alpha("reach-alpha", 0.05)?,
        threads: args.num("threads", 0)?,
        cache_capacity: args.num("cache", 1024)?,
        aggregate_visit_budget: args.opt("aggregate")?,
        batch_timeout: args.opt("timeout-ms")?.map(Duration::from_millis),
        admission,
        ..EngineConfig::default()
    };
    let plan = Plan {
        cfg,
        shards: args.opt("shards")?,
        queries: Some(args.pos[1].to_owned()),
        verbose: args.get("verbose").is_some_and(|v| v != "0"),
        answers: args.owned("answers"),
        ..Plan::default()
    };
    Ok((Source::Graph(args.pos[0].to_owned()), plan))
}

/// `ingest GRAPH DELTAFILE`: apply the batch to GRAPH in memory or, with
/// `--durable DIR`, WAL-logged into DIR (fsync before the epoch swap). A
/// DIR that already holds durable state is recovered first and GRAPH is
/// ignored, so repeated durable ingests into one directory accumulate.
fn plan_ingest(args: &Args) -> Result<(Source, Plan), CliError> {
    let seed = args.pos[0].to_owned();
    let source = match (args.owned("durable"), args.get("inject")) {
        (Some(dir), _) => Source::Resume {
            dir,
            seed: Some(seed),
        },
        (None, None) => Source::Graph(seed),
        (None, Some(_)) => {
            return Err("--inject requires --durable (it targets the durability IO path)".into())
        }
    };
    let plan = Plan {
        inject: args.owned("inject"),
        deltas: Some(args.pos[1].to_owned()),
        graph_out: args.owned("out"),
        ..Plan::default()
    };
    Ok((source, plan))
}

fn plan_snapshot(args: &Args) -> Result<(Source, Plan), CliError> {
    let graph = args.pos[0].to_owned();
    let dir = args.owned("out").unwrap_or_default();
    Ok((Source::Seed { graph, dir }, Plan::default()))
}

fn plan_recover(args: &Args) -> Result<(Source, Plan), CliError> {
    if args.get("answers").is_some() && args.get("queries").is_none() {
        return Err("recover: --answers requires --queries".into());
    }
    let plan = Plan {
        queries: args.owned("queries"),
        answers: args.owned("answers"),
        ..Plan::default()
    };
    let dir = args.pos[0].to_owned();
    Ok((Source::Resume { dir, seed: None }, plan))
}

/// Run a serving command: read its input files (so a malformed one
/// touches no durable state), arm `--inject`, open the source, execute
/// the plan. Results print to `out`, warnings to `warn`.
fn serve(
    source: &Source,
    plan: &Plan,
    out: &mut dyn Write,
    warn: &mut dyn Write,
) -> Result<(), CliError> {
    let deltas = read_input(&plan.deltas, "deltas", warn, |t| {
        parse_delta_file(t).map(|f| (f.batch, f.headerless))
    })?;
    let queries = read_input(&plan.queries, "queries", warn, |t| {
        parse_query_file(t).map(|f| (f.queries, f.headerless))
    })?;
    // Armed before any durability IO, so the chosen firing of the point
    // panics — a crash mid-ingest. The panic unwinds out of main: a
    // non-zero exit with the on-disk state exactly as the crash left it,
    // which is what `rbq recover` pins.
    #[cfg(feature = "fault-injection")]
    let _armed = match &plan.inject {
        Some(spec) => {
            use rbq::rbq_graph::faultpoint::{arm, FaultAction, FaultPlan};
            use rbq::rbq_graph::Point;
            // N is the 0-based hit to trigger on, matching
            // FaultPlan::on_nth; default: the first firing.
            let (name, nth) = spec.split_once(':').unwrap_or((spec, "0"));
            let nth = nth
                .parse()
                .map_err(|_| format!("bad --inject count in {spec:?}"))?;
            let point = Point::from_name(name).ok_or_else(|| {
                let known = Point::NAMES.join(", ");
                format!("unknown faultpoint {name:?}; known points: {known}")
            })?;
            writeln!(
                warn,
                "fault injection armed: panic at {point}, firing #{nth}"
            )?;
            Some(arm(FaultPlan::new().on_nth(point, nth, FaultAction::Panic)))
        }
        None => None,
    };
    #[cfg(not(feature = "fault-injection"))]
    if let Some(spec) = &plan.inject {
        let why = "binary built without the fault-injection feature";
        writeln!(warn, "warning: --inject {spec} ignored ({why})")?;
    }
    let engine = open(source, &plan.cfg, out, warn)?;
    execute(plan, &engine, deltas, queries, out)
}

/// Read a wire-format input file, if the plan names one: a parse error is
/// tagged with the path, and a file without its `#rbq-{kind}` header is
/// read as v1 with a warning.
fn read_input<T>(
    path: &Option<String>,
    kind: &str,
    warn: &mut dyn Write,
    parse: impl FnOnce(&str) -> Result<(T, bool), QueryParseError>,
) -> Result<Option<T>, CliError> {
    let Some(path) = path else { return Ok(None) };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let (body, headerless) = parse(&text).map_err(|source| {
        let path = path.to_owned();
        CliError::Parse { path, source }
    })?;
    if headerless {
        writeln!(
            warn,
            "warning: {path} has no #rbq-{kind} header; reading it as v1"
        )?;
    }
    Ok(Some(body))
}

/// The opener: build the engine a source describes. A durable source
/// reports here, whichever command opened it — what seeding wrote or
/// what recovery found to `out`, and any damage recovery cut off to
/// `warn`.
fn open(
    source: &Source,
    cfg: &EngineConfig,
    out: &mut dyn Write,
    warn: &mut dyn Write,
) -> Result<Engine, CliError> {
    cfg.validate()?;
    let (graph, dir) = match source {
        Source::Graph(graph) => (graph, None),
        Source::Seed { graph, dir } => (graph, Some(Path::new(dir))),
        Source::Resume {
            dir,
            seed: Some(graph),
        } if !Path::new(dir).join(SNAPSHOT_FILE).exists() => (graph, Some(Path::new(dir))),
        Source::Resume { dir, seed } => {
            if let Some(graph) = seed {
                writeln!(
                    warn,
                    "note: {dir} already holds durable state; {graph} is ignored"
                )?;
            }
            let (engine, rec) = Engine::recover(Path::new(dir), cfg.clone())?;
            writeln!(
                out,
                "recovered {} nodes, {} edges from {dir} \
                 (snapshot seq {}, {} batches replayed, {} skipped, last seq {})",
                rec.nodes, rec.edges, rec.snapshot_seq, rec.replayed, rec.skipped, rec.last_seq
            )?;
            if rec.torn_tail {
                writeln!(warn, "warning: WAL ended mid-record; torn tail truncated")?;
            }
            if rec.quarantined > 0 {
                let n = rec.quarantined;
                writeln!(
                    warn,
                    "warning: {n} corrupt WAL record(s) quarantined; serving the valid prefix"
                )?;
            }
            return Ok(engine);
        }
    };
    let g = Arc::new(load_graph(graph)?);
    let engine = Engine::new(g.clone(), cfg.clone());
    if let Some(dir) = dir {
        engine.enable_durability(dir)?;
        let (n, m) = (g.node_count(), g.edge_count());
        writeln!(
            out,
            "snapshot: {n} nodes, {m} edges -> {} (seq 0, fresh WAL)",
            dir.display()
        )?;
    }
    Ok(engine)
}

/// The executor: run a plan's steps against the opened engine, in order —
/// apply the delta batch, run the query batch (routed across `--shards`
/// replicas when more than one), write the answers, write the graph.
fn execute(
    plan: &Plan,
    engine: &Engine,
    deltas: Option<DeltaBatch>,
    queries: Option<Vec<Query>>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if let Some(batch) = &deltas {
        let r = engine.apply_deltas(batch)?;
        let touched = Some(r.touched_labels.join(",")).filter(|t| !t.is_empty());
        let touched = touched.unwrap_or_else(|| "-".to_owned());
        let (ops, nodes, added, removed) =
            (batch.len(), r.nodes_added, r.edges_added, r.edges_removed);
        let change = format!("+{nodes} nodes, +{added} edges, -{removed} edges");
        writeln!(
            out,
            "applied {ops} ops: {change}; touched labels: {touched}"
        )?;
        let g = engine.graph();
        let shape = match (r.compacted, g.is_overlaid()) {
            (true, _) => " (auto-compacted)",
            (false, true) => " (overlaid)",
            (false, false) => "",
        };
        let (n, m) = (g.node_count(), g.edge_count());
        writeln!(out, "graph now {n} nodes, {m} edges{shape}")?;
    }
    if let Some(queries) = &queries {
        let start = Instant::now();
        // One report type either way; `--shards 0` is Router::new's typed
        // RouterError::InvalidShards (exit code 2, no panic).
        let report = match plan.shards {
            None | Some(1) => engine.run_batch(queries),
            Some(k) => {
                let router =
                    Router::new(engine.graph(), plan.cfg.clone(), k, &LabelHashPartitioner);
                router?.run_batch(queries)
            }
        };
        let wall = start.elapsed();
        let k = report.per_shard.len();
        if k > 1 {
            writeln!(out, "router: {k} shards, routed by label hash")?;
            for (s, sh) in report.per_shard.iter().enumerate() {
                let (routed, visits) = (sh.routed, sh.stats.total_visits);
                writeln!(out, "  shard {s}: {routed} queries routed, {visits} visits")?;
            }
        }
        if plan.verbose {
            for (i, r) in report.results.iter().enumerate() {
                let cached = if r.cached { " [cached]" } else { "" };
                writeln!(out, "[{i:>4}] {}{cached}", r.answer)?;
            }
        }
        let n = queries.len();
        let qps = n as f64 / wall.as_secs_f64().max(1e-9);
        writeln!(out, "batch: {n} queries in {wall:.2?} ({qps:.0} q/s)")?;
        writeln!(out, "{}", report.stats)?;
        let max_units = engine.pattern_budget().max_units;
        let over = (report.results.iter())
            .filter(|r| matches!(r.answer, Answer::Pattern { gq_size, .. } if gq_size > max_units))
            .count();
        if over > 0 {
            let why = format!("{over} answers exceeded the per-query budget of {max_units} units");
            return Err(why.into());
        }
        let respected = format!("every |G_Q| <= {max_units} units");
        writeln!(out, "per-query budgets respected: {respected}")?;
        if let Some(path) = &plan.answers {
            // Rendered to memory first, so a wire-format failure writes
            // nothing.
            let answers: Vec<Answer> = report.results.into_iter().map(|r| r.answer).collect();
            let mut buf = Vec::new();
            write_answer_file(&mut buf, &answers)?;
            save(path, |w| w.write_all(&buf))?;
            writeln!(out, "wrote {} answers to {path}", answers.len())?;
        }
    }
    if let Some(path) = &plan.graph_out {
        let g = engine.graph();
        save(path, |w| gio::write_graph(&g, w))?;
        writeln!(out, "wrote updated graph to {path}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufWriter;

    #[test]
    fn parse_spec_ok() {
        let s = parse_spec("4,8").unwrap();
        assert_eq!((s.nodes, s.edges), (4, 8));
        let s = parse_spec(" 6 , 12 ").unwrap();
        assert_eq!((s.nodes, s.edges), (6, 12));
    }

    #[test]
    fn parse_spec_errors() {
        assert!(parse_spec("4").is_err());
        assert!(parse_spec("a,b").is_err());
        assert!(parse_spec("0,3").is_err());
    }

    #[test]
    fn parse_flags_extracts_pairs() {
        let args: Vec<String> = ["--alpha", "0.5", "file.txt", "--seed", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (mut alpha, mut seed) = (None, None);
        let pos = parse_flags(&args, &mut [("alpha", &mut alpha), ("seed", &mut seed)]).unwrap();
        assert_eq!(alpha.as_deref(), Some("0.5"));
        assert_eq!(seed.as_deref(), Some("9"));
        assert_eq!(pos, vec!["file.txt"]);
    }

    #[test]
    fn parse_flags_rejects_unknown() {
        let args: Vec<String> = ["--bogus", "1"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&args, &mut []).is_err());
    }

    #[test]
    fn parse_flags_missing_value() {
        let args: Vec<String> = ["--alpha"].iter().map(|s| s.to_string()).collect();
        let mut alpha = None;
        assert!(parse_flags(&args, &mut [("alpha", &mut alpha)]).is_err());
    }

    #[test]
    fn parse_flags_short_alias_must_be_unique() {
        // `generate`: each flag has its own first letter.
        let (mut kind, mut nodes, mut seed, mut out) = (None, None, None, None);
        let args = argv(&["--kind", "youtube", "-o", "g.txt", "-n", "7"]);
        let mut flags = [
            ("kind", &mut kind),
            ("nodes", &mut nodes),
            ("seed", &mut seed),
            ("out", &mut out),
        ];
        assert!(parse_flags(&args, &mut flags).unwrap().is_empty());
        assert_eq!(out.as_deref(), Some("g.txt"));
        assert_eq!(nodes.as_deref(), Some("7"));

        // `batch`: several flags start with `a`, one with `t` here.
        let batch = |args: &[&str]| {
            let (mut alpha, mut aggregate, mut answers, mut threads) = (None, None, None, None);
            let mut flags = [
                ("alpha", &mut alpha),
                ("aggregate", &mut aggregate),
                ("answers", &mut answers),
                ("threads", &mut threads),
            ];
            let args = argv(args);
            let pos = parse_flags(&args, &mut flags).map(|p| p.join(" "));
            (pos, alpha, threads)
        };
        let (err, alpha, _) = batch(&["g", "q", "-a", "out.txt"]);
        let err = err.unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
        for name in ["--alpha", "--aggregate", "--answers"] {
            assert!(err.contains(name), "{err}");
        }
        assert!(!err.contains("--threads"), "{err}");
        assert_eq!(alpha, None, "an ambiguous alias must set nothing");
        let (pos, _, threads) = batch(&["g", "-t", "2", "q"]);
        assert_eq!(
            (pos.unwrap().as_str(), threads.as_deref()),
            ("g q", Some("2"))
        );

        // No flag starts with `z`; a multi-letter `-al` is not an alias.
        for bad in ["-z", "-al", "-"] {
            let err = batch(&[bad, "1"]).0.unwrap_err();
            assert!(err.contains("unknown flag"), "{bad}: {err}");
        }
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn parse_alpha_validates_range() {
        assert!(parse_alpha("0.5", "--alpha").is_ok());
        assert!(parse_alpha("1.0", "--alpha").is_ok());
        for bad in ["0", "0.0", "1.5", "-0.1", "nan", "inf", "abc", ""] {
            assert!(parse_alpha(bad, "--alpha").is_err(), "accepted {bad:?}");
        }
    }

    /// A tiny graph file in a per-test temp path (the suite runs tests in
    /// parallel, so names must not collide).
    fn temp_graph(tag: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("rbq_cli_test_{tag}_{}.txt", std::process::id()));
        let g = {
            let mut b = rbq::rbq_graph::GraphBuilder::new();
            let me = b.add_node("ME");
            let a = b.add_node("A");
            let c = b.add_node("B");
            b.add_edge(me, a);
            b.add_edge(a, c);
            b.build()
        };
        let f = File::create(&path).expect("temp file");
        gio::write_graph(&g, BufWriter::new(f)).expect("write graph");
        path.to_string_lossy().into_owned()
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// Run a serving command line through [`serve`], capturing what it
    /// prints as `(stdout, stderr)`.
    fn serve_captured(parts: &[&str]) -> Result<(String, String), CliError> {
        let args = argv(parts);
        let (action, parsed) = parse_command(&args)?;
        let Action::Serve(plan) = action else {
            panic!("{} is not a serving command", parts[0]);
        };
        let (source, plan) = plan(&parsed)?;
        let (mut out, mut warn) = (Vec::new(), Vec::new());
        serve(&source, &plan, &mut out, &mut warn)?;
        let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
        Ok((text(out), text(warn)))
    }

    #[test]
    fn reach_out_of_range_node_id_errors_cleanly() {
        let g = temp_graph("reach_oob");
        let err = run(&argv(&["reach", &g, "0", "999"])).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let err = run(&argv(&["reach", &g, "999", "0"])).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let _ = std::fs::remove_file(&g);
    }

    #[test]
    fn reach_malformed_ids_and_alpha_error_cleanly() {
        let g = temp_graph("reach_bad");
        assert!(run(&argv(&["reach", &g, "zero", "1"])).is_err());
        assert!(run(&argv(&["reach", &g, "0", "1", "--alpha", "2.0"])).is_err());
        assert!(run(&argv(&["reach", &g, "0", "1", "--alpha", "0"])).is_err());
        let _ = std::fs::remove_file(&g);
    }

    #[test]
    fn pattern_malformed_spec_errors_cleanly() {
        let g = temp_graph("pattern_bad");
        assert!(run(&argv(&["pattern", &g, "--spec", "nope"])).is_err());
        assert!(run(&argv(&["pattern", &g, "--spec", "0,3"])).is_err());
        assert!(run(&argv(&["pattern", &g, "--alpha", "-1"])).is_err());
        let _ = std::fs::remove_file(&g);
    }

    #[test]
    fn batch_rejects_malformed_queryfile() {
        let g = temp_graph("batch_bad");
        let qpath = std::env::temp_dir().join(format!("rbq_cli_badq_{}.txt", std::process::id()));
        std::fs::write(&qpath, "r 0 1\nx nonsense\n").expect("write queries");
        let q = qpath.to_string_lossy().into_owned();
        let err = run(&argv(&["batch", &g, &q])).unwrap_err();
        assert!(err.to_string().contains("unknown query kind"), "{err}");
        // The typed chain is preserved under the rendered message.
        assert!(matches!(err, CliError::Parse { .. }), "{err}");
        let _ = std::fs::remove_file(&g);
        let _ = std::fs::remove_file(&qpath);
    }

    #[test]
    fn batch_runs_on_tiny_workload() {
        let g = temp_graph("batch_ok");
        let qpath = std::env::temp_dir().join(format!("rbq_cli_okq_{}.txt", std::process::id()));
        std::fs::write(&qpath, "# two queries\nr 0 2\ns 0 1 ME,A 0-1\n").expect("write queries");
        let q = qpath.to_string_lossy().into_owned();
        run(&argv(&[
            "batch",
            &g,
            &q,
            "--alpha",
            "1.0",
            "--reach-alpha",
            "1.0",
        ]))
        .expect("batch");
        let _ = std::fs::remove_file(&g);
        let _ = std::fs::remove_file(&qpath);
    }

    #[test]
    fn batch_with_zero_timeout_exits_clean_and_times_out_answers() {
        let g = temp_graph("batch_timeout");
        let tmp = std::env::temp_dir();
        let qpath = tmp.join(format!("rbq_cli_toq_{}.txt", std::process::id()));
        let apath = tmp.join(format!("rbq_cli_toa_{}.txt", std::process::id()));
        std::fs::write(&qpath, "#rbq-queries v2\nr 0 2\ns 0 1 ME,A 0-1\n").expect("write queries");
        let (q, a) = (
            qpath.to_string_lossy().into_owned(),
            apath.to_string_lossy().into_owned(),
        );
        run(&argv(&[
            "batch",
            &g,
            &q,
            "--alpha",
            "1.0",
            "--reach-alpha",
            "1.0",
            "--timeout-ms",
            "0",
            "--answers",
            &a,
        ]))
        .expect("timed-out batch still exits clean");
        let text = std::fs::read_to_string(&apath).expect("answers file");
        let parsed = rbq::rbq_engine::wire::parse_answer_file(&text).expect("parse answers");
        assert_eq!(parsed.answers.len(), 2);
        for ans in &parsed.answers {
            assert_eq!(*ans, Answer::TimedOut);
        }
        assert!(run(&argv(&["batch", &g, &q, "--timeout-ms", "oops"])).is_err());
        assert!(run(&argv(&["batch", &g, &q, "--admission", "bogus"])).is_err());
        let _ = std::fs::remove_file(&qpath);
        let _ = std::fs::remove_file(&apath);
    }

    #[test]
    fn batch_runs_sharded_and_writes_versioned_answers() {
        let g = temp_graph("batch_sharded");
        let tmp = std::env::temp_dir();
        let qpath = tmp.join(format!("rbq_cli_shq_{}.txt", std::process::id()));
        let apath = tmp.join(format!("rbq_cli_sha_{}.txt", std::process::id()));
        std::fs::write(
            &qpath,
            "#rbq-queries v1\nr 0 2\nr 2 0\ns 0 1 ME,A 0-1\ni 0 0 ME -\n",
        )
        .expect("write queries");
        let (q, a) = (
            qpath.to_string_lossy().into_owned(),
            apath.to_string_lossy().into_owned(),
        );
        for shards in ["2", "3"] {
            run(&argv(&[
                "batch",
                &g,
                &q,
                "--alpha",
                "1.0",
                "--reach-alpha",
                "1.0",
                "--shards",
                shards,
                "--answers",
                &a,
            ]))
            .expect("sharded batch");
            let text = std::fs::read_to_string(&apath).expect("answers file");
            assert!(text.starts_with("#rbq-answers v2"), "{text}");
            let parsed = rbq::rbq_engine::wire::parse_answer_file(&text).expect("parse answers");
            assert_eq!(parsed.answers.len(), 4);
        }
        // The retired --partitioner is an unknown option like any other.
        assert!(run(&argv(&[
            "batch",
            &g,
            &q,
            "--partitioner",
            "label",
            "--shards",
            "2"
        ]))
        .is_err());
        // Zero shards surfaces the typed router error (exit code 2, not a
        // panic), through the full CLI chain.
        let err = run(&argv(&["batch", &g, &q, "--shards", "0"])).unwrap_err();
        assert!(
            matches!(err, CliError::Router(RouterError::InvalidShards)),
            "{err}"
        );
        assert!(err.to_string().contains("shard count"), "{err}");
        let _ = std::fs::remove_file(&g);
        let _ = std::fs::remove_file(&qpath);
        let _ = std::fs::remove_file(&apath);
    }

    #[test]
    fn ingest_applies_and_saves() {
        let g = temp_graph("ingest_ok");
        let tmp = std::env::temp_dir();
        let dpath = tmp.join(format!("rbq_cli_delta_{}.txt", std::process::id()));
        let opath = tmp.join(format!("rbq_cli_ingested_{}.txt", std::process::id()));
        std::fs::write(&dpath, "#rbq-deltas v1\nan C\nae 2 3\nre 0 1\n").expect("write deltas");
        let (d, o) = (
            dpath.to_string_lossy().into_owned(),
            opath.to_string_lossy().into_owned(),
        );
        run(&argv(&["ingest", &g, &d, "--out", &o])).expect("ingest");
        let g2 = load_graph(&o).expect("reload ingested graph");
        // Base was ME->A->B; the delta added C with B->C and removed ME->A.
        assert_eq!(g2.node_count(), 4);
        assert_eq!(g2.edge_count(), 2);
        assert_eq!(g2.node_label_str(NodeId(3)), "C");
        assert!(g2.edge(NodeId(2), NodeId(3)));
        assert!(!g2.edge(NodeId(0), NodeId(1)));
        let _ = std::fs::remove_file(&g);
        let _ = std::fs::remove_file(&dpath);
        let _ = std::fs::remove_file(&opath);
    }

    #[test]
    fn ingest_surfaces_typed_errors() {
        let g = temp_graph("ingest_bad");
        let tmp = std::env::temp_dir();
        let dpath = tmp.join(format!("rbq_cli_baddelta_{}.txt", std::process::id()));
        let d = dpath.to_string_lossy().into_owned();

        // Malformed line: parse error tagged with path and line.
        std::fs::write(&dpath, "#rbq-deltas v1\nae nope 1\n").expect("write deltas");
        let err = run(&argv(&["ingest", &g, &d])).unwrap_err();
        assert!(matches!(err, CliError::Parse { .. }), "{err}");

        // Well-formed but out of range: typed delta apply error.
        std::fs::write(&dpath, "#rbq-deltas v1\nae 0 99\n").expect("write deltas");
        let err = run(&argv(&["ingest", &g, &d])).unwrap_err();
        assert!(
            matches!(err, CliError::Delta(DeltaError::EdgeOutOfRange { .. })),
            "{err}"
        );
        assert!(err.to_string().contains("out of range"), "{err}");
        let _ = std::fs::remove_file(&g);
        let _ = std::fs::remove_file(&dpath);
    }

    #[test]
    fn snapshot_then_recover_serves_the_snapshot() {
        let g = temp_graph("snap_rt");
        let dir = std::env::temp_dir().join(format!("rbq_cli_snapdir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_string_lossy().into_owned();
        run(&argv(&["snapshot", &g, "--out", &d])).expect("snapshot");
        assert!(dir.join(rbq::rbq_graph::snapshot::SNAPSHOT_FILE).exists());
        assert!(dir.join(rbq::rbq_graph::wal::WAL_FILE).exists());
        // A snapshot with an empty WAL recovers to the original graph.
        run(&argv(&["recover", &d])).expect("recover");
        let _ = std::fs::remove_file(&g);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_requires_out_flag() {
        let g = temp_graph("snap_noout");
        assert!(run(&argv(&["snapshot", &g])).is_err());
        let _ = std::fs::remove_file(&g);
    }

    #[test]
    fn durable_ingest_recover_roundtrip_accumulates() {
        let g = temp_graph("durable_rt");
        let tmp = std::env::temp_dir();
        let pid = std::process::id();
        let dir = tmp.join(format!("rbq_cli_state_{pid}"));
        let _ = std::fs::remove_dir_all(&dir);
        let dpath = tmp.join(format!("rbq_cli_ddelta_{pid}.txt"));
        let d2path = tmp.join(format!("rbq_cli_ddelta2_{pid}.txt"));
        let qpath = tmp.join(format!("rbq_cli_dq_{pid}.txt"));
        let apath = tmp.join(format!("rbq_cli_da_{pid}.txt"));
        let opath = tmp.join(format!("rbq_cli_dout_{pid}.txt"));
        std::fs::write(&dpath, "#rbq-deltas v2\nan C\nae 2 3\n").expect("write deltas");
        std::fs::write(&d2path, "#rbq-deltas v2\nan D\nae 3 4\n").expect("write deltas");
        std::fs::write(&qpath, "#rbq-queries v2\nr 0 3\n").expect("write queries");
        let (dir_s, d, d2, q, a, o) = (
            dir.to_string_lossy().into_owned(),
            dpath.to_string_lossy().into_owned(),
            d2path.to_string_lossy().into_owned(),
            qpath.to_string_lossy().into_owned(),
            apath.to_string_lossy().into_owned(),
            opath.to_string_lossy().into_owned(),
        );

        // First durable ingest seeds the directory from GRAPH.
        run(&argv(&["ingest", &g, &d, "--durable", &dir_s])).expect("durable ingest");
        // Recover and answer a query against the recovered state.
        run(&argv(&[
            "recover",
            &dir_s,
            "--queries",
            &q,
            "--answers",
            &a,
        ]))
        .expect("recover");
        let text = std::fs::read_to_string(&apath).expect("answers file");
        assert!(text.starts_with("#rbq-answers v2"), "{text}");
        // The default α-budget on a 4-node graph may deny certification;
        // the state differential below (node/edge counts) pins recovery.
        assert!(text.lines().any(|l| l.starts_with("reach ")), "{text}");

        // Second durable ingest into the same directory recovers first and
        // accumulates; GRAPH is ignored.
        run(&argv(&[
            "ingest",
            &g,
            &d2,
            "--durable",
            &dir_s,
            "--out",
            &o,
        ]))
        .expect("second durable ingest");
        let g2 = load_graph(&o).expect("reload");
        assert_eq!(g2.node_count(), 5); // ME A B C D
        assert_eq!(g2.edge_count(), 4);
        assert!(g2.edge(NodeId(3), NodeId(4)));

        let _ = std::fs::remove_file(&g);
        for p in [&dpath, &d2path, &qpath, &apath, &opath] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_inject_requires_durable() {
        let g = temp_graph("inject_nodur");
        let dpath =
            std::env::temp_dir().join(format!("rbq_cli_injdelta_{}.txt", std::process::id()));
        std::fs::write(&dpath, "#rbq-deltas v2\nan C\n").expect("write deltas");
        let d = dpath.to_string_lossy().into_owned();
        let err = run(&argv(&["ingest", &g, &d, "--inject", "wal.fsync"])).unwrap_err();
        assert!(err.to_string().contains("--durable"), "{err}");
        let _ = std::fs::remove_file(&g);
        let _ = std::fs::remove_file(&dpath);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn inject_unknown_point_lists_the_known_ones() {
        let g = temp_graph("inject_bogus");
        let dpath =
            std::env::temp_dir().join(format!("rbq_cli_bogusdelta_{}.txt", std::process::id()));
        std::fs::write(&dpath, "#rbq-deltas v2\nan C\n").expect("write deltas");
        let dir = std::env::temp_dir().join(format!("rbq_cli_bogus_{}", std::process::id()));
        let (d, s) = (dpath.to_string_lossy(), dir.to_string_lossy());
        let err = run(&argv(&[
            "ingest",
            &g,
            &d,
            "--durable",
            &s,
            "--inject",
            "bogus",
        ]))
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("\"bogus\"") && msg.contains("wal.fsync"),
            "{msg}"
        );
        assert!(!dir.exists(), "a rejected --inject touched durable state");
        let _ = std::fs::remove_file(&g);
        let _ = std::fs::remove_file(&dpath);
    }

    #[test]
    fn recover_missing_dir_is_typed_error() {
        let dir = std::env::temp_dir().join(format!("rbq_cli_nostate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_string_lossy().into_owned();
        let err = run(&argv(&["recover", &d])).unwrap_err();
        assert!(matches!(err, CliError::Durability(_)), "{err}");
    }

    #[test]
    fn workload_writes_versioned_header() {
        let g = temp_graph("workload_hdr");
        let qpath = std::env::temp_dir().join(format!("rbq_cli_wlq_{}.txt", std::process::id()));
        let q = qpath.to_string_lossy().into_owned();
        run(&argv(&[
            "workload", &g, "--count", "8", "--seed", "3", "--out", &q,
        ]))
        .expect("workload");
        let text = std::fs::read_to_string(&qpath).expect("query file");
        assert!(text.starts_with(QUERY_FILE_HEADER), "{text}");
        // And the batch loader accepts it without a headerless warning.
        let parsed = parse_query_file(&text).expect("parse");
        assert!(!parsed.headerless);
        assert_eq!(parsed.queries.len(), 8);
        let _ = std::fs::remove_file(&g);
        let _ = std::fs::remove_file(&qpath);
    }

    #[test]
    fn durable_and_in_memory_ingest_write_the_same_graph_and_report() {
        let g = temp_graph("ingest_same");
        let tmp = std::env::temp_dir();
        let pid = std::process::id();
        let dir = tmp.join(format!("rbq_cli_same_state_{pid}"));
        let _ = std::fs::remove_dir_all(&dir);
        let dpath = tmp.join(format!("rbq_cli_same_delta_{pid}.txt"));
        let mem_path = tmp.join(format!("rbq_cli_same_mem_{pid}.txt"));
        let dur_path = tmp.join(format!("rbq_cli_same_dur_{pid}.txt"));
        std::fs::write(&dpath, "#rbq-deltas v2\nan C\nae 2 3\nre 0 1\n").expect("write deltas");
        let (dir_s, d, mem_o, dur_o) = (
            dir.to_string_lossy().into_owned(),
            dpath.to_string_lossy().into_owned(),
            mem_path.to_string_lossy().into_owned(),
            dur_path.to_string_lossy().into_owned(),
        );

        let (mem, _) = serve_captured(&["ingest", &g, &d, "--out", &mem_o]).expect("ingest");
        let (dur, _) = serve_captured(&["ingest", &g, &d, "--durable", &dir_s, "--out", &dur_o])
            .expect("durable ingest");
        assert_eq!(
            std::fs::read(&mem_path).expect("in-memory graph"),
            std::fs::read(&dur_path).expect("durable graph")
        );
        let report = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| l.starts_with("applied ") || l.starts_with("graph now "))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(report(&mem), report(&dur));
        assert_eq!(report(&mem).len(), 2, "{mem}");

        let _ = std::fs::remove_file(&g);
        for p in [&dpath, &mem_path, &dur_path] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_compact_is_an_unknown_flag() {
        let g = temp_graph("compact_gone");
        let dpath =
            std::env::temp_dir().join(format!("rbq_cli_cmpdelta_{}.txt", std::process::id()));
        std::fs::write(&dpath, "#rbq-deltas v2\nan C\n").expect("write deltas");
        let d = dpath.to_string_lossy().into_owned();
        let err = run(&argv(&["ingest", &g, &d, "--compact", "1"])).unwrap_err();
        assert!(err.to_string().contains("unknown flag"), "{err}");
        let _ = std::fs::remove_file(&g);
        let _ = std::fs::remove_file(&dpath);
    }

    #[test]
    fn torn_wal_tail_is_reported_whichever_command_opens_it() {
        let g = temp_graph("torn");
        let tmp = std::env::temp_dir();
        let pid = std::process::id();
        let dirs = [
            tmp.join(format!("rbq_cli_torn_ingest_{pid}")),
            tmp.join(format!("rbq_cli_torn_recover_{pid}")),
        ];
        let dpath = tmp.join(format!("rbq_cli_torn_delta_{pid}.txt"));
        let d2path = tmp.join(format!("rbq_cli_torn_delta2_{pid}.txt"));
        std::fs::write(&dpath, "#rbq-deltas v2\nan C\nae 2 3\n").expect("write deltas");
        std::fs::write(&d2path, "#rbq-deltas v2\nan D\nae 3 4\n").expect("write deltas");
        let (d, d2) = (
            dpath.to_string_lossy().into_owned(),
            d2path.to_string_lossy().into_owned(),
        );
        let [a, b] = dirs.clone().map(|p| p.to_string_lossy().into_owned());
        for dir in [&a, &b] {
            let _ = std::fs::remove_dir_all(dir);
            serve_captured(&["ingest", &g, &d, "--durable", dir]).expect("seed");
            // A crash mid-append leaves a partial record at the WAL's tail.
            let wal = Path::new(dir).join(rbq::rbq_graph::wal::WAL_FILE);
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(wal)
                .expect("open WAL");
            f.write_all(&[42, 0, 0, 0, 1]).expect("tear WAL");
        }

        let (ingested, ingest_warn) =
            serve_captured(&["ingest", &g, &d2, "--durable", &a]).expect("ingest");
        let (recovered, recover_warn) = serve_captured(&["recover", &b]).expect("recover");
        let torn = "warning: WAL ended mid-record; torn tail truncated";
        assert!(ingest_warn.contains(torn), "{ingest_warn}");
        assert!(recover_warn.contains(torn), "{recover_warn}");
        let report = |out: &str, dir: &str| {
            out.lines()
                .find(|l| l.starts_with("recovered "))
                .map(|l| l.replace(dir, "DIR"))
        };
        assert_eq!(report(&ingested, &a), report(&recovered, &b));
        assert!(report(&ingested, &a).is_some(), "{ingested}");

        let _ = std::fs::remove_file(&g);
        let _ = std::fs::remove_file(&dpath);
        let _ = std::fs::remove_file(&d2path);
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
