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
//! Graphs use the plain-text format of `rbq_graph::io` (`n <id> <label>` /
//! `e <src> <dst>` lines); query and answer files use the versioned wire
//! format of `rbq_engine::wire` (`#rbq-queries v2` / `#rbq-answers v2`
//! headers over the one-line `r <src> <dst>` / `s|i <up> <uo> <labels>
//! <edges>` query serialization).

use rbq::rbq_core::{pattern_accuracy, rbsim, NeighborIndex, ResourceBudget};
use rbq::rbq_engine::wire::{parse_delta_file, parse_query_file, write_answer_file};
use rbq::rbq_engine::{
    AdmissionPolicy, Answer, ApplyError, BatchReport, BudgetSpec, Durability, DurabilityError,
    Engine, EngineConfig, EngineError, Query, QueryParseError, WireWriteError, QUERY_FILE_HEADER,
};
use rbq::rbq_graph::{io as gio, DeltaError, Graph, GraphView, NodeId};
use rbq::rbq_pattern::{bisimulation_compress, match_opt};
use rbq::rbq_reach::{compress_for_reachability, HierarchicalIndex};
use rbq::rbq_router::{LabelHashPartitioner, Router, RouterError};
use rbq::rbq_workload::{extract_pattern, sample_mixed_workload, MixedWorkloadSpec, PatternSpec};
use std::fs::File;
use std::io::{BufReader, Write};
use std::process::ExitCode;
use std::sync::Arc;

/// Top-level CLI error: typed wrappers around the library layers plus
/// plain usage messages. Every variant renders the same text the old
/// string-based plumbing printed, and the exit code stays 2.
#[derive(Debug)]
enum CliError {
    /// Usage/argument errors and ad-hoc messages.
    Msg(String),
    /// Engine configuration or resolution errors, wrapped losslessly.
    Engine(EngineError),
    /// A query file failed to parse (the wire layer tags the line; the
    /// CLI adds the path).
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
    Durability(DurabilityError),
    /// Writing a wire-format file failed.
    Wire(WireWriteError),
    /// Other I/O.
    Io(std::io::Error),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Msg(m) => write!(f, "{m}"),
            CliError::Engine(e) => write!(f, "{e}"),
            CliError::Parse { path, source } => write!(f, "{path}: {source}"),
            CliError::Router(e) => write!(f, "{e}"),
            CliError::Delta(e) => write!(f, "{e}"),
            CliError::Durability(e) => write!(f, "{e}"),
            CliError::Wire(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
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

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Msg(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Msg(m.to_owned())
    }
}

impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        CliError::Engine(e)
    }
}

impl From<RouterError> for CliError {
    fn from(e: RouterError) -> Self {
        CliError::Router(e)
    }
}

impl From<WireWriteError> for CliError {
    fn from(e: WireWriteError) -> Self {
        CliError::Wire(e)
    }
}

impl From<DeltaError> for CliError {
    fn from(e: DeltaError) -> Self {
        CliError::Delta(e)
    }
}

impl From<DurabilityError> for CliError {
    fn from(e: DurabilityError) -> Self {
        CliError::Durability(e)
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

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: rbq <generate|stats|compress|reach|pattern|workload|batch|ingest|snapshot|recover|lint> [args]\n\
                 see module docs for details"
            );
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let cmd = args.first().ok_or("missing subcommand")?;
    let rest = &args[1..];
    match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "stats" => cmd_stats(rest),
        "compress" => cmd_compress(rest),
        "reach" => cmd_reach(rest),
        "pattern" => cmd_pattern(rest),
        "workload" => cmd_workload(rest),
        "batch" => cmd_batch(rest),
        "ingest" => cmd_ingest(rest),
        "snapshot" => cmd_snapshot(rest),
        "recover" => cmd_recover(rest),
        "lint" => cmd_lint(rest),
        other => Err(format!("unknown subcommand {other:?}").into()),
    }
}

/// `lint [ROOT]` — run the `rbq-lint` static-analysis pass over the
/// workspace at (or above) ROOT, defaulting to the current directory.
/// Findings print to stderr as `file:line: rule-id: message`; any finding
/// exits the process with status 1, matching the standalone `rbq-lint`
/// binary so either entry point can gate CI.
fn cmd_lint(args: &[String]) -> Result<(), CliError> {
    if args.len() > 1 {
        return Err("usage: lint [ROOT]".into());
    }
    let start = match args.first() {
        Some(p) => std::path::PathBuf::from(p),
        None => std::env::current_dir()?,
    };
    let root = rbq_lint::find_workspace_root(&start)
        .ok_or_else(|| format!("lint: no workspace root at or above {}", start.display()))?;
    if rbq_lint::check_and_report(&root)? > 0 {
        std::process::exit(1);
    }
    Ok(())
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
        .ok_or_else(|| format!("bad --spec {s:?}, expected N,M"))?;
    let nodes: usize = a
        .trim()
        .parse()
        .map_err(|_| format!("bad node count {a:?}"))?;
    let edges: usize = b
        .trim()
        .parse()
        .map_err(|_| format!("bad edge count {b:?}"))?;
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

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    let (mut kind, mut nodes, mut seed, mut out) = (None, None, None, None);
    let _ = parse_flags(
        args,
        &mut [
            ("kind", &mut kind),
            ("nodes", &mut nodes),
            ("seed", &mut seed),
            ("out", &mut out),
        ],
    )?;
    let kind = kind.unwrap_or_else(|| "youtube".into());
    let nodes: usize = nodes
        .unwrap_or_else(|| "10000".into())
        .parse()
        .map_err(|_| "bad --nodes")?;
    let seed: u64 = seed
        .unwrap_or_else(|| "42".into())
        .parse()
        .map_err(|_| "bad --seed")?;
    let out = out.ok_or("missing --out FILE")?;
    let g = match kind.as_str() {
        "youtube" => rbq::rbq_workload::youtube_like(nodes, seed),
        "yahoo" => rbq::rbq_workload::yahoo_like(nodes, seed),
        "uniform" => rbq::rbq_workload::uniform_random(nodes, 2 * nodes, 15, seed),
        "social" => rbq::rbq_workload::social_groups(8, nodes / 8, nodes / 4, seed),
        other => {
            return Err(format!("unknown kind {other:?} (youtube|yahoo|uniform|social)").into())
        }
    };
    gio::atomic_write(std::path::Path::new(&out), |w| gio::write_graph(&g, w))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} nodes, {} edges to {out}",
        g.node_count(),
        g.edge_count()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let pos = parse_flags(args, &mut [])?;
    let path = pos.first().ok_or("missing graph file")?;
    let g = load_graph(path)?;
    let ds = rbq::rbq_graph::stats::degree_stats(&g);
    println!("nodes      {}", g.node_count());
    println!("edges      {}", g.edge_count());
    println!("size |G|   {}", g.size());
    println!("labels     {}", g.labels().len());
    println!("max degree {}", ds.max_degree);
    println!("avg degree {:.2}", ds.avg_degree);
    println!(
        "label fanout f = {}",
        rbq::rbq_graph::stats::max_label_fanout(&g)
    );
    Ok(())
}

fn cmd_compress(args: &[String]) -> Result<(), CliError> {
    let pos = parse_flags(args, &mut [])?;
    let path = pos.first().ok_or("missing graph file")?;
    let g = load_graph(path)?;
    let reach = compress_for_reachability(&g);
    println!(
        "reachability compression: {} -> {} units ({:.1}%)",
        g.size(),
        reach.dag.size(),
        reach.ratio(&g) * 100.0
    );
    let sim = bisimulation_compress(&g);
    println!(
        "simulation compression:   {} -> {} units ({:.1}%)",
        g.size(),
        sim.quotient.size(),
        sim.ratio(&g) * 100.0
    );
    Ok(())
}

fn cmd_reach(args: &[String]) -> Result<(), CliError> {
    let mut alpha = None;
    let pos = parse_flags(args, &mut [("alpha", &mut alpha)])?;
    let [path, s, t] = pos.as_slice() else {
        return Err("usage: reach GRAPH SRC DST [--alpha A]".into());
    };
    let alpha = parse_alpha(&alpha.unwrap_or_else(|| "0.01".into()), "--alpha")?;
    let g = load_graph(path)?;
    let s: u32 = s.parse().map_err(|_| format!("bad source id {s:?}"))?;
    let t: u32 = t.parse().map_err(|_| format!("bad target id {t:?}"))?;
    if s as usize >= g.node_count() || t as usize >= g.node_count() {
        return Err("node id out of range".into());
    }
    let idx = HierarchicalIndex::build(&g, alpha);
    let ans = idx.query(NodeId(s), NodeId(t));
    let exact = rbq::rbq_graph::traverse::reaches(&g, NodeId(s), NodeId(t));
    println!(
        "RBReach[alpha={alpha}]: {} (visited {} of cap {})",
        ans.reachable,
        ans.visits,
        idx.visit_cap()
    );
    println!(
        "exact BFS:            {} (visited {} data units)",
        exact.0,
        exact.1.total()
    );
    Ok(())
}

fn cmd_pattern(args: &[String]) -> Result<(), CliError> {
    let (mut spec, mut alpha, mut seed) = (None, None, None);
    let pos = parse_flags(
        args,
        &mut [
            ("spec", &mut spec),
            ("alpha", &mut alpha),
            ("seed", &mut seed),
        ],
    )?;
    let path = pos.first().ok_or("missing graph file")?;
    let spec = parse_spec(&spec.unwrap_or_else(|| "4,8".into()))?;
    let alpha = parse_alpha(&alpha.unwrap_or_else(|| "0.001".into()), "--alpha")?;
    let seed: u64 = seed
        .unwrap_or_else(|| "7".into())
        .parse()
        .map_err(|_| "bad --seed")?;
    let g = load_graph(path)?;
    let q = (0..200u64)
        .find_map(|s| extract_pattern(&g, spec, seed.wrapping_add(s)))
        .ok_or("could not extract a pattern (graph too small or no ME node)")?
        .resolve(&g)
        .map_err(|e| e.to_string())?;
    println!(
        "pattern: {} nodes, {} edges, d_Q = {}",
        q.pattern().node_count(),
        q.pattern().edge_count(),
        q.dq()
    );
    let idx = NeighborIndex::build(&g);
    let budget = ResourceBudget::from_ratio(&g, alpha);
    let ans = rbsim(&g, &idx, &q, &budget);
    println!(
        "RBSim[alpha={alpha}]: {} matches, |G_Q| = {} of budget {}, visited {}",
        ans.matches.len(),
        ans.gq_size,
        budget.max_units,
        ans.visits.total()
    );
    let exact = match_opt(&q, &g);
    let acc = pattern_accuracy(&exact, &ans.matches);
    println!(
        "exact (MatchOpt):     {} matches; accuracy {:.1}%",
        exact.len(),
        acc.f1 * 100.0
    );
    Ok(())
}

fn cmd_workload(args: &[String]) -> Result<(), CliError> {
    let (mut count, mut seed, mut out, mut spec) = (None, None, None, None);
    let (mut reach_frac, mut iso_frac, mut repeat_frac) = (None, None, None);
    let pos = parse_flags(
        args,
        &mut [
            ("count", &mut count),
            ("seed", &mut seed),
            ("out", &mut out),
            ("spec", &mut spec),
            ("reach-frac", &mut reach_frac),
            ("iso-frac", &mut iso_frac),
            ("repeat-frac", &mut repeat_frac),
        ],
    )?;
    let path = pos.first().ok_or("missing graph file")?;
    let out = out.ok_or("missing --out FILE")?;
    let parse_frac = |s: Option<String>, def: f64, what: &str| -> Result<f64, String> {
        match s {
            None => Ok(def),
            Some(s) => {
                let f: f64 = s.parse().map_err(|_| format!("bad {what} {s:?}"))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(format!("{what} must lie in [0, 1], got {s}"));
                }
                Ok(f)
            }
        }
    };
    let mut mspec = MixedWorkloadSpec {
        count: count
            .unwrap_or_else(|| "200".into())
            .parse()
            .map_err(|_| "bad --count")?,
        reach_fraction: parse_frac(reach_frac, 0.4, "--reach-frac")?,
        iso_fraction: parse_frac(iso_frac, 0.3, "--iso-frac")?,
        repeat_fraction: parse_frac(repeat_frac, 0.3, "--repeat-frac")?,
        ..Default::default()
    };
    if let Some(s) = spec {
        mspec.spec = parse_spec(&s)?;
    }
    let seed: u64 = seed
        .unwrap_or_else(|| "7".into())
        .parse()
        .map_err(|_| "bad --seed")?;
    let g = load_graph(path)?;
    let queries = sample_mixed_workload(&g, &mspec, seed);
    // Serialize before opening the file: a to_line failure must not leave
    // a half-written artifact, and the write itself is atomic.
    let mut lines = Vec::with_capacity(queries.len());
    for q in &queries {
        lines.push(q.to_line()?);
    }
    gio::atomic_write(std::path::Path::new(&out), |w| {
        writeln!(w, "{QUERY_FILE_HEADER}")?;
        writeln!(
            w,
            "# rbq mixed workload: {} queries, seed {seed}",
            lines.len()
        )?;
        for line in &lines {
            writeln!(w, "{line}")?;
        }
        Ok(())
    })
    .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {} queries to {out}", queries.len());
    Ok(())
}

fn load_queries(path: &str) -> Result<Vec<Query>, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let file = parse_query_file(&text).map_err(|e| CliError::Parse {
        path: path.to_owned(),
        source: e,
    })?;
    if file.headerless {
        eprintln!("warning: {path} has no #rbq-queries header; reading it as v1");
    }
    Ok(file.queries)
}

fn cmd_batch(args: &[String]) -> Result<(), CliError> {
    let (mut alpha, mut reach_alpha, mut threads, mut cache, mut aggregate, mut verbose) =
        (None, None, None, None, None, None);
    let (mut shards, mut answers) = (None, None);
    let (mut timeout_ms, mut admission) = (None, None);
    let pos = parse_flags(
        args,
        &mut [
            ("alpha", &mut alpha),
            ("reach-alpha", &mut reach_alpha),
            ("threads", &mut threads),
            ("cache", &mut cache),
            ("aggregate", &mut aggregate),
            ("verbose", &mut verbose),
            ("shards", &mut shards),
            ("answers", &mut answers),
            ("timeout-ms", &mut timeout_ms),
            ("admission", &mut admission),
        ],
    )?;
    let [graph_path, query_path] = pos.as_slice() else {
        return Err("usage: batch GRAPH QUERYFILE [--alpha A] [--reach-alpha A] [--threads T] [--cache N] [--aggregate N] [--timeout-ms MS] [--admission input|sjf] [--shards K] [--answers FILE] [--verbose 1]".into());
    };
    let alpha = parse_alpha(&alpha.unwrap_or_else(|| "0.01".into()), "--alpha")?;
    let reach_alpha = parse_alpha(
        &reach_alpha.unwrap_or_else(|| "0.05".into()),
        "--reach-alpha",
    )?;
    let threads: usize = threads
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|_| "bad --threads")?;
    let cache: usize = cache
        .unwrap_or_else(|| "1024".into())
        .parse()
        .map_err(|_| "bad --cache")?;
    let aggregate = match aggregate {
        None => None,
        Some(s) => Some(s.parse::<usize>().map_err(|_| "bad --aggregate")?),
    };
    let timeout = match timeout_ms {
        None => None,
        Some(s) => Some(std::time::Duration::from_millis(
            s.parse::<u64>().map_err(|_| "bad --timeout-ms")?,
        )),
    };
    let admission = match admission.as_deref() {
        None | Some("input") => AdmissionPolicy::InputOrder,
        Some("sjf") => AdmissionPolicy::ShortestJobFirst,
        Some(other) => return Err(format!("bad --admission {other:?} (want input|sjf)").into()),
    };
    let verbose = verbose.is_some_and(|v| v != "0");
    let shards: usize = shards
        .unwrap_or_else(|| "1".into())
        .parse()
        .map_err(|_| "bad --shards")?;

    let g = Arc::new(load_graph(graph_path)?);
    let queries = load_queries(query_path)?;
    let cfg = EngineConfig {
        pattern_budget: BudgetSpec::Ratio(alpha),
        reach_alpha,
        threads,
        cache_capacity: cache,
        aggregate_visit_budget: aggregate,
        batch_timeout: timeout,
        admission,
        ..EngineConfig::default()
    };
    cfg.validate()?;
    let max_units = ResourceBudget::from_ratio(&*g, alpha).max_units;

    let start = std::time::Instant::now();
    // One report type either way; `--shards 0` is Router::new's typed
    // RouterError::InvalidShards (exit code 2, no panic).
    let BatchReport {
        results,
        stats,
        per_shard,
    } = if shards == 1 {
        Engine::new(g.clone(), cfg).run_batch(&queries)
    } else {
        Router::new(g.clone(), cfg, shards, &LabelHashPartitioner)?.run_batch(&queries)
    };
    let wall = start.elapsed();
    if per_shard.len() > 1 {
        println!("router: {shards} shards, routed by label hash");
        for (s, sh) in per_shard.iter().enumerate() {
            println!(
                "  shard {s}: {} queries routed, {} visits",
                sh.routed, sh.stats.total_visits
            );
        }
    }

    if verbose {
        for (i, r) in results.iter().enumerate() {
            println!(
                "[{i:>4}] {}{}",
                r.answer,
                if r.cached { " [cached]" } else { "" }
            );
        }
    }
    println!(
        "batch: {} queries in {wall:.2?} ({:.0} q/s)",
        queries.len(),
        queries.len() as f64 / wall.as_secs_f64().max(1e-9)
    );
    println!("{stats}");
    let mut budget_violations = 0usize;
    for r in &results {
        if let Answer::Pattern { gq_size, .. } = &r.answer {
            if *gq_size > max_units {
                budget_violations += 1;
            }
        }
    }
    if budget_violations == 0 {
        println!("per-query budgets respected: every |G_Q| <= {max_units} units");
    } else {
        return Err(format!(
            "{budget_violations} answers exceeded the per-query budget of {max_units} units"
        )
        .into());
    }
    if let Some(path) = answers {
        let aa: Vec<Answer> = results.iter().map(|r| r.answer.clone()).collect();
        write_answers_atomic(&path, &aa)?;
        println!("wrote {} answers to {path}", aa.len());
    }
    Ok(())
}

/// Serialize answers to `path` atomically: render to memory first (so a
/// wire-format failure writes nothing), then write-temp-then-rename.
fn write_answers_atomic(path: &str, answers: &[Answer]) -> Result<(), CliError> {
    let mut buf = Vec::new();
    write_answer_file(&mut buf, answers)?;
    gio::atomic_write(std::path::Path::new(path), |w| w.write_all(&buf))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(())
}

fn cmd_ingest(args: &[String]) -> Result<(), CliError> {
    let (mut out, mut compact, mut durable, mut inject) = (None, None, None, None);
    let pos = parse_flags(
        args,
        &mut [
            ("out", &mut out),
            ("compact", &mut compact),
            ("durable", &mut durable),
            ("inject", &mut inject),
        ],
    )?;
    let [graph_path, delta_path] = pos.as_slice() else {
        return Err("usage: ingest GRAPH DELTAFILE [--out FILE] [--compact 1] \
                    [--durable DIR] [--inject POINT[:N]]"
            .into());
    };
    if inject.is_some() && durable.is_none() {
        return Err("--inject requires --durable (it targets the durability IO path)".into());
    }
    let text = std::fs::read_to_string(delta_path)
        .map_err(|e| format!("cannot open {delta_path}: {e}"))?;
    let file = parse_delta_file(&text).map_err(|e| CliError::Parse {
        path: (*delta_path).to_owned(),
        source: e,
    })?;
    if file.headerless {
        eprintln!("warning: {delta_path} has no #rbq-deltas header; reading it as v1");
    }

    if let Some(dir) = durable {
        return ingest_durable(
            graph_path,
            &file.batch,
            &dir,
            inject.as_deref(),
            out.as_deref(),
        );
    }

    let g = load_graph(graph_path)?;
    let (g2, report) = g.apply_delta(&file.batch)?;
    let g2 = if compact.is_some_and(|v| v != "0") && g2.is_overlaid() {
        g2.compact()
    } else {
        g2
    };
    print_ingest_report(file.batch.len(), &report, &g2);
    if let Some(out) = out {
        gio::atomic_write(std::path::Path::new(&out), |w| gio::write_graph(&g2, w))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote updated graph to {out}");
    }
    Ok(())
}

/// Shared tail of `ingest`: the op/graph summary lines.
fn print_ingest_report(ops: usize, report: &rbq::rbq_graph::DeltaReport, g: &Graph) {
    println!(
        "applied {} ops: +{} nodes, +{} edges, -{} edges; touched labels: {}",
        ops,
        report.nodes_added,
        report.edges_added,
        report.edges_removed,
        if report.touched_labels.is_empty() {
            "-".to_owned()
        } else {
            report.touched_labels.join(",")
        }
    );
    println!(
        "graph now {} nodes, {} edges{}",
        g.node_count(),
        g.edge_count(),
        if report.compacted {
            " (auto-compacted)"
        } else if g.is_overlaid() {
            " (overlaid)"
        } else {
            ""
        }
    );
}

/// `ingest --durable DIR`: apply the batch through an [`Engine`] whose
/// durability hooks WAL-log it (fsync before the epoch swap). A fresh DIR
/// is seeded with a snapshot of GRAPH; a DIR that already holds durable
/// state is recovered first and GRAPH is ignored, so repeated durable
/// ingests into the same directory accumulate.
fn ingest_durable(
    graph_path: &str,
    batch: &rbq::rbq_graph::DeltaBatch,
    dir: &str,
    inject: Option<&str>,
    out: Option<&str>,
) -> Result<(), CliError> {
    // Arm the injected fault before any durability IO so the first firing
    // of the chosen point panics — simulating a crash mid-ingest. The
    // panic unwinds out of main: a non-zero exit with the on-disk state
    // exactly as the crash left it, which is what `rbq recover` pins.
    #[cfg(feature = "fault-injection")]
    let _armed = match inject {
        Some(spec) => {
            use rbq::rbq_graph::faultpoint::{arm, FaultAction, FaultPlan, REGISTRY};
            let (name, nth) = match spec.split_once(':') {
                Some((p, n)) => (
                    p,
                    n.parse::<u64>()
                        .map_err(|_| format!("bad --inject count in {spec:?}"))?,
                ),
                // N is the 0-based hit to trigger on, matching
                // FaultPlan::on_nth; default: the first firing.
                None => (spec, 0),
            };
            let point = REGISTRY
                .iter()
                .copied()
                .find(|&r| r == name)
                .ok_or_else(|| format!("unknown faultpoint {name:?}; see faultpoint::REGISTRY"))?;
            eprintln!("fault injection armed: panic at {point}, firing #{nth}");
            Some(arm(FaultPlan::new().on_nth(point, nth, FaultAction::Panic)))
        }
        None => None,
    };
    #[cfg(not(feature = "fault-injection"))]
    if let Some(spec) = inject {
        eprintln!(
            "warning: --inject {spec} ignored (binary built without the fault-injection feature)"
        );
    }

    let dir_path = std::path::Path::new(dir);
    let cfg = EngineConfig::default();
    let engine = if dir_path
        .join(rbq::rbq_graph::snapshot::SNAPSHOT_FILE)
        .exists()
    {
        eprintln!("note: {dir} already holds durable state; {graph_path} is ignored");
        let (engine, rec) = Engine::recover(dir_path, cfg)?;
        println!(
            "recovered {} nodes, {} edges (snapshot seq {}, {} batches replayed)",
            rec.nodes, rec.edges, rec.snapshot_seq, rec.replayed
        );
        engine
    } else {
        let g = Arc::new(load_graph(graph_path)?);
        let engine = Engine::new(g, cfg);
        engine.enable_durability(dir_path)?;
        engine
    };
    let report = engine.apply_deltas(batch)?;
    let g2 = engine.graph();
    print_ingest_report(batch.len(), &report, &g2);
    println!("durable state in {dir}");
    if let Some(out) = out {
        gio::atomic_write(std::path::Path::new(out), |w| gio::write_graph(&g2, w))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote updated graph to {out}");
    }
    Ok(())
}

fn cmd_snapshot(args: &[String]) -> Result<(), CliError> {
    let mut out = None;
    let pos = parse_flags(args, &mut [("out", &mut out)])?;
    let [graph_path] = pos.as_slice() else {
        return Err("usage: snapshot GRAPH --out DIR".into());
    };
    let Some(out) = out else {
        return Err("snapshot: --out DIR is required".into());
    };
    let g = load_graph(graph_path)?;
    Durability::create(std::path::Path::new(&out), &g)?;
    println!(
        "snapshot: {} nodes, {} edges -> {out} (seq 0, fresh WAL)",
        g.node_count(),
        g.edge_count()
    );
    Ok(())
}

fn cmd_recover(args: &[String]) -> Result<(), CliError> {
    let (mut queries, mut answers) = (None, None);
    let pos = parse_flags(
        args,
        &mut [("queries", &mut queries), ("answers", &mut answers)],
    )?;
    let [dir] = pos.as_slice() else {
        return Err("usage: recover DIR [--queries FILE] [--answers FILE]".into());
    };
    if answers.is_some() && queries.is_none() {
        return Err("recover: --answers requires --queries".into());
    }
    let (engine, report) = Engine::recover(std::path::Path::new(dir), EngineConfig::default())?;
    println!(
        "recovered {} nodes, {} edges from {dir} \
         (snapshot seq {}, {} batches replayed, {} skipped, last seq {})",
        report.nodes,
        report.edges,
        report.snapshot_seq,
        report.replayed,
        report.skipped,
        report.last_seq
    );
    if report.torn_tail {
        eprintln!("warning: WAL ended mid-record; torn tail truncated");
    }
    if report.quarantined > 0 {
        eprintln!(
            "warning: {} corrupt WAL record(s) quarantined; serving the valid prefix",
            report.quarantined
        );
    }
    if let Some(qpath) = queries {
        let qs = load_queries(&qpath)?;
        let batch = engine.run_batch(&qs);
        println!("batch: {} queries", qs.len());
        println!("{}", batch.stats);
        if let Some(apath) = answers {
            let aa: Vec<Answer> = batch.results.iter().map(|r| r.answer.clone()).collect();
            write_answers_atomic(&apath, &aa)?;
            println!("wrote {} answers to {apath}", aa.len());
        }
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
}
