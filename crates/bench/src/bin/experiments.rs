//! Regenerate every table and figure of the paper's evaluation (§6).
//!
//! ```text
//! cargo run --release -p rbq-bench --bin experiments -- all
//! cargo run --release -p rbq-bench --bin experiments -- fig8a fig8c table2
//! cargo run --release -p rbq-bench --bin experiments -- fig8k --nodes 20000
//! ```
//!
//! Experiment ids: `table2`, `fig8a`–`fig8p`, `engine`, `ablations`, `all`
//! (the [`EXPERIMENTS`] table; performance tracking lives in `benchmark/`).
//! Options: `--nodes N` (snapshot substitute size, default 30000),
//! `--queries N` (patterns per point, default 5), `--reach-queries N`
//! (default 100), `--reps N` (timing repetitions, median reported;
//! default 3 — raise on noisy machines), `--seed N`,
//! `--synthetic-scale N` (largest synthetic |V|, default 1000000).
//!
//! Paper α values are converted to our graph sizes by holding the absolute
//! budget `α·|G|` fixed (see `rbq-bench` crate docs); every row prints
//! both the paper α and the absolute budget.

use rbq_bench::*;
use rbq_core::{
    pattern_accuracy, rbsim, reachability_accuracy, PickPolicy, ReductionConfig, ResourceBudget,
};
use rbq_engine::{Answer, BudgetSpec, Engine, EngineConfig, Query};
use rbq_graph::GraphView;
use rbq_pattern::{match_opt, strong_simulation, vf2_opt, ResolvedPattern, Vf2Config};
use rbq_reach::{
    bfs_query, BfsOptIndex, HierarchicalIndex, IndexParams, LandmarkVectors, SelectionStrategy,
};
use rbq_workload::{
    reachability_ground_truth, sample_hard_reachability_queries, sample_mixed_workload,
    MixedWorkloadSpec, PatternSpec,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Practical cap on VF2 search steps: dense (n,2n) patterns over
/// label-homophilous regions can admit combinatorially many embeddings;
/// the cap (~seconds of work) truncates only those pathological queries.
fn vf2_cfg() -> Vf2Config {
    Vf2Config {
        max_steps: Some(20_000_000),
        ..Default::default()
    }
}

/// An engine sharing the dataset's graph and neighbor index, with the
/// given absolute per-query budget. The cache is disabled for accuracy
/// sweeps (every evaluation should pay its own cost) — the `engine`
/// experiment measures caching separately.
fn engine_for(ds: &PatternDataset, budget: &ResourceBudget) -> Engine {
    Engine::with_indexes(
        ds.g.clone(),
        EngineConfig {
            pattern_budget: BudgetSpec::Units(budget.max_units),
            vf2: vf2_cfg(),
            cache_capacity: 0,
            ..Default::default()
        },
        Some(ds.idx.clone()),
        None,
    )
}

/// Matches of a batch's pattern answers, empty on error/denial.
fn pattern_matches(report: &rbq_engine::BatchReport) -> Vec<Vec<rbq_graph::NodeId>> {
    report
        .results
        .iter()
        .map(|r| match &r.answer {
            Answer::Pattern { matches, .. } => matches.clone(),
            _ => Vec::new(),
        })
        .collect()
}

/// Parsed command line: the shared experiment configuration plus the one
/// option only the scaling figures read.
struct Opts {
    cfg: ExpConfig,
    synthetic_scale: usize,
}

impl Opts {
    fn youtube(&self) -> PatternDataset {
        PatternDataset::youtube(&self.cfg)
    }

    fn yahoo(&self) -> PatternDataset {
        PatternDataset::yahoo(&self.cfg)
    }
}

/// The ids that select an experiment, and what it runs.
type Experiment = (&'static [&'static str], fn(&Opts));

/// Every experiment. Figures that come out of one sweep share a row; `all`
/// runs each row once.
const EXPERIMENTS: &[Experiment] = &[
    (&["table2"], |o| table2(&o.cfg, &o.youtube(), &o.yahoo())),
    (&["fig8a"], |o| {
        pattern_time_vs_alpha(&o.cfg, &o.youtube(), "fig8a")
    }),
    (&["fig8b"], |o| {
        pattern_time_vs_alpha(&o.cfg, &o.yahoo(), "fig8b")
    }),
    (&["fig8c"], |o| {
        pattern_accuracy_vs_alpha(&o.cfg, &o.youtube(), "fig8c")
    }),
    (&["fig8d"], |o| {
        pattern_accuracy_vs_alpha(&o.cfg, &o.yahoo(), "fig8d")
    }),
    (&["fig8e"], |o| {
        pattern_time_vs_qsize(&o.cfg, &o.youtube(), "fig8e")
    }),
    (&["fig8f"], |o| {
        pattern_time_vs_qsize(&o.cfg, &o.yahoo(), "fig8f")
    }),
    (&["fig8g"], |o| {
        pattern_accuracy_vs_qsize(&o.cfg, &o.youtube(), "fig8g")
    }),
    (&["fig8h"], |o| {
        pattern_accuracy_vs_qsize(&o.cfg, &o.yahoo(), "fig8h")
    }),
    (&["fig8i", "fig8j"], |o| {
        pattern_vs_scale(&o.cfg, o.synthetic_scale)
    }),
    (&["fig8k", "fig8m"], |o| {
        reach_vs_alpha(&o.cfg, &o.youtube(), "fig8k/fig8m")
    }),
    (&["fig8l", "fig8n"], |o| {
        reach_vs_alpha(&o.cfg, &o.yahoo(), "fig8l/fig8n")
    }),
    (&["fig8o", "fig8p"], |o| {
        reach_vs_scale(&o.cfg, o.synthetic_scale)
    }),
    (&["engine"], |o| engine_serving(&o.cfg)),
    (&["ablations"], |o| ablations(&o.cfg)),
];

/// Print `problem` and the usage line (ids generated from [`EXPERIMENTS`]),
/// then exit 2.
fn usage_exit(problem: &str) -> ! {
    let ids: Vec<&str> = EXPERIMENTS
        .iter()
        .flat_map(|(ids, _)| ids.iter().copied())
        .collect();
    eprintln!("error: {problem}");
    eprintln!(
        "usage: experiments [--nodes N] [--queries N] [--reach-queries N] [--reps N] [--seed N] \
         [--synthetic-scale N] <{}|all>...",
        ids.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut opts = Opts {
        cfg: ExpConfig::default(),
        synthetic_scale: 1_000_000,
    };
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => opts.cfg.snapshot_nodes = number(&arg, args.next()),
            "--queries" => opts.cfg.pattern_queries = number(&arg, args.next()),
            "--reach-queries" => opts.cfg.reach_queries = number(&arg, args.next()),
            "--reps" => opts.cfg.reps = number(&arg, args.next()),
            "--seed" => opts.cfg.seed = number(&arg, args.next()),
            "--synthetic-scale" => opts.synthetic_scale = number(&arg, args.next()),
            _ => wanted.push(arg),
        }
    }
    if wanted.is_empty() {
        usage_exit("no experiment named");
    }
    let known = |id: &str| id == "all" || EXPERIMENTS.iter().any(|(ids, _)| ids.contains(&id));
    if let Some(bad) = wanted.iter().find(|id| !known(id)) {
        usage_exit(&format!("unknown experiment or option {bad:?}"));
    }
    let all = wanted.iter().any(|id| id == "all");
    for (ids, run) in EXPERIMENTS {
        if all || ids.iter().any(|id| wanted.iter().any(|w| w == id)) {
            run(&opts);
        }
    }
}

/// The numeric value of `flag`, or usage + exit 2 when it is missing or
/// malformed.
fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_exit(&format!("{flag} needs a number")))
}

// ---------------------------------------------------------------- engine

/// Mixed-workload batch serving through `rbq_engine`: thread scaling and
/// the reduction cache's effect on a repeat-heavy 200-query stream.
fn engine_serving(cfg: &ExpConfig) {
    println!("\n== engine: mixed-workload batch serving (Youtube-like) ==");
    let ds = PatternDataset::youtube(cfg);
    let workload = sample_mixed_workload(
        &ds.g,
        &MixedWorkloadSpec {
            count: 200,
            repeat_fraction: 0.3,
            ..Default::default()
        },
        cfg.seed,
    );
    // Pre-build the reach index once: the rows should compare scheduling
    // and caching, not repeated offline construction.
    let reach_idx = Arc::new(HierarchicalIndex::build(&ds.g, 0.05));
    let mk = |threads: usize, cache: usize| {
        Engine::with_indexes(
            ds.g.clone(),
            EngineConfig {
                pattern_budget: BudgetSpec::Units(300),
                reach_alpha: 0.05,
                threads,
                cache_capacity: cache,
                vf2: vf2_cfg(),
                ..Default::default()
            },
            Some(ds.idx.clone()),
            Some(reach_idx.clone()),
        )
    };
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>9} {:>12}",
        "threads", "cache", "wall", "q/s", "hit rate", "visits"
    );
    for (threads, cache) in [(1, 0), (1, 1024), (2, 1024), (4, 1024), (8, 1024)] {
        let engine = mk(threads, cache);
        let t = Instant::now();
        let report = engine.run_batch(&workload);
        let wall = t.elapsed();
        println!(
            "{:>8} {:>8} {:>10} {:>10.0} {:>8.1}% {:>12}",
            threads,
            cache,
            fmt_dur(wall),
            workload.len() as f64 / wall.as_secs_f64().max(1e-9),
            report.stats.cache_hit_rate() * 100.0,
            report.stats.charged_visits
        );
    }
    // Warm-cache rerun: the steady state of repeated template traffic.
    let engine = mk(4, 1024);
    engine.run_batch(&workload);
    let t = Instant::now();
    let report = engine.run_batch(&workload);
    let wall = t.elapsed();
    println!(
        "{:>8} {:>8} {:>10} {:>10.0} {:>8.1}% {:>12}  (warm rerun)",
        4,
        1024,
        fmt_dur(wall),
        workload.len() as f64 / wall.as_secs_f64().max(1e-9),
        report.stats.cache_hit_rate() * 100.0,
        report.stats.charged_visits
    );
    println!("(answers are input-ordered and thread-count invariant; see rbq_engine)");
}

/// Paper α sweep for Figures 8(a)-(d): 1.1..2.0 ×10⁻⁵.
fn alpha_sweep_pattern() -> Vec<f64> {
    (11..=20).map(|x| x as f64 * 1e-6).collect()
}

/// Paper |Q| sweep for Figures 8(e)-(h).
fn qsize_sweep() -> Vec<PatternSpec> {
    (4..=8).map(|n| PatternSpec::new(n, 2 * n)).collect()
}

/// Paper α sweep for Figures 8(k)-(n): 1..10 ×10⁻⁴.
fn alpha_sweep_reach() -> Vec<f64> {
    (1..=10).map(|x| x as f64 * 1e-4).collect()
}

// ---------------------------------------------------------------- table 2

fn table2(cfg: &ExpConfig, yt: &PatternDataset, yh: &PatternDataset) {
    println!("\n== Table 2: ratio of |G_Q| to |G_dQ(v_p)| (alpha x 10^-5) ==");
    println!(
        "{:<10} {:<14} {:>8} {:>8} {:>8}",
        "algorithm", "dataset", "1.1", "1.6", "2.0"
    );
    for ds in [yt, yh] {
        let qs = ds.patterns_min_nbh(PatternSpec::new(4, 8), cfg.pattern_queries, cfg.seed, 300);
        for (algo_name, is_sim) in [("RBSim", true), ("RBSub", false)] {
            let mut cells = Vec::new();
            for paper_alpha in [1.1e-5, 1.6e-5, 2.0e-5] {
                let budget = ds.budget_for_paper_alpha(paper_alpha);
                let mut ratios = Vec::new();
                for q in &qs {
                    let nbh = dq_neighborhood_size(&ds.g, q).max(1);
                    let ans = if is_sim {
                        rbsim(&ds.g, &ds.idx, q, &budget)
                    } else {
                        rbq_core::rbsub_with(&ds.g, &ds.idx, q, &budget, vf2_cfg())
                    };
                    ratios.push(ans.gq_size as f64 / nbh as f64);
                }
                let a = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
                cells.push(format!("{:.0}%", a * 100.0));
            }
            println!(
                "{:<10} {:<14} {:>8} {:>8} {:>8}",
                algo_name, ds.name, cells[0], cells[1], cells[2]
            );
        }
    }
    println!("(paper: RBSim 7-21%, RBSub 8-24%, increasing with alpha)");
}

// ------------------------------------------------- fig 8(a)/(b): time vs α

fn pattern_time_vs_alpha(cfg: &ExpConfig, ds: &PatternDataset, tag: &str) {
    println!(
        "\n== {tag}: pattern query time vs alpha ({}, |G|={}) ==",
        ds.name,
        ds.g.size()
    );
    let qs = ds.patterns_min_nbh(PatternSpec::new(4, 8), cfg.pattern_queries, cfg.seed, 300);
    eprintln!("[{tag}] {} queries", qs.len());

    // Baselines are alpha-independent and run for seconds: measure once
    // with a single repetition.
    let once = ExpConfig { reps: 1, ..*cfg };
    let t_matchopt = avg_time(&once, &qs, |q| {
        std::hint::black_box(match_opt(q, &*ds.g));
    });
    let t_vf2 = avg_time(&once, &qs, |q| {
        std::hint::black_box(vf2_opt(q, &ds.g, vf2_cfg()));
    });

    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "alpha(e-5)", "RBSim", "MatchOpt", "RBSub", "VF2OPT", "budget"
    );
    for paper_alpha in alpha_sweep_pattern() {
        let budget = ds.budget_for_paper_alpha(paper_alpha);
        let t_rbsim = avg_time(cfg, &qs, |q| {
            std::hint::black_box(rbsim(&ds.g, &ds.idx, q, &budget));
        });
        let t_rbsub = avg_time(cfg, &qs, |q| {
            std::hint::black_box(rbq_core::rbsub_with(&ds.g, &ds.idx, q, &budget, vf2_cfg()));
        });
        println!(
            "{:>10.1} {:>12} {:>12} {:>12} {:>12} {:>8}",
            paper_alpha * 1e5,
            fmt_dur(t_rbsim),
            fmt_dur(t_matchopt),
            fmt_dur(t_rbsub),
            fmt_dur(t_vf2),
            budget.max_units
        );
    }
    println!("(paper: RBSim ~24.4%/18.8% and RBSub ~16.7%/14.4% of baseline time)");
}

// --------------------------------------------- fig 8(c)/(d): accuracy vs α

fn pattern_accuracy_vs_alpha(cfg: &ExpConfig, ds: &PatternDataset, tag: &str) {
    println!(
        "\n== {tag}: pattern accuracy vs alpha ({}, |G|={}) ==",
        ds.name,
        ds.g.size()
    );
    let qs = ds.patterns_min_nbh(PatternSpec::new(4, 8), cfg.pattern_queries, cfg.seed, 300);
    let exact_sim: Vec<_> = qs.iter().map(|q| strong_simulation(q, &*ds.g)).collect();
    let exact_iso: Vec<_> = qs
        .iter()
        .map(|q| vf2_opt(q, &ds.g, vf2_cfg()).output_matches)
        .collect();
    println!(
        "{:>10} {:>31} {:>31} {:>8}",
        "alpha(e-5)", "RBSim mean/eta_min/p10/exact", "RBSub mean/eta_min/p10/exact", "budget"
    );
    // The bounded evaluations run as one engine batch per α — the serving
    // path (shared indexes, work-stealing workers) rather than bare loops.
    let batch: Vec<Query> = qs
        .iter()
        .map(|q| Query::PatternSim {
            pattern: q.pattern().clone(),
        })
        .chain(qs.iter().map(|q| Query::PatternIso {
            pattern: q.pattern().clone(),
        }))
        .collect();
    // Per α: the (RBSim, RBSub) accuracy distributions.
    let mut rows: Vec<(f64, [Eta; 2])> = Vec::new();
    for paper_alpha in alpha_sweep_pattern() {
        let budget = ds.budget_for_paper_alpha(paper_alpha);
        let engine = engine_for(ds, &budget);
        let answers = pattern_matches(&engine.run_batch(&batch));
        let (sim_ans, iso_ans) = answers.split_at(qs.len());
        let score = |answers: &[Vec<rbq_graph::NodeId>], exact: &[Vec<rbq_graph::NodeId>]| {
            Eta::of(
                answers
                    .iter()
                    .zip(exact)
                    .map(|(m, ex)| pattern_accuracy(ex, m).f1)
                    .collect(),
            )
        };
        let etas = [score(sim_ans, &exact_sim), score(iso_ans, &exact_iso)];
        println!(
            "{:>10.1} {} {} {:>8}",
            paper_alpha * 1e5,
            etas[0],
            etas[1],
            budget.max_units
        );
        rows.push((paper_alpha, etas));
    }
    for eta in [0.9, 1.0] {
        let smallest = |algo: usize| {
            rows.iter()
                .find(|(_, etas)| etas[algo].min >= eta)
                .map_or("-".to_owned(), |(a, _)| format!("{:.1}", a * 1e5))
        };
        println!(
            "smallest alpha(e-5) with eta_min >= {eta:.1}: RBSim {}, RBSub {}",
            smallest(0),
            smallest(1)
        );
    }
    println!("(paper: 87-100%, exactly 100% for alpha >= 1.5e-5)");
}

/// One algorithm's accuracy distribution over a query set at one α: the
/// mean, the minimum (the accuracy ratio η the workload witnesses — the
/// paper's §7 open question), the 10th percentile and the share of queries
/// answered exactly.
struct Eta {
    mean: f64,
    min: f64,
    p10: f64,
    exact: f64,
}

impl Eta {
    fn of(mut accs: Vec<f64>) -> Eta {
        accs.sort_by(f64::total_cmp);
        let n = accs.len();
        Eta {
            mean: avg(&accs),
            min: accs.first().copied().unwrap_or(f64::NAN),
            p10: accs
                .get(n.saturating_sub(1) / 10)
                .copied()
                .unwrap_or(f64::NAN),
            exact: accs.iter().filter(|&&a| a == 1.0).count() as f64 / n.max(1) as f64,
        }
    }
}

impl std::fmt::Display for Eta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            self.mean * 100.0,
            self.min * 100.0,
            self.p10 * 100.0,
            self.exact * 100.0
        )
    }
}

// --------------------------------------------- fig 8(e)/(f): time vs |Q|

fn pattern_time_vs_qsize(cfg: &ExpConfig, ds: &PatternDataset, tag: &str) {
    println!(
        "\n== {tag}: pattern query time vs |Q| ({}, alpha=1e-4 paper) ==",
        ds.name
    );
    let budget = ds.budget_for_paper_alpha(1e-4);
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "|Q|", "RBSim", "MatchOpt", "RBSub", "VF2OPT"
    );
    for spec in qsize_sweep() {
        let qs = ds.patterns_min_nbh(spec, cfg.pattern_queries, cfg.seed, 300);
        if qs.is_empty() {
            println!("({},{}): no extractable patterns", spec.nodes, spec.edges);
            continue;
        }
        let t_rbsim = avg_time(cfg, &qs, |q| {
            std::hint::black_box(rbsim(&ds.g, &ds.idx, q, &budget));
        });
        let once = ExpConfig { reps: 1, ..*cfg };
        // Baselines cost seconds-to-minutes per query at |Q| >= (6,12)
        // (the paper's Fig. 8(f) y-axis reaches 1000s); time a 2-query
        // sample there.
        let t_qs: &[ResolvedPattern] = if spec.nodes >= 6 {
            &qs[..qs.len().min(2)]
        } else {
            &qs
        };
        let t_matchopt = avg_time(&once, t_qs, |q| {
            std::hint::black_box(match_opt(q, &*ds.g));
        });
        let t_rbsub = avg_time(cfg, &qs, |q| {
            std::hint::black_box(rbq_core::rbsub_with(&ds.g, &ds.idx, q, &budget, vf2_cfg()));
        });
        let t_vf2 = avg_time(&once, t_qs, |q| {
            std::hint::black_box(vf2_opt(q, &ds.g, vf2_cfg()));
        });
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>12}",
            format!("({},{})", spec.nodes, spec.edges),
            fmt_dur(t_rbsim),
            fmt_dur(t_matchopt),
            fmt_dur(t_rbsub),
            fmt_dur(t_vf2)
        );
    }
    println!("(paper: all grow with |Q|; RBSim/RBSub less sensitive than baselines)");
}

// ----------------------------------------- fig 8(g)/(h): accuracy vs |Q|

fn pattern_accuracy_vs_qsize(cfg: &ExpConfig, ds: &PatternDataset, tag: &str) {
    println!(
        "\n== {tag}: pattern accuracy vs |Q| ({}, alpha=1e-4 paper) ==",
        ds.name
    );
    let budget = ds.budget_for_paper_alpha(1e-4);
    println!("{:>8} {:>10} {:>10}", "|Q|", "RBSim", "RBSub");
    for spec in qsize_sweep() {
        let qs = ds.patterns_min_nbh(spec, cfg.pattern_queries, cfg.seed, 300);
        if qs.is_empty() {
            println!("({},{}): no extractable patterns", spec.nodes, spec.edges);
            continue;
        }
        let mut acc_sim = Vec::new();
        let mut acc_sub = Vec::new();
        for q in &qs {
            let exact = strong_simulation(q, &*ds.g);
            let a = rbsim(&ds.g, &ds.idx, q, &budget);
            acc_sim.push(pattern_accuracy(&exact, &a.matches).f1);
            let exact_i = vf2_opt(q, &ds.g, vf2_cfg()).output_matches;
            let b = rbq_core::rbsub_with(&ds.g, &ds.idx, q, &budget, vf2_cfg());
            acc_sub.push(pattern_accuracy(&exact_i, &b.matches).f1);
        }
        println!(
            "{:>8} {:>9.1}% {:>9.1}%",
            format!("({},{})", spec.nodes, spec.edges),
            avg(&acc_sim) * 100.0,
            avg(&acc_sub) * 100.0
        );
    }
    println!("(paper: decreasing with |Q| but >= 86% / >= 80%; 100% up to (5,10))");
}

// --------------------------------------- fig 8(i)/(j): synthetic scaling

fn pattern_vs_scale(cfg: &ExpConfig, max_nodes: usize) {
    println!("\n== fig8i/fig8j: pattern time & accuracy vs |V| (synthetic, |E|=2|V|) ==");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "|V|", "RBSim", "MatchOpt", "RBSub", "VF2OPT", "accSim", "accSub"
    );
    let sizes: Vec<usize> = (1..=5).map(|i| i * max_nodes / 5).collect();
    for nodes in sizes {
        let ds = PatternDataset::synthetic(nodes, cfg.seed);
        // Paper: alpha = 3e-5 on graphs 10x larger; same absolute budget.
        let alpha = 3e-4;
        let budget = ResourceBudget::from_ratio(&*ds.g, alpha);
        let qs = ds.patterns(PatternSpec::new(4, 8), cfg.pattern_queries, cfg.seed);
        if qs.is_empty() {
            println!("{nodes:>10} (no extractable patterns)");
            continue;
        }
        let t_rbsim = avg_time(cfg, &qs, |q| {
            std::hint::black_box(rbsim(&ds.g, &ds.idx, q, &budget));
        });
        let once = ExpConfig { reps: 1, ..*cfg };
        let t_matchopt = avg_time(&once, &qs, |q| {
            std::hint::black_box(match_opt(q, &*ds.g));
        });
        let t_rbsub = avg_time(cfg, &qs, |q| {
            std::hint::black_box(rbq_core::rbsub_with(&ds.g, &ds.idx, q, &budget, vf2_cfg()));
        });
        let t_vf2 = avg_time(&once, &qs, |q| {
            std::hint::black_box(vf2_opt(q, &ds.g, vf2_cfg()));
        });
        let mut acc_sim = Vec::new();
        let mut acc_sub = Vec::new();
        for q in &qs {
            let exact = strong_simulation(q, &*ds.g);
            let a = rbsim(&ds.g, &ds.idx, q, &budget);
            acc_sim.push(pattern_accuracy(&exact, &a.matches).f1);
            let exact_i = vf2_opt(q, &ds.g, vf2_cfg()).output_matches;
            let b = rbq_core::rbsub_with(&ds.g, &ds.idx, q, &budget, vf2_cfg());
            acc_sub.push(pattern_accuracy(&exact_i, &b.matches).f1);
        }
        println!(
            "{:>10} {:>12} {:>12} {:>12} {:>12} {:>8.1}% {:>8.1}%",
            nodes,
            fmt_dur(t_rbsim),
            fmt_dur(t_matchopt),
            fmt_dur(t_rbsub),
            fmt_dur(t_vf2),
            avg(&acc_sim) * 100.0,
            avg(&acc_sub) * 100.0
        );
    }
    println!("(paper: accuracy >= 97%/94%, improving with |V|; times scale mildly)");
}

// --------------------------------------- fig 8(k)-(n): reach time/accuracy

fn reach_vs_alpha(cfg: &ExpConfig, ds: &PatternDataset, tag: &str) {
    println!(
        "\n== {tag}: reachability time & accuracy vs alpha ({}, |G|={}) ==",
        ds.name,
        ds.g.size()
    );
    let queries = sample_hard_reachability_queries(&ds.g, cfg.reach_queries, 0.5, cfg.seed);
    let truth = reachability_ground_truth(&ds.g, &queries);
    let nq = queries.len().max(1) as u32;

    // Baselines (alpha-independent).
    let t_bfs = time_median(cfg.reps.min(2), || {
        for &(s, t) in &queries {
            std::hint::black_box(bfs_query(&ds.g, s, t).0);
        }
    }) / nq;
    let bfsopt = BfsOptIndex::build(&ds.g);
    let t_bfsopt = time_median(cfg.reps, || {
        for &(s, t) in &queries {
            std::hint::black_box(bfsopt.query(s, t));
        }
    }) / nq;
    let lm = LandmarkVectors::build(&ds.g, cfg.seed);
    let t_lm = time_median(cfg.reps, || {
        for &(s, t) in &queries {
            std::hint::black_box(lm.query(s, t));
        }
    }) / nq;
    let lm_ans: Vec<bool> = queries.iter().map(|&(s, t)| lm.query(s, t)).collect();
    let lm_acc = reachability_accuracy(&truth, &lm_ans).f1;

    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9} {:>8}",
        "alpha(e-4)", "RBReach", "BFSOPT", "BFS", "LM", "accRB", "accLM", "budget"
    );
    for paper_alpha in alpha_sweep_reach() {
        // Hold the absolute budget fixed, like the pattern experiments.
        let units = match ds.paper_size {
            Some(ps) => ((paper_alpha * ps) as usize).min(ds.g.size() - 1),
            None => (paper_alpha * ds.g.size() as f64) as usize,
        };
        let alpha_ours = (units as f64 / ds.g.size() as f64).clamp(1e-6, 0.99);
        let idx = Arc::new(HierarchicalIndex::build(&ds.g, alpha_ours));
        let t_rb = time_median(cfg.reps, || {
            for &(s, t) in &queries {
                std::hint::black_box(idx.query(s, t).reachable);
            }
        }) / nq;
        // Accuracy answers come off the engine's batch path, sharing the
        // timing loop's index.
        let engine = Engine::with_indexes(
            ds.g.clone(),
            EngineConfig {
                reach_alpha: alpha_ours,
                ..Default::default()
            },
            None,
            Some(idx.clone()),
        );
        let batch: Vec<Query> = queries
            .iter()
            .map(|&(source, target)| Query::Reach { source, target })
            .collect();
        let rb_ans: Vec<bool> = engine
            .run_batch(&batch)
            .results
            .iter()
            .map(|r| {
                matches!(
                    r.answer,
                    Answer::Reach {
                        reachable: true,
                        ..
                    }
                )
            })
            .collect();
        let rb_acc = reachability_accuracy(&truth, &rb_ans).f1;
        println!(
            "{:>10.0} {:>12} {:>12} {:>12} {:>12} {:>8.1}% {:>8.1}% {:>8}",
            paper_alpha * 1e4,
            fmt_dur(t_rb),
            fmt_dur(t_bfsopt),
            fmt_dur(t_bfs),
            fmt_dur(t_lm),
            rb_acc * 100.0,
            lm_acc * 100.0,
            units
        );
    }
    println!("(paper: RBReach 1.6%/17.4% of BFS/BFSOPT time; accuracy >= 96%, 100% for alpha >= 5e-4; LM 69-74%)");
}

// ------------------------------------------- fig 8(o)/(p): reach scaling

fn reach_vs_scale(cfg: &ExpConfig, max_nodes: usize) {
    println!("\n== fig8o/fig8p: reachability time & accuracy vs |V| (synthetic, |E|=2|V|) ==");
    println!(
        "{:>10} {:>13} {:>13} {:>12} {:>12} {:>12} {:>9} {:>9} {:>8}",
        "|V|", "RB[2e-3]", "RB[1e-3]", "BFSOPT", "BFS", "LM", "acc2e-3", "acc1e-3", "accLM"
    );
    let sizes: Vec<usize> = (1..=5).map(|i| i * max_nodes / 5).collect();
    for nodes in sizes {
        let g = rbq_workload::uniform_random(nodes, 2 * nodes, 15, cfg.seed);
        let queries = sample_hard_reachability_queries(&g, cfg.reach_queries, 0.5, cfg.seed);
        let truth = reachability_ground_truth(&g, &queries);
        let nq = queries.len().max(1) as u32;
        let t_bfs = time_median(1, || {
            for &(s, t) in &queries {
                std::hint::black_box(bfs_query(&g, s, t).0);
            }
        }) / nq;
        let bfsopt = BfsOptIndex::build(&g);
        let t_bfsopt = time_median(cfg.reps, || {
            for &(s, t) in &queries {
                std::hint::black_box(bfsopt.query(s, t));
            }
        }) / nq;
        let lm = LandmarkVectors::build(&g, cfg.seed);
        let t_lm = time_median(cfg.reps, || {
            for &(s, t) in &queries {
                std::hint::black_box(lm.query(s, t));
            }
        }) / nq;
        let lm_ans: Vec<bool> = queries.iter().map(|&(s, t)| lm.query(s, t)).collect();
        let lm_acc = reachability_accuracy(&truth, &lm_ans).f1;

        let mut cells: Vec<(Duration, f64)> = Vec::new();
        for alpha in [2e-3, 1e-3] {
            let idx = HierarchicalIndex::build(&g, alpha);
            let t_rb = time_median(cfg.reps, || {
                for &(s, t) in &queries {
                    std::hint::black_box(idx.query(s, t).reachable);
                }
            }) / nq;
            let ans: Vec<bool> = queries
                .iter()
                .map(|&(s, t)| idx.query(s, t).reachable)
                .collect();
            cells.push((t_rb, reachability_accuracy(&truth, &ans).f1));
        }
        println!(
            "{:>10} {:>13} {:>13} {:>12} {:>12} {:>12} {:>8.1}% {:>8.1}% {:>7.1}%",
            nodes,
            fmt_dur(cells[0].0),
            fmt_dur(cells[1].0),
            fmt_dur(t_bfsopt),
            fmt_dur(t_bfs),
            fmt_dur(t_lm),
            cells[0].1 * 100.0,
            cells[1].1 * 100.0,
            lm_acc * 100.0
        );
    }
    println!("(paper: RBReach 58.8x/5.2x faster than BFS/BFSOPT; accuracy >= 97%/94%, improving with |V|)");
}

// ------------------------------------------------------------- ablations

fn ablations(cfg: &ExpConfig) {
    println!("\n== ablations (DESIGN.md §6) ==");
    let ds = PatternDataset::youtube(cfg);
    let qs = ds.patterns_min_nbh(PatternSpec::new(4, 8), cfg.pattern_queries, cfg.seed, 300);
    let budget = ds.budget_for_paper_alpha(1.6e-5);

    // (1) adaptive bound b vs fixed.
    println!("\n-- ablation_bound_b: adaptive restart vs fixed b (RBSim accuracy) --");
    for (name, conf) in [
        ("adaptive (paper)", ReductionConfig::default()),
        (
            "fixed b=2",
            ReductionConfig {
                adaptive_b: false,
                ..Default::default()
            },
        ),
        (
            "fixed b=8",
            ReductionConfig {
                initial_b: 8,
                adaptive_b: false,
                ..Default::default()
            },
        ),
    ] {
        let mut accs = Vec::new();
        for q in &qs {
            let exact = strong_simulation(q, &*ds.g);
            let red = rbq_core::search_reduced_graph_with(
                &ds.g,
                &ds.idx,
                q,
                &budget,
                rbq_core::guard::Semantics::Simulation,
                conf,
            );
            let m = strong_simulation(q, &red.gq);
            accs.push(pattern_accuracy(&exact, &m).f1);
        }
        println!("{name:<18} accuracy {:>6.1}%", avg(&accs) * 100.0);
    }

    // (2) pick policy.
    println!("\n-- ablation_pick_policy: weighted vs FIFO vs random (RBSim accuracy) --");
    for (name, policy) in [
        ("weighted (paper)", PickPolicy::Weighted),
        ("fifo", PickPolicy::Fifo),
        ("random", PickPolicy::Random),
    ] {
        let conf = ReductionConfig {
            pick_policy: policy,
            ..Default::default()
        };
        let mut accs = Vec::new();
        for q in &qs {
            let exact = strong_simulation(q, &*ds.g);
            let red = rbq_core::search_reduced_graph_with(
                &ds.g,
                &ds.idx,
                q,
                &budget,
                rbq_core::guard::Semantics::Simulation,
                conf,
            );
            let m = strong_simulation(q, &red.gq);
            accs.push(pattern_accuracy(&exact, &m).f1);
        }
        println!("{name:<18} accuracy {:>6.1}%", avg(&accs) * 100.0);
    }

    // (3) hierarchy vs flat, (4) landmark selection, (5) compression.
    let g = rbq_workload::layered_dag(40, 80, 0.015, 15, cfg.seed);
    let queries = sample_hard_reachability_queries(&g, cfg.reach_queries, 0.6, cfg.seed);
    let truth = reachability_ground_truth(&g, &queries);
    let acc_of = |params: IndexParams| {
        let idx = HierarchicalIndex::build_with(&g, params);
        let got: Vec<bool> = queries
            .iter()
            .map(|&(s, t)| idx.query(s, t).reachable)
            .collect();
        reachability_accuracy(&truth, &got).f1
    };
    println!("\n-- ablation_hierarchy: multi-level vs flat index (RBReach accuracy, hard DAG) --");
    println!(
        "multi-level        accuracy {:>6.1}%",
        acc_of(IndexParams::new(0.05)) * 100.0
    );
    println!(
        "flat (1 level)     accuracy {:>6.1}%",
        acc_of(IndexParams {
            max_levels: 1,
            ..IndexParams::new(0.05)
        }) * 100.0
    );

    println!("\n-- ablation_landmark_select: selection strategy (RBReach accuracy, hard DAG) --");
    for (name, s) in [
        ("deg*rank (paper)", SelectionStrategy::DegreeRank),
        ("coverage", SelectionStrategy::Coverage),
        ("degree-only", SelectionStrategy::DegreeOnly),
        ("random", SelectionStrategy::Random(7)),
    ] {
        println!(
            "{name:<18} accuracy {:>6.1}%",
            acc_of(IndexParams::new(0.05).with_selection(s)) * 100.0
        );
    }

    println!("\n-- ablation_compress: equivalence merge on/off (index size, Youtube-like) --");
    for (name, merge) in [("scc+equivalence", true), ("scc only", false)] {
        let idx = HierarchicalIndex::build_with(
            &ds.g,
            IndexParams::new(0.01).with_equivalence_merge(merge),
        );
        println!(
            "{name:<18} dag nodes {:>8}, landmarks {:>6}, levels {}",
            idx.compressed.dag.node_count(),
            idx.num_landmarks(),
            idx.levels()
        );
    }
}

// ------------------------------------------------------------- utilities

fn avg(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Average per-query median time of `f` over the query set.
fn avg_time<F: FnMut(&ResolvedPattern)>(
    cfg: &ExpConfig,
    qs: &[ResolvedPattern],
    mut f: F,
) -> Duration {
    if qs.is_empty() {
        return Duration::ZERO;
    }
    let total = time_median(cfg.reps, || {
        for q in qs {
            f(q);
        }
    });
    total / qs.len() as u32
}
