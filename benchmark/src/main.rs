//! `benchmark` — the replay-and-floor end-to-end benchmark for rbq.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! benchmark selfcheck [--runs <n>] [--seconds <s>] [--smoke]
//! benchmark manifest        # print BENCHMARK.json from the metric tables
//! benchmark generate --workload <name> --out <dir> [--smoke]
//! ```
//!
//! `generate` is what a run starts as a child process when this build has
//! not generated the workload's corpus yet (see `gen::ensure_corpus`).
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; everything else goes to
//! standard error. See `README.md` beside this package.

mod batch;
mod common;
mod estimator;
mod gen;
mod host;
mod ingest;
mod json;
mod metrics;
mod read;
mod selfcheck;
mod trace;

use common::{Args, Outcome};
use gen::{Corpus, Sizes};
use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str =
    "usage: benchmark --workload <pattern-miss|mixed-hit|batch-router|ingest-serve> \
--seed <n> --seconds <s> --trace <0|1> [--smoke]\n       \
benchmark selfcheck [--runs <n>] [--seconds <s>] [--smoke]\n       \
benchmark manifest\n       \
benchmark generate --workload <name> --out <dir> [--smoke]";

/// Parsed command line.
struct Cli {
    selfcheck: bool,
    manifest: bool,
    generate: bool,
    out: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        selfcheck: false,
        manifest: false,
        generate: false,
        out: None,
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
        runs: 5,
    };
    let mut seconds = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        let num = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number {s:?}"));
        match arg.as_str() {
            "selfcheck" => cli.selfcheck = true,
            "manifest" => cli.manifest = true,
            "generate" => cli.generate = true,
            "--out" => cli.out = Some(value("a directory")?.to_owned()),
            "--smoke" => cli.smoke = true,
            "--workload" => cli.workload = Some(value("a name")?.to_owned()),
            "--seed" => {
                let s = value("a number")?;
                cli.seed = s.parse().map_err(|_| format!("bad seed {s:?}"))?;
            }
            "--seconds" => seconds = Some(num(value("a number")?)?),
            "--runs" => cli.runs = num(value("a number")?)? as usize,
            "--trace" => {
                cli.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    cli.seconds = seconds.unwrap_or(if cli.smoke {
        0.5
    } else {
        f64::from(metrics::RUN_SECONDS)
    });
    if !(cli.seconds.is_finite() && cli.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(cli)
}

/// The corpus of one workload by name: the generator child's whole job.
fn corpus_of(name: &str, sizes: &Sizes) -> Result<Corpus, String> {
    match name {
        "pattern-miss" => Ok(read::corpus(read::Kind::PatternMiss, sizes)),
        "mixed-hit" => Ok(read::corpus(read::Kind::MixedHit, sizes)),
        "batch-router" => batch::corpus(sizes),
        "ingest-serve" => Ok(ingest::corpus(sizes)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Run one workload by name.
fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    match name {
        "pattern-miss" => read::run(read::Kind::PatternMiss, args),
        "mixed-hit" => read::run(read::Kind::MixedHit, args),
        "batch-router" => batch::run(args),
        "ingest-serve" => ingest::run(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The result line for `outcome`: every metric of the table the run kind
/// prints, in table order. A per-layer metric the workload does not
/// exercise reads 0; a missing end-to-end metric is a harness bug and
/// makes the run incorrect.
fn result_line(outcome: &Outcome, table: &[MetricDef], require_all: bool) -> (bool, String) {
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut rows = Vec::with_capacity(table.len());
    for d in table {
        let v = outcome.values.get(d.name).copied();
        if require_all && !v.is_some_and(|v| v.is_finite() && v > 0.0) {
            eprintln!(
                "end-to-end metric {} is missing or not positive: {v:?}",
                d.name
            );
            correct = false;
        }
        rows.push((d.name, v.unwrap_or(0.0), d.unit));
    }
    (
        correct,
        json::result_line(correct, outcome.attempted.max(1), outcome.failed, &rows),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.manifest {
        print!("{}", metrics::manifest_json());
        return ExitCode::SUCCESS;
    }
    let args = Args {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        sizes: if cli.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        tag: if cli.smoke { "smoke" } else { "full" },
        child_gen: true,
    };
    if cli.selfcheck {
        return selfcheck::run(cli.runs, cli.seconds, cli.smoke);
    }
    let Some(name) = cli.workload.as_deref() else {
        eprintln!("error: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    if !WORKLOADS.iter().any(|w| w.0 == name) {
        eprintln!("error: unknown workload {name:?}\n{USAGE}");
        return ExitCode::from(2);
    }
    if cli.generate {
        let Some(out) = cli.out.as_deref() else {
            eprintln!("error: generate needs --out\n{USAGE}");
            return ExitCode::from(2);
        };
        let written = corpus_of(name, &args.sizes)
            .and_then(|corpus| gen::write_corpus(std::path::Path::new(out), &corpus));
        return match written {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: generate {name}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match run_workload(name, &args) {
        Ok(o) => o,
        Err(e) => {
            // No result line: the run did not measure anything.
            eprintln!("error: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &outcome.failures {
        eprintln!("failure: {f}");
    }
    let (correct, line) = if args.trace {
        result_line(&outcome, PER_LAYER, false)
    } else {
        result_line(&outcome, END_TO_END, true)
    };
    // Human-readable copy on stderr; the driver reads only the last line
    // of stdout.
    for (name, value) in &outcome.values {
        eprintln!("{name:<34} {value}");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {name}: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole harness at smoke scale: every workload, timed and traced,
    /// passes its own correctness gate and fills its metric table.
    #[test]
    fn smoke_scale_runs_are_correct_and_complete() {
        let mut args = Args {
            seed: 7,
            seconds: 0.0,
            trace: false,
            sizes: Sizes::smoke(),
            tag: "test",
            child_gen: false,
        };
        for (name, _) in WORKLOADS {
            for trace in [false, true] {
                args.trace = trace;
                let outcome = run_workload(name, &args).expect(name);
                assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.failures);
                let (table, all) = if trace {
                    (PER_LAYER, false)
                } else {
                    (END_TO_END, true)
                };
                let (correct, line) = result_line(&outcome, table, all);
                assert!(correct, "{name} trace={trace}: {line}");
                let doc = json::parse(&line).expect("result line is JSON");
                for d in table {
                    let v = doc.get("metrics").and_then(|m| m.get(d.name));
                    assert!(v.is_some(), "{name}: {} missing", d.name);
                }
            }
        }
    }
}
