//! `benchmark selfcheck`: run the whole suite several times, each time
//! with another seed, and hold every end-to-end metric's repeat spread
//! against its bound.
//!
//! The gate is ISSUE 15's: `(max − min) / median` over the runs must not
//! exceed the metric's bound. The driver's own statistic — the distance
//! between the quartiles over the median, quartiles as Python's
//! `statistics.quantiles(n=4)` — is printed beside it. A row over its
//! bound reads `unresolved`: at that bound, on this host, the gate cannot
//! tell a regression of that metric from noise.
//!
//! Each run is a child process of this same executable, so `rss_mb` and
//! the cold-start metrics are measured exactly as the driver measures them.

use crate::estimator::{iqr_share, median};
use crate::json::{parse, Json};
use crate::metrics::{END_TO_END, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

/// Metric values of one finished run, by name.
fn run_once(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(Stdio::null());
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = parse(last).map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
    if !output.status.success() || doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} seed {seed}: run failed: {last}"));
    }
    doc.get("metrics")
        .cloned()
        .ok_or_else(|| format!("{workload} seed {seed}: result has no metrics"))
}

/// Run the suite `runs` times — run `i` of every workload with seed `i`,
/// the workloads taking turns so that a noisy quarter of an hour falls on
/// all of them — and print the spread table (Markdown).
pub fn run(runs: usize, seconds: f64, smoke: bool) -> ExitCode {
    let runs = runs.max(2);
    let mut results: Vec<Vec<Json>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for i in 0..runs {
        for ((workload, _), results) in WORKLOADS.iter().zip(&mut results) {
            eprintln!("selfcheck: {workload} run {} of {runs}", i + 1);
            match run_once(workload, 1 + i as u64, seconds, smoke) {
                Ok(m) => results.push(m),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("| workload | metric | median | (max-min)/median | IQR/median | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    let mut unresolved = 0;
    for ((workload, _), results) in WORKLOADS.iter().zip(&results) {
        for d in END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|m| m.get(d.name)?.get("value")?.as_f64())
                .collect();
            if values.len() != runs {
                eprintln!("error: {workload}: {} missing from a result", d.name);
                return ExitCode::FAILURE;
            }
            let m = median(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let range = if m == 0.0 { 0.0 } else { (hi - lo) / m.abs() };
            let bound = d.bound.unwrap_or(0.0);
            let verdict = if range <= bound {
                "ok"
            } else {
                unresolved += 1;
                "unresolved"
            };
            println!(
                "| {workload} | {} | {m:.6} {} | {:.2} % | {:.2} % | {:.1} % | {verdict} |",
                d.name,
                d.unit,
                range * 100.0,
                iqr_share(&values) * 100.0,
                bound * 100.0
            );
        }
    }
    if unresolved == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {unresolved} repeat spreads exceed their bounds; lengthen the run, do not widen a bound"
        );
        ExitCode::FAILURE
    }
}
