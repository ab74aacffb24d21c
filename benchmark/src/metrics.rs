//! The metric tables: every name the benchmark prints, with its unit,
//! direction and regression bound. `BENCHMARK.json` at the repository root
//! repeats these tables for the driver; a unit test keeps the two equal.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Printed by the timed run (`--trace 0`)
/// on every workload — the driver prints one metric set on all of them, so
/// only what every workload has is here; the write side (`update_p50_ms`,
/// `ingest_ops_s`, `recover_s`), which only `ingest-serve` has, is per-layer.
///
/// The exact counts do not depend on the seed at all and keep ISSUE 15's
/// tight bounds, as does `rss_mb`. The timings cannot keep the issue's 10 %:
/// this host switches, every few minutes, between a quiet and a loud state
/// that differ by 9–16 % in every memory-bound timing (runs within one state
/// agree within 1–2 %), and the driver accepts a benchmark only if ten
/// single runs spread less than the bound, twice. Each timing's bound is the
/// widest `(max − min) / median` seen for it on any workload in the
/// selfcheck rounds, rounded up to the next 5 %; `setup_s`, whose spread the
/// driver does not gate, takes the cap (README, "Bounds").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("qps", "q/s", Higher, 0.20),
    e2e("lat_p50_us", "us", Lower, 0.20),
    e2e("lat_p99_us", "us", Lower, 0.25),
    e2e("accuracy_f1", "ratio", Higher, 0.002),
    e2e("visits_per_q", "visits", Lower, 0.005),
    e2e("delivered_share", "ratio", Higher, 0.002),
    e2e("rss_mb", "MiB", Lower, 0.05),
];

/// Single-layer metrics. Printed by the traced run (`--trace 1`) on every
/// workload; a layer a workload does not exercise reads 0. None is gated.
pub const PER_LAYER: &[MetricDef] = &[
    layer("update_p50_ms", "ms", Lower),
    layer("ingest_ops_s", "ops/s", Higher),
    layer("recover_s", "s", Lower),
    layer("graph.load_snapshot_ms", "ms", Lower),
    layer("graph.ball_bfs_us", "us", Lower),
    layer("graph.ball_nodes_per_q", "nodes", Lower),
    layer("graph.apply_delta_ms", "ms", Lower),
    layer("graph.compact_ms", "ms", Lower),
    layer("graph.wal_append_fsync_ms", "ms", Lower),
    layer("graph.wal_bytes_per_op", "bytes", Lower),
    layer("graph.snapshot_write_ms", "ms", Lower),
    layer("graph.snapshot_bytes_per_edge", "bytes", Lower),
    layer("graph.wal_replay_ms", "ms", Lower),
    layer("core.nbr_index_build_ms", "ms", Lower),
    layer("core.reduction_us", "us", Lower),
    layer("core.gq_units_per_q", "units", Lower),
    layer("core.budget_bound_share", "ratio", Lower),
    layer("pattern.resolve_us", "us", Lower),
    layer("pattern.strongsim_us", "us", Lower),
    layer("pattern.vf2_us", "us", Lower),
    layer("reach.index_build_ms", "ms", Lower),
    layer("reach.landmarks", "count", Lower),
    layer("reach.index_entries", "count", Lower),
    layer("reach.query_us", "us", Lower),
    layer("reach.visits_per_q", "visits", Lower),
    layer("reach.certified_share", "ratio", Higher),
    layer("engine.parse_us", "us", Lower),
    layer("engine.serialize_us", "us", Lower),
    layer("engine.canonical_us", "us", Lower),
    layer("engine.run_us", "us", Lower),
    layer("engine.cache_hit_share", "ratio", Higher),
    layer("engine.hit_path_us", "us", Lower),
    layer("engine.self_us", "us", Lower),
    layer("engine.kernel_share", "ratio", Lower),
    layer("engine.batch_overhead_us_per_q", "us", Lower),
    layer("engine.settle_us", "us", Lower),
    layer("engine.denied_share", "ratio", Lower),
    layer("engine.apply_deltas_ms", "ms", Lower),
    layer("engine.index_rebuild_share", "ratio", Lower),
    layer("engine.checkpoint_ms", "ms", Lower),
    layer("engine.recover_ms", "ms", Lower),
    layer("router.build_ms", "ms", Lower),
    layer("router.route_us", "us", Lower),
    layer("router.shard_imbalance", "ratio", Lower),
    layer("router.overhead_us_per_q", "us", Lower),
    layer("host.runq_wait_share", "ratio", Lower),
    layer("host.chase_ns", "ns", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.inputs_crc32", "crc32", Lower),
];

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "pattern-miss",
        "6144 distinct anchored patterns, six times the cache: reduction, ball BFS and the sim/VF2 kernels do the work",
    ),
    (
        "mixed-hit",
        "40% hard reach + Zipf patterns from a 512-pattern hot set that fits the cache: parse, canonical, cache probe, wire and the reach index do the work",
    ),
    (
        "batch-router",
        "64 batches of 256 through Router(k=2) with SJF admission under a 60% aggregate budget: scheduling, routing, scatter and settlement do the work",
    ),
    (
        "ingest-serve",
        "durable 4096-op delta batches alternating with cold query slices, then crash and recover: apply_delta, index rebuild, WAL, snapshot and replay do the work",
    ),
];

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 30;

/// `BENCHMARK.json`, rendered from the tables above (`benchmark manifest`
/// prints it; the copy at the repository root is that output).
pub fn manifest_json() -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let rows = |defs: &[MetricDef]| -> String {
        defs.iter()
            .map(|d| {
                let bound = d
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b:?}"));
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    quote(d.name),
                    quote(d.unit),
                    quote(d.better.as_str())
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, w)| format!("    {{\"name\": {}, \"why\": {}}}", quote(n), quote(w)))
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        rows(END_TO_END),
        rows(PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn names(defs: &[MetricDef]) -> Vec<&str> {
        defs.iter().map(|d| d.name).collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all = names(END_TO_END);
        all.extend(names(PER_LAYER));
        all.extend(WORKLOADS.iter().map(|w| w.0));
        let n = all.len();
        for name in &all {
            assert!(name.len() <= 64 && name.chars().next().is_some_and(char::is_alphanumeric));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a name is used twice");
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
        for d in END_TO_END {
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            manifest_json(),
            "regenerate with `benchmark manifest`"
        );
        let doc = parse(&text).expect("valid JSON");
        let Json::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(f64::from(RUN_SECONDS))
        );
        assert!(text.len() <= 64 * 1024);
        let check = |key: &str, defs: &[MetricDef]| {
            let arr = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(arr.len(), defs.len(), "{key} length");
            for (j, d) in arr.iter().zip(defs) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(
                    j.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let w = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(w.len(), WORKLOADS.len());
        for (j, (name, why)) in w.iter().zip(WORKLOADS) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(*why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
