//! The two single-engine read workloads, `pattern-miss` and `mixed-hit`.
//! They share the graph, the engine and every line of the harness; only
//! the operation list differs — which is the point: one stresses the
//! kernels, the other everything around them.

use crate::common::{
    check_repeat, contract, engine_config, engine_over, latency_metrics, load, measure, serve_line,
    timed, Accuracy, Args, Loaded, Oracle, Outcome, PassCounts, SetupTimes, Sidecar,
};
use crate::estimator::Floors;
use crate::gen::{
    anchored_graph, ensure_corpus, line_of, oracle_sample, pattern_pool, query_file_lines,
    reach_lines, read_text, sample_positions, shuffle_within, stream, Corpus, RunDir, Sizes, Zipf,
    CORPUS_FILE, CORPUS_SEED,
};
use crate::trace::{dump_path, Shadow};
use rand::Rng;
use rbq_engine::{Answer, Engine, Query};
use std::sync::Arc;
use std::time::Instant;

/// Which read workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Distinct anchored patterns replayed cyclically; LRU hits ≈ 0.
    PatternMiss,
    /// Hard reach + Zipf patterns from a hot set that fits the cache.
    MixedHit,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::PatternMiss => "pattern-miss",
            Kind::MixedHit => "mixed-hit",
        }
    }
}

/// Share of `mixed-hit` operations that are reachability queries.
const REACH_SHARE: f64 = 0.4;

/// The corpus of `kind`: the shared graph and one pass of operations. *Which* operations a pass holds — for
/// `mixed-hit` the Zipf and reach draws — is fixed here; a run's seed draws
/// only their order, so exact counts such as `visits_per_q` do not depend
/// on the seed and a change in one is a change in the program.
pub fn corpus(kind: Kind, s: &Sizes) -> Corpus {
    let (g, candidates) = anchored_graph(s.nodes, s.anchors);
    let pool = pattern_pool(&g, &candidates, s.anchors);
    let lines: Vec<String> = match kind {
        // The whole pool, every (signature, semantics) key distinct.
        Kind::PatternMiss => pool.iter().flatten().map(line_of).collect(),
        Kind::MixedHit => {
            // Hot set: one simulation and one isomorphism query of each of
            // the first `hot_anchors` anchors — 512 keys, half the cache.
            let hot: Vec<String> = pool[..s.hot_anchors]
                .iter()
                .flat_map(|qs| [line_of(&qs[0]), line_of(&qs[1])])
                .collect();
            let reach = reach_lines(&g, s.reach_pool);
            let zipf = Zipf::new(hot.len(), 1.0);
            let mut rng = stream(CORPUS_SEED, 4);
            (0..s.mixed_ops)
                .map(|_| {
                    if rng.gen_bool(REACH_SHARE) {
                        reach[rng.gen_range(0..reach.len())].clone()
                    } else {
                        hot[zipf.sample(&mut rng)].clone()
                    }
                })
                .collect()
        }
    };
    Corpus {
        graph: Arc::new(g),
        lines,
        deltas: Vec::new(),
        extras: Vec::new(),
    }
}

/// Run one read workload.
pub fn run(kind: Kind, a: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // ---- Inputs: the cached corpus, replayed in the seed's order. Not
    // part of set-up.
    let (dir, mut manifest) = ensure_corpus(kind.name(), a, || Ok(corpus(kind, &a.sizes)))?;
    let run_dir = RunDir::create(&dir, a.seed)?;
    let sample = {
        let corpus_lines = query_file_lines(&read_text(&dir, CORPUS_FILE)?);
        let order = shuffle_within(
            corpus_lines.len(),
            corpus_lines.len(),
            &mut stream(a.seed, 4),
        );
        let lines: Vec<String> = order.iter().map(|&i| corpus_lines[i].clone()).collect();
        run_dir.write_queries(&lines, &mut manifest)?;
        let sample = oracle_sample(&corpus_lines, a.sizes.oracle_per_class);
        sample_positions(&order, &sample)
    };
    eprintln!(
        "inputs[{} seed {}] {}",
        kind.name(),
        a.seed,
        manifest.render()
    );
    out.set("bench.inputs_crc32", f64::from(manifest.digest()));

    // ---- Set-up: once for the serving instance, repeated by the sidecar.
    let cfg = engine_config(1);
    let setup = || -> Result<((Loaded, Engine), SetupTimes), String> {
        let (l, mut t) = load(&dir, run_dir.path())?;
        let (engine, ns) = timed(|| engine_over(&l, &cfg));
        t.construct = ns;
        Ok(((l, engine), t))
    };
    let ((l, engine), first_setup) = setup()?;
    out.set("reach.landmarks", l.reach.num_landmarks() as f64);
    out.set("reach.index_entries", l.reach.label_entries() as f64);
    let n = l.lines.len();
    let mut sidecar = Sidecar::new(first_setup, || setup().map(|(_, t)| t));

    // ---- Pass 1: warm-up, with the gate on every answer. Sampled answers
    // are kept for the oracle, which runs last so that its memory is not
    // in `rss_mb`.
    let max_units = engine.pattern_budget().max_units;
    let reach_cap = l.reach.visit_cap();
    let mut next_sample = sample.iter().copied().peekable();
    let mut sampled: Vec<(usize, Answer)> = Vec::with_capacity(sample.len());
    let mut warm = PassCounts::default();
    for (i, line) in l.lines.iter().enumerate() {
        let is_sampled = next_sample.next_if_eq(&i).is_some();
        match serve_line(&engine, line) {
            Err(e) => {
                warm.fold_error();
                out.fail(1, || format!("op {i}: {e}"));
            }
            Ok((r, answer)) => {
                warm.fold(&r, &answer);
                if let Err(e) = contract(line, &r, &answer, max_units, reach_cap) {
                    out.fail(1, || format!("op {i}: {e}"));
                } else if is_sampled {
                    sampled.push((i, r.answer));
                }
            }
        }
    }
    out.set("visits_per_q", warm.visits as f64 / n as f64);
    out.set("delivered_share", warm.delivered as f64 / n as f64);

    // ---- Replay: identical passes, per-operation floors. --------------
    let mut floors = Floors::new(n);
    let mut reference: Option<PassCounts> = None;
    let mut shadow = a.trace.then(|| Shadow::new(n));
    let passes = measure(
        a,
        &mut out,
        &mut sidecar,
        &mut |p, out| {
            let mut counts = PassCounts::default();
            for (i, line) in l.lines.iter().enumerate() {
                let t = Instant::now();
                let served = serve_line(&engine, line);
                floors.record(i, t.elapsed().as_nanos() as u64);
                match served {
                    Ok((r, answer)) => counts.fold(&r, &answer),
                    Err(_) => counts.fold_error(),
                }
            }
            check_repeat(out, reference.get_or_insert(counts), &counts, p + 2);
        },
        &mut |_, out| {
            if let Some(shadow) = shadow.as_mut() {
                shadow.pass(&engine, &l.lines, out);
            }
        },
    );
    match &shadow {
        Some(shadow) => {
            shadow.report(&mut out, &floors);
            let dump = dump_path(kind.name(), a);
            shadow.write_dump(&dump).map_err(|e| e.to_string())?;
            eprintln!("trace dump: {}", dump.display());
        }
        None => latency_metrics(&mut out, &floors, 1),
    }
    eprintln!("{}: {} passes of {n} operations", kind.name(), passes + 1);
    out.attempted = (n * (passes + 1)) as u64;
    let hits = reference.map_or(0, |c| c.hits);
    let patterns = l.lines.iter().filter(|line| !line.starts_with('r')).count();
    out.set(
        "engine.cache_hit_share",
        hits as f64 / patterns.max(1) as f64,
    );
    if reference.is_some_and(|c| c.answers != warm.answers) {
        out.fail(n as u64, || {
            "warm-up answers differ from replayed answers".into()
        });
    }
    sidecar.finish(&mut out)?;

    // ---- The oracle, last. ----------------------------------------------
    let oracle = Oracle::new(l.g.clone(), Some(l.nbr.clone()));
    let mut accuracy = Accuracy::default();
    for (i, answer) in &sampled {
        let scored = Query::parse_line(&l.lines[*i])
            .map_err(|e| e.to_string())
            .and_then(|q| oracle.score(&q, answer));
        match scored {
            Ok(score) => accuracy.add(score),
            Err(e) => out.fail(1, || format!("op {i}: {e}")),
        }
    }
    out.set("accuracy_f1", accuracy.mean());
    Ok(out)
}
