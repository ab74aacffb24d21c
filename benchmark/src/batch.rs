//! `batch-router`: the same engine used differently. 64 batches of 256
//! queries go through `Router::run_batch` (k = 2, label-hash partitioner,
//! two threads, shortest-job-first admission) under an aggregate visit
//! budget of 60 % of a batch's unbudgeted cost. The scheduler, routing and
//! scatter, admission and settlement carry the cost `Engine::run` bypasses;
//! one operation is one batch.

use crate::common::{
    check_repeat, contract, engine_config, latency_metrics, load_graph, load_lines, measure, timed,
    Accuracy, Args, Oracle, Outcome, PassCounts, SetupTimes, Sidecar, PATTERN_ALPHA, REACH_ALPHA,
};
use crate::estimator::Floors;
use crate::gen::{
    anchored_graph, ensure_corpus, line_of, oracle_sample, pattern_pool, query_file_lines,
    reach_lines, read_text, rotate_blocks, sample_positions, stream, Corpus, RunDir, Sizes, Zipf,
    BUDGET_FILE, CORPUS_FILE, CORPUS_SEED, PER_ANCHOR,
};
use rand::Rng;
use rbq_core::ResourceBudget;
use rbq_engine::wire::answer_to_line;
use rbq_engine::{
    settle_aggregate, AdmissionPolicy, Answer, Engine, EngineConfig, Query, QueryResult,
};
use rbq_graph::Graph;
use rbq_router::{LabelHashPartitioner, Router, RouterReport};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Shards of the router under test.
const SHARDS: usize = 2;
/// Worker threads of the router (and of the single engine it is compared
/// with).
const THREADS: usize = 2;
/// Aggregate visit budget as a share of a batch's mean unbudgeted cost.
const BUDGET_SHARE: f64 = 0.6;

/// The corpus: the shared graph; one pass of operations — every query is
/// 25 % hard reach, 37.5 % a Zipf draw from the hot set, 37.5 % the next
/// never-cached fresh pattern, consecutive runs of `batch_len` forming the
/// batches; and the aggregate budget priced over them. Which queries meet in a batch, and in which order,
/// decides who is shed at admission and who is denied at settlement
/// (`delivered_share`), so both are fixed here. Even the order of the
/// batches matters — it decides which hot patterns the fresh ones have
/// evicted when a batch arrives — so a run's seed only picks the batch the
/// cyclic replay starts from ([`rotate_blocks`]): from the second pass on
/// every seed does the same work.
pub fn corpus(s: &Sizes) -> Result<Corpus, String> {
    let (g, candidates) = anchored_graph(s.nodes, s.anchors);
    let pool = pattern_pool(&g, &candidates, s.anchors);
    let hot: Vec<String> = pool[..s.hot_anchors]
        .iter()
        .flat_map(|qs| [line_of(&qs[0]), line_of(&qs[1])])
        .collect();
    let fresh: Vec<String> = (0..PER_ANCHOR)
        .flat_map(|k| {
            pool.iter()
                .enumerate()
                .filter(move |(anchor, _)| k >= 2 || *anchor >= s.hot_anchors)
                .map(move |(_, qs)| line_of(&qs[k]))
        })
        .collect();
    let reach = reach_lines(&g, s.reach_pool);
    let zipf = Zipf::new(hot.len(), 1.0);
    let mut rng = stream(CORPUS_SEED, 5);
    let mut next_fresh = 0usize;
    let lines: Vec<String> = (0..s.batches * s.batch_len)
        .map(|_| match rng.gen_range(0..8u32) {
            0 | 1 => reach[rng.gen_range(0..reach.len())].clone(),
            2..=4 => hot[zipf.sample(&mut rng)].clone(),
            _ => {
                next_fresh += 1;
                fresh[(next_fresh - 1) % fresh.len()].clone()
            }
        })
        .collect();
    let g = Arc::new(g);
    let budget = aggregate_budget(&g, &lines, s.batch_len)?;
    Ok(Corpus {
        graph: g,
        lines,
        deltas: Vec::new(),
        extras: vec![(BUDGET_FILE, format!("{budget}\n"))],
    })
}

/// The aggregate budget: [`BUDGET_SHARE`] of the mean unbudgeted visit
/// cost of a batch. A query's visit cost does not depend on cache state,
/// so one cold evaluation per distinct line prices the whole list.
fn aggregate_budget(g: &Arc<Graph>, lines: &[String], batch_len: usize) -> Result<usize, String> {
    let engine = Engine::new(g.clone(), engine_config(1));
    let mut cost: BTreeMap<&str, usize> = BTreeMap::new();
    let mut total = 0usize;
    for line in lines {
        total += match cost.get(line.as_str()) {
            Some(&c) => c,
            None => {
                let q = Query::parse_line(line).map_err(|e| e.to_string())?;
                let c = engine.run(&q).visits;
                cost.insert(line, c);
                c
            }
        };
    }
    let batches = lines.len().div_ceil(batch_len).max(1);
    Ok(((total as f64 / batches as f64) * BUDGET_SHARE) as usize)
}

fn router_config(budget: usize) -> EngineConfig {
    EngineConfig {
        aggregate_visit_budget: Some(budget),
        admission: AdmissionPolicy::ShortestJobFirst,
        ..engine_config(THREADS)
    }
}

/// Wire lines in → answer lines out through the router: one operation.
fn serve_batch(router: &Router, lines: &[String]) -> Result<(RouterReport, Vec<String>), String> {
    let queries = parse_all(lines)?;
    let report = router.run_batch(&queries);
    let answers = serialize_all(&report.results);
    Ok((report, answers))
}

fn parse_all(lines: &[String]) -> Result<Vec<Query>, String> {
    lines
        .iter()
        .map(|l| Query::parse_line(l).map_err(|e| e.to_string()))
        .collect()
}

fn serialize_all(results: &[QueryResult]) -> Vec<String> {
    results.iter().map(|r| answer_to_line(&r.answer)).collect()
}

fn fold_batch(counts: &mut PassCounts, results: &[QueryResult], answers: &[String]) {
    for (r, line) in results.iter().zip(answers) {
        counts.fold(r, line);
    }
}

fn new_router(g: &Arc<Graph>, cfg: &EngineConfig) -> Result<Router, String> {
    Router::new(g.clone(), cfg.clone(), SHARDS, &LabelHashPartitioner).map_err(|e| e.to_string())
}

/// What one set-up produces.
struct Serving {
    g: Arc<Graph>,
    router: Router,
    lines: Vec<String>,
}

/// Run the workload.
pub fn run(a: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let batch_len = a.sizes.batch_len;

    // ---- Inputs: the cached corpus, replayed from the seed's batch. ------
    let (dir, mut manifest) = ensure_corpus("batch-router", a, || corpus(&a.sizes))?;
    let run_dir = RunDir::create(&dir, a.seed)?;
    let sample = {
        let corpus_lines = query_file_lines(&read_text(&dir, CORPUS_FILE)?);
        let order = rotate_blocks(corpus_lines.len(), batch_len, &mut stream(a.seed, 5));
        let lines: Vec<String> = order.iter().map(|&i| corpus_lines[i].clone()).collect();
        run_dir.write_queries(&lines, &mut manifest)?;
        let sample = oracle_sample(&corpus_lines, a.sizes.oracle_per_class);
        sample_positions(&order, &sample)
    };
    let budget: usize = read_text(&dir, BUDGET_FILE)?
        .trim()
        .parse()
        .map_err(|_| "the corpus's aggregate budget is not a number".to_owned())?;
    eprintln!(
        "inputs[batch-router seed {}] {} (aggregate budget {budget} visits per batch)",
        a.seed,
        manifest.render()
    );
    out.set("bench.inputs_crc32", f64::from(manifest.digest()));
    let cfg = router_config(budget);

    // ---- Set-up: `Router::new` builds both indexes itself. -------------
    let setup = || -> Result<(Serving, SetupTimes), String> {
        let mut t = SetupTimes::default();
        let g = load_graph(&dir, &mut t)?;
        let (router, ns) = timed(|| new_router(&g, &cfg));
        t.construct = ns;
        let lines = load_lines(run_dir.path(), &mut t)?;
        let router = router?;
        Ok((Serving { g, router, lines }, t))
    };
    let (Serving { g, router, lines }, first_setup) = setup()?;
    let mut sidecar = Sidecar::new(first_setup, || setup().map(|(_, t)| t));
    let batches: Vec<&[String]> = lines.chunks(batch_len).collect();
    let n = lines.len();

    // ---- Pass 1: warm-up, with the gate on every answer. The answers are
    // kept: the oracle and the `Router(k) ≡ Engine(1)` comparison run after
    // the replay, so that their memory is not in `rss_mb`.
    let max_units = ResourceBudget::from_ratio(&*g, PATTERN_ALPHA).max_units;
    let reach_cap = ResourceBudget::from_ratio(&*g, REACH_ALPHA).max_units;
    let mut warm = PassCounts::default();
    let mut warm_answers: Vec<Answer> = Vec::with_capacity(n);
    let (mut denied, mut routed) = (0usize, vec![0usize; SHARDS]);
    let (mut cache_hits, mut cache_lookups) = (0usize, 0usize);
    for (b, batch) in batches.iter().enumerate() {
        let (report, answers) = serve_batch(&router, batch)?;
        fold_batch(&mut warm, &report.results, &answers);
        for (j, ((line, r), answer)) in batch.iter().zip(&report.results).zip(&answers).enumerate()
        {
            if let Err(e) = contract(line, r, answer, max_units, reach_cap) {
                out.fail(1, || format!("batch {b} query {j}: {e}"));
            }
        }
        denied += report.stats.denied;
        for (slot, shard) in routed.iter_mut().zip(&report.per_shard) {
            *slot += shard.routed;
        }
        cache_hits += report.stats.cache_hits;
        cache_lookups += report.stats.cache_hits + report.stats.cache_misses;
        warm_answers.extend(report.results.into_iter().map(|r| r.answer));
    }
    out.set("visits_per_q", warm.visits as f64 / n as f64);
    out.set("delivered_share", warm.delivered as f64 / n as f64);
    out.set("engine.denied_share", denied as f64 / n as f64);
    let busiest = routed.iter().copied().max().unwrap_or(0) as f64;
    let fair = routed.iter().sum::<usize>() as f64 / SHARDS as f64;
    out.set(
        "router.shard_imbalance",
        if fair > 0.0 { busiest / fair } else { 0.0 },
    );
    out.set(
        "engine.cache_hit_share",
        cache_hits as f64 / cache_lookups.max(1) as f64,
    );

    // ---- Replay. --------------------------------------------------------
    let mut floors = Floors::new(batches.len());
    let mut reference: Option<PassCounts> = None;
    let mut layers = a.trace.then(|| Layers::new(&g, &cfg, batches.len()));
    let passes = measure(
        a,
        &mut out,
        &mut sidecar,
        &mut |p, out| {
            let mut counts = PassCounts::default();
            for (b, batch) in batches.iter().enumerate() {
                let (served, ns) = timed(|| serve_batch(&router, batch));
                floors.record(b, ns);
                match served {
                    Ok((report, answers)) => fold_batch(&mut counts, &report.results, &answers),
                    Err(_) => counts.fold_error(),
                }
            }
            check_repeat(out, reference.get_or_insert(counts), &counts, p + 2);
        },
        &mut |_, out| {
            for (b, batch) in batches.iter().enumerate() {
                if let Some(Err(e)) = layers.as_mut().map(|l| l.batch(b, &router, batch)) {
                    out.fail(batch.len() as u64, || format!("traced batch {b}: {e}"));
                }
            }
        },
    );
    match &layers {
        Some(layers) => layers.report(&mut out, &floors, batch_len),
        None => latency_metrics(&mut out, &floors, batch_len),
    }
    eprintln!(
        "batch-router: {} passes of {} batches",
        passes + 1,
        batches.len()
    );
    out.attempted = (n * (passes + 1)) as u64;
    if reference.is_some_and(|c| c.answers != warm.answers) {
        out.fail(n as u64, || {
            "warm-up answers differ from replayed answers".into()
        });
    }
    let setup = sidecar.finish(&mut out)?;
    out.set("router.build_ms", setup.construct as f64 * 1e-6);

    // ---- Last: Router(k) ≡ Engine(1), and the oracle. -------------------
    // A single engine under the same budget and admission must settle every
    // batch exactly as the router did.
    let single = Engine::new(g.clone(), cfg.clone());
    let oracle = Oracle::new(g.clone(), Some(single.neighbor_index()));
    let mut accuracy = Accuracy::default();
    let mut next_sample = sample.iter().copied().peekable();
    for (b, batch) in batches.iter().enumerate() {
        let queries = parse_all(batch)?;
        let expected = single.run_batch(&queries);
        for (j, (q, want)) in queries.iter().zip(&expected.results).enumerate() {
            let i = b * batch_len + j;
            let got = &warm_answers[i];
            let sampled = next_sample.next_if_eq(&i).is_some();
            let verdict = if *got != want.answer {
                Err(format!("Router({SHARDS}) and Engine(1) disagree"))
            } else if sampled && got.is_ok() {
                oracle.score(q, got).map(|s| accuracy.add(s))
            } else {
                Ok(())
            };
            if let Err(e) = verdict {
                out.fail(1, || format!("batch {b} query {j} ({}): {e}", batch[j]));
            }
        }
    }
    out.set("accuracy_f1", accuracy.mean());
    Ok(out)
}

/// The traced run's per-batch spans. Each stage keeps a per-batch floor.
///
/// Beside the real operation (parse → `Router::run_batch` → serialize) a
/// batch is replayed through: `Router::route` alone; a single budgeted
/// `Engine::run_batch` at the router's thread count (`Router(2)` minus
/// this is the router's overhead); a single-threaded `Engine::run_batch`
/// and the same queries one `Engine::run` at a time on a twin engine (the
/// difference is what batching itself costs); and `settle_aggregate` over
/// the unbudgeted results. The twin engines see the same query sequence,
/// so their caches hold the same keys.
struct Layers {
    parse: Floors,
    router: Floors,
    serialize: Floors,
    route: Floors,
    engine_mt: Floors,
    engine_st: Floors,
    singles: Floors,
    settle: Floors,
    mt: Engine,
    st: Engine,
    one: Engine,
    budget: Option<usize>,
}

impl Layers {
    fn new(g: &Arc<Graph>, cfg: &EngineConfig, batches: usize) -> Self {
        // One engine builds the indexes; the twins share them.
        let indexes = Engine::new(g.clone(), cfg.clone());
        let over = |cfg: EngineConfig| {
            Engine::with_indexes(
                g.clone(),
                cfg,
                Some(indexes.neighbor_index()),
                Some(indexes.reach_index()),
            )
        };
        let f = || Floors::new(batches);
        Layers {
            parse: f(),
            router: f(),
            serialize: f(),
            route: f(),
            engine_mt: f(),
            engine_st: f(),
            singles: f(),
            settle: f(),
            mt: over(cfg.clone()),
            st: over(EngineConfig {
                threads: 1,
                ..cfg.clone()
            }),
            one: over(engine_config(1)),
            budget: cfg.aggregate_visit_budget,
        }
    }

    fn batch(&mut self, b: usize, router: &Router, lines: &[String]) -> Result<(), String> {
        let (queries, ns) = timed(|| parse_all(lines));
        let queries = queries?;
        self.parse.record(b, ns);
        let (report, ns) = timed(|| router.run_batch(&queries));
        self.router.record(b, ns);
        let (answers, ns) = timed(|| serialize_all(&report.results));
        self.serialize.record(b, ns);
        std::hint::black_box(answers);

        let (shards, ns) = timed(|| queries.iter().map(|q| router.route(q)).sum::<usize>());
        self.route.record(b, ns);
        std::hint::black_box(shards);
        let (mt, ns) = timed(|| self.mt.run_batch(&queries));
        self.engine_mt.record(b, ns);
        let (st, ns) = timed(|| self.st.run_batch(&queries));
        self.engine_st.record(b, ns);
        let (mut unbudgeted, ns) =
            timed(|| queries.iter().map(|q| self.one.run(q)).collect::<Vec<_>>());
        self.singles.record(b, ns);
        let (_, ns) = timed(|| settle_aggregate(&mut unbudgeted, self.budget));
        self.settle.record(b, ns);
        // Same batch, same budget: all three must settle identically.
        for ((r, m), s) in report.results.iter().zip(&mt.results).zip(&st.results) {
            if r.answer != m.answer || r.answer != s.answer {
                return Err("router and single-engine answers differ".into());
            }
        }
        Ok(())
    }

    fn report(&self, out: &mut Outcome, plain: &Floors, batch_len: usize) {
        let per_q = |f: &Floors| f.mean_us() / batch_len as f64;
        out.set("engine.parse_us", per_q(&self.parse));
        out.set("engine.run_us", per_q(&self.router));
        out.set("engine.serialize_us", per_q(&self.serialize));
        out.set("router.route_us", per_q(&self.route));
        out.set(
            "router.overhead_us_per_q",
            per_q(&self.router) - per_q(&self.engine_mt),
        );
        out.set(
            "engine.batch_overhead_us_per_q",
            per_q(&self.engine_st) - per_q(&self.singles),
        );
        out.set("engine.settle_us", self.settle.mean_us());
        let traced = self.parse.sum_s() + self.router.sum_s() + self.serialize.sum_s();
        out.set(
            "bench.trace_overhead_share",
            (traced - plain.sum_s()) / plain.sum_s(),
        );
    }
}
