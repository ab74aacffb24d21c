//! `ingest-serve`: writes measured beside reads. A dynamic query system is
//! judged by its update time and by its answer time after the update, so a
//! pass alternates strictly — never by timer, so answers repeat exactly:
//!
//! 1. restore the base durability directory;
//! 2. `Engine::recover`;
//! 3. `rounds` × (one durable delta batch, then a slice of mixed queries
//!    on the new epoch — cold, because cache keys carry the generation);
//! 4. drop the engine without shutdown;
//! 5. append a torn partial record to `wal.log`;
//! 6. `Engine::recover`, both index builds, first answer;
//! 7. a probe list checked against a fresh engine built from the base
//!    graph plus the acknowledged batches.
//!
//! Flush policy is the engine's only one: WAL append and fsync per batch,
//! on whatever filesystem holds the checkout — latencies are the
//! sandbox's, not a device's.

use crate::common::{
    contract, engine_config, engine_over, latency_metrics, load, measure, serve_line, timed,
    Accuracy, Args, Loaded, Oracle, Outcome, PassCounts, SetupTimes, Sidecar,
};
use crate::estimator::Floors;
use crate::gen::{
    anchored_graph, delta_stream, ensure_corpus, line_of, oracle_sample, pattern_pool,
    query_file_lines, query_file_text, reach_lines, read_deltas, read_text, sample_positions,
    shuffle_within, stream, Corpus, RunDir, Sizes, CORPUS_FILE, PROBE_FILE,
};
use crate::host::status_mib;
use crate::trace::{dump_path, Shadow};
use rbq_core::NeighborIndex;
use rbq_engine::{Answer, Engine, EngineConfig, Query, QueryResult};
use rbq_graph::snapshot::{write_snapshot, SNAPSHOT_FILE};
use rbq_graph::wal::{WalWriter, WAL_FILE};
use rbq_graph::{DeltaBatch, Graph};
use rbq_reach::HierarchicalIndex;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Share of each served slice that is reachability queries.
const REACH_SHARE: f64 = 0.4;
/// Repetitions of the layer-by-layer write path in a traced run.
const LAYER_REPS: usize = 3;

/// Exact counts of one pass; all must repeat from pass to pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct IngestCounts {
    serve: PassCounts,
    probe: PassCounts,
    compactions: u64,
    wal_bytes: u64,
    wal_ops: u64,
    /// Size of the graph the engine served when it crashed.
    served: (u64, u64),
    /// Size of the graph recovery came back with.
    recovered: (u64, u64),
    replayed: u64,
}

/// The corpus: the 50k-node graph; the slices (one per round, consecutive
/// runs of `slice_len` operations, 40 % reach, no pattern twice in a pass);
/// the delta stream; the probe list. Which epoch a query meets decides its
/// cost and its answer, so slice membership and the delta stream are fixed
/// here; a run's seed only orders the queries inside each slice.
pub fn corpus(s: &Sizes) -> Corpus {
    let (g, candidates) = anchored_graph(s.ingest_nodes, s.ingest_anchors);
    let pool = pattern_pool(&g, &candidates, s.ingest_anchors);
    let reach_per_slice = (s.slice_len as f64 * REACH_SHARE) as usize;
    let mut reach = reach_lines(&g, s.reach_pool).into_iter().cycle();
    // Slot-major over the anchors: no pattern repeats within a pass.
    let mut patterns = (0..pool[0].len()).flat_map(|k| pool.iter().map(move |qs| line_of(&qs[k])));
    let mut draw = |len: usize, reach_n: usize| -> Vec<String> {
        (0..len)
            .map(|j| {
                let next = if j < reach_n {
                    reach.next()
                } else {
                    patterns.next()
                };
                next.expect("the pools outlast a pass")
            })
            .collect()
    };
    let mut lines = Vec::with_capacity(s.rounds * s.slice_len);
    for _ in 0..s.rounds {
        lines.extend(draw(s.slice_len, reach_per_slice));
    }
    let probe = draw(s.probe_len, s.probe_len / 2);
    let g = Arc::new(g);
    let (deltas, _) = delta_stream(&g, s.rounds, s.delta_ops);
    Corpus {
        graph: g,
        lines,
        deltas,
        extras: vec![(PROBE_FILE, query_file_text(&probe))],
    }
}

/// Replace `work` with a copy of the base durability directory.
fn restore(base: &Path, work: &Path) -> std::io::Result<()> {
    if work.exists() {
        std::fs::remove_dir_all(work)?;
    }
    std::fs::create_dir_all(work)?;
    for f in [SNAPSHOT_FILE, WAL_FILE] {
        std::fs::copy(base.join(f), work.join(f))?;
    }
    Ok(())
}

/// What a crash in the middle of a WAL append leaves: a record header
/// promising more payload than follows.
fn append_torn_record(work: &Path) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(work.join(WAL_FILE))?;
    f.write_all(&4096u32.to_le_bytes())?;
    f.write_all(&0xdead_beefu32.to_le_bytes())?;
    f.write_all(b"torn tail")?;
    f.sync_data()
}

/// `Engine::recover` with both indexes forced.
fn recover(
    work: &Path,
    cfg: &EngineConfig,
) -> Result<(Engine, rbq_engine::RecoveryReport), String> {
    let (engine, report) = Engine::recover(work, cfg.clone()).map_err(|e| e.to_string())?;
    engine.neighbor_index();
    engine.reach_index();
    Ok((engine, report))
}

/// Everything one pass needs and everything it measures into.
struct Pass {
    base: PathBuf,
    work: PathBuf,
    cfg: EngineConfig,
    batches: Vec<DeltaBatch>,
    /// `slice_len` queries per round.
    lines: Vec<String>,
    /// Checked after recovery; the first one is the timed first answer.
    probe: Vec<String>,
    slice_len: usize,
    queries: Floors,
    updates: Floors,
    recover_ns: u64,
}

/// One answered query, as a pass shows it to its gate.
struct Answered<'a> {
    /// Operation index; `None` for a post-recovery probe.
    op: Option<usize>,
    /// Round whose epoch served it.
    round: usize,
    engine: &'a Engine,
    line: &'a str,
    result: &'a QueryResult,
    answer: &'a str,
}

/// Per-answer hook of a pass.
type Gate<'g> = dyn FnMut(Answered<'_>) + 'g;

/// The gate of a timed pass: counts are folded by the pass itself.
fn no_gate(_: Answered<'_>) {}

impl Pass {
    /// Run one pass. `gate` sees every answer (the warm-up pass checks
    /// them; timed passes only fold counts). `shadow`, when present,
    /// serves the slices through the traced pipeline instead.
    fn run(
        &mut self,
        out: &mut Outcome,
        gate: &mut Gate<'_>,
        mut shadow: Option<&mut Shadow>,
    ) -> Result<IngestCounts, String> {
        let io = |e: std::io::Error| e.to_string();
        let mut c = IngestCounts::default();
        restore(&self.base, &self.work).map_err(io)?;
        let (engine, _) = recover(&self.work, &self.cfg)?;
        if let Some(s) = shadow.as_deref_mut() {
            s.begin_pass();
        }
        for (round, batch) in self.batches.iter().enumerate() {
            let wal_before = std::fs::metadata(self.work.join(WAL_FILE))
                .map_err(io)?
                .len();
            let (report, ns) = timed(|| engine.apply_deltas(batch));
            self.updates.record(round, ns);
            match report {
                Ok(report) => {
                    c.compactions += u64::from(report.compacted);
                    if !report.compacted {
                        // A checkpoint rotates the log; count only appends.
                        let wal_after = std::fs::metadata(self.work.join(WAL_FILE))
                            .map_err(io)?
                            .len();
                        c.wal_bytes += wal_after - wal_before;
                        c.wal_ops += batch.len() as u64;
                    }
                }
                Err(e) => out.fail(batch.len() as u64, || format!("round {round} update: {e}")),
            }
            let from = round * self.slice_len;
            for (j, line) in self.lines[from..from + self.slice_len].iter().enumerate() {
                let i = from + j;
                let served = match shadow.as_deref_mut() {
                    Some(s) => s.op(i, &engine, line),
                    None => {
                        let (served, ns) = timed(|| serve_line(&engine, line));
                        self.queries.record(i, ns);
                        served
                    }
                };
                match served {
                    Ok((r, answer)) => {
                        c.serve.fold(&r, &answer);
                        gate(Answered {
                            op: Some(i),
                            round,
                            engine: &engine,
                            line,
                            result: &r,
                            answer: &answer,
                        });
                    }
                    Err(e) => {
                        c.serve.fold_error();
                        out.fail(1, || format!("op {i}: {e}"));
                    }
                }
            }
        }
        if let Some(s) = shadow {
            s.end_pass(out);
        }
        // Crash: no shutdown hook runs, and the tail of the log is torn.
        c.served = size_of(&engine.graph());
        drop(engine);
        append_torn_record(&self.work).map_err(io)?;
        let (recovered, ns) = timed(|| -> Result<_, String> {
            let (engine, report) = recover(&self.work, &self.cfg)?;
            let first = serve_line(&engine, &self.probe[0])?;
            Ok((engine, report, first))
        });
        self.recover_ns = self.recover_ns.min(ns);
        let (engine, report, (first, first_answer)) = recovered?;
        if !report.torn_tail || report.quarantined != 0 {
            out.fail(1, || {
                format!("recovery did not see exactly a torn tail: {report:?}")
            });
        }
        c.recovered = (report.nodes as u64, report.edges as u64);
        c.replayed = report.replayed as u64;
        let last_round = self.batches.len().saturating_sub(1);
        let mut answered = Some((first, first_answer));
        for line in &self.probe {
            // The first probe was answered inside the timed recovery.
            let served = match answered.take() {
                Some(first) => Ok(first),
                None => serve_line(&engine, line),
            };
            match served {
                Ok((r, answer)) => {
                    c.probe.fold(&r, &answer);
                    gate(Answered {
                        op: None,
                        round: last_round,
                        engine: &engine,
                        line,
                        result: &r,
                        answer: &answer,
                    });
                }
                Err(e) => {
                    c.probe.fold_error();
                    out.fail(1, || format!("probe {line}: {e}"));
                }
            }
        }
        Ok(c)
    }
}

fn size_of(g: &Graph) -> (u64, u64) {
    (g.node_count() as u64, g.edge_count() as u64)
}

/// What a pass must reproduce whatever the pass number: recovery comes
/// back with the graph the crashed engine was serving, and the sizing puts
/// exactly one threshold compaction (and so one checkpoint) in every pass.
fn check_recovery(out: &mut Outcome, c: &IngestCounts) {
    if c.recovered != c.served {
        out.fail(1, || {
            format!(
                "recovered graph {:?} differs from the one that was serving {:?}",
                c.recovered, c.served
            )
        });
    }
    if c.compactions != 1 {
        out.fail(1, || {
            format!(
                "{} compactions in a pass; the sizing promises exactly one",
                c.compactions
            )
        });
    }
}

/// A sampled answer kept from the warm-up pass for the oracle, which runs
/// after the replay so that its memory is not in `rss_mb`.
struct Sampled {
    round: usize,
    line: String,
    answer: Answer,
}

/// Run the workload.
pub fn run(a: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = a.sizes;

    // ---- Inputs: the cached corpus, each slice in the seed's order. -----
    let (dir, mut manifest) = ensure_corpus("ingest-serve", a, || Ok(corpus(&a.sizes)))?;
    let run_dir = RunDir::create(&dir, a.seed)?;
    let sample = {
        let corpus_lines = query_file_lines(&read_text(&dir, CORPUS_FILE)?);
        let order = shuffle_within(corpus_lines.len(), s.slice_len, &mut stream(a.seed, 6));
        let lines: Vec<String> = order.iter().map(|&i| corpus_lines[i].clone()).collect();
        run_dir.write_queries(&lines, &mut manifest)?;
        let sample = oracle_sample(&corpus_lines, s.oracle_per_class);
        sample_positions(&order, &sample)
    };
    eprintln!("inputs[ingest-serve seed {}] {}", a.seed, manifest.render());
    out.set("bench.inputs_crc32", f64::from(manifest.digest()));
    let probe = query_file_lines(&read_text(&dir, PROBE_FILE)?);
    let batches = read_deltas(&dir, s.rounds)?;

    // ---- Set-up, as on every workload. ---------------------------------
    let cfg = engine_config(1);
    let setup = || -> Result<(Loaded, SetupTimes), String> {
        let (l, mut t) = load(&dir, run_dir.path())?;
        let (engine, ns) = timed(|| engine_over(&l, &cfg));
        drop(engine);
        t.construct = ns;
        Ok((l, t))
    };
    let (l, first_setup) = setup()?;
    let mut sidecar = Sidecar::new(first_setup, || setup().map(|(_, t)| t));
    out.set("reach.landmarks", l.reach.num_landmarks() as f64);
    out.set("reach.index_entries", l.reach.label_entries() as f64);
    let n = l.lines.len();

    let mut pass = Pass {
        base: dir.clone(),
        work: run_dir.path().join("work"),
        cfg: cfg.clone(),
        batches,
        lines: l.lines.clone(),
        probe: probe.clone(),
        slice_len: s.slice_len,
        queries: Floors::new(n),
        updates: Floors::new(s.rounds),
        recover_ns: u64::MAX,
    };

    // ---- Pass 1: warm-up, with the gate on every answer. ---------------
    let mut next_sample = sample.iter().copied().peekable();
    let mut sampled: Vec<Sampled> = Vec::with_capacity(sample.len());
    let mut failures: Vec<String> = Vec::new();
    let warm = pass.run(
        &mut out,
        &mut |q: Answered<'_>| {
            let max_units = q.engine.pattern_budget().max_units;
            let reach_cap = q.engine.reach_index().visit_cap();
            if let Err(e) = contract(q.line, q.result, q.answer, max_units, reach_cap) {
                failures.push(e);
            } else if q.op.is_some_and(|i| next_sample.next_if_eq(&i).is_some()) {
                sampled.push(Sampled {
                    round: q.round,
                    line: q.line.to_owned(),
                    answer: q.result.answer.clone(),
                });
            }
        },
        None,
    )?;
    for e in failures {
        out.fail(1, || e);
    }
    check_recovery(&mut out, &warm);
    out.set("visits_per_q", warm.serve.visits as f64 / n as f64);
    out.set("delivered_share", warm.serve.delivered as f64 / n as f64);
    let patterns = l.lines.iter().filter(|line| !line.starts_with('r')).count();
    out.set(
        "engine.cache_hit_share",
        warm.serve.hits as f64 / patterns.max(1) as f64,
    );
    out.set(
        "graph.wal_bytes_per_op",
        warm.wal_bytes as f64 / warm.wal_ops.max(1) as f64,
    );

    // ---- Replay. --------------------------------------------------------
    let repeat = |out: &mut Outcome, got: IngestCounts, p: usize| {
        if got != warm {
            out.fail(n as u64, || {
                format!("pass {p} counts {got:?} differ from pass 1 {warm:?}")
            });
        }
    };
    let mut shadow = a.trace.then(|| Shadow::new(n));
    // One `Pass` serves both closures, which never run at the same time.
    let pass = std::cell::RefCell::new(pass);
    let passes = measure(
        a,
        &mut out,
        &mut sidecar,
        &mut |p, out| match pass.borrow_mut().run(out, &mut no_gate, None) {
            Ok(c) => repeat(out, c, p + 2),
            Err(e) => out.fail(n as u64, || e),
        },
        &mut |p, out| match pass.borrow_mut().run(out, &mut no_gate, shadow.as_mut()) {
            Ok(c) => repeat(out, c, p + 2),
            Err(e) => out.fail(n as u64, || e),
        },
    );
    let pass = pass.into_inner();
    // Here the high-water mark is read after the last pass, not the first:
    // a pass's peak is the moment an old epoch, its successor and the two
    // index builds overlap, which two passes may or may not hit (8 % apart
    // between runs) and thirty do (3 %). The engine lives inside a pass, so
    // the sidecar's set-up repetitions never add to it.
    out.set("rss_mb", status_mib("VmHWM"));
    match &shadow {
        Some(shadow) => {
            shadow.report(&mut out, &pass.queries);
            let dump = dump_path("ingest-serve", a);
            shadow.write_dump(&dump).map_err(|e| e.to_string())?;
            eprintln!("trace dump: {}", dump.display());
        }
        None => latency_metrics(&mut out, &pass.queries, 1),
    }
    eprintln!(
        "ingest-serve: {} passes of {} rounds, {n} queries",
        passes + 1,
        s.rounds
    );
    out.attempted = ((n + probe.len() + s.rounds) * (passes + 1)) as u64;
    sidecar.finish(&mut out)?;
    // The write side: per-batch floors of a durable `apply_deltas`
    // call-to-ack, and the recovery floor.
    let updates = &pass.updates;
    out.set("update_p50_ms", updates.percentile_ns(50.0) as f64 / 1e6);
    out.set(
        "ingest_ops_s",
        (updates.observed().count() * s.delta_ops) as f64 / updates.sum_s(),
    );
    out.set("engine.apply_deltas_ms", updates.mean_us() / 1e3);
    out.set("recover_s", pass.recover_ns as f64 * 1e-9);
    out.set("engine.recover_ms", pass.recover_ns as f64 * 1e-6);
    if a.trace {
        // And the write path, layer by layer.
        let rebuild_s = write_side_layers(&mut out, &l.g, &pass.batches, run_dir.path())?;
        out.set(
            "engine.index_rebuild_share",
            rebuild_s / pass.updates.sum_s(),
        );
    }

    // ---- The oracles, last: per-epoch exact answers, and the fresh ------
    // engine on base + acknowledged batches the recovered one must equal.
    // The epochs are rebuilt here, outside the engine, from the same files.
    let mut graphs: Vec<Arc<Graph>> = Vec::with_capacity(s.rounds);
    for batch in &pass.batches {
        let before = graphs.last().unwrap_or(&l.g);
        let (after, _) = before.apply_delta(batch).map_err(|e| e.to_string())?;
        graphs.push(Arc::new(after));
    }
    let acked = graphs.last().unwrap_or(&l.g).clone();
    if warm.recovered != size_of(&acked) {
        out.fail(1, || {
            "recovered graph differs from base + acknowledged batches".into()
        });
    }
    let mut oracles: Vec<Option<Oracle>> = (0..s.rounds).map(|_| None).collect();
    let mut accuracy = Accuracy::default();
    for q in &sampled {
        let oracle =
            oracles[q.round].get_or_insert_with(|| Oracle::new(graphs[q.round].clone(), None));
        let scored = Query::parse_line(&q.line)
            .map_err(|e| e.to_string())
            .and_then(|query| oracle.score(&query, &q.answer));
        match scored {
            Ok(score) => accuracy.add(score),
            Err(e) => out.fail(1, || format!("round {} {}: {e}", q.round, q.line)),
        }
    }
    drop(oracles);
    out.set("accuracy_f1", accuracy.mean());
    let fresh = Engine::new(acked, cfg);
    let mut expected = PassCounts::default();
    for line in &probe {
        let (r, answer) = serve_line(&fresh, line)?;
        expected.fold(&r, &answer);
    }
    if warm.probe != expected {
        out.fail(probe.len() as u64, || {
            format!(
                "recovered engine answers {:?}, a fresh engine {expected:?}",
                warm.probe
            )
        });
    }
    Ok(out)
}

/// The write path layer by layer, from outside: the public functions
/// `Engine::apply_deltas`, checkpointing and `Engine::recover` call, run
/// on the same batches against the same graphs, each with a floor over
/// [`LAYER_REPS`] repetitions. Returns the seconds per pass the index
/// rebuild accounts for: the engine rebuilds both indexes concurrently, so
/// per batch that is the slower of the two.
fn write_side_layers(
    out: &mut Outcome,
    g0: &Arc<Graph>,
    batches: &[DeltaBatch],
    dir: &Path,
) -> Result<f64, String> {
    let io = |e: std::io::Error| e.to_string();
    let rounds = batches.len();
    let (mut apply, mut nbr, mut reach, mut append) = (
        Floors::new(rounds),
        Floors::new(rounds),
        Floors::new(rounds),
        Floors::new(rounds),
    );
    let (mut compact, mut snapshot, mut replay_ns) = (u64::MAX, u64::MAX, u64::MAX);
    let scratch = dir.join("layers");
    std::fs::create_dir_all(&scratch).map_err(io)?;
    let (mut snapshot_bytes, mut snapshot_edges) = (0u64, 0u64);
    for _ in 0..LAYER_REPS {
        let mut g = g0.clone();
        let mut wal = WalWriter::create(&scratch.join(WAL_FILE), 1).map_err(|e| e.to_string())?;
        for (r, batch) in batches.iter().enumerate() {
            let (applied, ns) = timed(|| g.apply_delta(batch));
            let (next, report) = applied.map_err(|e| e.to_string())?;
            apply.record(r, ns);
            if report.compacted {
                // What the threshold compaction inside that apply cost: the
                // same overlay, compacted again on its own.
                let overlaid = overlay_only(&g, batch)?;
                let (_, ns) = timed(|| overlaid.compact());
                compact = compact.min(ns);
                let path = scratch.join(SNAPSHOT_FILE);
                let (w, ns) = timed(|| write_snapshot(&next, &path, r as u64 + 1));
                w.map_err(|e| e.to_string())?;
                snapshot = snapshot.min(ns);
                snapshot_bytes = std::fs::metadata(&path).map_err(io)?.len();
                snapshot_edges = next.edge_count() as u64;
            }
            let next = Arc::new(next);
            let (_, ns) = timed(|| NeighborIndex::build(&next));
            nbr.record(r, ns);
            let (_, ns) = timed(|| HierarchicalIndex::build(&next, crate::common::REACH_ALPHA));
            reach.record(r, ns);
            let (appended, ns) = timed(|| wal.append(batch));
            appended.map_err(|e| e.to_string())?;
            append.record(r, ns);
            g = next;
        }
        drop(wal);
        let (replayed, ns) = timed(|| rbq_graph::wal_replay(&scratch.join(WAL_FILE)));
        replayed.map_err(|e| e.to_string())?;
        replay_ns = replay_ns.min(ns);
    }
    let ms = |ns: u64| {
        if ns == u64::MAX {
            0.0
        } else {
            ns as f64 * 1e-6
        }
    };
    out.set("graph.apply_delta_ms", apply.mean_us() / 1e3);
    out.set("graph.compact_ms", ms(compact));
    out.set("graph.wal_append_fsync_ms", append.mean_us() / 1e3);
    out.set("graph.snapshot_write_ms", ms(snapshot));
    out.set(
        "graph.snapshot_bytes_per_edge",
        snapshot_bytes as f64 / snapshot_edges.max(1) as f64,
    );
    out.set("graph.wal_replay_ms", ms(replay_ns));
    out.set("engine.checkpoint_ms", ms(snapshot));
    out.set("core.nbr_index_build_ms", nbr.mean_us() / 1e3);
    out.set("reach.index_build_ms", reach.mean_us() / 1e3);
    let rebuild_ns: u64 = (0..rounds)
        .map(|r| nbr.get(r).unwrap_or(0).max(reach.get(r).unwrap_or(0)))
        .sum();
    Ok(rebuild_ns as f64 * 1e-9)
}

/// `g` plus `batch` as an overlay, whatever the churn: the state the
/// threshold compaction starts from. Obtained by applying the batch to a
/// compacted copy, whose fresh base resets the churn count.
fn overlay_only(g: &Graph, batch: &DeltaBatch) -> Result<Graph, String> {
    g.compact()
        .apply_delta(batch)
        .map(|(next, _)| next)
        .map_err(|e| e.to_string())
}
