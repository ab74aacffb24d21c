//! Deterministic input generation, in two parts.
//!
//! The **corpus** — the graph, its anchors, the pattern pool, *which*
//! operations a pass holds (Zipf and reachability draws, the membership and
//! inner order of every batch, the membership of every slice), the delta
//! stream and the aggregate budget — is drawn from [`CORPUS_SEED`] and the
//! scale alone. It is generated once per build, by a child process, into
//! `benchmark/target/inputs/` and reused by every later run ([`ensure_corpus`]).
//!
//! `--seed` draws only the **replay order**, and only where no exact count
//! can depend on it ([`shuffle_within`], [`rotate_blocks`]). The same seed
//! gives byte-identical inputs; every run recomputes and prints the CRC-32
//! of every file it reads.
//!
//! The stock generators give a graph exactly one personalized node (`ME`),
//! so all stock pattern traffic lands on one ball. Here a few hundred
//! randomly chosen nodes are relabelled to unique anchors `U<i>`, and
//! patterns are extracted around each of them.

use crate::common::Args;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rbq_engine::wire::parse_delta_file;
use rbq_engine::{canonical_pattern, Durability, Query};
use rbq_graph::snapshot::{crc32, SNAPSHOT_FILE};
use rbq_graph::wal::WAL_FILE;
use rbq_graph::{DeltaBatch, Graph, GraphBuilder, NodeId};
use rbq_pattern::{Pattern, PatternBuilder};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

/// Pattern shape `(|V_p|, |E_p|)`: the smallest the paper sweeps.
pub const PATTERN_NODES: usize = 4;
/// See [`PATTERN_NODES`].
pub const PATTERN_EDGES: usize = 8;
/// Distinct `(pattern, semantics)` queries extracted per anchor.
pub const PER_ANCHOR: usize = 8;

/// Every size knob of the suite. [`Sizes::full`] is what `BENCHMARK.json`
/// measures; [`Sizes::smoke`] exercises the same code in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Nodes of the graph `pattern-miss`, `mixed-hit` and `batch-router`
    /// share.
    pub nodes: usize,
    /// Anchors relabelled in that graph.
    pub anchors: usize,
    /// Anchors contributing to the hot set (two patterns each).
    pub hot_anchors: usize,
    /// Operations per `mixed-hit` pass.
    pub mixed_ops: usize,
    /// Distinct hard reachability pairs drawn per workload.
    pub reach_pool: usize,
    /// Batches per `batch-router` pass.
    pub batches: usize,
    /// Queries per batch.
    pub batch_len: usize,
    /// Nodes of the `ingest-serve` graph.
    pub ingest_nodes: usize,
    /// Anchors in the `ingest-serve` graph.
    pub ingest_anchors: usize,
    /// Update/serve rounds per `ingest-serve` pass.
    pub rounds: usize,
    /// Operations per delta batch.
    pub delta_ops: usize,
    /// Queries served after each delta batch.
    pub slice_len: usize,
    /// Queries checked after recovery.
    pub probe_len: usize,
    /// Queries per class scored against the exact oracle.
    pub oracle_per_class: usize,
    /// Repetitions of set-up spread between the passes of a run.
    pub reps: usize,
    /// Fewest passes a run makes, whatever `--seconds` says.
    pub min_passes: usize,
}

impl Sizes {
    /// The measured configuration.
    pub fn full() -> Self {
        Sizes {
            nodes: 100_000,
            anchors: 768,
            hot_anchors: 256,
            mixed_ops: 60_000,
            reach_pool: 1024,
            batches: 64,
            batch_len: 256,
            ingest_nodes: 50_000,
            ingest_anchors: 256,
            rounds: 12,
            delta_ops: 4096,
            slice_len: 256,
            probe_len: 64,
            oracle_per_class: 512,
            reps: 12,
            min_passes: 3,
        }
    }

    /// A 2k-node configuration that runs the whole harness in seconds.
    pub fn smoke() -> Self {
        Sizes {
            nodes: 2_000,
            anchors: 48,
            hot_anchors: 16,
            mixed_ops: 2_000,
            reach_pool: 64,
            batches: 4,
            batch_len: 32,
            ingest_nodes: 2_000,
            ingest_anchors: 32,
            rounds: 4,
            delta_ops: 512,
            slice_len: 32,
            probe_len: 16,
            oracle_per_class: 32,
            reps: 2,
            min_passes: 3,
        }
    }
}

/// Seed of the *corpus*: everything an exact count can depend on (see the
/// module documentation). The corpus is a fixed dataset, as a real snapshot
/// and a real query log would be; `--seed` draws only the order the log is
/// replayed in. Per-query cost on these graphs is heavy-tailed — about 1 %
/// of the patterns carry a third of the time — so two independently drawn
/// corpora differ by 60–160 % in `visits_per_q` (measured), and even a
/// per-seed Zipf sample or delta stream over one corpus moved it 3–5 %. The
/// driver's acceptance check is made across seeds, so whatever varies with
/// the seed has to be absorbed by a bound; with the corpus fixed the exact
/// counts are the same number for every seed and their bounds stay tight.
pub const CORPUS_SEED: u64 = 2014;

/// An independent deterministic stream for one purpose of one seed.
pub fn stream(seed: u64, purpose: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose)
}

/// The corpus graph: a `youtube_like(nodes)` graph with `wanted + wanted/4` randomly chosen
/// connected nodes relabelled to unique labels `U<i>` (rebuilt through
/// [`GraphBuilder`]). Returns the graph and the relabelled nodes in `U<i>`
/// order; [`pattern_pool`] keeps the first `wanted` that yield patterns —
/// the spares stay in the graph as unique labels nobody queries.
pub fn anchored_graph(nodes: usize, wanted: usize) -> (Graph, Vec<NodeId>) {
    let base = rbq_workload::youtube_like(nodes, CORPUS_SEED);
    let mut rng = stream(CORPUS_SEED, 1);
    let mut ids: Vec<NodeId> = base.nodes().filter(|&v| base.deg(v) > 0).collect();
    ids.shuffle(&mut rng);
    let me = rbq_workload::me_node(&base);
    let anchors: Vec<NodeId> = ids
        .into_iter()
        .filter(|&v| Some(v) != me)
        .take(wanted + wanted / 4)
        .collect();
    let mut slot = vec![u32::MAX; base.node_count()];
    for (i, v) in anchors.iter().enumerate() {
        slot[v.index()] = i as u32;
    }
    let mut b = GraphBuilder::with_capacity(base.node_count(), base.edge_count());
    for v in base.nodes() {
        match slot[v.index()] {
            u32::MAX => b.add_node(base.node_label_str(v)),
            i => b.add_node(&format!("U{i}")),
        };
    }
    for (u, v) in base.edges() {
        b.add_edge(u, v);
    }
    (b.build(), anchors)
}

/// Extract a weakly connected pattern of `nodes` nodes and at most `edges`
/// edges around `anchor`, which becomes the personalized node (the stock
/// `rbq_workload::extract_pattern` only anchors at `ME`). The pattern is a
/// subgraph of `g`, so it is satisfiable by construction; the output node
/// is the picked node farthest from the anchor. `None` when the anchor's
/// neighbourhood cannot supply a connected pattern.
pub fn extract_anchored(
    g: &Graph,
    anchor: NodeId,
    nodes: usize,
    edges: usize,
    rng: &mut ChaCha8Rng,
) -> Option<Pattern> {
    let around = |v: NodeId| g.out(v).iter().chain(g.inn(v)).copied();
    // Random connected exploration over undirected adjacency.
    let mut picked = vec![anchor];
    let mut frontier: Vec<NodeId> = around(anchor).collect();
    while picked.len() < nodes {
        if frontier.is_empty() {
            return None;
        }
        let v = frontier.swap_remove(rng.gen_range(0..frontier.len()));
        if picked.contains(&v) {
            continue;
        }
        picked.push(v);
        frontier.extend(around(v));
    }
    // Data edges among the picked nodes, in random order.
    let mut inner: Vec<(usize, usize)> = Vec::new();
    for (a, &u) in picked.iter().enumerate() {
        for (b, &w) in picked.iter().enumerate() {
            if a != b && g.edge(u, w) {
                inner.push((a, b));
            }
        }
    }
    inner.shuffle(rng);
    // A spanning skeleton first (union-find), then extras up to `edges`.
    let mut root: Vec<usize> = (0..picked.len()).collect();
    fn find(root: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while root[r] != r {
            r = root[r];
        }
        root[x] = r;
        r
    }
    let (mut chosen, mut extra) = (Vec::new(), Vec::new());
    for &(a, b) in &inner {
        let (ra, rb) = (find(&mut root, a), find(&mut root, b));
        if ra != rb {
            root[ra] = rb;
            chosen.push((a, b));
        } else {
            extra.push((a, b));
        }
    }
    if chosen.len() + 1 != picked.len() {
        return None; // not weakly connected through data edges
    }
    chosen.extend(extra.into_iter().take(edges.saturating_sub(chosen.len())));
    // Hop distance from the anchor over the chosen edges.
    let mut depth = vec![usize::MAX; picked.len()];
    depth[0] = 0;
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(x) = queue.pop_front() {
        for &(a, b) in &chosen {
            for (from, to) in [(a, b), (b, a)] {
                if from == x && depth[to] == usize::MAX {
                    depth[to] = depth[x] + 1;
                    queue.push_back(to);
                }
            }
        }
    }
    let output = (0..picked.len()).max_by_key(|&i| depth[i])?;
    let mut pb = PatternBuilder::new();
    let pn: Vec<_> = picked
        .iter()
        .map(|&v| pb.add_node(g.node_label_str(v)))
        .collect();
    for &(a, b) in &chosen {
        pb.add_edge(pn[a], pn[b]);
    }
    pb.personalized(pn[0]).output(pn[output]);
    Some(pb.build())
}

/// For the first `wanted` of `candidates` that can supply them, extract
/// [`PER_ANCHOR`] queries that are pairwise distinct as cache keys
/// (canonical signature × semantics; even slots simulation, odd slots
/// isomorphism). `pool[a][k]` is anchor `a`'s `k`-th query.
pub fn pattern_pool(g: &Graph, candidates: &[NodeId], wanted: usize) -> Vec<Vec<Query>> {
    let mut rng = stream(CORPUS_SEED, 2);
    let mut pool = Vec::with_capacity(wanted);
    for &anchor in candidates {
        if pool.len() == wanted {
            break;
        }
        let mut seen: BTreeSet<(String, bool)> = BTreeSet::new();
        let mut queries = Vec::with_capacity(PER_ANCHOR);
        for k in 0..PER_ANCHOR {
            let iso = k % 2 == 1;
            for _attempt in 0..16 {
                let Some(p) = extract_anchored(g, anchor, PATTERN_NODES, PATTERN_EDGES, &mut rng)
                else {
                    break;
                };
                if seen.insert((canonical_pattern(&p).1, iso)) {
                    queries.push(if iso {
                        Query::PatternIso { pattern: p }
                    } else {
                        Query::PatternSim { pattern: p }
                    });
                    break;
                }
            }
            if queries.len() != k + 1 {
                break;
            }
        }
        if queries.len() == PER_ANCHOR {
            pool.push(queries);
        }
    }
    assert_eq!(
        pool.len(),
        wanted,
        "too few anchors with {PER_ANCHOR} distinct patterns"
    );
    pool
}

/// Inverse-CDF sampler for Zipf(`s`) over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf with exponent `s` over `n ≥ 1` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw a rank (0 is the most popular).
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `count` hard reachability queries (half reachable across SCCs, half
/// leaning unreachable), as wire lines. Part of the corpus.
pub fn reach_lines(g: &Graph, count: usize) -> Vec<String> {
    rbq_workload::sample_hard_reachability_queries(g, count, 0.5, CORPUS_SEED)
        .into_iter()
        .map(|(s, t)| format!("r {} {}", s.0, t.0))
        .collect()
}

/// Wire line of a generated query. Generated labels are plain tokens, so
/// serialization cannot fail.
pub fn line_of(q: &Query) -> String {
    q.to_line().expect("generated labels serialize")
}

/// A stream of `rounds` delta batches of `ops` operations each — 70 %
/// add-edge, 25 % remove-edge (of an edge present when drawn), 5 % add-node
/// over the stock alphabet — and the graph after each batch. Batches are
/// drawn against the evolving graph, so removals stay effective. Part of
/// the corpus: which edges a batch touches decides what the queries after
/// it cost.
pub fn delta_stream(
    g0: &Arc<Graph>,
    rounds: usize,
    ops: usize,
) -> (Vec<DeltaBatch>, Vec<Arc<Graph>>) {
    let mut rng = stream(CORPUS_SEED, 3);
    let mut g = g0.clone();
    let mut batches = Vec::with_capacity(rounds);
    let mut graphs = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut batch = DeltaBatch::new();
        let mut n = g.node_count() as u32;
        for _ in 0..ops {
            let roll = rng.gen_range(0..100u32);
            if roll < 5 {
                batch.add_node(&format!("L{}", rng.gen_range(0..15u32)));
                n += 1;
            } else if roll < 30 {
                // Only pre-batch nodes have edges to remove.
                let u = loop {
                    let u = NodeId(rng.gen_range(0..g.node_count() as u32));
                    if g.deg_out(u) > 0 {
                        break u;
                    }
                };
                let out = g.out(u);
                batch.remove_edge(u, out[rng.gen_range(0..out.len())]);
            } else {
                let u = rng.gen_range(0..n);
                let v = (u + rng.gen_range(1..n)) % n;
                batch.add_edge(NodeId(u), NodeId(v));
            }
        }
        let (next, _) = g.apply_delta(&batch).expect("generated ids are in range");
        g = Arc::new(next);
        graphs.push(g.clone());
        batches.push(batch);
    }
    (batches, graphs)
}

/// Up to `per_class` operation indices per query class, each the first
/// occurrence of a distinct line in *corpus* order: the fixed sample scored
/// against the exact oracle, the same queries whatever the seed.
pub fn oracle_sample(lines: &[String], per_class: usize) -> Vec<usize> {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let (mut reach, mut pattern) = (0usize, 0usize);
    let mut sample = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        let count = if l.starts_with('r') {
            &mut reach
        } else {
            &mut pattern
        };
        if *count < per_class && seen.insert(l) {
            *count += 1;
            sample.push(i);
        }
    }
    sample
}

/// A replay order: position `p` of a pass holds corpus operation
/// `order[p]`. Operations are shuffled inside consecutive blocks of `block`
/// and never leave their block (one block of `n` shuffles the whole list).
pub fn shuffle_within(n: usize, block: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for chunk in order.chunks_mut(block.max(1)) {
        chunk.shuffle(rng);
    }
    order
}

/// A replay order that starts the cyclic replay at a random block of
/// `block` operations and changes nothing else: the sequence a cache sees
/// from the second pass on is the same for every draw.
pub fn rotate_blocks(n: usize, block: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let blocks = n.div_ceil(block.max(1)).max(1);
    let first = rng.gen_range(0..blocks) * block;
    (first..n).chain(0..first).collect()
}

/// The replay positions at which `order` puts the corpus operations
/// `sample` (ascending corpus indices); ascending.
pub fn sample_positions(order: &[usize], sample: &[usize]) -> Vec<usize> {
    (0..order.len())
        .filter(|&p| sample.binary_search(&order[p]).is_ok())
        .collect()
}

/// Operations in corpus order (query-file format).
pub const CORPUS_FILE: &str = "corpus.txt";
/// Operations in the run's replay order (query-file format); per run.
pub const QUERY_FILE: &str = "queries.txt";
/// `ingest-serve`'s post-recovery probe list (query-file format).
pub const PROBE_FILE: &str = "probe.txt";
/// `batch-router`'s aggregate visit budget, a decimal number.
pub const BUDGET_FILE: &str = "budget.txt";
/// `name=crc32` of every other file of a corpus directory; written last,
/// so a directory that has it is complete.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// File name of delta batch `index` inside a corpus directory.
pub fn delta_file(index: usize) -> String {
    format!("deltas-{index:02}.txt")
}

/// What the generator hands a workload: everything the seed does not
/// touch.
pub struct Corpus {
    /// The graph the workload serves (at first, on `ingest-serve`).
    pub graph: Arc<Graph>,
    /// One pass of operations, as wire lines in corpus order.
    pub lines: Vec<String>,
    /// Durable delta batches over `graph`, in order (`ingest-serve`).
    pub deltas: Vec<DeltaBatch>,
    /// Further small text files, by name.
    pub extras: Vec<(&'static str, String)>,
}

/// A query file holding `lines`.
pub fn query_file_text(lines: &[String]) -> String {
    let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum::<usize>() + 32);
    text.push_str(rbq_engine::QUERY_FILE_HEADER);
    text.push('\n');
    for l in lines {
        text.push_str(l);
        text.push('\n');
    }
    text
}

/// The operation lines of a query file's text, in file order.
pub fn query_file_lines(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(str::to_owned)
        .collect()
}

/// Write `corpus` into the empty or absent directory `dir`: a durability
/// directory of the graph (`snapshot.bin` + an empty `wal.log`), the
/// operations, the delta batches, the extras, and last the manifest.
pub fn write_corpus(dir: &Path, corpus: &Corpus) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    Durability::create(dir, &corpus.graph).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(CORPUS_FILE), query_file_text(&corpus.lines)).map_err(io)?;
    let mut names = vec![
        SNAPSHOT_FILE.to_owned(),
        WAL_FILE.to_owned(),
        CORPUS_FILE.to_owned(),
    ];
    for (i, batch) in corpus.deltas.iter().enumerate() {
        let mut buf = Vec::new();
        rbq_engine::wire::write_delta_file(&mut buf, batch).map_err(|e| e.to_string())?;
        std::fs::write(dir.join(delta_file(i)), &buf).map_err(io)?;
        names.push(delta_file(i));
    }
    for (name, text) in &corpus.extras {
        std::fs::write(dir.join(name), text).map_err(io)?;
        names.push((*name).to_owned());
    }
    let mut manifest = Manifest::default();
    for name in names {
        manifest.add_file(dir, &name).map_err(io)?;
    }
    std::fs::write(dir.join(MANIFEST_FILE), manifest.render_lines()).map_err(io)
}

/// File names with their CRC-32s.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Manifest {
    entries: Vec<(String, u32)>,
}

impl Manifest {
    /// Record `name` with the CRC of `bytes`.
    pub fn add(&mut self, name: &str, bytes: &[u8]) {
        self.entries.push((name.to_owned(), crc32(bytes)));
    }

    /// Record the file `name` of `dir`.
    pub fn add_file(&mut self, dir: &Path, name: &str) -> std::io::Result<()> {
        self.add(name, &std::fs::read(dir.join(name))?);
        Ok(())
    }

    /// `name=crc` pairs on one line, for the log.
    pub fn render(&self) -> String {
        self.render_lines().trim_end().replace('\n', " ")
    }

    /// One `name=crc` pair per line: the manifest file.
    pub fn render_lines(&self) -> String {
        self.entries
            .iter()
            .map(|(n, c)| format!("{n}={c:08x}\n"))
            .collect()
    }

    /// One number for the whole input set: the CRC of the rendering.
    pub fn digest(&self) -> u32 {
        crc32(self.render_lines().as_bytes())
    }

    /// Read `dir`'s manifest and recompute the CRC of every file it names;
    /// `Err` when the manifest is absent or any file differs — the
    /// directory is then not a usable corpus.
    pub fn verify(dir: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))
            .map_err(|e| format!("{}: no manifest: {e}", dir.display()))?;
        let mut found = Manifest::default();
        for line in text.lines() {
            let (name, _) = line
                .split_once('=')
                .ok_or_else(|| format!("{}: bad manifest line {line:?}", dir.display()))?;
            found
                .add_file(dir, name)
                .map_err(|e| format!("{}: {name}: {e}", dir.display()))?;
        }
        if found.render_lines() != text {
            return Err(format!(
                "{}: files differ from their manifest",
                dir.display()
            ));
        }
        Ok(found)
    }
}

/// CRC-32 of the running executable. It keys the corpus cache: a rebuilt
/// benchmark — and the generator and the library it was built from — never
/// reuses what an older one generated, so a stale generator cannot leak
/// into a parent-against-change comparison.
fn executable_crc() -> Result<u32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::read(&exe)
        .map(|bytes| crc32(&bytes))
        .map_err(|e| format!("{}: {e}", exe.display()))
}

/// `benchmark/target/inputs/`, the only place the benchmark writes.
pub fn inputs_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("inputs")
}

/// The verified corpus directory of `workload` at `a`'s scale, generated
/// first if this build has not generated it yet. Generation runs in a
/// child process of this same executable (`benchmark generate`), so that
/// the generator's memory — two copies of the graph, the pattern pool, a
/// whole engine for the budget — is not in the measuring process's
/// `rss_mb`; `a.child_gen == false` (the unit tests, whose executable is
/// not the benchmark) calls `build` in process instead.
pub fn ensure_corpus(
    workload: &str,
    a: &Args,
    build: impl FnOnce() -> Result<Corpus, String>,
) -> Result<(PathBuf, Manifest), String> {
    let prefix = format!("{workload}-{}-", a.tag);
    let key = format!("{prefix}{:08x}", executable_crc()?);
    let root = inputs_root();
    let dir = root.join(&key);
    if let Ok(manifest) = Manifest::verify(&dir) {
        return Ok((dir, manifest));
    }
    let io = |e: std::io::Error| format!("{}: {e}", root.display());
    std::fs::create_dir_all(&root).map_err(io)?;
    // What older builds left behind, and a damaged directory of this one.
    for entry in std::fs::read_dir(&root).map_err(io)?.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(&prefix) && (name == key.as_str() || !name.starts_with(&key)) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    let tmp = root.join(format!("{key}.tmp{}", std::process::id()));
    if a.child_gen {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe);
        child
            .args(["generate", "--workload", workload, "--out"])
            .arg(&tmp);
        if a.tag == "smoke" {
            child.arg("--smoke");
        }
        // `status` waits for the child to end.
        let status = child.status().map_err(|e| e.to_string())?;
        if !status.success() {
            let _ = std::fs::remove_dir_all(&tmp);
            return Err(format!("the generator child failed: {status}"));
        }
    } else {
        write_corpus(&tmp, &build()?)?;
    }
    // Publish whole or not at all; a concurrent run may have won the race,
    // in which case its directory is as good as this one.
    if std::fs::rename(&tmp, &dir).is_err() {
        let _ = std::fs::remove_dir_all(&tmp);
    }
    Manifest::verify(&dir).map(|m| (dir, m))
}

/// The text of `dir`'s file `name`.
pub fn read_text(dir: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{}/{name}: {e}", dir.display()))
}

/// The `count` delta batches of a corpus directory, parsed with the
/// program's own parser.
pub fn read_deltas(dir: &Path, count: usize) -> Result<Vec<DeltaBatch>, String> {
    (0..count)
        .map(|i| {
            let text = read_text(dir, &delta_file(i))?;
            Ok(parse_delta_file(&text).map_err(|e| e.to_string())?.batch)
        })
        .collect()
}

/// A run's own scratch directory inside its corpus directory — the query
/// file in the seed's order, the durability directories it writes to.
/// Removed when dropped.
pub struct RunDir(PathBuf);

impl RunDir {
    /// `<corpus>/run-<seed>-<pid>/`, empty.
    pub fn create(corpus: &Path, seed: u64) -> Result<RunDir, String> {
        let dir = corpus.join(format!("run-{seed}-{}", std::process::id()));
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(io)?;
        }
        std::fs::create_dir_all(&dir).map_err(io)?;
        Ok(RunDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Write `lines` as this run's query file and record it in `manifest`.
    pub fn write_queries(&self, lines: &[String], manifest: &mut Manifest) -> Result<(), String> {
        let text = query_file_text(lines);
        manifest.add(QUERY_FILE, text.as_bytes());
        std::fs::write(self.0.join(QUERY_FILE), text)
            .map_err(|e| format!("{}: {e}", self.0.display()))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(512, 1.0);
        let draw = |seed| {
            let mut rng = stream(seed, 9);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5), "same seed, same draws");
        assert_ne!(a, draw(6));
        let mut hist = vec![0usize; 512];
        for &r in &a {
            hist[r] += 1;
        }
        // P(rank 0) = 1/H_512 ≈ 0.147; rank 0 ≈ 2× rank 1 ≈ 10× rank 9.
        let p0 = hist[0] as f64 / a.len() as f64;
        assert!((p0 - 0.147).abs() < 0.01, "{p0}");
        assert!(hist[0] > hist[1] && hist[1] > hist[9] && hist[9] > hist[99]);
        assert!((hist[0] as f64 / hist[9] as f64 - 10.0).abs() < 2.5);
    }

    #[test]
    fn corpus_is_deterministic_and_the_seed_only_orders() {
        let build = || {
            let (g, cands) = anchored_graph(2_000, 24);
            let pool = pattern_pool(&g, &cands, 24);
            let lines: Vec<String> = pool.iter().flatten().map(line_of).collect();
            let reach = reach_lines(&g, 32);
            let (batches, graphs) = delta_stream(&Arc::new(g), 2, 200);
            let mut wire = Vec::new();
            for b in &batches {
                rbq_engine::wire::write_delta_file(&mut wire, b).unwrap();
            }
            (lines, reach, crc32(&wire), graphs[1].edge_count())
        };
        assert_eq!(
            build(),
            build(),
            "the corpus is a function of the scale alone"
        );

        let order = |seed| shuffle_within(100, 100, &mut stream(seed, 4));
        assert_eq!(order(11), order(11), "same seed, same order");
        assert_ne!(order(11), order(12));
        let mut sorted = order(11);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>(), "a permutation");
    }

    #[test]
    fn shuffles_respect_their_blocks() {
        let within = shuffle_within(10, 4, &mut stream(3, 1));
        for (p, &i) in within.iter().enumerate() {
            assert_eq!(p / 4, i / 4, "position {p} holds {i}: left its block");
        }
        // A rotation starts at a block boundary and keeps the cyclic order.
        let rotated = rotate_blocks(10, 4, &mut stream(3, 1));
        assert_eq!(rotated[0] % 4, 0);
        assert!(rotated.windows(2).all(|w| w[1] == (w[0] + 1) % 10));
        assert_eq!(rotated.len(), 10);
        // The sample is a set of corpus operations, wherever they land.
        let positions = sample_positions(&within, &[1, 6]);
        let mut held: Vec<usize> = positions.iter().map(|&p| within[p]).collect();
        held.sort_unstable();
        assert_eq!(held, [1, 6]);
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn corpus_cache_verifies_and_rejects_damage() {
        let a = Args {
            seed: 1,
            seconds: 0.0,
            trace: false,
            sizes: Sizes::smoke(),
            tag: "cachetest",
            child_gen: false,
        };
        let tiny = || {
            let (g, _) = anchored_graph(500, 4);
            let g = Arc::new(g);
            let (deltas, _) = delta_stream(&g, 1, 50);
            Ok(Corpus {
                lines: reach_lines(&g, 8),
                graph: g,
                deltas,
                extras: vec![(BUDGET_FILE, "42\n".into())],
            })
        };
        let (dir, manifest) = ensure_corpus("unit", &a, tiny).unwrap();
        assert_eq!(read_text(&dir, BUDGET_FILE).unwrap(), "42\n");
        assert_eq!(read_deltas(&dir, 1).unwrap()[0].len(), 50);
        assert_eq!(
            query_file_lines(&read_text(&dir, CORPUS_FILE).unwrap()).len(),
            8
        );
        // A second call reuses the directory and never builds.
        let (again, same) = ensure_corpus("unit", &a, || panic!("cached")).unwrap();
        assert_eq!((again.as_path(), &same), (dir.as_path(), &manifest));
        // A run directory lives inside it and cleans up after itself.
        let run = RunDir::create(&dir, 9).unwrap();
        let mut with_queries = manifest.clone();
        run.write_queries(&["r 1 2".to_owned()], &mut with_queries)
            .unwrap();
        assert_ne!(with_queries.digest(), manifest.digest());
        let run_path = run.path().to_owned();
        assert!(run_path.join(QUERY_FILE).exists());
        drop(run);
        assert!(!run_path.exists());
        // A damaged file is noticed and the corpus regenerated.
        std::fs::write(dir.join(BUDGET_FILE), "43\n").unwrap();
        assert!(Manifest::verify(&dir).is_err());
        let (_, rebuilt) = ensure_corpus("unit", &a, tiny).unwrap();
        assert_eq!(rebuilt, manifest);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn anchors_are_unique_labels_and_patterns_are_distinct_keys() {
        let (g, cands) = anchored_graph(2_000, 24);
        assert_eq!(cands.len(), 30);
        for (i, &v) in cands.iter().enumerate() {
            let l = g.labels().get(&format!("U{i}")).expect("anchor label");
            assert_eq!(g.nodes_with_label(l), [v]);
        }
        let pool = pattern_pool(&g, &cands, 24);
        let mut keys = BTreeSet::new();
        for q in pool.iter().flatten() {
            let (Query::PatternSim { pattern } | Query::PatternIso { pattern }) = q else {
                panic!("pool holds only patterns")
            };
            assert_eq!(pattern.node_count(), PATTERN_NODES);
            assert!(pattern.edge_count() <= PATTERN_EDGES && pattern.is_connected());
            assert!(pattern.label_str(pattern.personalized()).starts_with('U'));
            // Satisfiable by construction: the anchor resolves uniquely.
            pattern.resolve(&g).expect("anchored pattern resolves");
            keys.insert((
                canonical_pattern(pattern).1,
                matches!(q, Query::PatternIso { .. }),
            ));
        }
        assert_eq!(keys.len(), 24 * PER_ANCHOR);
    }

    #[test]
    fn delta_stream_keeps_the_mix_and_stays_effective() {
        let (g, _) = anchored_graph(2_000, 8);
        let g = Arc::new(g);
        let (batches, graphs) = delta_stream(&g, 3, 1000);
        let mut churn = 0;
        let mut prev = g.clone();
        for (b, after) in batches.iter().zip(&graphs) {
            assert_eq!(b.len(), 1000);
            let adds = b.added_nodes();
            assert!((20..=90).contains(&adds), "{adds} add-node ops");
            let (_, report) = prev.apply_delta(b).unwrap();
            churn += report.edges_added + report.edges_removed;
            assert_eq!(after.node_count(), prev.node_count() + adds);
            prev = after.clone();
        }
        assert!(churn > 3 * 850, "most edge ops are effective: {churn}");
    }

    #[test]
    fn oracle_sample_takes_first_distinct_per_class() {
        let lines: Vec<String> = [
            "r 1 2", "s a", "r 1 2", "s b", "r 3 4", "s a", "s c", "r 5 6",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(oracle_sample(&lines, 2), [0, 1, 3, 4]);
    }
}
