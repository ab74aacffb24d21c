//! Durable-state robustness, feature-independent: snapshot + WAL round
//! trips through the public engine API, and loader hostility — arbitrary
//! corruption of the on-disk bytes (bit flips, truncation, header
//! scribbles) must surface as a typed error or a valid-prefix recovery,
//! never a panic. The crash-injection differential lives in
//! `tests/crash_recovery.rs` (fault-injection feature).

use proptest::prelude::*;
use rbq::rbq_engine::{Durability, DurabilityError, Engine, EngineConfig};
use rbq::rbq_graph::{load_snapshot, snapshot, wal, DeltaBatch, Graph, GraphBuilder, NodeId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per call (tests run in parallel).
fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rbq_durability_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small labelled base graph: a chain with a side branch.
fn base_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = ["A", "B", "C", "D", "E", "F"]
        .iter()
        .map(|l| b.add_node(l))
        .collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1]);
    }
    b.add_edge(ids[0], ids[3]);
    b.build()
}

/// Three batches that add nodes, add edges, and remove one edge.
fn sample_batches() -> Vec<DeltaBatch> {
    let mut b1 = DeltaBatch::new();
    b1.add_node("G");
    b1.add_edge(NodeId(5), NodeId(6));
    let mut b2 = DeltaBatch::new();
    b2.add_node("H");
    b2.add_edge(NodeId(6), NodeId(7));
    b2.remove_edge(NodeId(0), NodeId(3));
    let mut b3 = DeltaBatch::new();
    b3.add_edge(NodeId(7), NodeId(0));
    vec![b1, b2, b3]
}

/// Canonical signature for graph equality: labels in id order plus the
/// sorted edge list (insensitive to overlay vs compacted representation).
fn graph_sig(g: &Graph) -> (Vec<String>, Vec<(u32, u32)>) {
    let labels = g
        .nodes()
        .map(|v| g.node_label_str(v).to_owned())
        .collect::<Vec<_>>();
    let mut edges = g.edges().map(|(u, v)| (u.0, v.0)).collect::<Vec<_>>();
    edges.sort_unstable();
    (labels, edges)
}

/// The expected state after applying the first `k` batches plainly.
fn apply_prefix(base: &Graph, batches: &[DeltaBatch], k: usize) -> Graph {
    let mut g = base.clone();
    for b in &batches[..k] {
        g = g.apply_delta(b).expect("sample batch applies").0;
    }
    g
}

/// Seed a durable directory: snapshot of the base graph at seq 0 plus one
/// WAL record per sample batch. Returns the directory.
fn seeded_state(tag: &str) -> (PathBuf, Graph, Vec<DeltaBatch>) {
    let dir = fresh_dir(tag);
    let g = base_graph();
    let batches = sample_batches();
    let mut d = Durability::create(&dir, &g).expect("create durable state");
    for b in &batches {
        d.append(b).expect("append batch");
    }
    (dir, g, batches)
}

#[test]
fn engine_durable_roundtrip_matches_plain_apply() {
    let dir = fresh_dir("roundtrip");
    let g = base_graph();
    let batches = sample_batches();

    let engine = Engine::new(std::sync::Arc::new(g.clone()), EngineConfig::default());
    engine.enable_durability(&dir).expect("enable durability");
    assert!(engine.durability_enabled());
    for b in &batches {
        engine.apply_deltas(b).expect("durable apply");
    }
    drop(engine);

    let (recovered, report) =
        Engine::recover(&dir, EngineConfig::default()).expect("recover after clean shutdown");
    assert_eq!(report.snapshot_seq, 0);
    assert_eq!(report.replayed, batches.len());
    assert_eq!(report.last_seq, batches.len() as u64);
    assert!(!report.torn_tail);
    assert_eq!(report.quarantined, 0);
    let expected = apply_prefix(&g, &batches, batches.len());
    assert_eq!(graph_sig(&recovered.graph()), graph_sig(&expected));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_wal_truncation_recovers_a_valid_prefix() {
    let (dir, g, batches) = seeded_state("trunc");
    let wal_path = dir.join(wal::WAL_FILE);
    let full = std::fs::read(&wal_path).expect("read wal");
    let magic_len = wal::WAL_FILE_MAGIC.len() + 1;
    // Record boundaries: offsets at which the log holds exactly N complete
    // records. A cut at a boundary is a legitimately shorter log; a cut
    // anywhere else is a torn tail.
    let mut boundaries = vec![magic_len];
    let mut p = magic_len;
    while p + 8 <= full.len() {
        // invariant: the loop condition guarantees 4 bytes from `p`.
        let len = u32::from_le_bytes(full[p..p + 4].try_into().unwrap()) as usize;
        p += 8 + len;
        boundaries.push(p);
    }
    for cut in magic_len..full.len() {
        std::fs::write(&wal_path, &full[..cut]).expect("truncate wal");
        let (rg, _d, report) = Durability::recover(&dir).expect("truncated WAL must recover");
        let k = report.last_seq as usize;
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(k, complete, "cut {cut}: wrong surviving prefix");
        assert_eq!(
            report.torn_tail,
            !boundaries.contains(&cut),
            "cut {cut}: torn-tail misreported"
        );
        let expected = apply_prefix(&g, &batches, k);
        assert_eq!(graph_sig(&rg), graph_sig(&expected), "cut {cut}");
        // Recovery rewrites the log to the valid prefix; restore the full
        // log for the next iteration.
        std::fs::write(&wal_path, &full).expect("restore wal");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn header_scribbles_are_typed_errors() {
    let (dir, _g, _batches) = seeded_state("hdr");
    // Snapshot magic replaced: BadMagic, typed.
    let snap_path = dir.join(snapshot::SNAPSHOT_FILE);
    let good = std::fs::read(&snap_path).expect("read snapshot");
    let mut bad = good.clone();
    bad[..4].copy_from_slice(b"#bad");
    std::fs::write(&snap_path, &bad).expect("scribble snapshot");
    match Durability::recover(&dir) {
        Err(DurabilityError::Snapshot(e)) => {
            assert!(matches!(e, rbq::rbq_graph::SnapshotError::BadMagic { .. }));
        }
        other => panic!("scribbled snapshot magic not typed: {other:?}"),
    }
    std::fs::write(&snap_path, &good).expect("restore snapshot");

    // WAL magic replaced: BadMagic through the Wal variant.
    let wal_path = dir.join(wal::WAL_FILE);
    let good_wal = std::fs::read(&wal_path).expect("read wal");
    let mut bad_wal = good_wal.clone();
    bad_wal[..4].copy_from_slice(b"#bad");
    std::fs::write(&wal_path, &bad_wal).expect("scribble wal");
    match Durability::recover(&dir) {
        Err(DurabilityError::Wal(e)) => {
            assert!(matches!(e, rbq::rbq_graph::WalError::BadMagic { .. }));
        }
        other => panic!("scribbled WAL magic not typed: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_snapshot_is_a_typed_error() {
    let dir = fresh_dir("missing");
    std::fs::create_dir_all(&dir).expect("mkdir");
    assert!(matches!(
        Durability::recover(&dir),
        Err(DurabilityError::Snapshot(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_alone_serves_without_a_wal() {
    let dir = fresh_dir("snaponly");
    let g = base_graph();
    write_state_snapshot_only(&dir, &g);
    let (rg, _d, report) = Durability::recover(&dir).expect("snapshot-only recovery");
    assert_eq!(report.replayed, 0);
    assert_eq!(graph_sig(&rg), graph_sig(&g));
    let _ = std::fs::remove_dir_all(&dir);
}

fn write_state_snapshot_only(dir: &std::path::Path, g: &Graph) {
    std::fs::create_dir_all(dir).expect("mkdir");
    rbq::rbq_graph::write_snapshot(g, &dir.join(snapshot::SNAPSHOT_FILE), 0)
        .expect("write snapshot");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Hostile loader input: flip one bit, truncate to an arbitrary
    /// length, or scribble over an arbitrary span of either durable file,
    /// then drive the full recovery path. The contract: recovery either
    /// returns a typed error or a state equal to some valid prefix of the
    /// logged batches — and it never panics (checked structurally: any
    /// panic would abort this test).
    #[test]
    fn corrupted_state_never_panics_and_prefixes_hold(
        target_wal in proptest::bool::ANY,
        mode in 0usize..3,
        pos in 0usize..8192,
        bit in 0u32..8,
        span in 1usize..16,
        fill in 0usize..256,
    ) {
        let fill = fill as u8;
        let (dir, g, batches) = seeded_state("prop");
        let path = if target_wal {
            dir.join(wal::WAL_FILE)
        } else {
            dir.join(snapshot::SNAPSHOT_FILE)
        };
        let mut bytes = std::fs::read(&path).expect("read state file");
        let len = bytes.len();
        prop_assume!(len > 0);
        match mode {
            0 => bytes[pos % len] ^= 1u8 << bit,
            1 => bytes.truncate(pos % len),
            _ => {
                let start = pos % len;
                let end = (start + span).min(len);
                for b in &mut bytes[start..end] {
                    *b = fill;
                }
            }
        }
        std::fs::write(&path, &bytes).expect("write corrupted file");

        match Durability::recover(&dir) {
            Ok((rg, _d, report)) => {
                let k = report.last_seq as usize;
                prop_assert!(k <= batches.len(), "impossible prefix {k}");
                let expected = apply_prefix(&g, &batches, k);
                prop_assert_eq!(graph_sig(&rg), graph_sig(&expected));
            }
            Err(e) => {
                // Typed rejection — render it to prove Display is total.
                let _ = e.to_string();
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Same hostility against the raw snapshot loader: a snapshot that
    /// loads after corruption must be byte-identical to the original
    /// graph (the CRC makes silent misloads effectively impossible).
    #[test]
    fn snapshot_loader_rejects_or_roundtrips(
        pos in 0usize..8192,
        bit in 0u32..8,
    ) {
        let dir = fresh_dir("snapflip");
        let g = base_graph();
        write_state_snapshot_only(&dir, &g);
        let path = dir.join(snapshot::SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).expect("read snapshot");
        let len = bytes.len();
        bytes[pos % len] ^= 1u8 << bit;
        std::fs::write(&path, &bytes).expect("write corrupted snapshot");
        match load_snapshot(&path) {
            Ok((lg, meta)) => {
                // Only a flip that the CRC cannot see could load — and
                // then the content must still match exactly.
                prop_assert_eq!(meta.seq, 0);
                prop_assert_eq!(graph_sig(&lg), graph_sig(&g));
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
