//! Durable-state robustness, feature-independent: snapshot + WAL round
//! trips through the public engine API, and loader hostility — arbitrary
//! corruption of the on-disk bytes (bit flips, truncation, header
//! scribbles) must surface as a typed error or a valid-prefix recovery,
//! never a panic. The crash-injection differentials live in
//! `tests/crash_recovery.rs` and `tests/model.rs` (fault-injection feature).

mod support;

use proptest::prelude::*;
use rbq::rbq_engine::{Durability, Engine, EngineConfig};
use rbq::rbq_graph::{codec, load_snapshot, snapshot, wal, DeltaBatch, FormatError, Graph};
use std::path::PathBuf;
use std::sync::Arc;
use support::{fresh_dir, graph_sig, prefix_graph, sample_batches, tiny_graph};

/// Seed a durable directory: snapshot of the tiny base graph at seq 0 plus
/// one WAL record per sample batch (node and edge adds, edge removes).
fn seeded_state(tag: &str) -> (PathBuf, Arc<Graph>, Vec<DeltaBatch>) {
    let dir = fresh_dir(tag);
    let g = tiny_graph();
    let batches = sample_batches(g.node_count() as u32);
    let mut d = Durability::create(&dir, &g).expect("create durable state");
    for b in &batches {
        d.append(b).expect("append batch");
    }
    (dir, g, batches)
}

#[test]
fn engine_durable_roundtrip_matches_plain_apply() {
    let dir = fresh_dir("roundtrip");
    let g = tiny_graph();
    let batches = sample_batches(g.node_count() as u32);

    let engine = Engine::new(g.clone(), EngineConfig::default());
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
    let expected = prefix_graph(&g, &batches, batches.len());
    assert_eq!(graph_sig(&recovered.graph()), graph_sig(&expected));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_wal_truncation_recovers_a_valid_prefix() {
    let (dir, g, batches) = seeded_state("trunc");
    let wal_path = dir.join(wal::WAL_FILE);
    let full = std::fs::read(&wal_path).expect("read wal");
    let magic_len = codec::WAL.magic.len() + 1;
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
        let expected = prefix_graph(&g, &batches, k);
        assert_eq!(graph_sig(&rg), graph_sig(&expected), "cut {cut}");
        // A torn tail makes recovery re-checkpoint and replace the log;
        // restore the full log for the next iteration.
        std::fs::write(&wal_path, &full).expect("restore wal");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn header_scribbles_are_typed_errors() {
    let (dir, _g, _batches) = seeded_state("hdr");
    // Either file's magic replaced: `BadMagic`, typed, naming its format.
    for file in [snapshot::SNAPSHOT_FILE, wal::WAL_FILE] {
        let path = dir.join(file);
        let good = std::fs::read(&path).expect("read state file");
        let mut bad = good.clone();
        bad[..4].copy_from_slice(b"#bad");
        std::fs::write(&path, &bad).expect("scribble");
        let got = Durability::recover(&dir);
        let format = if file == wal::WAL_FILE {
            codec::WAL
        } else {
            codec::SNAPSHOT
        };
        let typed = matches!(&got, Err(FormatError::BadMagic { expected, .. })
            if *expected == format.magic);
        assert!(typed, "scribbled {file} magic not typed: {got:?}");
        std::fs::write(&path, &good).expect("restore");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_snapshot_is_a_typed_error() {
    let dir = fresh_dir("missing");
    std::fs::create_dir_all(&dir).expect("mkdir");
    assert!(matches!(
        Durability::recover(&dir),
        Err(FormatError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_alone_serves_without_a_wal() {
    let dir = fresh_dir("snaponly");
    let g = tiny_graph();
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
        at in 0.0f64..1.0,
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
        // Every byte is reachable, the CRC trailer included.
        let pos = (at * len as f64) as usize;
        match mode {
            0 => bytes[pos] ^= 1u8 << bit,
            1 => bytes.truncate(pos),
            _ => {
                let start = pos;
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
                let expected = prefix_graph(&g, &batches, k);
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
        at in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let dir = fresh_dir("snapflip");
        let g = tiny_graph();
        write_state_snapshot_only(&dir, &g);
        let path = dir.join(snapshot::SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).expect("read snapshot");
        let pos = (at * bytes.len() as f64) as usize;
        bytes[pos] ^= 1u8 << bit;
        std::fs::write(&path, &bytes).expect("write corrupted snapshot");
        match load_snapshot(&path) {
            Ok((lg, seq)) => {
                // Only a flip that the CRC cannot see could load — and
                // then the content must still match exactly.
                prop_assert_eq!(seq, 0);
                prop_assert_eq!(graph_sig(&lg), graph_sig(&g));
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
