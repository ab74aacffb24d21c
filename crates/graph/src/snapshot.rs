//! Versioned, checksummed binary snapshots of the compacted CSR graph.
//!
//! A snapshot is the durable twin of [`Graph`]'s in-memory representation.
//! Its magic line is the [`codec::SNAPSHOT`] row (`#rbq-snapshot v1`);
//! after it come the sections below, all little-endian, sealed by the
//! codec's CRC-32 trailer over everything after the magic line:
//!
//! ```text
//! header       u64 WAL seq covered, u32 node count n, edge count m, label count L
//! label table  L × (u32 byte length + UTF-8 name)
//! node labels  n × u32 label id
//! out offsets  (n + 1) × u32, then out targets m × u32 node id
//! in offsets   (n + 1) × u32, then in targets  m × u32 node id
//! ```
//!
//! The sections are the flat arrays the CSR holds in memory, deliberately:
//! it is the stepping stone to the ROADMAP's mmap loader (item 5), where
//! they will be mapped instead of copied.
//!
//! The loader is serving code: every failure is a typed [`FormatError`] —
//! bad magic, truncation, checksum mismatch, or a structurally invalid
//! section — never a panic, no matter what bytes are on disk. Writes go
//! through [`crate::io::atomic_write`], so a crash mid-snapshot leaves the
//! previous snapshot intact.
//!
//! The header records the WAL sequence number the snapshot covers (see
//! [`crate::wal`]): recovery loads the snapshot and replays only the log
//! records with a later sequence number.

use crate::codec::{self, unseal, FormatError, Reader, Writer};
use crate::faultpoint::{self, Point};
use crate::graph::Graph;
use crate::io::atomic_write;
use crate::labels::LabelInterner;
use crate::types::{Label, NodeId};
use std::io::Write;
use std::path::Path;

pub use crate::codec::crc32;

/// Conventional file name of the snapshot inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Serialize the compacted form of `g` to `path`, recording `seq` as the
/// WAL sequence number the snapshot covers.
///
/// The write is atomic (temp file + rename via [`atomic_write`]): a crash
/// at any point leaves either the old snapshot or the complete new one.
/// Fires the `snapshot.write` fault point before touching the filesystem.
pub fn write_snapshot(g: &Graph, path: &Path, seq: u64) -> Result<(), FormatError> {
    faultpoint::fire(Point::SnapshotWrite);
    // Snapshots always store the overlay-free CSR: the file layout *is* the
    // compacted in-memory layout.
    let compacted;
    let g = if g.is_overlaid() {
        compacted = g.compact();
        &compacted
    } else {
        g
    };
    let (n, m) = (g.node_count(), g.edge_count());
    let mut w = Writer::file(&codec::SNAPSHOT, 32 + 4 * (2 * n + 2 * m + n + 2));
    w.u64(seq);
    w.count(n, "node count")?;
    w.count(m, "edge count")?;
    w.count(g.labels().len(), "label count")?;
    for (_, name) in g.labels().iter() {
        w.str(name, "label byte length")?;
    }
    for v in g.nodes() {
        w.u32(g.node_label(v).0);
    }
    let csr = &g.csr;
    for (offsets, targets) in [
        (&csr.out_offsets, &csr.out_targets),
        (&csr.in_offsets, &csr.in_targets),
    ] {
        for &off in offsets {
            w.count(off, "offset")?;
        }
        for &t in targets {
            w.u32(t.0);
        }
    }
    let bytes = w.seal();
    atomic_write(path, |f| f.write_all(&bytes))?;
    Ok(())
}

/// Read one direction of the CSR: `n + 1` offsets that start at 0, never
/// decrease and end at `m`, then `m` target ids below `n`.
fn adjacency(
    r: &mut Reader,
    n: u32,
    m: usize,
    section: &'static str,
) -> Result<(Vec<usize>, Vec<NodeId>), FormatError> {
    let partition = FormatError::Malformed {
        what: "offsets not a monotone 0..=m partition",
    };
    let raw = r.u32s(n as usize + 1, section)?;
    let mut offsets: Vec<usize> = Vec::with_capacity(raw.len());
    for o in raw {
        if offsets.last().map_or(o != 0, |&p| (o as usize) < p) {
            return Err(partition);
        }
        offsets.push(o as usize);
    }
    if offsets.last() != Some(&m) {
        return Err(partition);
    }
    let targets = ids(r, m, n, section, "target node id out of range", NodeId)?;
    Ok((offsets, targets))
}

/// Read `count` ids, each below `bound`, into an exactly sized vector.
fn ids<T>(
    r: &mut Reader,
    count: usize,
    bound: u32,
    section: &'static str,
    what: &'static str,
    id: fn(u32) -> T,
) -> Result<Vec<T>, FormatError> {
    let raw = r.u32s(count, section)?;
    let mut out = Vec::with_capacity(raw.len());
    for i in raw {
        if i >= bound {
            return Err(FormatError::Malformed { what });
        }
        out.push(id(i));
    }
    Ok(out)
}

/// Load a snapshot from `path`, returning the graph and the WAL sequence
/// number it covers.
///
/// Every validation failure — bad magic, truncation, checksum mismatch,
/// structurally invalid arrays — is a typed [`FormatError`]; arbitrary
/// on-disk corruption can never panic the loader or produce a graph that
/// violates CSR invariants. Fires the `snapshot.load` fault point.
pub fn load_snapshot(path: &Path) -> Result<(Graph, u64), FormatError> {
    faultpoint::fire(Point::SnapshotLoad);
    let raw = std::fs::read(path)?;
    let mut r = Reader::new(unseal(codec::SNAPSHOT.split(&raw)?)?);
    let seq = r.u64("header")?;
    let n = r.u32("header")?;
    let m = r.u32("header")? as usize;
    let nl = r.u32("header")?;
    let mut labels = LabelInterner::new();
    for _ in 0..nl {
        labels.intern(r.str("label table")?);
    }
    if labels.len() != nl as usize {
        return Err(FormatError::Malformed {
            what: "duplicate label names in label table",
        });
    }
    let node_labels = ids(
        &mut r,
        n as usize,
        nl,
        "node labels",
        "node label id out of range",
        Label,
    )?;
    let (out_offsets, out_targets) = adjacency(&mut r, n, m, "out adjacency")?;
    let (in_offsets, in_targets) = adjacency(&mut r, n, m, "in adjacency")?;
    r.finish()?;
    let g = Graph::from_parts(
        labels,
        node_labels,
        out_offsets,
        out_targets,
        in_offsets,
        in_targets,
    );
    Ok((g, seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::delta::DeltaBatch;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rbq_snap_{tag}_{}.bin", std::process::id()))
    }

    fn sample() -> Graph {
        graph_from_edges(
            &["A", "B", "A", "C", "B"],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 3)],
        )
    }

    fn assert_same_graph(a: &Graph, b: &Graph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for v in a.nodes() {
            assert_eq!(a.node_label_str(v), b.node_label_str(v));
            assert_eq!(a.out(v), b.out(v));
            assert_eq!(a.inn(v), b.inn(v));
        }
        for l in (0..a.labels().len() as u32).map(crate::types::Label) {
            assert_eq!(a.nodes_with_label(l), b.nodes_with_label(l));
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample();
        let path = tmp("roundtrip");
        write_snapshot(&g, &path, 7).unwrap();
        let (g2, seq) = load_snapshot(&path).unwrap();
        assert_eq!(seq, 7);
        assert_same_graph(&g, &g2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn overlaid_graph_snapshots_its_compaction() {
        let g = sample();
        let mut d = DeltaBatch::new();
        d.add_node("D");
        d.add_edge(NodeId(5), NodeId(0));
        d.remove_edge(NodeId(0), NodeId(1));
        let (g2, _) = g.apply_delta(&d).unwrap();
        assert!(g2.is_overlaid());
        let path = tmp("overlaid");
        write_snapshot(&g2, &path, 1).unwrap();
        let (g3, _) = load_snapshot(&path).unwrap();
        assert!(!g3.is_overlaid());
        assert_same_graph(&g2.compact(), &g3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = crate::builder::GraphBuilder::new().build();
        let path = tmp("empty");
        write_snapshot(&g, &path, 0).unwrap();
        let (g2, seq) = load_snapshot(&path).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(
            (g2.node_count(), g2.edge_count(), g2.labels().len()),
            (0, 0, 0)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_is_typed() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"#rbq-other v9\njunk").unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(FormatError::BadMagic { expected, .. }) if expected == codec::SNAPSHOT.magic
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = tmp("missing_never_written");
        assert!(matches!(load_snapshot(&path), Err(FormatError::Io(_))));
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let g = sample();
        let path = tmp("flip");
        write_snapshot(&g, &path, 3).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Exhaustive over the whole (small) file: flipping any one bit of
        // any byte must yield a typed error, never a panic and never a
        // silently-different graph.
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x40;
            let mpath = tmp("flip_mut");
            std::fs::write(&mpath, &mutated).unwrap();
            assert!(
                load_snapshot(&mpath).is_err(),
                "flip at byte {i} was not detected"
            );
            let _ = std::fs::remove_file(&mpath);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let g = sample();
        let path = tmp("trunc");
        write_snapshot(&g, &path, 3).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for len in 0..bytes.len() {
            let mpath = tmp("trunc_mut");
            std::fs::write(&mpath, &bytes[..len]).unwrap();
            assert!(
                load_snapshot(&mpath).is_err(),
                "truncation to {len} bytes was not detected"
            );
            let _ = std::fs::remove_file(&mpath);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn structural_corruption_with_fixed_crc_is_rejected() {
        // Even an attacker who fixes up the CRC cannot smuggle an invalid
        // CSR past the loader: out-of-range target ids are typed errors.
        let g = sample();
        let path = tmp("structural");
        write_snapshot(&g, &path, 0).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let magic_len = codec::SNAPSHOT.magic.len() + 1;
        // Body layout: seq u64, n u32, m u32, L u32, labels…; poke the
        // first out-target (after labels + node_labels + out_offsets) to an
        // absurd id, then recompute the CRC so only validation can catch it.
        let body_start = magic_len;
        let body_end = bytes.len() - 4;
        // Walk to the out-targets section.
        let n = 5usize;
        let label_bytes: usize = ["A", "B", "C"].iter().map(|s| 4 + s.len()).sum();
        let off = 8 + 12 + label_bytes + 4 * n + 4 * (n + 1);
        bytes[body_start + off..body_start + off + 4].copy_from_slice(&999u32.to_le_bytes());
        let crc = crc32(&bytes[body_start..body_end]);
        let crc_pos = body_end;
        bytes[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(FormatError::Malformed { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }
}
