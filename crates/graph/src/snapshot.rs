//! Versioned, checksummed binary snapshots of the compacted CSR graph.
//!
//! A snapshot is the durable twin of [`Graph`]'s in-memory representation:
//! after a one-line ASCII magic (`#rbq-snapshot v1`), the file is a fixed
//! header followed by the label table and the same flat arrays the CSR
//! holds in memory — node labels, out-offsets/targets, in-offsets/targets —
//! written as little-endian `u32`s, then a trailing CRC-32 over everything
//! after the magic line. Laying the file out exactly like the in-memory
//! arrays is deliberate: it is the stepping stone to the ROADMAP's mmap
//! loader (item 5), where these sections will be mapped instead of copied.
//!
//! The loader is serving code: every failure mode is a typed
//! [`SnapshotError`] — bad magic, truncation, checksum mismatch, or a
//! structurally invalid section — never a panic, no matter what bytes are
//! on disk. Writes go through [`crate::io::atomic_write`], so a crash
//! mid-snapshot leaves the previous snapshot intact.
//!
//! The snapshot records the WAL sequence number it covers (see
//! [`crate::wal`]): recovery loads the snapshot and replays only the log
//! records with a later sequence number.

use crate::faultpoint;
use crate::graph::Graph;
use crate::io::atomic_write;
use crate::labels::LabelInterner;
use crate::types::NodeId;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// The one-line ASCII magic every snapshot file starts with. Bump the
/// version when the binary layout changes; the loader rejects files whose
/// magic it does not declare.
const SNAPSHOT_FILE_MAGIC: &str = "#rbq-snapshot v1";

/// Conventional file name of the snapshot inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum used by both
/// the snapshot footer and the per-record WAL checksums. Hand-rolled with a
/// compile-time table: the build environment is offline, so no crc crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Typed failure of snapshot write or load. Corrupt bytes always surface
/// here — the loader never panics on untrusted input.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the snapshot magic line
    /// (`SNAPSHOT_FILE_MAGIC`).
    BadMagic {
        /// What the first line actually was (lossy, truncated).
        found: String,
    },
    /// The file ends before a complete section.
    Truncated {
        /// Which section was being read.
        section: &'static str,
    },
    /// The trailing CRC-32 does not match the file contents.
    ChecksumMismatch {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// A section is internally inconsistent (non-monotone offsets, an
    /// out-of-range node id, trailing bytes, …).
    Malformed {
        /// Which invariant the section violated.
        what: &'static str,
    },
    /// The graph does not fit the `u32` file layout.
    TooLarge {
        /// Which count overflowed.
        what: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic { found } => write!(
                f,
                "snapshot has bad magic {found:?} (expected {SNAPSHOT_FILE_MAGIC:?})"
            ),
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot truncated in section {section}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            SnapshotError::Malformed { what } => write!(f, "snapshot malformed: {what}"),
            SnapshotError::TooLarge { what } => {
                write!(f, "graph too large for snapshot format: {what} exceeds u32")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// What a loaded snapshot declared about itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// WAL sequence number this snapshot covers: recovery replays only log
    /// records with `seq > meta.seq`.
    pub seq: u64,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Distinct label count.
    pub labels: usize,
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn to_u32(v: usize, what: &'static str) -> Result<u32, SnapshotError> {
    u32::try_from(v).map_err(|_| SnapshotError::TooLarge { what })
}

/// Serialize the compacted form of `g` to `path`, recording `seq` as the
/// WAL sequence number the snapshot covers.
///
/// The write is atomic (temp file + rename via [`atomic_write`]): a crash
/// at any point leaves either the old snapshot or the complete new one.
/// Fires the `snapshot.write` fault point before touching the filesystem.
pub fn write_snapshot(g: &Graph, path: &Path, seq: u64) -> Result<(), SnapshotError> {
    faultpoint::fire("snapshot.write");
    // Snapshots always store the overlay-free CSR: the file layout *is* the
    // compacted in-memory layout.
    let compacted;
    let g = if g.is_overlaid() {
        compacted = g.compact();
        &compacted
    } else {
        g
    };
    let n = g.node_count();
    let m = g.edge_count();
    let nl = g.labels().len();
    let mut body = Vec::with_capacity(32 + 4 * (2 * n + 2 * m + n + 2));
    push_u64(&mut body, seq);
    push_u32(&mut body, to_u32(n, "node count")?);
    push_u32(&mut body, to_u32(m, "edge count")?);
    push_u32(&mut body, to_u32(nl, "label count")?);
    for (_, name) in g.labels().iter() {
        push_u32(&mut body, to_u32(name.len(), "label byte length")?);
        body.extend_from_slice(name.as_bytes());
    }
    for v in g.nodes() {
        push_u32(&mut body, g.node_label(v).0);
    }
    let csr = &g.csr;
    for &off in &csr.out_offsets {
        push_u32(&mut body, to_u32(off, "out offset")?);
    }
    for &t in &csr.out_targets {
        push_u32(&mut body, t.0);
    }
    for &off in &csr.in_offsets {
        push_u32(&mut body, to_u32(off, "in offset")?);
    }
    for &t in &csr.in_targets {
        push_u32(&mut body, t.0);
    }
    let crc = crc32(&body);
    atomic_write(path, |w| {
        writeln!(w, "{SNAPSHOT_FILE_MAGIC}")?;
        w.write_all(&body)?;
        w.write_all(&crc.to_le_bytes())
    })?;
    Ok(())
}

/// A bounds-checked little-endian reader over the snapshot body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize, section: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SnapshotError::Truncated { section })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self, section: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, section)?;
        // invariant: `take` returned exactly 4 bytes, so the conversion to
        // a fixed-size array cannot fail.
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self, section: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, section)?;
        // invariant: `take` returned exactly 8 bytes, so the conversion to
        // a fixed-size array cannot fail.
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn u32_vec(&mut self, count: usize, section: &'static str) -> Result<Vec<u32>, SnapshotError> {
        let bytes = self.take(
            count
                .checked_mul(4)
                .ok_or(SnapshotError::Truncated { section })?,
            section,
        )?;
        Ok(bytes
            .chunks_exact(4)
            // invariant: `chunks_exact(4)` yields exactly 4-byte chunks, so
            // the conversion to a fixed-size array cannot fail.
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

/// Validate one offsets array: length `n + 1`, starts at 0, monotone
/// nondecreasing, ends exactly at `m`.
fn check_offsets(
    offsets: &[u32],
    m: usize,
    what: &'static str,
) -> Result<Vec<usize>, SnapshotError> {
    if offsets.first() != Some(&0) {
        return Err(SnapshotError::Malformed { what });
    }
    let mut prev = 0u32;
    for &o in offsets {
        if o < prev {
            return Err(SnapshotError::Malformed { what });
        }
        prev = o;
    }
    if prev as usize != m {
        return Err(SnapshotError::Malformed { what });
    }
    Ok(offsets.iter().map(|&o| o as usize).collect())
}

/// Validate one targets array: every node id in range.
fn check_targets(
    targets: Vec<u32>,
    n: u32,
    what: &'static str,
) -> Result<Vec<NodeId>, SnapshotError> {
    if targets.iter().any(|&t| t >= n) {
        return Err(SnapshotError::Malformed { what });
    }
    Ok(targets.into_iter().map(NodeId).collect())
}

/// Load a snapshot from `path`, returning the graph and its metadata.
///
/// Every validation failure — bad magic, truncation, checksum mismatch,
/// structurally invalid arrays — is a typed [`SnapshotError`]; arbitrary
/// on-disk corruption can never panic the loader or produce a graph that
/// violates CSR invariants. Fires the `snapshot.load` fault point.
pub fn load_snapshot(path: &Path) -> Result<(Graph, SnapshotMeta), SnapshotError> {
    faultpoint::fire("snapshot.load");
    let raw = std::fs::read(path)?;
    let magic_len = SNAPSHOT_FILE_MAGIC.len() + 1; // trailing newline
    let magic_ok = raw.len() >= magic_len
        && &raw[..magic_len - 1] == SNAPSHOT_FILE_MAGIC.as_bytes()
        && raw[magic_len - 1] == b'\n';
    if !magic_ok {
        let first_line = raw.split(|&b| b == b'\n').next().unwrap_or(&[]);
        let shown: Vec<u8> = first_line.iter().copied().take(32).collect();
        return Err(SnapshotError::BadMagic {
            found: String::from_utf8_lossy(&shown).into_owned(),
        });
    }
    let rest = &raw[magic_len..];
    if rest.len() < 4 {
        return Err(SnapshotError::Truncated {
            section: "checksum",
        });
    }
    let (body, crc_bytes) = rest.split_at(rest.len() - 4);
    // invariant: `split_at` produced exactly 4 trailing bytes, so the
    // conversion to a fixed-size array cannot fail.
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    let computed = crc32(body);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let mut c = Cursor {
        bytes: body,
        pos: 0,
    };
    let seq = c.u64("header")?;
    let n = c.u32("header")?;
    let m = c.u32("header")?;
    let nl = c.u32("header")?;
    let mut labels = LabelInterner::new();
    for _ in 0..nl {
        let len = c.u32("label table")? as usize;
        let bytes = c.take(len, "label table")?;
        let name = std::str::from_utf8(bytes).map_err(|_| SnapshotError::Malformed {
            what: "label name is not UTF-8",
        })?;
        labels.intern(name);
    }
    if labels.len() != nl as usize {
        return Err(SnapshotError::Malformed {
            what: "duplicate label names in label table",
        });
    }
    let node_labels_raw = c.u32_vec(n as usize, "node labels")?;
    if node_labels_raw.iter().any(|&l| l >= nl) {
        return Err(SnapshotError::Malformed {
            what: "node label id out of range",
        });
    }
    let node_labels = node_labels_raw
        .into_iter()
        .map(crate::types::Label)
        .collect();
    let out_offsets = check_offsets(
        &c.u32_vec(n as usize + 1, "out offsets")?,
        m as usize,
        "out offsets not a monotone 0..=m partition",
    )?;
    let out_targets = check_targets(
        c.u32_vec(m as usize, "out targets")?,
        n,
        "out target node id out of range",
    )?;
    let in_offsets = check_offsets(
        &c.u32_vec(n as usize + 1, "in offsets")?,
        m as usize,
        "in offsets not a monotone 0..=m partition",
    )?;
    let in_targets = check_targets(
        c.u32_vec(m as usize, "in targets")?,
        n,
        "in target node id out of range",
    )?;
    if c.pos != body.len() {
        return Err(SnapshotError::Malformed {
            what: "trailing bytes after last section",
        });
    }
    let g = Graph::from_parts(
        labels,
        node_labels,
        out_offsets,
        out_targets,
        in_offsets,
        in_targets,
    );
    let meta = SnapshotMeta {
        seq,
        nodes: n as usize,
        edges: m as usize,
        labels: nl as usize,
    };
    Ok((g, meta))
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
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample();
        let path = tmp("roundtrip");
        write_snapshot(&g, &path, 7).unwrap();
        let (g2, meta) = load_snapshot(&path).unwrap();
        assert_eq!(
            meta,
            SnapshotMeta {
                seq: 7,
                nodes: 5,
                edges: 6,
                labels: 3
            }
        );
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
        let (g2, meta) = load_snapshot(&path).unwrap();
        assert_eq!((meta.nodes, meta.edges, meta.labels), (0, 0, 0));
        assert_eq!(g2.node_count(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_is_typed() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"#rbq-other v9\njunk").unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(SnapshotError::BadMagic { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = tmp("missing_never_written");
        assert!(matches!(load_snapshot(&path), Err(SnapshotError::Io(_))));
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
        let magic_len = SNAPSHOT_FILE_MAGIC.len() + 1;
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
            Err(SnapshotError::Malformed { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }
}
