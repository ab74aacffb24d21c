//! Durable serving state: snapshot checkpoints plus a write-ahead log.
//!
//! A durability directory holds exactly two artifacts:
//!
//! | file           | format                        | role                         |
//! |----------------|-------------------------------|------------------------------|
//! | `snapshot.bin` | [`rbq_graph::snapshot`] `v1`  | checkpoint of the CSR graph  |
//! | `wal.log`      | [`rbq_graph::wal`] `v1`       | delta batches since checkpoint |
//!
//! The contract [`crate::Engine::apply_deltas`] upholds when durability is
//! enabled: a batch is appended to the WAL **and fsynced before the epoch
//! swap**, so no query can ever observe state that would not survive a
//! crash. When an apply triggers the compaction heuristic (the graph
//! crate's churn threshold), the compacted graph is written as a new
//! snapshot and the log is rotated — both atomically, and in an order
//! (snapshot first, rotate second) that is crash-safe at every
//! intermediate point because recovery skips WAL records the snapshot
//! already covers.
//!
//! Recovery ([`Durability::recover`], surfaced as `Engine::recover`) is:
//! load snapshot → replay the WAL's valid prefix → serve. A torn tail or
//! corrupt record stops the replay at the last trustworthy batch; the
//! surviving prefix serves and the damaged suffix is quarantined by an
//! immediate re-checkpoint.

use rbq_graph::delta::{DeltaBatch, DeltaError};
use rbq_graph::snapshot::{load_snapshot, write_snapshot, SnapshotError, SNAPSHOT_FILE};
use rbq_graph::wal::{replay, WalError, WalWriter, WAL_FILE};
use rbq_graph::Graph;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Typed failure of any durability operation.
#[derive(Debug)]
pub enum DurabilityError {
    /// Snapshot write or load failed.
    Snapshot(SnapshotError),
    /// WAL create, append, fsync, or replay failed.
    Wal(WalError),
    /// Directory creation or other filesystem bookkeeping failed.
    Io(io::Error),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Snapshot(e) => write!(f, "{e}"),
            DurabilityError::Wal(e) => write!(f, "{e}"),
            DurabilityError::Io(e) => write!(f, "durability i/o error: {e}"),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Snapshot(e) => Some(e),
            DurabilityError::Wal(e) => Some(e),
            DurabilityError::Io(e) => Some(e),
        }
    }
}

impl From<SnapshotError> for DurabilityError {
    fn from(e: SnapshotError) -> Self {
        DurabilityError::Snapshot(e)
    }
}

impl From<WalError> for DurabilityError {
    fn from(e: WalError) -> Self {
        DurabilityError::Wal(e)
    }
}

impl From<io::Error> for DurabilityError {
    fn from(e: io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

/// Failure of a durable [`crate::Engine::apply_deltas`]: either the batch
/// itself was malformed, or persisting it failed. In both cases nothing
/// was installed — the engine keeps serving the pre-batch epoch.
///
/// One exception is documented on [`crate::Engine::apply_deltas`]: a
/// checkpoint failure *after* a successful append surfaces here even
/// though the batch is durable and installed.
#[derive(Debug)]
pub enum ApplyError {
    /// The batch was rejected by the graph layer (e.g. an out-of-range
    /// edge); nothing was written or installed.
    Delta(DeltaError),
    /// Persisting failed; see [`DurabilityError`].
    Durability(DurabilityError),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Delta(e) => write!(f, "{e}"),
            ApplyError::Durability(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ApplyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApplyError::Delta(e) => Some(e),
            ApplyError::Durability(e) => Some(e),
        }
    }
}

impl From<DeltaError> for ApplyError {
    fn from(e: DeltaError) -> Self {
        ApplyError::Delta(e)
    }
}

impl From<DurabilityError> for ApplyError {
    fn from(e: DurabilityError) -> Self {
        ApplyError::Durability(e)
    }
}

/// What a recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL sequence number the loaded snapshot covered.
    pub snapshot_seq: u64,
    /// WAL batches applied on top of the snapshot.
    pub replayed: usize,
    /// WAL batches skipped because the snapshot already covered them
    /// (a crash between checkpoint and log rotation leaves such records).
    pub skipped: usize,
    /// Whether the WAL ended mid-record (crash during an append).
    pub torn_tail: bool,
    /// WAL records quarantined: CRC/structure corruption plus any record
    /// the graph layer rejected on replay. Everything after the first
    /// such record is dropped and the directory is re-checkpointed.
    pub quarantined: usize,
    /// Sequence number of the last batch the recovered state includes.
    pub last_seq: u64,
    /// Node count of the recovered graph.
    pub nodes: usize,
    /// Edge count of the recovered graph.
    pub edges: usize,
}

/// Live durability state for one engine: the directory plus the open WAL
/// appender. Constructed by [`Durability::create`] (fresh directory) or
/// [`Durability::recover`] (existing one).
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    wal: WalWriter,
}

impl Durability {
    /// Initialize `dir` with a snapshot of `g` (sequence 0) and a fresh,
    /// empty WAL whose first append is sequence 1. Replaces any previous
    /// contents atomically.
    pub fn create(dir: &Path, g: &Graph) -> Result<Durability, DurabilityError> {
        std::fs::create_dir_all(dir)?;
        write_snapshot(g, &dir.join(SNAPSHOT_FILE), 0)?;
        let wal = WalWriter::create(&dir.join(WAL_FILE), 1)?;
        Ok(Durability {
            dir: dir.to_path_buf(),
            wal,
        })
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append `batch` to the WAL and fsync. Returns the durable sequence
    /// number. On error the writer is poisoned (see
    /// [`rbq_graph::wal::WalWriter::append`]) and the caller must not
    /// install the batch.
    pub fn append(&mut self, batch: &DeltaBatch) -> Result<u64, DurabilityError> {
        Ok(self.wal.append(batch)?)
    }

    /// Checkpoint: write `g` as the new snapshot covering everything
    /// appended so far, then rotate in a fresh WAL.
    ///
    /// Both steps are atomic file replacements, and their order makes any
    /// crash point safe: after the snapshot lands but before the rotation,
    /// recovery loads the new snapshot and *skips* the old WAL's
    /// now-covered records by sequence number.
    pub fn checkpoint(&mut self, g: &Graph) -> Result<(), DurabilityError> {
        let covered = self.wal.next_seq().saturating_sub(1);
        write_snapshot(g, &self.dir.join(SNAPSHOT_FILE), covered)?;
        self.wal = WalWriter::create(&self.dir.join(WAL_FILE), covered + 1)?;
        Ok(())
    }

    /// Recover the serving state from `dir`: load the snapshot, replay the
    /// WAL's valid prefix on top of it, and return the graph, a live
    /// [`Durability`] ready for further appends, and a report.
    ///
    /// Damage tolerated (prefix keeps serving, suffix quarantined by a
    /// re-checkpoint): a torn WAL tail, a corrupt WAL record, a missing
    /// WAL file. Damage that fails recovery (typed, never a panic): a
    /// missing or corrupt snapshot, a WAL with the wrong magic.
    pub fn recover(dir: &Path) -> Result<(Graph, Durability, RecoveryReport), DurabilityError> {
        let (mut g, meta) = load_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let wal_path = dir.join(WAL_FILE);
        let wal_replay = match replay(&wal_path) {
            Ok(r) => Some(r),
            // A missing WAL is the crash-between-checkpoint-and-rotation
            // shape (or manual cleanup): the snapshot alone is the state.
            Err(WalError::Io(e)) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let (batches, torn_tail, mut quarantined) = match &wal_replay {
            Some(r) => (r.batches.as_slice(), r.torn_tail, r.quarantined),
            None => (&[][..], false, 0),
        };
        let mut replayed = 0usize;
        let mut skipped = 0usize;
        let mut last_seq = meta.seq;
        for (seq, batch) in batches {
            if *seq <= meta.seq {
                skipped += 1;
                continue;
            }
            match g.apply_delta(batch) {
                Ok((g2, _)) => {
                    g = g2;
                    replayed += 1;
                    last_seq = *seq;
                }
                Err(_) => {
                    // A CRC-valid record the graph layer rejects means the
                    // log and snapshot disagree; trust the applied prefix
                    // and quarantine the rest.
                    quarantined += 1;
                    break;
                }
            }
        }
        let mut d = Durability {
            dir: dir.to_path_buf(),
            wal: match &wal_replay {
                Some(r) if !r.torn_tail && r.quarantined == 0 && quarantined == 0 => {
                    WalWriter::open_after_replay(&wal_path, r, last_seq + 1)?
                }
                // Damaged or missing log: a fresh one is installed by the
                // checkpoint below (or here, for the missing-WAL case).
                _ => WalWriter::create(&wal_path, last_seq + 1)?,
            },
        };
        if torn_tail || quarantined > 0 {
            // Quarantine the damaged suffix: everything recovered is
            // folded into a new snapshot so the next crash replays none
            // of the untrusted bytes.
            d.checkpoint(&g)?;
        }
        let report = RecoveryReport {
            snapshot_seq: meta.seq,
            replayed,
            skipped,
            torn_tail,
            quarantined,
            last_seq,
            nodes: g.node_count(),
            edges: g.edge_count(),
        };
        Ok((g, d, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::builder::graph_from_edges;
    use rbq_graph::NodeId;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rbq_dur_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn base() -> Graph {
        graph_from_edges(&["A", "B", "C"], &[(0, 1), (1, 2)])
    }

    fn batch_add(u: u32, v: u32) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        b.add_edge(NodeId(u), NodeId(v));
        b
    }

    #[test]
    fn create_append_recover_roundtrip() {
        let dir = tmpdir("roundtrip");
        let g = base();
        let mut d = Durability::create(&dir, &g).unwrap();
        assert_eq!(d.append(&batch_add(2, 0)).unwrap(), 1);
        assert_eq!(d.append(&batch_add(0, 2)).unwrap(), 2);
        drop(d);
        let (g2, _d2, report) = Durability::recover(&dir).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(report.last_seq, 2);
        assert!(!report.torn_tail);
        assert_eq!(report.quarantined, 0);
        assert_eq!(g2.edge_count(), 4);
        assert!(g2.edge(NodeId(2), NodeId(0)));
        assert!(g2.edge(NodeId(0), NodeId(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_continues_sequence_numbers() {
        let dir = tmpdir("seq");
        let mut d = Durability::create(&dir, &base()).unwrap();
        d.append(&batch_add(2, 0)).unwrap();
        drop(d);
        let (_g, mut d2, report) = Durability::recover(&dir).unwrap();
        assert_eq!(report.last_seq, 1);
        assert_eq!(d2.append(&batch_add(0, 2)).unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_then_recover_skips_covered_records() {
        let dir = tmpdir("ckpt");
        let g = base();
        let mut d = Durability::create(&dir, &g).unwrap();
        d.append(&batch_add(2, 0)).unwrap();
        let (g1, _) = g.apply_delta(&batch_add(2, 0)).unwrap();
        d.checkpoint(&g1).unwrap();
        d.append(&batch_add(0, 2)).unwrap();
        drop(d);
        let (g2, _d2, report) = Durability::recover(&dir).unwrap();
        assert_eq!(report.snapshot_seq, 1);
        assert_eq!(report.replayed, 1);
        assert_eq!(report.last_seq, 2);
        assert_eq!(g2.edge_count(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_checkpoint_and_rotation_is_safe() {
        // Simulate: snapshot written at seq 2, but the old WAL (records
        // 1..=2) survives un-rotated. Recovery must skip both records.
        let dir = tmpdir("unrotated");
        let g = base();
        let mut d = Durability::create(&dir, &g).unwrap();
        d.append(&batch_add(2, 0)).unwrap();
        d.append(&batch_add(0, 2)).unwrap();
        let g2 = {
            let (a, _) = g.apply_delta(&batch_add(2, 0)).unwrap();
            let (b, _) = a.apply_delta(&batch_add(0, 2)).unwrap();
            b
        };
        // Write the checkpoint snapshot by hand, skipping the rotation.
        write_snapshot(&g2, &dir.join(SNAPSHOT_FILE), 2).unwrap();
        drop(d);
        let (g3, _d, report) = Durability::recover(&dir).unwrap();
        assert_eq!(report.snapshot_seq, 2);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.replayed, 0);
        assert_eq!(g3.edge_count(), g2.edge_count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_recovers_prefix_and_requarantines() {
        let dir = tmpdir("torn");
        let mut d = Durability::create(&dir, &base()).unwrap();
        d.append(&batch_add(2, 0)).unwrap();
        drop(d);
        // Crash mid-append: garbage half-record at the tail.
        let wal_path = dir.join(WAL_FILE);
        let mut raw = std::fs::read(&wal_path).unwrap();
        raw.extend_from_slice(&[42, 0, 0, 0, 1]);
        std::fs::write(&wal_path, &raw).unwrap();
        let (g2, _d2, report) = Durability::recover(&dir).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.replayed, 1);
        assert!(g2.edge(NodeId(2), NodeId(0)));
        // The re-checkpoint quarantined the damage: a second recovery is
        // clean and serves the same state.
        let (g3, _d3, report2) = Durability::recover(&dir).unwrap();
        assert!(!report2.torn_tail);
        assert_eq!(report2.quarantined, 0);
        assert_eq!(report2.snapshot_seq, 1);
        assert_eq!(g3.edge_count(), g2.edge_count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_wal_serves_snapshot_alone() {
        let dir = tmpdir("nowal");
        let mut d = Durability::create(&dir, &base()).unwrap();
        d.append(&batch_add(2, 0)).unwrap();
        drop(d);
        std::fs::remove_file(dir.join(WAL_FILE)).unwrap();
        let (g2, mut d2, report) = Durability::recover(&dir).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.last_seq, 0);
        assert_eq!(g2.edge_count(), 2);
        // Appends continue from the snapshot's sequence.
        assert_eq!(d2.append(&batch_add(2, 0)).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_is_typed_error() {
        let dir = tmpdir("nosnap");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            Durability::recover(&dir),
            Err(DurabilityError::Snapshot(SnapshotError::Io(_)))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
