//! Routing policies: which engine replica's cache sees a query.

use rbq_graph::labels::stable_hash;

/// A routing policy: maps a label string to one of `shards` replicas.
///
/// The router calls it with the label of a query's locus (the personalized
/// node of a pattern, the source node of a reachability query) and reduces
/// the result `mod shards`, so an implementation may return any value. It
/// must be a pure function of its arguments: every replica answers every
/// query identically, so the policy decides only cache affinity — and the
/// differential suites substitute adversarial policies through this seam to
/// pin exactly that.
pub trait Partitioner: Sync {
    /// The replica for `label` among `shards` (reduced `mod shards` by the
    /// caller; `shards ≥ 1`).
    fn shard(&self, label: &str, shards: usize) -> usize;
}

/// The shipped policy: [`stable_hash`]`(label) mod k`.
///
/// Hashing the *string* (not the interned id) keeps the mapping stable
/// across processes and graph builds: the same query text lands on the same
/// replica before and after any delta batch, with nothing to rebuild.
#[derive(Debug, Clone, Copy, Default)]
pub struct LabelHashPartitioner;

impl Partitioner for LabelHashPartitioner {
    fn shard(&self, label: &str, shards: usize) -> usize {
        (stable_hash(label) % shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// "Stable across processes and graph builds" is the documented contract
    /// (and what keeps the benchmark's `batch-router` routing identical from
    /// one PR to the next): values recorded from the PR-6 `label_shard`.
    #[test]
    fn label_hash_is_pinned() {
        let golden = [
            ("", 8, 0),
            ("ME", 2, 1),
            ("ME", 3, 2),
            ("ME", 1000, 121),
            ("Michael", 3, 0),
            ("Michael", 1000, 705),
            ("CC", 8, 7),
            ("L0", 2, 0),
            ("L0", 1000, 932),
            ("a-label-longer-than-eight-bytes", 1000, 777),
            ("héllo", 1000, 704),
        ];
        for (label, k, want) in golden {
            assert_eq!(LabelHashPartitioner.shard(label, k), want, "{label} k={k}");
        }
    }
}
