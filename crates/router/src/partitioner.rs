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

/// The shipped policy: [`stable_hash`]`(label)` scaled into `0..k` by its
/// high bits, `⌊hash · k / 2⁶⁴⌋`.
///
/// Hashing the *string* (not the interned id) keeps the mapping stable
/// across processes and graph builds: the same query text lands on the same
/// replica before and after any delta batch, with nothing to rebuild.
///
/// The high bits, not `hash mod k`: for a label of at most eight bytes the
/// hash is one multiply by an odd constant, so its low bits depend only on
/// the low bits of the first byte, and `mod 2`, `mod 4` or `mod 8` sends
/// every label that starts with the same letter (`U0`, `U1`, …) to one
/// replica.
#[derive(Debug, Clone, Copy, Default)]
pub struct LabelHashPartitioner;

impl Partitioner for LabelHashPartitioner {
    fn shard(&self, label: &str, shards: usize) -> usize {
        ((u128::from(stable_hash(label)) * shards as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// "Stable across processes and graph builds" is the documented contract
    /// (and what keeps the benchmark's `batch-router` routing identical from
    /// one run to the next). Re-recorded on the same rows when the map from
    /// hash to shard moved from `hash mod k` to the hash's high bits.
    #[test]
    fn label_hash_is_pinned() {
        let golden = [
            ("", 8, 0),
            ("ME", 2, 0),
            ("ME", 3, 0),
            ("ME", 1000, 135),
            ("Michael", 3, 2),
            ("Michael", 1000, 721),
            ("CC", 8, 7),
            ("L0", 2, 1),
            ("L0", 1000, 583),
            ("a-label-longer-than-eight-bytes", 1000, 198),
            ("héllo", 1000, 553),
        ];
        for (label, k, want) in golden {
            assert_eq!(LabelHashPartitioner.shard(label, k), want, "{label} k={k}");
        }
    }

    /// Labels that share a first letter and differ in later bytes — the
    /// benchmark's anchors `U0..U767` — spread over every shard. Under
    /// `hash mod k` they all land on one shard at k = 2, 4 and 8.
    #[test]
    fn label_hash_spreads_a_common_prefix() {
        for k in [2usize, 3, 4, 8] {
            let mut load = vec![0usize; k];
            for i in 0..768 {
                load[LabelHashPartitioner.shard(&format!("U{i}"), k)] += 1;
            }
            let max = *load.iter().max().unwrap() as f64;
            let mean = 768.0 / k as f64;
            assert!(load.iter().all(|&n| n > 0), "k={k}: {load:?}");
            assert!(max / mean <= 1.25, "k={k}: {load:?}");
        }
    }
}
