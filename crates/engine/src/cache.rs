//! A bounded LRU cache of reduction answers keyed by canonical pattern
//! signature — generation-stamped so live updates can never serve a
//! pre-mutation answer.
//!
//! Repeated or isomorphic pattern queries dominate personalized-search
//! traffic (the same templates re-anchored over and over); a `G_Q` answer
//! computed once is valid for as long as the graph does not change.
//! Entries key on the canonical signature *plus* everything else that
//! determines the answer: the resolved personalized match, the matching
//! semantics, the exact per-query budget — and, since delta ingest landed,
//! the **graph generation**. Every applied [`rbq_graph::DeltaBatch`] bumps
//! the engine's generation, so a lookup after a mutation carries a key no
//! pre-mutation insert can collide with: stale answers are unreachable by
//! construction, not by convention.
//!
//! The generation is correctness; [`ReductionCache::clear`] is reclamation.
//! Every entry present when an epoch installs is unreachable for ever, so
//! the install drops them all rather than leaving them to occupy LRU
//! capacity. (Re-keying an entry to the new generation would be unsound
//! whatever labels the delta touched: an edge between two unrelated-labeled
//! nodes can still change ball membership and `r`-neighborhood contents for
//! a pattern that mentions neither endpoint label.) A query that pinned the
//! old epoch and inserts after the clear inserts under its old generation:
//! never served, reclaimed by the next install or by LRU aging.

use crate::Answer;
use rustc_hash::FxHashMap;

/// Everything that determines a cached pattern answer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical pattern signature (see [`crate::canonical`]).
    pub signature: String,
    /// The personalized match `v_p` the pattern resolved to.
    pub vp: u32,
    /// Matching semantics discriminant (0 = simulation, 1 = isomorphism).
    pub semantics: u8,
    /// Per-query size budget `⌊α|G|⌋`.
    pub max_units: usize,
    /// Per-query visit cap, if configured.
    pub visit_cap: Option<usize>,
    /// Graph generation the answer was computed at. Bumped by every
    /// applied delta batch, making pre-mutation entries unreachable.
    pub generation: u64,
}

/// A cached answer plus the canonical visit cost of computing it.
#[derive(Debug, Clone)]
pub struct CachedAnswer {
    /// The answer served on a hit, byte-identical to the cold path.
    pub answer: Answer,
    /// Data units the cold evaluation visited — re-charged on hits so
    /// budget accounting is schedule-independent.
    pub visits: usize,
}

/// Bounded LRU map. Eviction scans for the least-recently-used entry —
/// O(capacity), which is fine for the few-hundred-entry caches the engine
/// runs with and keeps the structure a single flat map.
#[derive(Debug)]
pub struct ReductionCache {
    capacity: usize,
    tick: u64,
    map: FxHashMap<CacheKey, (u64, CachedAnswer)>,
}

impl ReductionCache {
    /// A cache holding at most `capacity` entries; 0 disables caching.
    pub fn new(capacity: usize) -> Self {
        ReductionCache {
            capacity,
            tick: 0,
            map: FxHashMap::default(),
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<CachedAnswer> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        let (stamp, entry) = self.map.get_mut(key)?;
        *stamp = self.tick;
        Some(entry.clone())
    }

    /// Insert `value`, evicting the least-recently-used entry when full.
    pub fn insert(&mut self, key: CacheKey, value: CachedAnswer) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(evict) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&evict);
            }
        }
        self.map.insert(key, (self.tick, value));
    }

    /// Drop every entry. Called when a new epoch installs: the generation
    /// bump has already made all of them unreachable.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sig: &str) -> CacheKey {
        CacheKey {
            signature: sig.to_string(),
            vp: 0,
            semantics: 0,
            max_units: 10,
            visit_cap: None,
            generation: 0,
        }
    }

    fn ans(n: usize) -> CachedAnswer {
        CachedAnswer {
            answer: Answer::Pattern {
                matches: Vec::new(),
                gq_size: n,
                gq_nodes: n,
                hit_budget: false,
            },
            visits: n,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut c = ReductionCache::new(4);
        assert!(c.get(&key("a")).is_none());
        c.insert(key("a"), ans(3));
        let got = c.get(&key("a")).expect("hit");
        assert_eq!(got.visits, 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = ReductionCache::new(2);
        c.insert(key("a"), ans(1));
        c.insert(key("b"), ans(2));
        let _ = c.get(&key("a")); // refresh a; b is now LRU
        c.insert(key("c"), ans(3));
        assert!(c.get(&key("b")).is_none(), "b should have been evicted");
        assert!(c.get(&key("a")).is_some());
        assert!(c.get(&key("c")).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = ReductionCache::new(0);
        c.insert(key("a"), ans(1));
        assert!(c.get(&key("a")).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn budget_distinguishes_keys() {
        let mut c = ReductionCache::new(4);
        c.insert(key("a"), ans(1));
        let mut other = key("a");
        other.max_units = 99;
        assert!(c.get(&other).is_none());
    }

    #[test]
    fn generation_distinguishes_keys() {
        // The satellite guarantee at the cache layer: an entry inserted at
        // generation 0 is invisible to a generation-1 lookup of the
        // otherwise-identical key.
        let mut c = ReductionCache::new(4);
        c.insert(key("a"), ans(1));
        let mut bumped = key("a");
        bumped.generation = 1;
        assert!(c.get(&bumped).is_none());
        assert!(c.get(&key("a")).is_some(), "old generation still keyed");
    }

    #[test]
    fn reinsert_same_key_keeps_len() {
        let mut c = ReductionCache::new(2);
        c.insert(key("a"), ans(1));
        c.insert(key("a"), ans(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key("a")).unwrap().visits, 2);
    }
}
