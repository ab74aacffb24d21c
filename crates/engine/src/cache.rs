//! The reduction cache: what a repeated pattern query costs the engine.
//!
//! Repeated or isomorphic pattern queries dominate personalized-search
//! traffic (the same templates re-anchored over and over); a `G_Q` answer
//! computed once is valid for as long as the graph does not change. A
//! repeat should therefore cost a probe, not a canonicalisation, and
//! [`ReductionCache`] holds the two maps that make it so, behind the
//! engine's one cache mutex:
//!
//! * the **memo**: raw pattern bytes ([`crate::canonical::encode_raw`]) →
//!   the shared [`Canonical`] form. It is a function of the query alone,
//!   so it survives graph updates; only a memo miss pays for
//!   canonicalisation ([`Canonical::of`], on the worker's reused buffers).
//! * the **answers**: [`CacheKey`] → [`CachedAnswer`]. The key is the
//!   canonical form *plus* everything else that determines the answer —
//!   the matching semantics, the exact per-query budget, and the **graph
//!   generation**. Every applied [`rbq_graph::DeltaBatch`] bumps the
//!   engine's generation, so a lookup after a mutation carries a key no
//!   pre-mutation insert can collide with: stale answers are unreachable
//!   by construction, not by convention. (The personalized match `v_p` is
//!   a function of canonical form and generation, so it is not in the key
//!   and a hit never resolves labels.)
//!
//! Both are the same [`Lru`] at the same capacity: a slab of entries
//! threaded on an intrusive recency list, indexed by one hash map. Lookup,
//! refresh, insert and eviction are O(1) whatever the capacity.
//!
//! The generation is correctness; [`ReductionCache::advance`] is
//! reclamation. Every answer present when an epoch installs is unreachable
//! for ever, so the install drops them all rather than leaving them to
//! occupy LRU capacity. (Re-keying an entry to the new generation would be
//! unsound whatever labels the delta touched: an edge between two
//! unrelated-labeled nodes can still change ball membership and
//! `r`-neighborhood contents for a pattern that mentions neither endpoint
//! label.) The cache remembers the live generation, and an insert from a
//! query that pinned a superseded epoch — equally unreachable — is dropped
//! on arrival instead of evicting a live entry.

use crate::canonical::Canonical;
use crate::Answer;
use rustc_hash::FxHashMap;
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Everything that determines a cached pattern answer.
#[derive(Debug, Clone)]
pub(crate) struct CacheKey {
    /// The query's canonical form (see [`crate::canonical`]).
    pub(crate) canon: Arc<Canonical>,
    /// Matching semantics discriminant (0 = simulation, 1 = isomorphism).
    pub(crate) semantics: u8,
    /// Per-query size budget `⌊α|G|⌋`.
    pub(crate) max_units: usize,
    /// Graph generation the answer was computed at. Bumped by every
    /// applied delta batch, making pre-mutation entries unreachable.
    pub(crate) generation: u64,
}

impl PartialEq for CacheKey {
    /// Keys built from one memo entry share the `Arc`; isomorphic twins
    /// arrive with distinct ones and meet at the signature.
    fn eq(&self, other: &Self) -> bool {
        self.generation == other.generation
            && self.semantics == other.semantics
            && self.max_units == other.max_units
            && (Arc::ptr_eq(&self.canon, &other.canon)
                || self.canon.signature == other.canon.signature)
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canon.sig_hash.hash(state);
        self.semantics.hash(state);
        self.max_units.hash(state);
        self.generation.hash(state);
    }
}

/// A cached answer plus the canonical visit cost of computing it.
#[derive(Debug, Clone)]
pub(crate) struct CachedAnswer {
    /// The answer served on a hit, byte-identical to the cold path.
    pub(crate) answer: Answer,
    /// Data units the cold evaluation visited — re-charged on hits so
    /// budget accounting is schedule-independent.
    pub(crate) visits: usize,
}

/// End-of-list marker for [`Lru`]'s links; capacities are clamped below it.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// Towards the most recently used entry.
    prev: u32,
    /// Towards the least recently used entry.
    next: u32,
}

/// Bounded least-recently-used map with O(1) lookup, refresh, insert and
/// eviction. Entries live in a slab threaded on a doubly linked recency
/// list (`head` = most recent, `tail` = next to evict); `map` finds a
/// key's slot. A full map reuses the tail's slot in place, so the slab
/// never exceeds `capacity` and needs no free list. Keys are stored twice
/// (map and slot — eviction must name the key it removes), so `K` should
/// be cheap to clone.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    capacity: usize,
    map: FxHashMap<K, u32>,
    slots: Vec<Slot<K, V>>,
    head: u32,
    tail: u32,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// A map holding at most `capacity` entries; 0 disables it.
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            capacity: capacity.min(NIL as usize),
            map: FxHashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Look up `key`, making it the most recently used entry on a hit.
    pub(crate) fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = *self.map.get(key)?;
        self.touch(i);
        Some(&self.slots[i as usize].value)
    }

    /// Insert or replace `key`'s value as the most recently used entry,
    /// evicting the least recently used one when full.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i as usize].value = value;
            self.touch(i);
            return;
        }
        let i = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            (self.slots.len() - 1) as u32
        } else {
            let i = self.tail;
            self.unlink(i);
            let slot = &mut self.slots[i as usize];
            let evicted = std::mem::replace(&mut slot.key, key.clone());
            slot.value = value;
            self.map.remove(&evicted);
            i
        };
        self.push_front(i);
        self.map.insert(key, i);
    }

    /// Drop every entry.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old = std::mem::replace(&mut self.head, i);
        let slot = &mut self.slots[i as usize];
        slot.prev = NIL;
        slot.next = old;
        match old {
            NIL => self.tail = i,
            o => self.slots[o as usize].prev = i,
        }
    }
}

/// The engine's cache state: the canonical-form memo and the answer map
/// (see the module docs), plus the generation the engine is serving.
#[derive(Debug)]
pub(crate) struct ReductionCache {
    live: u64,
    memo: Lru<Arc<[u8]>, Arc<Canonical>>,
    answers: Lru<CacheKey, CachedAnswer>,
}

impl ReductionCache {
    /// A cache of at most `capacity` answers and as many memoised
    /// canonical forms; 0 disables both.
    pub(crate) fn new(capacity: usize) -> Self {
        ReductionCache {
            live: 0,
            memo: Lru::new(capacity),
            answers: Lru::new(capacity),
        }
    }

    /// The canonical form remembered for the raw pattern bytes `raw`.
    pub(crate) fn canonical(&mut self, raw: &[u8]) -> Option<Arc<Canonical>> {
        self.memo.get(raw).map(Arc::clone)
    }

    /// Remember `canon` as the canonical form of `raw`.
    pub(crate) fn remember(&mut self, raw: &[u8], canon: Arc<Canonical>) {
        if self.memo.capacity > 0 {
            self.memo.insert(raw.into(), canon);
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<&CachedAnswer> {
        self.answers.get(key)
    }

    /// Insert `value`, evicting the least-recently-used answer when full.
    /// An answer computed on a superseded generation is dropped: no lookup
    /// can reach it, and admitting it could evict one that is reachable.
    pub(crate) fn insert(&mut self, key: CacheKey, value: CachedAnswer) {
        if key.generation >= self.live {
            self.answers.insert(key, value);
        }
    }

    /// A new epoch installed at `generation`: drop every answer (all are
    /// now unreachable) and refuse late inserts from older generations.
    /// The memo is a function of the query alone and is kept.
    pub(crate) fn advance(&mut self, generation: u64) {
        self.live = generation;
        self.answers.clear();
    }

    /// Answers currently cached.
    pub(crate) fn len(&self) -> usize {
        self.answers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rbq_pattern::PatternBuilder;

    /// The cache this module had before [`Lru`]: recency as a stamp per
    /// entry, eviction as an O(capacity) scan for the least stamp. Stamps
    /// are unique, so "least stamp" and "list tail" name the same entry —
    /// the differential test below holds the two to that.
    struct StampCache {
        capacity: usize,
        tick: u64,
        map: FxHashMap<CacheKey, (u64, CachedAnswer)>,
    }

    impl StampCache {
        fn new(capacity: usize) -> Self {
            StampCache {
                capacity,
                tick: 0,
                map: FxHashMap::default(),
            }
        }

        fn get(&mut self, key: &CacheKey) -> Option<CachedAnswer> {
            if self.capacity == 0 {
                return None;
            }
            self.tick += 1;
            let (stamp, entry) = self.map.get_mut(key)?;
            *stamp = self.tick;
            Some(entry.clone())
        }

        fn insert(&mut self, key: CacheKey, value: CachedAnswer) {
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

        fn clear(&mut self) {
            self.map.clear();
        }
    }

    /// A one-node pattern labelled `sig`: distinct labels, distinct
    /// signatures.
    fn canon(sig: &str) -> Arc<Canonical> {
        let mut b = PatternBuilder::new();
        let x = b.add_node(sig);
        b.personalized(x).output(x);
        Arc::new(Canonical::of(&b.build(), &mut Default::default()))
    }

    fn key(sig: &str) -> CacheKey {
        CacheKey {
            canon: canon(sig),
            semantics: 0,
            max_units: 10,
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
        assert_eq!(c.len(), 0);
        c.remember(b"raw", canon("a"));
        assert!(c.canonical(b"raw").is_none());
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

    #[test]
    fn advance_drops_answers_keeps_memo_and_refuses_late_inserts() {
        let mut c = ReductionCache::new(2);
        c.remember(b"raw", canon("a"));
        c.insert(key("a"), ans(1));
        c.advance(1);
        assert_eq!(c.len(), 0);
        assert!(c.canonical(b"raw").is_some(), "the memo outlives the epoch");

        let live = |sig| CacheKey {
            generation: 1,
            ..key(sig)
        };
        c.insert(live("x"), ans(1));
        c.insert(live("y"), ans(2));
        c.insert(key("late"), ans(3)); // generation 0: computed on a dead epoch
        assert_eq!(c.len(), 2);
        assert!(c.get(&live("x")).is_some(), "a dead insert evicted nothing");
        assert!(c.get(&live("y")).is_some());
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(usize, u64),
        Insert(usize, u64),
        Advance,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        // Generations are offsets below the live one: 0 = live, 1 = the
        // epoch just superseded.
        let op = (0..10u32, 0..12usize, 0..2u64).prop_map(|(kind, k, back)| match kind {
            0 => Op::Advance,
            1..=4 => Op::Get(k, back),
            _ => Op::Insert(k, back),
        });
        proptest::collection::vec(op, 0..200)
    }

    proptest! {
        /// `Lru` against its predecessor: the same hits, the same values,
        /// the same length and the same surviving keys after every step.
        /// The late-insert rule is applied to the reference from outside,
        /// so it stays the old code verbatim.
        #[test]
        fn lru_matches_stamp_scan_reference(ops in ops()) {
            let sigs: Vec<String> = (0..12).map(|i| format!("s{i}")).collect();
            let canons: Vec<Arc<Canonical>> = sigs.iter().map(|s| canon(s)).collect();
            for capacity in [0usize, 1, 2, 7] {
                let mut new = ReductionCache::new(capacity);
                let mut old = StampCache::new(capacity);
                let mut live = 0u64;
                let key = |k: usize, back: u64, live: u64| CacheKey {
                    // Alternate between the shared Arc and a twin that is
                    // equal only by signature.
                    canon: if k.is_multiple_of(2) { canons[k].clone() } else { canon(&sigs[k]) },
                    semantics: 0,
                    max_units: 10,
                            generation: live.saturating_sub(back),
                };
                for (step, op) in ops.iter().enumerate() {
                    match *op {
                        Op::Advance => {
                            live += 1;
                            new.advance(live);
                            old.clear();
                        }
                        Op::Get(k, back) => {
                            let key = key(k, back, live);
                            let got = new.get(&key).map(|a| a.visits);
                            prop_assert_eq!(got, old.get(&key).map(|a| a.visits));
                        }
                        Op::Insert(k, back) => {
                            let key = key(k, back, live);
                            new.insert(key.clone(), ans(step));
                            if key.generation >= live {
                                old.insert(key, ans(step));
                            }
                        }
                    }
                    prop_assert_eq!(new.len(), old.map.len());
                    prop_assert!(new.len() <= capacity);
                    for slot in &new.answers.slots {
                        prop_assert!(old.map.contains_key(&slot.key));
                    }
                }
            }
        }
    }
}
