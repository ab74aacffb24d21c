//! [`Stamps`]: a dense map over keys `0..len` that forgets every key in
//! O(1) — the one epoch-stamp primitive under the ball BFS's visited set
//! and `G_Q`'s membership table.
//!
//! Key `i` is present iff `stamp[i] == epoch`; its value sits at `value[i]`.
//! [`Stamps::reset`] bumps the epoch, so every stamp written before it
//! reads stale. Stale marks can never read as live because the epoch is
//! always ≥ 1, fresh slots are 0, removal writes 0, and on the wrap at
//! `u32::MAX` every stamp is zeroed before the epoch restarts at 1.

/// A dense `0..len → V` map with O(1) forget-all. See the [module
/// docs](self).
///
/// ```
/// use rbq_graph::Stamps;
/// let mut seen: Stamps<u32> = Stamps::default();
/// seen.reset(4);
/// assert!(seen.insert(2, 7));
/// assert!(!seen.insert(2, 8));
/// assert_eq!(seen.get(2), Some(8));
/// seen.reset(4);
/// assert!(!seen.contains(2));
/// ```
#[derive(Debug, Clone)]
pub struct Stamps<V = ()> {
    stamp: Vec<u32>,
    value: Vec<V>,
    epoch: u32,
}

impl<V> Default for Stamps<V> {
    fn default() -> Self {
        Stamps {
            stamp: Vec::new(),
            value: Vec::new(),
            epoch: 1,
        }
    }
}

impl<V: Copy + Default> Stamps<V> {
    /// Forget every key and make `0..len` addressable. A table that grows
    /// gets fresh `vec![0; len]` arrays — `calloc`, so the OS faults in
    /// only the pages later probes touch.
    pub fn reset(&mut self, len: usize) {
        if len > self.stamp.len() {
            self.stamp = vec![0; len];
            self.value = vec![V::default(); len];
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Whether `i` is present; keys past the table read absent.
    // rbq-lint: hot
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.stamp.get(i).is_some_and(|&s| s == self.epoch)
    }

    /// The value of `i`, if present.
    // rbq-lint: hot
    #[inline]
    pub fn get(&self, i: usize) -> Option<V> {
        self.contains(i).then(|| self.value[i])
    }

    /// Set `i` to `v`; `true` iff `i` was absent. A key past the table
    /// grows it, keeping every key already present.
    // rbq-lint: hot
    #[inline]
    pub fn insert(&mut self, i: usize, v: V) -> bool {
        if i >= self.stamp.len() {
            self.stamp.resize(i + 1, 0);
            self.value.resize(i + 1, V::default());
        }
        let newly = self.stamp[i] != self.epoch;
        self.stamp[i] = self.epoch;
        self.value[i] = v;
        newly
    }

    /// Drop `i`, if present.
    // rbq-lint: hot
    #[inline]
    pub fn remove(&mut self, i: usize) {
        if let Some(s) = self.stamp.get_mut(i) {
            *s = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_slots_read_absent() {
        let mut s: Stamps<u32> = Stamps::default();
        assert!(!s.contains(0));
        s.reset(8);
        assert!((0..10).all(|i| !s.contains(i) && s.get(i).is_none()));
    }

    #[test]
    fn insert_reports_first_sight_within_an_epoch() {
        let mut s: Stamps<u32> = Stamps::default();
        s.reset(4);
        assert!(s.insert(1, 10));
        assert!(!s.insert(1, 11));
        assert_eq!(s.get(1), Some(11));
        s.reset(4);
        assert!(s.insert(1, 12));
    }

    #[test]
    fn remove_drops_one_key() {
        let mut s: Stamps<u32> = Stamps::default();
        s.reset(4);
        s.insert(1, 5);
        s.insert(2, 6);
        s.remove(1);
        s.remove(9); // past the table: a no-op
        assert!(!s.contains(1));
        assert_eq!(s.get(2), Some(6));
        assert!(s.insert(1, 7));
    }

    #[test]
    fn reset_forgets_everything_with_or_without_growth() {
        let mut s: Stamps<bool> = Stamps::default();
        s.reset(4);
        for i in 0..4 {
            s.insert(i, true);
        }
        s.reset(4);
        assert!((0..4).all(|i| !s.contains(i)));
        for i in 0..4 {
            s.insert(i, true);
        }
        s.reset(16);
        assert!((0..16).all(|i| !s.contains(i)));
        // A smaller length keeps the larger table addressable.
        s.insert(12, false);
        s.reset(2);
        assert!(!s.contains(12));
    }

    #[test]
    fn insert_growth_keeps_present_keys_and_values() {
        let mut s: Stamps<u32> = Stamps::default();
        s.reset(2);
        s.insert(0, 3);
        s.insert(1, 4);
        assert!(s.insert(100, 5));
        assert_eq!(
            (s.get(0), s.get(1), s.get(100)),
            (Some(3), Some(4), Some(5))
        );
        assert!((2..100).all(|i| !s.contains(i)));
        // Growth from an empty, never-reset table.
        let mut e: Stamps = Stamps::default();
        assert!(e.insert(3, ()));
        assert!(!e.contains(2) && e.contains(3));
    }

    #[test]
    fn epoch_wrap_never_aliases_stale_marks() {
        for grow in [false, true] {
            let mut s: Stamps<u32> = Stamps::default();
            s.reset(4);
            s.epoch = 1;
            s.insert(2, 9); // stamped 1, the epoch the wrap restarts at
            s.epoch = u32::MAX - 1; // as if 2^32 - 3 resets had passed
            s.insert(0, 1);
            s.reset(4);
            assert_eq!(s.epoch, u32::MAX);
            s.insert(1, 2);
            // The wrap: epoch 1 again. Key 2's stamp 1 and the fresh
            // slots of a growing table must all read absent.
            s.reset(if grow { 64 } else { 4 });
            assert_eq!(s.epoch, 1, "grow {grow}");
            assert!((0..s.stamp.len()).all(|i| !s.contains(i)), "grow {grow}");
            assert!(s.insert(2, 3));
            s.reset(4);
            assert!(!s.contains(2), "grow {grow}");
        }
    }
}
