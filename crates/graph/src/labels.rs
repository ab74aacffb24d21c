//! String-label interning.
//!
//! Data graphs carry textual node labels ("CC", "HG", "CL" in the paper's
//! Fig. 1). All algorithms compare labels by dense [`Label`] id; the
//! interner owns the id ↔ string bijection.

use crate::types::Label;
use rustc_hash::{FxHashMap, FxHasher};
use std::hash::Hasher;

/// Stable 64-bit hash of a label **string** (`FxHasher` over its bytes).
///
/// Unlike a [`Label`] id it does not depend on interning order, so it is
/// the same across processes, graph builds and delta batches — what a
/// router needs to send the same query text to the same replica forever.
pub fn stable_hash(name: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    h.finish()
}

/// Interns label strings to dense [`Label`] ids.
///
/// Lookup by string is hash-based; lookup by id is an array index. The
/// interner is append-only: once issued, an id never changes meaning.
#[derive(Debug, Default, Clone)]
pub struct LabelInterner {
    by_name: FxHashMap<String, Label>,
    names: Vec<String>,
}

impl LabelInterner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its id. Idempotent.
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(&l) = self.by_name.get(name) {
            return l;
        }
        let l = Label::new(self.names.len());
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), l);
        l
    }

    /// Resolve a previously interned `name` without inserting.
    pub fn get(&self, name: &str) -> Option<Label> {
        self.by_name.get(name).copied()
    }

    /// The string for label id `l`.
    ///
    /// # Panics
    /// Panics if `l` was not issued by this interner.
    pub fn name(&self, l: Label) -> &str {
        &self.names[l.index()]
    }

    /// Number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(Label, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &str)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (Label::new(i), s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut it = LabelInterner::new();
        let a = it.intern("CC");
        let b = it.intern("CC");
        assert_eq!(a, b);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let mut it = LabelInterner::new();
        let a = it.intern("CC");
        let b = it.intern("HG");
        let c = it.intern("CL");
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut it = LabelInterner::new();
        assert_eq!(it.intern("x"), Label(0));
        assert_eq!(it.intern("y"), Label(1));
        assert_eq!(it.intern("x"), Label(0));
        assert_eq!(it.intern("z"), Label(2));
    }

    #[test]
    fn name_roundtrip() {
        let mut it = LabelInterner::new();
        let l = it.intern("Michael");
        assert_eq!(it.name(l), "Michael");
        assert_eq!(it.get("Michael"), Some(l));
        assert_eq!(it.get("Eric"), None);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut it = LabelInterner::new();
        it.intern("a");
        it.intern("b");
        let pairs: Vec<_> = it.iter().map(|(l, s)| (l.index(), s.to_owned())).collect();
        assert_eq!(pairs, vec![(0, "a".to_owned()), (1, "b".to_owned())]);
    }

    #[test]
    fn empty_interner() {
        let it = LabelInterner::new();
        assert!(it.is_empty());
        assert_eq!(it.len(), 0);
    }
}
