//! Fundamental identifier types shared across the workspace.
//!
//! Node ids and label ids are dense `u32` indices. Using 32-bit ids halves
//! the memory traffic of adjacency arrays relative to `usize` on 64-bit
//! targets, which matters for the big-graph workloads this library targets
//! (see the Rust Performance Book, "Smaller Integers").

use std::fmt;

/// A node identifier: a dense index into a [`crate::Graph`]'s node arrays.
///
/// `NodeId`s are only meaningful relative to the graph that issued them.
/// A [`crate::subgraph::DynamicSubgraph`] shares the parent graph's id space,
/// so ids can be passed between a graph and its subgraphs freely.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize`, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a `usize` index.
    ///
    /// # Panics
    /// Panics if `i` exceeds `u32::MAX`.
    #[inline]
    pub fn new(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "node index overflows u32");
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// A label identifier, interned by [`crate::LabelInterner`].
///
/// Labels model node content: the paper uses them for page content, node
/// attributes, or social-group membership (§2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub u32);

impl Label {
    /// The label id as a `usize`, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a `usize` index.
    #[inline]
    pub fn new(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "label index overflows u32");
        Label(i as u32)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Label {
    #[inline]
    fn from(v: u32) -> Self {
        Label(v)
    }
}

/// Direction of edge traversal.
///
/// The paper's neighborhood notion `N_r(v)` is *undirected* — it includes
/// nodes within `r` hops following edges either way (§2) — while pattern
/// matching distinguishes children ([`Direction::Out`]) from parents
/// ([`Direction::In`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Direction {
    /// Follow edges `v -> w` (children of `v`).
    Out,
    /// Follow edges `w -> v` (parents of `v`).
    In,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn reverse(self) -> Self {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n, NodeId(42));
        assert_eq!(NodeId::from(42u32), n);
    }

    #[test]
    fn label_roundtrip() {
        let l = Label::new(7);
        assert_eq!(l.index(), 7);
        assert_eq!(Label::from(7u32), l);
    }

    #[test]
    fn node_id_debug_display() {
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
        assert_eq!(format!("{}", NodeId(3)), "3");
        assert_eq!(format!("{:?}", Label(9)), "L9");
        assert_eq!(format!("{}", Label(9)), "9");
    }

    #[test]
    fn direction_reverse_is_involution() {
        assert_eq!(Direction::Out.reverse(), Direction::In);
        assert_eq!(Direction::In.reverse(), Direction::Out);
        assert_eq!(Direction::Out.reverse().reverse(), Direction::Out);
    }

    #[test]
    fn node_id_ordering_follows_index() {
        assert!(NodeId(1) < NodeId(2));
        let mut v = vec![NodeId(5), NodeId(1), NodeId(3)];
        v.sort();
        assert_eq!(v, vec![NodeId(1), NodeId(3), NodeId(5)]);
    }
}
