//! Strongly connected components (Tarjan, iterative).
//!
//! SCC condensation is the first step of the query-preserving compression
//! used before reachability indexing (§5 "Preprocessing", citing Fan et al.
//! SIGMOD 2012): collapsing each SCC to a single node preserves the answer
//! to every reachability query.

use crate::graph::Graph;
use crate::types::NodeId;

/// The SCC partition of a graph.
#[derive(Debug, Clone)]
pub struct SccPartition {
    /// `comp[v] = id` of the component containing node `v`.
    pub comp: Vec<u32>,
    /// Number of components. Component ids are `0..count` and are a
    /// **reverse topological** numbering: if SCC `a` has an edge to SCC `b`
    /// (a ≠ b), then `comp id of a > comp id of b`.
    pub count: usize,
}

impl SccPartition {
    /// Component id of `v`.
    #[inline]
    pub fn component_of(&self, v: NodeId) -> u32 {
        self.comp[v.index()]
    }

    /// Group nodes by component: `groups[c]` lists the members of SCC `c`.
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut groups = vec![Vec::new(); self.count];
        for (i, &c) in self.comp.iter().enumerate() {
            groups[c as usize].push(NodeId::new(i));
        }
        groups
    }

    /// Whether `u` and `v` are in the same SCC (mutually reachable).
    pub fn same(&self, u: NodeId, v: NodeId) -> bool {
        self.comp[u.index()] == self.comp[v.index()]
    }
}

/// Tarjan's SCC algorithm, fully iterative (safe for million-node graphs).
pub fn tarjan_scc(g: &Graph) -> SccPartition {
    scc_with(g, |_, _| {})
}

/// [`tarjan_scc`], calling `on_component(members, out)` as each component
/// completes — in id order, so in reverse topological order: `members` are
/// its nodes, and `out` the ids of the components its members' edges
/// leave to, once per such edge, in no particular order.
///
/// This is Pearce's one-array form of Tarjan's walk: `rindex` holds a
/// node's discovery index (0 = unvisited) while it is open and its
/// component's rank from the top (`n` for the first) once finished, and
/// only nodes not yet known to be component roots wait on the stack. It
/// visits nodes, finds roots and completes components in exactly Tarjan's
/// order, so the ids are Tarjan's.
///
/// An edge found leading to a finished node leaves the open node's
/// component; an edge to an open node stays inside it. Such edges are
/// pushed on one stack as the walk meets them, and a component's are the
/// ones pushed since its root was discovered: components nested below it
/// completed, and took theirs, first.
pub(crate) fn scc_with(g: &Graph, mut on_component: impl FnMut(&[u32], &[u32])) -> SccPartition {
    let n = g.node_count() as u32;
    let mut rindex = vec![0u32; n as usize];
    let mut index = 1u32;
    // The next finished component's rindex. Open indices stay at or below
    // it, finished ones above: `index` falls back as nodes finish.
    let mut next = n;
    let mut stack: Vec<u32> = Vec::new();
    let mut leaving: Vec<u32> = Vec::new();
    // Work stack frames: node, next-child cursor, whether it may still
    // root a component, and `leaving`'s length when it was discovered.
    let mut work: Vec<(u32, usize, bool, usize)> = Vec::new();

    for root in 0..n {
        if rindex[root as usize] != 0 {
            continue;
        }
        rindex[root as usize] = index;
        index += 1;
        work.push((root, 0, true, 0));

        while let Some(&mut (v, ref mut cursor, ref mut is_root, mark)) = work.last_mut() {
            if let Some(&w) = g.out(NodeId(v)).get(*cursor) {
                *cursor += 1;
                let rw = rindex[w.index()];
                if rw == 0 {
                    rindex[w.index()] = index;
                    index += 1;
                    work.push((w.0, 0, true, leaving.len()));
                } else if rw > next {
                    leaving.push(n - rw);
                } else if rw < rindex[v as usize] {
                    rindex[v as usize] = rw;
                    *is_root = false;
                }
                continue;
            }
            let is_root = *is_root;
            work.pop();
            let rv = rindex[v as usize];
            if !is_root {
                stack.push(v);
                // invariant: a tree's first node roots its component (no
                // open node precedes it), so a non-root has a parent frame.
                let parent = work.last_mut().expect("a non-root has a parent");
                if rv < rindex[parent.0 as usize] {
                    rindex[parent.0 as usize] = rv;
                    parent.2 = false;
                }
                continue;
            }
            // `v` roots a component: it and the nodes above its discovery
            // on the stack.
            let mut start = stack.len();
            while start > 0 && rv <= rindex[stack[start - 1] as usize] {
                start -= 1;
            }
            stack.push(v);
            for &w in &stack[start..] {
                rindex[w as usize] = next;
            }
            index -= (stack.len() - start) as u32;
            on_component(&stack[start..], &leaving[mark..]);
            stack.truncate(start);
            leaving.truncate(mark);
            if !work.is_empty() {
                leaving.push(n - next);
            }
            next -= 1;
        }
    }

    for r in rindex.iter_mut() {
        *r = n - *r;
    }
    SccPartition {
        comp: rindex,
        count: (n - next) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn dag_has_singleton_components() {
        let g = graph_from_edges(&["A"; 4], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let p = tarjan_scc(&g);
        assert_eq!(p.count, 4);
        let mut ids: Vec<_> = p.comp.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn cycle_collapses() {
        let g = graph_from_edges(&["A"; 3], &[(0, 1), (1, 2), (2, 0)]);
        let p = tarjan_scc(&g);
        assert_eq!(p.count, 1);
        assert!(p.same(NodeId(0), NodeId(2)));
    }

    #[test]
    fn two_cycles_with_bridge() {
        // {0,1} cycle -> {2,3} cycle
        let g = graph_from_edges(&["A"; 4], &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let p = tarjan_scc(&g);
        assert_eq!(p.count, 2);
        assert!(p.same(NodeId(0), NodeId(1)));
        assert!(p.same(NodeId(2), NodeId(3)));
        assert!(!p.same(NodeId(0), NodeId(2)));
        // Reverse topological numbering: source SCC gets the larger id.
        assert!(p.component_of(NodeId(0)) > p.component_of(NodeId(2)));
    }

    #[test]
    fn reverse_topological_numbering_on_chain() {
        let g = graph_from_edges(&["A"; 3], &[(0, 1), (1, 2)]);
        let p = tarjan_scc(&g);
        assert!(p.component_of(NodeId(0)) > p.component_of(NodeId(1)));
        assert!(p.component_of(NodeId(1)) > p.component_of(NodeId(2)));
    }

    #[test]
    fn self_loop_is_its_own_scc() {
        let g = graph_from_edges(&["A"; 2], &[(0, 0), (0, 1)]);
        let p = tarjan_scc(&g);
        assert_eq!(p.count, 2);
        assert!(!p.same(NodeId(0), NodeId(1)));
    }

    #[test]
    fn groups_partition_all_nodes() {
        let g = graph_from_edges(&["A"; 5], &[(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)]);
        let p = tarjan_scc(&g);
        let groups = p.groups();
        let total: usize = groups.iter().map(|grp| grp.len()).sum();
        assert_eq!(total, 5);
        assert_eq!(p.count, 2);
        assert!(groups.iter().any(|grp| grp.len() == 2));
        assert!(groups.iter().any(|grp| grp.len() == 3));
    }

    #[test]
    fn empty_graph() {
        let g = graph_from_edges(&[], &[]);
        let p = tarjan_scc(&g);
        assert_eq!(p.count, 0);
    }

    /// Tarjan's walk with separate index, lowlink and on-stack arrays,
    /// as this module first wrote it.
    fn tarjan_reference(g: &Graph) -> SccPartition {
        const UNVISITED: u32 = u32::MAX;
        let n = g.node_count();
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut comp = vec![UNVISITED; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut count = 0u32;
        let mut work: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if index[root as usize] != UNVISITED {
                continue;
            }
            work.push((root, 0));
            index[root as usize] = next_index;
            lowlink[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;
            while let Some(&mut (v, ref mut cursor)) = work.last_mut() {
                let adj = g.out(NodeId(v));
                if *cursor < adj.len() {
                    let w = adj[*cursor].0;
                    *cursor += 1;
                    if index[w as usize] == UNVISITED {
                        index[w as usize] = next_index;
                        lowlink[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        work.push((w, 0));
                    } else if on_stack[w as usize] {
                        lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                    }
                } else {
                    work.pop();
                    if let Some(&(parent, _)) = work.last() {
                        lowlink[parent as usize] =
                            lowlink[parent as usize].min(lowlink[v as usize]);
                    }
                    if lowlink[v as usize] == index[v as usize] {
                        loop {
                            let w = stack.pop().unwrap();
                            on_stack[w as usize] = false;
                            comp[w as usize] = count;
                            if w == v {
                                break;
                            }
                        }
                        count += 1;
                    }
                }
            }
        }
        SccPartition {
            comp,
            count: count as usize,
        }
    }

    /// The one-array walk numbers components exactly as Tarjan's does, and
    /// reports each component, in id order, with all its members and every
    /// edge that leaves it.
    #[test]
    fn ids_equal_tarjan_reference() {
        let mut x = 7u64;
        let mut next = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        for case in 0..400 {
            let n = 1 + next(60) as usize;
            let m = next(4 * n as u64) as usize;
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (next(n as u64) as u32, next(n as u64) as u32))
                .collect();
            let g = graph_from_edges(&vec!["A"; n], &edges);
            let want = tarjan_reference(&g);
            let mut seen = vec![false; n];
            let mut completed = 0u32;
            let got = scc_with(&g, |members, out| {
                let mut want_out = Vec::new();
                for &v in members {
                    assert_eq!(want.comp[v as usize], completed, "case {case}");
                    assert!(!std::mem::replace(&mut seen[v as usize], true));
                    let ids = g.out(NodeId(v)).iter().map(|w| want.comp[w.index()]);
                    want_out.extend(ids.filter(|&c| c != completed));
                }
                let mut out = out.to_vec();
                out.sort_unstable();
                want_out.sort_unstable();
                assert_eq!(out, want_out, "case {case}");
                completed += 1;
            });
            assert_eq!(got.comp, want.comp, "case {case}");
            assert_eq!(got.count, want.count, "case {case}");
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        // 100k-node chain would overflow a recursive Tarjan.
        let n = 100_000u32;
        let labels = vec!["A"; n as usize];
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = graph_from_edges(&labels, &edges);
        let p = tarjan_scc(&g);
        assert_eq!(p.count, n as usize);
    }
}
