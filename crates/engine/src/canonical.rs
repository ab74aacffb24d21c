//! Canonical pattern signatures for the reduction cache.
//!
//! Two patterns that are isomorphic *as anchored queries* — same label
//! multiset, same edge structure, and corresponding personalized/output
//! nodes — denote the same dynamic reduction, so their `G_Q` answers are
//! interchangeable. The cache therefore keys on a canonical relabeling:
//! nodes are ordered by a Weisfeiler–Leman-style refinement of
//! `(label, out-degree, in-degree, is-u_p, is-u_o)`, and residual symmetry
//! groups are broken by exhaustively picking the lexicographically smallest
//! encoding (bounded by `PERM_CAP` = 5 040 candidate orderings; above the cap we
//! fall back to the refined order with input-order tie-breaks, which is
//! still deterministic — isomorphic twins then merely miss the cache).
//!
//! Crucially the engine also *evaluates* the canonical form: the
//! resource-bounded heuristics are sensitive to node order, so running the
//! canonical pattern guarantees a cache hit returns byte-identical answers
//! to the cold path for every query that maps to the same signature.

use rbq_graph::labels::stable_hash;
use rbq_pattern::{Pattern, PatternBuilder};

/// Cap on candidate orderings explored when breaking refinement ties.
const PERM_CAP: usize = 5_040;

/// Rounds of neighborhood refinement. Two suffice for the ≤ 8-node
/// patterns of the paper's workloads; more only lengthens the keys.
const REFINE_ROUNDS: usize = 2;

/// The canonical relabeling of `p` plus its signature encoding.
///
/// The returned pattern is `p` with nodes permuted into canonical order
/// (personalized/output designations follow the permutation); the string
/// is a full structural encoding, so equal signatures imply equal
/// canonical patterns — no hash collisions to reason about.
pub fn canonical_pattern(p: &Pattern) -> (Pattern, String) {
    let order = canonical_order(p);
    let sig = encode(p, &order);
    (relabel(p, &order), sig)
}

/// `p` with its nodes permuted into `order` (position `new` ← original
/// `order[new]`); personalized/output designations follow the permutation.
fn relabel(p: &Pattern, order: &[usize]) -> Pattern {
    let mut inv = vec![0usize; order.len()];
    for (new, &old) in order.iter().enumerate() {
        inv[old] = new;
    }
    let mut b = PatternBuilder::new();
    let mut ids = Vec::with_capacity(order.len());
    for &old in order {
        ids.push(b.add_node(p.label_str(rbq_pattern::PNode::new(old))));
    }
    for &(u, v) in p.edges() {
        b.add_edge(ids[inv[u.index()]], ids[inv[v.index()]]);
    }
    b.personalized(ids[inv[p.personalized().index()]]);
    b.output(ids[inv[p.output().index()]]);
    b.build()
}

/// What the engine remembers about one raw pattern once it has been
/// canonicalised: enough to key the answer cache without canonicalising
/// again, and to rebuild the canonical pattern when an answer has to be
/// computed. Shared by the memo entry of that raw pattern and by every
/// [`crate::cache::CacheKey`] built from it. The canonical `Pattern`
/// itself is not kept — nearly every miss is the first sight of its raw
/// pattern, so a stored copy would be memory that is almost never read.
#[derive(Debug)]
pub(crate) struct Canonical {
    /// Canonical node order *of the raw pattern this was computed from*
    /// (position `new` ← original `order[new]`); isomorphic reorderings
    /// share a signature, not an order.
    order: Vec<usize>,
    /// The full structural signature; equal signatures ⇔ equal canonical
    /// patterns.
    pub(crate) signature: String,
    /// [`stable_hash`] of `signature`, so hashing a cache key never walks
    /// the string.
    pub(crate) sig_hash: u64,
}

impl Canonical {
    /// Canonicalise `p` — the expensive step the memo exists to skip.
    pub(crate) fn of(p: &Pattern) -> Self {
        let order = canonical_order(p);
        let signature = encode(p, &order);
        Canonical {
            sig_hash: stable_hash(&signature),
            order,
            signature,
        }
    }

    /// The canonical relabeling of `p`, which must be the pattern `self`
    /// was computed from: `Canonical::of(p).pattern(p)` is
    /// `canonical_pattern(p).0`.
    pub(crate) fn pattern(&self, p: &Pattern) -> Pattern {
        relabel(p, &self.order)
    }
}

/// Write the memo key of `p` into `out` (cleared first): the pattern *as
/// given* — node count, length-prefixed labels in input order, edges,
/// `u_p`, `u_o` — with every integer a LEB128 varint. Varints and length
/// prefixes are self-delimiting, so the encoding is injective: equal bytes
/// ⇔ equal `Pattern`s, and the memo can never alias two queries. Isomorphic
/// reorderings encode differently and meet again at the signature.
pub(crate) fn encode_raw(p: &Pattern, out: &mut Vec<u8>) {
    fn varint(out: &mut Vec<u8>, mut x: usize) {
        while x >= 0x80 {
            out.push(x as u8 | 0x80);
            x >>= 7;
        }
        out.push(x as u8);
    }
    out.clear();
    varint(out, p.node_count());
    for u in p.nodes() {
        let l = p.label_str(u);
        varint(out, l.len());
        out.extend_from_slice(l.as_bytes());
    }
    varint(out, p.edge_count());
    for &(u, v) in p.edges() {
        varint(out, u.index());
        varint(out, v.index());
    }
    varint(out, p.personalized().index());
    varint(out, p.output().index());
}

/// Canonical node order: position `new` holds original index `order[new]`.
fn canonical_order(p: &Pattern) -> Vec<usize> {
    let n = p.node_count();
    let keys = refined_keys(p);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));

    // Group boundaries of equal refinement keys.
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for i in 1..=n {
        if i == n || keys[order[i]] != keys[order[start]] {
            groups.push((start, i));
            start = i;
        }
    }
    let perms: usize = groups
        .iter()
        .map(|&(s, e)| factorial_capped(e - s))
        .try_fold(1usize, |acc, f| {
            let p = acc.checked_mul(f)?;
            (p <= PERM_CAP).then_some(p)
        })
        .unwrap_or(PERM_CAP + 1);
    if perms > PERM_CAP || perms <= 1 {
        return order; // symmetric beyond the cap, or no ties at all
    }

    // Exhaust within-group permutations, keeping the smallest encoding.
    let mut best = order.clone();
    let mut best_enc = encode(p, &best);
    let mut cur = order;
    permute_groups(p, &groups, 0, &mut cur, &mut best, &mut best_enc);
    best
}

fn permute_groups(
    p: &Pattern,
    groups: &[(usize, usize)],
    gi: usize,
    cur: &mut Vec<usize>,
    best: &mut Vec<usize>,
    best_enc: &mut String,
) {
    match groups.get(gi) {
        None => {
            let enc = encode(p, cur);
            if enc < *best_enc {
                *best_enc = enc;
                best.copy_from_slice(cur);
            }
        }
        Some(&(s, e)) if e - s <= 1 => permute_groups(p, groups, gi + 1, cur, best, best_enc),
        Some(&(s, e)) => {
            // Heap's algorithm over cur[s..e], recursing per arrangement.
            struct HeapCtx<'a> {
                p: &'a Pattern,
                groups: &'a [(usize, usize)],
                gi: usize,
                s: usize,
            }
            fn heap(
                ctx: &HeapCtx<'_>,
                cur: &mut Vec<usize>,
                k: usize,
                best: &mut Vec<usize>,
                best_enc: &mut String,
            ) {
                if k == 1 {
                    permute_groups(ctx.p, ctx.groups, ctx.gi + 1, cur, best, best_enc);
                    return;
                }
                for i in 0..k {
                    heap(ctx, cur, k - 1, best, best_enc);
                    if k.is_multiple_of(2) {
                        cur.swap(ctx.s + i, ctx.s + k - 1);
                    } else {
                        cur.swap(ctx.s, ctx.s + k - 1);
                    }
                }
            }
            let ctx = HeapCtx { p, groups, gi, s };
            heap(&ctx, cur, e - s, best, best_enc);
        }
    }
}

fn factorial_capped(k: usize) -> usize {
    (1..=k)
        .try_fold(1usize, |acc, i| {
            let p = acc.checked_mul(i)?;
            (p <= PERM_CAP).then_some(p)
        })
        .unwrap_or(PERM_CAP + 1)
}

/// Per-node refinement keys: seeded with local invariants, then iterated
/// with sorted neighbor-key multisets.
fn refined_keys(p: &Pattern) -> Vec<String> {
    let n = p.node_count();
    let mut keys: Vec<String> = (0..n)
        .map(|i| {
            let u = rbq_pattern::PNode::new(i);
            format!(
                "{}#{}#{}#{}#{}",
                p.label_str(u),
                p.out(u).len(),
                p.inn(u).len(),
                (u == p.personalized()) as u8,
                (u == p.output()) as u8
            )
        })
        .collect();
    for _ in 0..REFINE_ROUNDS {
        let next: Vec<String> = (0..n)
            .map(|i| {
                let u = rbq_pattern::PNode::new(i);
                let mut outs: Vec<&str> =
                    p.out(u).iter().map(|w| keys[w.index()].as_str()).collect();
                let mut ins: Vec<&str> =
                    p.inn(u).iter().map(|w| keys[w.index()].as_str()).collect();
                outs.sort_unstable();
                ins.sort_unstable();
                format!("{}|>{}|<{}", keys[i], outs.join(";"), ins.join(";"))
            })
            .collect();
        keys = next;
    }
    keys
}

/// Structural encoding of `p` under the node order `order` (position
/// `new` ← original `order[new]`): labels, sorted edges, `u_p`, `u_o`.
///
/// Labels are length-prefixed so the encoding is injective even when a
/// label itself contains the joining delimiter (labels are arbitrary
/// strings — `"A,B"` must not collide with the two labels `"A"`, `"B"`).
fn encode(p: &Pattern, order: &[usize]) -> String {
    let n = order.len();
    let mut inv = vec![0usize; n];
    for (new, &old) in order.iter().enumerate() {
        inv[old] = new;
    }
    let labels: Vec<String> = order
        .iter()
        .map(|&old| {
            let l = p.label_str(rbq_pattern::PNode::new(old));
            format!("{}:{}", l.len(), l)
        })
        .collect();
    let mut edges: Vec<(usize, usize)> = p
        .edges()
        .iter()
        .map(|&(u, v)| (inv[u.index()], inv[v.index()]))
        .collect();
    edges.sort_unstable();
    let edge_str: Vec<String> = edges.iter().map(|&(u, v)| format!("{u}-{v}")).collect();
    format!(
        "L:{}|E:{}|p:{}|o:{}",
        labels.join(","),
        edge_str.join(","),
        inv[p.personalized().index()],
        inv[p.output().index()]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(labels: &[&str], up: usize, uo: usize) -> Pattern {
        let mut b = PatternBuilder::new();
        let ids: Vec<_> = labels.iter().map(|l| b.add_node(l)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        b.personalized(ids[up]).output(ids[uo]);
        b.build()
    }

    #[test]
    fn idempotent() {
        let p = rbq_pattern::pattern::fig1_pattern();
        let (c1, s1) = canonical_pattern(&p);
        let (_, s2) = canonical_pattern(&c1);
        assert_eq!(s1, s2);
    }

    #[test]
    fn isomorphic_reorderings_share_signature() {
        // Same anchored query, nodes listed in two different orders.
        let mut b = PatternBuilder::new();
        let me = b.add_node("ME");
        let x = b.add_node("X");
        let y = b.add_node("Y");
        b.add_edge(me, x).add_edge(x, y);
        b.personalized(me).output(y);
        let p1 = b.build();

        let mut b = PatternBuilder::new();
        let y = b.add_node("Y");
        let me = b.add_node("ME");
        let x = b.add_node("X");
        b.add_edge(x, y).add_edge(me, x);
        b.personalized(me).output(y);
        let p2 = b.build();

        assert_eq!(canonical_pattern(&p1).1, canonical_pattern(&p2).1);
    }

    #[test]
    fn symmetric_siblings_canonicalize() {
        // ME -> A, ME -> A with output on one arm: the two A nodes are a
        // refinement tie broken by the permutation search.
        let build = |flip: bool| {
            let mut b = PatternBuilder::new();
            let me = b.add_node("ME");
            let a1 = b.add_node("A");
            let a2 = b.add_node("A");
            b.add_edge(me, a1).add_edge(me, a2);
            b.personalized(me).output(if flip { a2 } else { a1 });
            b.build()
        };
        assert_eq!(
            canonical_pattern(&build(false)).1,
            canonical_pattern(&build(true)).1
        );
    }

    #[test]
    fn different_anchors_differ() {
        let p1 = chain(&["ME", "A", "B"], 0, 2);
        let p2 = chain(&["ME", "A", "B"], 0, 1);
        assert_ne!(canonical_pattern(&p1).1, canonical_pattern(&p2).1);
    }

    #[test]
    fn different_edges_differ() {
        let mut b = PatternBuilder::new();
        let me = b.add_node("ME");
        let a = b.add_node("A");
        b.add_edge(me, a).personalized(me).output(a);
        let fwd = b.build();
        let mut b = PatternBuilder::new();
        let me = b.add_node("ME");
        let a = b.add_node("A");
        b.add_edge(a, me).personalized(me).output(a);
        let bwd = b.build();
        assert_ne!(canonical_pattern(&fwd).1, canonical_pattern(&bwd).1);
    }

    #[test]
    fn delimiter_labels_do_not_collide() {
        // "A,B" as one label vs "A" and "B" as two: a naive join would
        // encode both as "A,B"; the length prefix keeps them distinct.
        let mut b = PatternBuilder::new();
        let me = b.add_node("ME");
        let ab = b.add_node("A,B");
        b.add_edge(me, ab).personalized(me).output(ab);
        let joined = b.build();
        let mut b = PatternBuilder::new();
        let me = b.add_node("ME");
        let a = b.add_node("A");
        b.add_node("B");
        b.add_edge(me, a).personalized(me).output(a);
        let split = b.build();
        assert_ne!(canonical_pattern(&joined).1, canonical_pattern(&split).1);
    }

    #[test]
    fn canonical_preserves_structure() {
        let p = rbq_pattern::pattern::fig1_pattern();
        let (c, _) = canonical_pattern(&p);
        assert_eq!(c.node_count(), p.node_count());
        assert_eq!(c.edge_count(), p.edge_count());
        assert_eq!(c.label_str(c.personalized()), "Michael");
        assert_eq!(c.label_str(c.output()), "CL");
        assert_eq!(c.undirected_diameter(), p.undirected_diameter());
    }
}
