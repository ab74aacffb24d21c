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
//!
//! **What is built where, and what allocates.** Canonicalisation runs on a
//! `CanonScratch` the engine keeps per worker, beside the buffer the memo
//! key is encoded into. The refinement keys of a round are one string
//! arena plus a span per node; a neighbour list is sorted as indices by
//! key slice; an encoding is written digit by digit into a reused string;
//! the permutation search writes each candidate into a second one and
//! swaps on improvement, so the winning order comes back with its
//! encoding. Warm, `Canonical::of` allocates only what the memo keeps —
//! its order and its signature (the engine adds the `Arc`). The canonical
//! relabeling is [`Pattern::permuted`], built directly; the engine moves
//! it into its resolution ([`Pattern::into_resolved`]). The public
//! [`canonical_pattern`] runs the same code on a fresh scratch.

use crate::wire::push_num;
use rbq_graph::labels::stable_hash;
use rbq_pattern::{PNode, Pattern};

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
    let mut s = CanonScratch::default();
    canonical_order(p, &mut s);
    (p.permuted(&s.order), s.enc)
}

/// Reusable buffers of one canonicalisation; contents are meaningless
/// between calls, capacities are what is kept.
#[derive(Debug, Default)]
pub(crate) struct CanonScratch {
    /// This round's refinement keys back to back: node `i`'s key is
    /// `keys[spans[i].0..spans[i].1]`.
    keys: String,
    spans: Vec<(usize, usize)>,
    /// The next round's keys, built from this round's, then swapped in.
    next_keys: String,
    next_spans: Vec<(usize, usize)>,
    /// One neighbour list, sorted by key.
    nbrs: Vec<usize>,
    /// The node order being built or searched; the winner at the end.
    order: Vec<usize>,
    /// `[start, end)` ranges of `order` holding equal refinement keys.
    groups: Vec<(usize, usize)>,
    /// The best order the permutation search has seen.
    best: Vec<usize>,
    /// The encoding of the winning order (of the best one so far, during
    /// the search).
    enc: String,
    /// The candidate encoding the search compares against `enc`.
    cand: String,
    /// Encoder buffers: inverse permutation and relabeled edges.
    inv: Vec<usize>,
    edges: Vec<(usize, usize)>,
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
    /// Canonicalise `p` on `scratch` — the expensive step the memo exists
    /// to skip. Allocates the two buffers the memo keeps and nothing else
    /// once `scratch` is warm.
    // rbq-lint: hot
    pub(crate) fn of(p: &Pattern, scratch: &mut CanonScratch) -> Self {
        canonical_order(p, scratch);
        Canonical {
            sig_hash: stable_hash(&scratch.enc),
            // rbq-lint: allow(hot-path-alloc, "the memo keeps the canonical order: one exactly sized copy per first sight")
            order: scratch.order.to_vec(),
            // rbq-lint: allow(hot-path-alloc, "the memo keeps the signature: one exactly sized copy per first sight")
            signature: scratch.enc.as_str().to_owned(),
        }
    }

    /// The canonical relabeling of `p`, which must be the pattern `self`
    /// was computed from: `Canonical::of(p, _).pattern(p)` is
    /// `canonical_pattern(p).0`.
    pub(crate) fn pattern(&self, p: &Pattern) -> Pattern {
        p.permuted(&self.order)
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

/// Leave the canonical node order of `p` in `s.order` (position `new`
/// holds original index `order[new]`) and its encoding in `s.enc`.
// rbq-lint: hot
fn canonical_order(p: &Pattern, s: &mut CanonScratch) {
    let n = p.node_count();
    refined_keys(p, s);
    let CanonScratch {
        keys,
        spans,
        order,
        groups,
        best,
        enc,
        cand,
        inv,
        edges,
        ..
    } = s;
    let key = |i: usize| &keys[spans[i].0..spans[i].1];
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));

    // Group boundaries of equal refinement keys.
    groups.clear();
    let mut start = 0;
    for i in 1..=n {
        if i == n || key(order[i]) != key(order[start]) {
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
    encode(p, order, inv, edges, enc);
    if perms > PERM_CAP || perms <= 1 {
        return; // symmetric beyond the cap, or no ties at all
    }

    // Exhaust within-group permutations, keeping the smallest encoding.
    best.clear();
    best.extend_from_slice(order);
    let mut search = Search {
        p,
        groups,
        cur: order,
        best,
        enc,
        cand,
        inv,
        edges,
    };
    search.arrange(0);
    order.copy_from_slice(best);
}

/// The exhaustive tie-break: every arrangement of every group of `cur`,
/// each encoded into `cand` and swapped into `enc` (with its order into
/// `best`) when strictly smaller — the first smallest wins.
struct Search<'a> {
    p: &'a Pattern,
    groups: &'a [(usize, usize)],
    cur: &'a mut [usize],
    best: &'a mut [usize],
    enc: &'a mut String,
    cand: &'a mut String,
    inv: &'a mut Vec<usize>,
    edges: &'a mut Vec<(usize, usize)>,
}

impl Search<'_> {
    /// Arrange groups `gi..` in every way, the earlier ones held fixed.
    // rbq-lint: hot
    fn arrange(&mut self, gi: usize) {
        match self.groups.get(gi) {
            None => {
                encode(self.p, self.cur, self.inv, self.edges, self.cand);
                if *self.cand < *self.enc {
                    std::mem::swap(self.enc, self.cand);
                    self.best.copy_from_slice(self.cur);
                }
            }
            Some(&(s, e)) if e - s <= 1 => self.arrange(gi + 1),
            Some(&(s, e)) => self.heap(gi, s, e - s),
        }
    }

    /// Heap's algorithm over `cur[s..s + k]`, recursing into the next
    /// group per arrangement.
    // rbq-lint: hot
    fn heap(&mut self, gi: usize, s: usize, k: usize) {
        if k == 1 {
            self.arrange(gi + 1);
            return;
        }
        for i in 0..k {
            self.heap(gi, s, k - 1);
            if k.is_multiple_of(2) {
                self.cur.swap(s + i, s + k - 1);
            } else {
                self.cur.swap(s, s + k - 1);
            }
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

/// Per-node refinement keys into `s.keys` / `s.spans`: seeded with local
/// invariants (`label#out#in#is-u_p#is-u_o`), then iterated with sorted
/// neighbour-key multisets (`key|>out;keys|<in;keys`).
// rbq-lint: hot
fn refined_keys(p: &Pattern, s: &mut CanonScratch) {
    let CanonScratch {
        keys,
        spans,
        next_keys,
        next_spans,
        nbrs,
        ..
    } = s;
    keys.clear();
    spans.clear();
    for u in p.nodes() {
        let start = keys.len();
        keys.push_str(p.label_str(u));
        keys.push('#');
        push_num(keys, p.out(u).len());
        keys.push('#');
        push_num(keys, p.inn(u).len());
        keys.push_str(if u == p.personalized() { "#1" } else { "#0" });
        keys.push_str(if u == p.output() { "#1" } else { "#0" });
        spans.push((start, keys.len()));
    }
    for _ in 0..REFINE_ROUNDS {
        next_keys.clear();
        next_spans.clear();
        let key = |i: usize| &keys[spans[i].0..spans[i].1];
        for u in p.nodes() {
            let start = next_keys.len();
            next_keys.push_str(key(u.index()));
            for (sep, list) in [("|>", p.out(u)), ("|<", p.inn(u))] {
                next_keys.push_str(sep);
                nbrs.clear();
                nbrs.extend(list.iter().map(|w| w.index()));
                nbrs.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
                for (j, &w) in nbrs.iter().enumerate() {
                    if j > 0 {
                        next_keys.push(';');
                    }
                    next_keys.push_str(key(w));
                }
            }
            next_spans.push((start, next_keys.len()));
        }
        std::mem::swap(keys, next_keys);
        std::mem::swap(spans, next_spans);
    }
}

/// Write the structural encoding of `p` under the node order `order`
/// (position `new` ← original `order[new]`) into `out`: labels, sorted
/// edges, `u_p`, `u_o`. `inv` and `edges` are scratch.
///
/// Labels are length-prefixed so the encoding is injective even when a
/// label itself contains the joining delimiter (labels are arbitrary
/// strings — `"A,B"` must not collide with the two labels `"A"`, `"B"`).
// rbq-lint: hot
fn encode(
    p: &Pattern,
    order: &[usize],
    inv: &mut Vec<usize>,
    edges: &mut Vec<(usize, usize)>,
    out: &mut String,
) {
    inv.clear();
    inv.resize(order.len(), 0);
    for (new, &old) in order.iter().enumerate() {
        inv[old] = new;
    }
    out.clear();
    out.push_str("L:");
    for (k, &old) in order.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let l = p.label_str(PNode::new(old));
        push_num(out, l.len());
        out.push(':');
        out.push_str(l);
    }
    out.push_str("|E:");
    edges.clear();
    edges.extend(
        p.edges()
            .iter()
            .map(|&(u, v)| (inv[u.index()], inv[v.index()])),
    );
    edges.sort_unstable();
    for (k, &(u, v)) in edges.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        push_num(out, u);
        out.push('-');
        push_num(out, v);
    }
    out.push_str("|p:");
    push_num(out, inv[p.personalized().index()]);
    out.push_str("|o:");
    push_num(out, inv[p.output().index()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rbq_pattern::PatternBuilder;

    /// Canonicalisation as it was built before it moved onto reused
    /// buffers: `String` keys joined and sorted per round, `format!`-built
    /// encodings, a second encode of the winner, relabeling through
    /// [`PatternBuilder`]. The oracle the buffered code is held to.
    mod reference {
        use super::super::{factorial_capped, PERM_CAP, REFINE_ROUNDS};
        use rbq_pattern::{PNode, Pattern, PatternBuilder};

        pub fn canonical_pattern(p: &Pattern) -> (Vec<usize>, String, Pattern) {
            let order = canonical_order(p);
            let sig = encode(p, &order);
            let relabeled = relabel(p, &order);
            (order, sig, relabeled)
        }

        fn relabel(p: &Pattern, order: &[usize]) -> Pattern {
            let mut inv = vec![0usize; order.len()];
            for (new, &old) in order.iter().enumerate() {
                inv[old] = new;
            }
            let mut b = PatternBuilder::new();
            let mut ids = Vec::with_capacity(order.len());
            for &old in order {
                ids.push(b.add_node(p.label_str(PNode::new(old))));
            }
            for &(u, v) in p.edges() {
                b.add_edge(ids[inv[u.index()]], ids[inv[v.index()]]);
            }
            b.personalized(ids[inv[p.personalized().index()]]);
            b.output(ids[inv[p.output().index()]]);
            b.build()
        }

        fn canonical_order(p: &Pattern) -> Vec<usize> {
            let n = p.node_count();
            let keys = refined_keys(p);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
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
                return order;
            }
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
                Some(&(s, e)) if e - s <= 1 => {
                    permute_groups(p, groups, gi + 1, cur, best, best_enc)
                }
                Some(&(s, e)) => {
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

        fn refined_keys(p: &Pattern) -> Vec<String> {
            let n = p.node_count();
            let mut keys: Vec<String> = (0..n)
                .map(|i| {
                    let u = PNode::new(i);
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
                        let u = PNode::new(i);
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

        fn encode(p: &Pattern, order: &[usize]) -> String {
            let n = order.len();
            let mut inv = vec![0usize; n];
            for (new, &old) in order.iter().enumerate() {
                inv[old] = new;
            }
            let labels: Vec<String> = order
                .iter()
                .map(|&old| {
                    let l = p.label_str(PNode::new(old));
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
    }

    /// Characters labels are drawn from: every delimiter the keys and the
    /// encoding use, digits, and multi-byte UTF-8.
    const ALPHABET: &[char] = &[
        '#', '|', ';', ',', ':', '-', '>', '<', '0', '1', '9', 'A', 'é', '日', '🙂',
    ];

    /// Raw material of one pattern: node count, label pool, a pool index
    /// per node, random edges, an optional hub (an edge from node `hub` to
    /// every node, itself included — degrees ≥ 10 at 10+ nodes), `u_p`,
    /// `u_o`. Reduced modulo the node count by [`build`].
    type Raw = (
        usize,
        Vec<Vec<usize>>,
        Vec<usize>,
        Vec<(usize, usize)>,
        ((bool, usize), (usize, usize)),
    );

    fn raw() -> impl Strategy<Value = Raw> {
        (
            1usize..13,
            // One to four labels: few labels, many ties.
            (1usize..5).prop_flat_map(|k| {
                prop::collection::vec(prop::collection::vec(0..ALPHABET.len(), 0..13), k)
            }),
            prop::collection::vec(0usize..64, 12),
            prop::collection::vec((0usize..12, 0usize..12), 0..48),
            ((prop::bool::ANY, 0usize..12), (0usize..12, 0usize..12)),
        )
    }

    fn build((n, pool, picks, edges, ((hub, h), (up, uo))): Raw) -> Pattern {
        let mut b = PatternBuilder::new();
        let ids: Vec<_> = picks[..n]
            .iter()
            .map(|&k| {
                let label: String = pool[k % pool.len()].iter().map(|&c| ALPHABET[c]).collect();
                b.add_node(&label)
            })
            .collect();
        // Duplicates and self-loops included; the builder deduplicates.
        for (u, v) in edges {
            b.add_edge(ids[u % n], ids[v % n]);
        }
        if hub {
            for &v in &ids {
                b.add_edge(ids[h % n], v);
            }
        }
        b.personalized(ids[up % n]).output(ids[uo % n]);
        b.build()
    }

    /// The buffered canonicalisation on `s`: order, signature, relabeling.
    fn buffered(p: &Pattern, s: &mut CanonScratch) -> (Vec<usize>, String, Pattern) {
        let canon = Canonical::of(p, s);
        assert_eq!(canon.signature, s.enc);
        assert_eq!(canon.sig_hash, stable_hash(&canon.signature));
        let relabeled = canon.pattern(p);
        (canon.order, canon.signature, relabeled)
    }

    fn assert_matches_reference(p: &Pattern, s: &mut CanonScratch) {
        let (order, sig, relabeled) = buffered(p, s);
        let (ref_order, ref_sig, ref_relabeled) = reference::canonical_pattern(p);
        assert_eq!(order, ref_order, "order of {p:?}");
        assert_eq!(sig, ref_sig, "signature of {p:?}");
        assert_eq!(format!("{relabeled:?}"), format!("{ref_relabeled:?}"));
        let (public, public_sig) = canonical_pattern(p);
        assert_eq!(public_sig, ref_sig);
        assert_eq!(format!("{public:?}"), format!("{ref_relabeled:?}"));
    }

    proptest! {
        /// The buffered code against the `String`-built reference: equal
        /// order, signature and relabeled pattern on random patterns, one
        /// scratch reused across the patterns of a case.
        #[test]
        fn buffered_canonicalisation_matches_reference(
            raws in prop::collection::vec(raw(), 1..4)
        ) {
            let mut s = CanonScratch::default();
            for raw in raws {
                assert_matches_reference(&build(raw), &mut s);
            }
        }
    }

    /// Symmetric groups at and beyond `PERM_CAP`: a hub with 7 identical
    /// leaves has 7! = 5 040 arrangements (searched), with 8 it has
    /// 40 320 (the refined order stands). Both agree with the reference,
    /// and so does a hub of 11 leaves whose degree needs two digits.
    #[test]
    fn symmetric_groups_below_and_above_the_cap_match_reference() {
        let mut s = CanonScratch::default();
        for leaves in [2, 6, 7, 8, 11] {
            let mut b = PatternBuilder::new();
            let hub = b.add_node("H");
            let ids: Vec<_> = (0..leaves).map(|_| b.add_node("L")).collect();
            for &l in &ids {
                b.add_edge(hub, l);
            }
            b.personalized(hub).output(ids[leaves / 2]);
            let p = b.build();
            assert_matches_reference(&p, &mut s);
        }
    }

    #[test]
    fn push_num_is_decimal() {
        for x in [0, 1, 9, 10, 11, 99, 100, 4_321, usize::MAX] {
            let mut out = String::from("x");
            push_num(&mut out, x);
            assert_eq!(out, format!("x{x}"));
        }
    }

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
