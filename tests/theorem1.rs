//! Theorem 1's hardness gadget, exercised operationally.
//!
//! The paper proves exact resource-bounded querying NP-hard by reduction
//! from set cover: a length-2 path pattern over a DAG whose levels are the
//! personalized node, the candidate sets `C_j`, and the elements `x_i`.
//! A subgraph `G_Q` with `Q(G_Q) = Q(G)` of minimal size corresponds to a
//! minimum set cover. These tests build the gadget and verify that
//! correspondence by brute force on a small instance — evidence that our
//! strong-simulation semantics matches the reduction's behavior.

use rbq_graph::{DynamicSubgraph, Graph, GraphBuilder, GraphView, NodeId};
use rbq_pattern::{strong_simulation, PatternBuilder, ResolvedPattern};

/// Set-cover instance: universe X = {0,1,2,3}, family F with minimum cover
/// size 2 ({C0, C2}).
const UNIVERSE: usize = 4;
const FAMILY: [&[usize]; 5] = [&[0, 1], &[1, 2], &[2, 3], &[0, 3], &[0]];
const MIN_COVER: usize = 2;

struct Gadget {
    g: Graph,
    vp: NodeId,
    sets: Vec<NodeId>,
    elems: Vec<NodeId>,
    q: ResolvedPattern,
}

fn build_gadget() -> Gadget {
    let mut b = GraphBuilder::new();
    let vp = b.add_node("ME");
    let sets: Vec<NodeId> = FAMILY.iter().map(|_| b.add_node("SET")).collect();
    let elems: Vec<NodeId> = (0..UNIVERSE).map(|_| b.add_node("ELEM")).collect();
    for (j, members) in FAMILY.iter().enumerate() {
        b.add_edge(vp, sets[j]);
        for &x in members.iter() {
            b.add_edge(sets[j], elems[x]);
        }
    }
    let g = b.build();

    // Path pattern of length 2: ME -> SET -> ELEM, output ELEM.
    let mut pb = PatternBuilder::new();
    let me = pb.add_node("ME");
    let s = pb.add_node("SET");
    let e = pb.add_node("ELEM");
    pb.add_edge(me, s).add_edge(s, e);
    pb.personalized(me).output(e);
    let q = pb.build().resolve(&g).unwrap();
    Gadget {
        g,
        vp,
        sets,
        elems,
        q,
    }
}

/// `Q(G_Q)` for the subgraph induced by `v_p`, the chosen sets, and all
/// elements.
fn answer_with_sets(gadget: &Gadget, chosen: &[usize]) -> Vec<NodeId> {
    let mut nodes = vec![gadget.vp];
    nodes.extend(chosen.iter().map(|&j| gadget.sets[j]));
    nodes.extend(gadget.elems.iter().copied());
    let sub = DynamicSubgraph::induced(&gadget.g, nodes);
    strong_simulation(&gadget.q, &sub)
}

#[test]
fn full_graph_answer_is_all_covered_elements() {
    let gadget = build_gadget();
    let all_sets: Vec<usize> = (0..FAMILY.len()).collect();
    let full = answer_with_sets(&gadget, &all_sets);
    // Every element is covered by some set, so Q(G) = all elements.
    assert_eq!(full, gadget.elems);
    // Sanity: evaluating on the full graph agrees.
    let direct = rbq_pattern::strong_simulation(&gadget.q, &gadget.g);
    assert_eq!(direct, gadget.elems);
}

#[test]
fn covers_preserve_the_answer_and_non_covers_do_not() {
    let gadget = build_gadget();
    let exact = rbq_pattern::strong_simulation(&gadget.q, &gadget.g);

    for mask in 0u32..(1 << FAMILY.len()) {
        let chosen: Vec<usize> = (0..FAMILY.len()).filter(|&j| mask >> j & 1 == 1).collect();
        let mut covered = [false; UNIVERSE];
        for &j in &chosen {
            for &x in FAMILY[j] {
                covered[x] = true;
            }
        }
        let is_cover = covered.iter().all(|&c| c);
        let ans = answer_with_sets(&gadget, &chosen);
        if is_cover {
            assert_eq!(
                ans, exact,
                "cover {chosen:?} must preserve the exact answer"
            );
        } else {
            assert_ne!(
                ans, exact,
                "non-cover {chosen:?} cannot preserve the exact answer"
            );
        }
    }
}

#[test]
fn minimum_preserving_subgraph_is_minimum_cover() {
    let gadget = build_gadget();
    let exact = rbq_pattern::strong_simulation(&gadget.q, &gadget.g);
    // Brute-force the smallest set-node count whose induced G_Q preserves
    // Q(G): must equal the minimum cover size.
    let mut best = usize::MAX;
    for mask in 0u32..(1 << FAMILY.len()) {
        let chosen: Vec<usize> = (0..FAMILY.len()).filter(|&j| mask >> j & 1 == 1).collect();
        if answer_with_sets(&gadget, &chosen) == exact {
            best = best.min(chosen.len());
        }
    }
    assert_eq!(
        best, MIN_COVER,
        "minimal preserving G_Q ↔ minimum set cover (Theorem 1 reduction)"
    );
}

#[test]
fn rbsim_on_gadget_respects_budget_and_soundness() {
    // The bounded algorithm cannot solve set cover optimally (Theorem 1),
    // but it must stay sound and within budget on the gadget.
    let gadget = build_gadget();
    let idx = rbq_core::NeighborIndex::build(&gadget.g);
    let exact = rbq_pattern::strong_simulation(&gadget.q, &gadget.g);
    for units in [3usize, 8, 14, gadget.g.size()] {
        let budget = rbq_core::ResourceBudget::from_units(&gadget.g, units);
        let ans = rbq_core::rbsim(&gadget.g, &idx, &gadget.q, &budget);
        assert!(ans.gq_size <= units);
        for v in &ans.matches {
            assert!(exact.contains(v));
        }
    }
    // Full budget: exact.
    let budget = rbq_core::ResourceBudget::from_ratio(&gadget.g, 1.0);
    let ans = rbq_core::rbsim(&gadget.g, &idx, &gadget.q, &budget);
    assert_eq!(ans.matches, exact);
}
