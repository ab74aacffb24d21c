//! Cross-crate integration tests for resource-bounded reachability:
//! generators -> compression -> hierarchical index -> RBReach, checked
//! against BFS ground truth and Theorem 4's guarantees.

use rbq_core::reachability_accuracy;
use rbq_graph::GraphView;
use rbq_reach::{bfs_query, BfsOptIndex, HierarchicalIndex, LandmarkVectors};
use rbq_workload::{
    layered_dag, reachability_ground_truth, sample_reachability_queries, uniform_random,
    yahoo_like, youtube_like,
};

#[test]
fn theorem4_never_false_positive() {
    for (name, g) in [
        ("youtube", youtube_like(5_000, 3)),
        ("uniform", uniform_random(4_000, 8_000, 15, 3)),
        ("dag", layered_dag(20, 150, 0.01, 15, 3)),
    ] {
        let idx = HierarchicalIndex::build(&g, 0.01);
        let queries = sample_reachability_queries(&g, 120, 0.5, 7);
        let truth = reachability_ground_truth(&g, &queries);
        for (&(s, t), &exact) in queries.iter().zip(&truth) {
            let ans = idx.query(s, t);
            assert!(
                !ans.reachable || exact,
                "{name}: false positive on {s:?}->{t:?}"
            );
        }
    }
}

/// The index `youtube_like(20_000, 42)` gets at α = 0.01, count for count,
/// as recorded before index construction was optimised: a build that is
/// faster because it builds something else fails here, not in the
/// benchmark.
#[test]
fn pinned_index_counts_on_youtube_20k() {
    use rbq_reach::IndexStats;
    let g = youtube_like(20_000, 42);
    assert_eq!((g.node_count(), g.edge_count()), (20_000, 59_931));
    assert_eq!(
        HierarchicalIndex::build(&g, 0.01).stats(),
        IndexStats {
            landmarks: 399,
            levels: 2,
            landmarks_per_level: vec![394, 5],
            roots: 5,
            tree_edges: 394,
            label_entries: 16_560,
            dag_nodes: 10_776,
            dag_edges: 21_965,
            visit_cap: 799,
        }
    );
}

#[test]
fn theorem4_visit_and_size_bounds() {
    let g = yahoo_like(8_000, 5);
    for alpha in [0.005, 0.02, 0.05] {
        let idx = HierarchicalIndex::build(&g, alpha);
        let bound = (alpha * g.size() as f64) as usize;
        assert!(
            idx.index_size() <= bound.max(1),
            "index size {} exceeds α|G| = {bound}",
            idx.index_size()
        );
        let queries = sample_reachability_queries(&g, 60, 0.5, 9);
        for &(s, t) in &queries {
            let ans = idx.query(s, t);
            assert!(
                ans.visits <= bound + 2,
                "visits {} exceed α|G| = {bound}",
                ans.visits
            );
        }
    }
}

#[test]
fn accuracy_high_at_moderate_alpha() {
    let g = youtube_like(8_000, 13);
    let idx = HierarchicalIndex::build(&g, 0.02);
    let queries = sample_reachability_queries(&g, 100, 0.5, 21);
    let truth = reachability_ground_truth(&g, &queries);
    let got: Vec<bool> = queries
        .iter()
        .map(|&(s, t)| idx.query(s, t).reachable)
        .collect();
    let acc = reachability_accuracy(&truth, &got);
    assert!(
        acc.f1 >= 0.9,
        "accuracy {:.3} below the paper's observed range",
        acc.f1
    );
}

#[test]
fn accuracy_monotone_in_alpha_on_hard_dag() {
    // Layered DAGs have no SCC shortcut; accuracy must grow with alpha.
    let g = layered_dag(30, 100, 0.012, 15, 5);
    let queries = sample_reachability_queries(&g, 100, 0.6, 3);
    let truth = reachability_ground_truth(&g, &queries);
    let mut accs = Vec::new();
    for alpha in [0.002, 0.01, 0.05, 0.2] {
        let idx = HierarchicalIndex::build(&g, alpha);
        let got: Vec<bool> = queries
            .iter()
            .map(|&(s, t)| idx.query(s, t).reachable)
            .collect();
        accs.push(reachability_accuracy(&truth, &got).f1);
    }
    assert!(
        accs.last().unwrap() >= accs.first().unwrap(),
        "accuracy should not degrade with alpha: {accs:?}"
    );
    assert!(
        *accs.last().unwrap() >= 0.85,
        "final accuracy too low: {accs:?}"
    );
}

#[test]
fn bfsopt_is_exact_everywhere() {
    let g = youtube_like(4_000, 29);
    let idx = BfsOptIndex::build(&g);
    let queries = sample_reachability_queries(&g, 150, 0.4, 31);
    for &(s, t) in &queries {
        assert_eq!(idx.query(s, t), bfs_query(&g, s, t).0, "{s:?}->{t:?}");
    }
}

#[test]
fn lm_is_sound_and_less_accurate_than_exact() {
    let g = layered_dag(25, 120, 0.012, 15, 37);
    let lm = LandmarkVectors::build(&g, 41);
    let queries = sample_reachability_queries(&g, 100, 0.5, 43);
    let truth = reachability_ground_truth(&g, &queries);
    let got: Vec<bool> = queries.iter().map(|&(s, t)| lm.query(s, t)).collect();
    for ((&(s, t), &exact), &ans) in queries.iter().zip(&truth).zip(&got) {
        assert!(!ans || exact, "LM false positive {s:?}->{t:?}");
    }
    // LM answers at least the trivially-false pairs correctly.
    let acc = reachability_accuracy(&truth, &got);
    assert!(acc.f1 > 0.3);
}

#[test]
fn rbreach_matches_lm_on_web_like_graphs() {
    // The paper's headline comparison (Fig. 8(m)/(n)) runs on web/social
    // snapshots. At our scaled-down sizes LM's 4·log|V| landmarks cover
    // relatively much more of the graph than at 1.6M nodes, so LM is far
    // stronger here than the paper's 69-74%; RBReach must still match it
    // while guaranteeing zero false positives and bounded visits.
    let g = yahoo_like(15_000, 53);
    let queries = rbq_workload::sample_hard_reachability_queries(&g, 120, 0.5, 59);
    let truth = reachability_ground_truth(&g, &queries);
    let hier = HierarchicalIndex::build(&g, 0.02);
    let lm = LandmarkVectors::build(&g, 61);
    let hier_ans: Vec<bool> = queries
        .iter()
        .map(|&(s, t)| hier.query(s, t).reachable)
        .collect();
    let lm_ans: Vec<bool> = queries.iter().map(|&(s, t)| lm.query(s, t)).collect();
    let hier_acc = reachability_accuracy(&truth, &hier_ans).f1;
    let lm_acc = reachability_accuracy(&truth, &lm_ans).f1;
    assert!(
        hier_acc >= lm_acc - 0.02,
        "RBReach ({hier_acc:.3}) should not lose materially to LM ({lm_acc:.3})"
    );
    assert!(hier_acc >= 0.95);
}

#[test]
fn coverage_selection_beats_degree_rank_on_deep_dags() {
    // Ablation (DESIGN.md §6): on deep layered DAGs the paper's deg×rank
    // greedy clusters landmarks near the top layers; cover-size selection
    // spreads them and recovers accuracy.
    use rbq_reach::hierarchy::{IndexParams, SelectionStrategy};
    let g = layered_dag(40, 80, 0.015, 15, 53);
    let queries = rbq_workload::sample_hard_reachability_queries(&g, 120, 0.6, 59);
    let truth = reachability_ground_truth(&g, &queries);
    let acc_of = |strategy| {
        let idx =
            HierarchicalIndex::build_with(&g, IndexParams::new(0.03).with_selection(strategy));
        let got: Vec<bool> = queries
            .iter()
            .map(|&(s, t)| idx.query(s, t).reachable)
            .collect();
        reachability_accuracy(&truth, &got).f1
    };
    let deg_rank = acc_of(SelectionStrategy::DegreeRank);
    let coverage = acc_of(SelectionStrategy::Coverage);
    assert!(
        coverage + 0.05 >= deg_rank,
        "coverage ({coverage:.3}) should be competitive with deg×rank ({deg_rank:.3})"
    );
}

#[test]
fn index_handles_cyclic_inputs() {
    // Heavy SCC structure: correctness must survive compression.
    let g = uniform_random(3_000, 12_000, 15, 67); // dense -> big SCCs
    let idx = HierarchicalIndex::build(&g, 0.02);
    let queries = sample_reachability_queries(&g, 80, 0.5, 71);
    let truth = reachability_ground_truth(&g, &queries);
    let mut correct = 0;
    for (&(s, t), &exact) in queries.iter().zip(&truth) {
        let ans = idx.query(s, t);
        assert!(!ans.reachable || exact);
        if ans.reachable == exact {
            correct += 1;
        }
    }
    assert!(correct * 10 >= queries.len() * 8, "accuracy below 80%");
}
