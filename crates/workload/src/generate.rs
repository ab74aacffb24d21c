//! Synthetic graph generators mirroring the paper's datasets (§6).
//!
//! Every generator gives node 0 the unique label `"ME"` — the personalized
//! user issuing pattern queries — and draws the remaining labels from an
//! alphabet `Σ = {L0, …, L(k−1)}` (the paper uses `|Σ| = 15`).

use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rbq_graph::{Graph, GraphBuilder, NodeId};

/// The paper's synthetic label alphabet size.
const DEFAULT_LABELS: usize = 15;

/// Add `n` nodes with random alphabet labels, placing the unique `"ME"`
/// node at `me_index`. In preferential-attachment graphs early nodes grow
/// into hubs, so placing the personalized user late keeps its neighborhood
/// `G_dQ(v_p)` a small fraction of `G` — matching the paper's observation
/// that `|G_dQ(v_p)|` is up to 0.01% of `|G|` (§4).
fn add_labeled_nodes(
    b: &mut GraphBuilder,
    n: usize,
    num_labels: usize,
    me_index: usize,
    rng: &mut ChaCha8Rng,
) {
    debug_assert!(n >= 1 && me_index < n);
    let dist = Uniform::new(0, num_labels.max(1));
    for i in 0..n {
        if i == me_index {
            b.add_node("ME");
        } else {
            let l = dist.sample(rng);
            b.add_node(&format!("L{l}"));
        }
    }
}

/// The unique personalized node (label `"ME"`) of a generated graph.
pub fn me_node(g: &Graph) -> Option<NodeId> {
    let me = g.labels().get("ME")?;
    g.nodes_with_label(me).first().copied()
}

/// Uniform random digraph (Erdős–Rényi-style): `nodes` nodes, `edges`
/// directed edges with endpoints drawn uniformly (self-loops excluded,
/// duplicates deduplicated by the builder).
///
/// This is the paper's synthetic generator: `|E| = 2|V|` over 15 labels.
pub fn uniform_random(nodes: usize, edges: usize, num_labels: usize, seed: u64) -> Graph {
    assert!(nodes >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(nodes, edges);
    add_labeled_nodes(&mut b, nodes, num_labels, 0, &mut rng);
    if nodes >= 2 {
        let dist = Uniform::new(0, nodes as u32);
        for _ in 0..edges {
            let u = dist.sample(&mut rng);
            let mut v = dist.sample(&mut rng);
            if u == v {
                v = (v + 1) % nodes as u32;
            }
            b.add_edge(NodeId(u), NodeId(v));
        }
    }
    b.build()
}

/// Preferential-attachment digraph: each new node attaches `m` edges to
/// endpoints sampled proportionally to degree, with label-assortative
/// neighborhoods, 15% of the edges pointing backwards (older to newer).
pub fn power_law(nodes: usize, m: usize, num_labels: usize, seed: u64) -> Graph {
    power_law_with(nodes, m, num_labels, 0.15, seed)
}

/// Probability that a new node copies the label of its first attachment
/// target instead of drawing a fresh one. Real content/social graphs are
/// label-assortative (a video's recommendations share its category), which
/// is what gives pattern queries large candidate neighborhoods — the regime
/// where the paper's resource bound binds.
const HOMOPHILY: f64 = 0.7;

/// Preferential-attachment (Barabási–Albert-style) digraph: each new node
/// attaches `m` edges to endpoints sampled proportionally to degree.
/// Produces the heavy-tailed degree distribution of social and web graphs,
/// with label-assortative neighborhoods (a new node copies its first
/// attachment target's label with probability 0.7).
///
/// `back_fraction` controls edge orientation: each attachment points from
/// the new node to the sampled (older) endpoint with probability
/// `1 − back_fraction`, and backwards otherwise. Small values yield the
/// mostly-acyclic reach structure of real web snapshots (whose condensation
/// retains most nodes); `0.5` degenerates into one giant SCC.
fn power_law_with(
    nodes: usize,
    m: usize,
    num_labels: usize,
    back_fraction: f64,
    seed: u64,
) -> Graph {
    assert!(nodes >= 1);
    let m = m.max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // ---- Pass 1: topology (endpoint pool = degree-proportional). ----
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(nodes * m);
    let mut first_target: Vec<u32> = (0..nodes as u32).collect();
    let mut pool: Vec<u32> = Vec::with_capacity(2 * nodes * m);
    let seed_core = m.min(nodes.saturating_sub(1)).max(1);
    for i in 0..seed_core.min(nodes - 1) {
        let (u, v) = (i as u32, (i + 1) as u32);
        edges.push((u, v));
        first_target[v as usize] = u;
        pool.push(u);
        pool.push(v);
    }
    for u in (seed_core + 1)..nodes {
        let u = u as u32;
        let mut first = true;
        for _ in 0..m {
            let t = if pool.is_empty() {
                0u32
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            if t == u {
                continue;
            }
            if first {
                first_target[u as usize] = t;
                first = false;
            }
            if rng.gen_bool(back_fraction) {
                edges.push((t, u));
            } else {
                edges.push((u, t));
            }
            pool.push(u);
            pool.push(t);
        }
    }

    // ---- Pass 2: labels with homophily, ME at a late non-hub index. ----
    let me_index = if nodes == 1 { 0 } else { 2 * nodes / 3 };
    let dist = Uniform::new(0, num_labels.max(1));
    let mut labels: Vec<usize> = vec![0; nodes];
    for i in 0..nodes {
        let copy = i > seed_core && rng.gen_bool(HOMOPHILY) && (first_target[i] as usize) < i;
        labels[i] = if copy {
            labels[first_target[i] as usize]
        } else {
            dist.sample(&mut rng)
        };
    }

    let mut b = GraphBuilder::with_capacity(nodes, edges.len());
    for (i, &l) in labels.iter().enumerate() {
        if i == me_index {
            b.add_node("ME");
        } else {
            b.add_node(&format!("L{l}"));
        }
    }
    for (u, v) in edges {
        b.add_edge(NodeId(u), NodeId(v));
    }
    b.build()
}

/// Youtube-like substitute: power-law digraph with the snapshot's
/// edge/node ratio (≈ 2.8) and the 15-label alphabet.
///
/// `nodes` scales the snapshot (the real one has 1,609,969 nodes); the
/// default evaluation uses 30k–100k for tractable baselines.
pub fn youtube_like(nodes: usize, seed: u64) -> Graph {
    power_law_with(nodes, 3, DEFAULT_LABELS, 0.05, seed)
}

/// Yahoo-web-like substitute: denser power-law digraph (edge/node ≈ 5,
/// the real snapshot's ratio), same alphabet. The density contrast with
/// [`youtube_like`] drives the paper's density-dependent observations.
pub fn yahoo_like(nodes: usize, seed: u64) -> Graph {
    power_law_with(nodes, 5, DEFAULT_LABELS, 0.05, seed)
}

/// A Fig. 1-style social graph: `groups` labeled communities of
/// `group_size` members each, with the personalized user (node 0) linked
/// into a few of them and sparse inter-community edges.
///
/// Communities are labeled `G0, G1, …`; the personalized node keeps label
/// `"ME"`. Good for localized-pattern demos where group labels play the
/// roles of HG/CC/CL.
pub fn social_groups(groups: usize, group_size: usize, inter_edges: usize, seed: u64) -> Graph {
    assert!(groups >= 1 && group_size >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    b.add_node("ME");
    let mut members: Vec<Vec<NodeId>> = Vec::with_capacity(groups);
    for gidx in 0..groups {
        let label = format!("G{gidx}");
        let mut grp = Vec::with_capacity(group_size);
        for _ in 0..group_size {
            grp.push(b.add_node(&label));
        }
        members.push(grp);
    }
    // The user joins every group: edges ME -> a few members of each.
    for grp in &members {
        let k = (grp.len() / 3).max(1);
        for &m in grp.iter().take(k) {
            b.add_edge(NodeId(0), m);
        }
    }
    // Intra-group chains (so groups are connected).
    for grp in &members {
        for w in grp.windows(2) {
            b.add_edge(w[0], w[1]);
        }
    }
    // Sparse random inter-group edges.
    for _ in 0..inter_edges {
        let ga = rng.gen_range(0..groups);
        let gb = rng.gen_range(0..groups);
        let a = members[ga][rng.gen_range(0..group_size)];
        let c = members[gb][rng.gen_range(0..group_size)];
        if a != c {
            b.add_edge(a, c);
        }
    }
    b.build()
}

/// Random layered DAG: `layers × width` nodes; each node links to each node
/// of the next layer with probability `p`. Always acyclic — the natural
/// stress shape for the reachability index.
pub fn layered_dag(layers: usize, width: usize, p: f64, num_labels: usize, seed: u64) -> Graph {
    assert!(layers >= 1 && width >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = layers * width;
    let mut b = GraphBuilder::with_capacity(n, (n as f64 * width as f64 * p) as usize);
    add_labeled_nodes(&mut b, n, num_labels, 0, &mut rng);
    for l in 0..layers.saturating_sub(1) {
        for i in 0..width {
            let u = (l * width + i) as u32;
            let mut out = 0;
            for j in 0..width {
                if rng.gen_bool(p) {
                    b.add_edge(NodeId(u), NodeId(((l + 1) * width + j) as u32));
                    out += 1;
                }
            }
            if out == 0 {
                // Keep layers connected.
                let j = rng.gen_range(0..width);
                b.add_edge(NodeId(u), NodeId(((l + 1) * width + j) as u32));
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_graph::stats::degree_stats;

    #[test]
    fn uniform_has_requested_shape() {
        let g = uniform_random(1000, 2000, 15, 42);
        assert_eq!(g.node_count(), 1000);
        // Dedup may shave a few duplicates.
        assert!(g.edge_count() > 1900 && g.edge_count() <= 2000);
        assert_eq!(g.node_label_str(NodeId(0)), "ME");
    }

    #[test]
    fn uniform_deterministic() {
        let a = uniform_random(500, 1000, 15, 7);
        let b = uniform_random(500, 1000, 15, 7);
        assert_eq!(a.edge_count(), b.edge_count());
        assert!(a.edges().zip(b.edges()).all(|(x, y)| x == y));
    }

    #[test]
    fn power_law_has_hubs() {
        let g = power_law(2000, 3, 15, 1);
        let stats = degree_stats(&g);
        // Heavy tail: max degree far above average.
        assert!(
            stats.max_degree as f64 > stats.avg_degree * 5.0,
            "max {} avg {}",
            stats.max_degree,
            stats.avg_degree
        );
    }

    #[test]
    fn youtube_yahoo_density_contrast() {
        let yt = youtube_like(3000, 2);
        let yh = yahoo_like(3000, 2);
        let d_yt = yt.edge_count() as f64 / yt.node_count() as f64;
        let d_yh = yh.edge_count() as f64 / yh.node_count() as f64;
        assert!(d_yh > d_yt * 1.4, "yahoo {d_yh} vs youtube {d_yt}");
        assert!(d_yt > 2.0 && d_yt < 3.5);
        assert!(d_yh > 4.0 && d_yh < 5.5);
    }

    #[test]
    fn labels_use_alphabet() {
        let g = uniform_random(200, 400, 15, 3);
        // ME + at most 15 synthetic labels.
        assert!(g.labels().len() <= 16);
    }

    #[test]
    fn social_groups_connects_user() {
        let g = social_groups(4, 10, 20, 5);
        assert_eq!(g.node_count(), 41);
        assert!(g.deg_out(NodeId(0)) >= 4, "user linked into each group");
        assert_eq!(g.node_label_str(NodeId(0)), "ME");
        assert!(g.labels().get("G3").is_some());
    }

    #[test]
    fn layered_dag_is_acyclic() {
        let g = layered_dag(10, 20, 0.1, 15, 11);
        assert!(rbq_graph::topo::is_acyclic(&g));
        assert_eq!(g.node_count(), 200);
        assert!(g.edge_count() > 0);
    }

    #[test]
    fn single_node_graphs() {
        let g = uniform_random(1, 0, 15, 0);
        assert_eq!(g.node_count(), 1);
        let g = power_law(1, 3, 15, 0);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn me_label_unique() {
        for g in [
            uniform_random(300, 600, 15, 9),
            power_law(300, 3, 15, 9),
            social_groups(3, 20, 10, 9),
        ] {
            let me = g.labels().get("ME").unwrap();
            assert_eq!(g.nodes_with_label(me).len(), 1);
        }
    }
}
