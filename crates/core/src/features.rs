//! Shared structural node features (xNetMF-style K-hop degree histograms).
//!
//! Three algorithms consume the same permutation-invariant node descriptor:
//! REGAL builds its embeddings from it (paper Equation 8), CONE warm-starts
//! its Wasserstein–Procrustes alternation with it, and S-GWL uses it to
//! steer cluster pairing and leaf transports. The descriptor of node `u` is
//! a histogram over log₂-scaled degree buckets of `u`'s `k`-hop neighbors,
//! hop `h` discounted by `δ^{h−1}`.

use graphalign_graph::Graph;
use graphalign_linalg::DenseMatrix;

/// Feature-extraction parameters (REGAL's defaults: `K = 2`, `δ = 0.1`).
#[derive(Debug, Clone, Copy)]
pub struct FeatureParams {
    /// Neighborhood radius `K`.
    pub k_hops: usize,
    /// Per-hop discount `δ`.
    pub discount: f64,
}

impl Default for FeatureParams {
    fn default() -> Self {
        Self { k_hops: 2, discount: 0.1 }
    }
}

/// Log₂ degree bucket `⌊log₂ d⌋`, with isolated nodes (`d = 0`) in
/// bucket 0. Exact for every degree.
fn degree_bucket(d: usize) -> usize {
    d.checked_ilog2().unwrap_or(0) as usize
}

/// Number of log₂ degree buckets needed to cover both graphs (always ≥ 1).
pub fn bucket_count(source: &Graph, target: &Graph) -> usize {
    degree_bucket(source.max_degree().max(target.max_degree())) + 1
}

/// Structural feature matrix of `g` (`n × buckets`): discounted K-hop
/// degree histograms per node. Degrees past the last bucket count in it.
///
/// Each node `v` runs a K-hop BFS that marks visits with `stamp[w] = v`
/// (so no reset pass between nodes) and only counts its discoveries per
/// degree bucket; after each hop the counts are replayed into row `v` as
/// one `+= δ^{hop−1}` per discovery. All discoveries of a hop add the same
/// weight, so each cell's sequence of additions depends only on its per-hop
/// counts: the row is bit-identical to adding the weight at every discovery
/// in BFS order.
///
/// # Panics
/// Panics if `buckets == 0`; [`bucket_count`] never returns 0.
pub fn structural_features(g: &Graph, params: &FeatureParams, buckets: usize) -> DenseMatrix {
    assert!(buckets > 0, "structural_features: buckets must be at least 1");
    let n = g.node_count();
    let mut feats = DenseMatrix::zeros(n, buckets);
    // A bucket is at most ⌊log₂ usize::MAX⌋ = 63: it fits a u8, and a u8
    // indexes the 256-entry count table without a bounds check.
    let bucket: Vec<u8> =
        (0..n).map(|w| degree_bucket(g.degree(w)).min(buckets - 1) as u8).collect();
    let mut counts = [0usize; 256];
    let mut stamp = vec![usize::MAX; n];
    let mut frontier: Vec<usize> = Vec::new();
    let mut next: Vec<usize> = Vec::new();
    for v in 0..n {
        stamp[v] = v;
        frontier.clear();
        frontier.push(v);
        for hop in 1..=params.k_hops {
            // The last hop's discoveries are counted, never expanded.
            let last = hop == params.k_hops;
            next.clear();
            for &u in &frontier {
                for &w in g.neighbors(u) {
                    if stamp[w] != v {
                        stamp[w] = v;
                        counts[bucket[w] as usize] += 1;
                        if !last {
                            next.push(w);
                        }
                    }
                }
            }
            let weight = params.discount.powi(hop as i32 - 1);
            for (cell, count) in feats.row_mut(v).iter_mut().zip(&mut counts) {
                for _ in 0..*count {
                    *cell += weight;
                }
                *count = 0;
            }
            std::mem::swap(&mut frontier, &mut next);
            if frontier.is_empty() {
                break;
            }
        }
    }
    feats
}

/// Feature matrices for a graph pair, over a shared bucket space.
pub fn feature_pair(
    source: &Graph,
    target: &Graph,
    params: &FeatureParams,
) -> (DenseMatrix, DenseMatrix) {
    graphalign_par::telemetry::time_phase("features", || {
        let buckets = bucket_count(source, target);
        (structural_features(source, params, buckets), structural_features(target, params, buckets))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalign_graph::Permutation;
    use proptest::prelude::*;

    #[test]
    fn features_are_permutation_covariant() {
        let g = graphalign_gen_testutil();
        let p = Permutation::random(g.node_count(), 5);
        let h = p.apply_to_graph(&g);
        let params = FeatureParams::default();
        let buckets = bucket_count(&g, &h);
        let fg = structural_features(&g, &params, buckets);
        let fh = structural_features(&h, &params, buckets);
        for v in 0..g.node_count() {
            for b in 0..buckets {
                assert!(
                    (fg.get(v, b) - fh.get(p.apply(v), b)).abs() < 1e-12,
                    "feature mismatch at node {v}, bucket {b}"
                );
            }
        }
    }

    /// Small deterministic test graph (triangle ring + pendant).
    fn graphalign_gen_testutil() -> Graph {
        let mut edges = Vec::new();
        for i in 0..5 {
            let a = 3 * i;
            edges.push((a, a + 1));
            edges.push((a + 1, a + 2));
            edges.push((a, a + 2));
            edges.push((a + 2, (a + 3) % 15));
        }
        edges.push((0, 15));
        Graph::from_edges(16, &edges)
    }

    #[test]
    fn hop_one_dominates_with_small_discount() {
        let g = graphalign_gen_testutil();
        let near = FeatureParams { k_hops: 1, discount: 0.1 };
        let far = FeatureParams { k_hops: 2, discount: 0.1 };
        let buckets = bucket_count(&g, &g);
        let f1 = structural_features(&g, &near, buckets);
        let f2 = structural_features(&g, &far, buckets);
        // 2-hop features extend 1-hop features by at most discount-weighted
        // counts: the total added mass per node is bounded by 0.1 × n.
        for v in 0..g.node_count() {
            let s1: f64 = f1.row(v).iter().sum();
            let s2: f64 = f2.row(v).iter().sum();
            assert!(s2 >= s1 - 1e-12);
            assert!(s2 - s1 <= 0.1 * g.node_count() as f64);
        }
    }

    #[test]
    fn bucket_count_covers_max_degree() {
        let star = Graph::from_edges(9, &(1..9).map(|i| (0, i)).collect::<Vec<_>>());
        let b = bucket_count(&star, &star);
        // max degree 8 → buckets 0..=3 (log2(8) = 3).
        assert_eq!(b, 4);
    }

    #[test]
    fn isolated_nodes_have_zero_features() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let f = structural_features(&g, &FeatureParams::default(), 2);
        assert_eq!(f.row(2).iter().sum::<f64>(), 0.0);
    }

    #[test]
    #[should_panic(expected = "buckets must be at least 1")]
    fn zero_buckets_panic_with_a_clear_message() {
        structural_features(&Graph::from_edges(2, &[(0, 1)]), &FeatureParams::default(), 0);
    }

    #[test]
    fn degree_bucket_matches_the_float_formula() {
        let float = |d: usize| if d == 0 { 0 } else { (d as f64).log2().floor() as usize };
        let edges = (1..40).flat_map(|k| [(1usize << k) - 1, 1 << k, (1 << k) + 1]);
        for d in (0..=4096).chain(edges) {
            assert_eq!(degree_bucket(d), float(d), "degree {d}");
        }
    }

    /// Plain per-node BFS: a fresh distance array per node, the float
    /// bucket formula, and the hop weight added at every discovery in BFS
    /// order.
    fn reference_features(g: &Graph, params: &FeatureParams, buckets: usize) -> DenseMatrix {
        let n = g.node_count();
        let mut feats = DenseMatrix::zeros(n, buckets);
        for v in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[v] = 0;
            let mut frontier = vec![v];
            for hop in 1..=params.k_hops {
                let weight = params.discount.powi(hop as i32 - 1);
                let mut next = Vec::new();
                for &u in &frontier {
                    for &w in g.neighbors(u) {
                        if dist[w] == usize::MAX {
                            dist[w] = hop;
                            next.push(w);
                            let d = g.degree(w);
                            let b = if d == 0 { 0 } else { (d as f64).log2().floor() as usize };
                            feats.add_to(v, b.min(buckets - 1), weight);
                        }
                    }
                }
                frontier = next;
            }
        }
        feats
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The count-then-replay kernel is bit-identical to the plain BFS on
        /// random graphs with isolated nodes and an optional star hub, for
        /// K = 0..=3, three discounts, and full or clamped bucket ranges.
        #[test]
        fn kernel_is_bit_identical_to_plain_bfs(
            (n, edges) in (1usize..40).prop_flat_map(|n| {
                (Just(n), proptest::collection::vec((0..n, 0..n), 0..3 * n))
            }),
            isolated in 0usize..4,
            hub_stride in 0usize..4,
            k_hops in 0usize..4,
            discount_idx in 0usize..3,
            clamp in 0usize..3,
        ) {
            let discount = [0.1, 0.5, 1.0 / 3.0][discount_idx];
            // Nodes n..n+isolated stay isolated; with a nonzero stride the
            // last node is a hub joined to every stride-th random node.
            let total = n + isolated + usize::from(hub_stride > 0);
            let mut edges = edges;
            if hub_stride > 0 {
                edges.extend((0..n).step_by(hub_stride).map(|u| (u, total - 1)));
            }
            let g = Graph::from_edges(total, &edges);
            let params = FeatureParams { k_hops, discount };
            let buckets = bucket_count(&g, &g).saturating_sub(clamp).max(1);
            let fast = structural_features(&g, &params, buckets);
            let slow = reference_features(&g, &params, buckets);
            for (i, (a, b)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "cell ({}, {}): {} vs {}", i / buckets, i % buckets, a, b
                );
            }
        }
    }
}
