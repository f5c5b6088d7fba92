//! REGAL — REpresentation learning-based Graph ALignment (Heimann, Shen,
//! Safavi, Koutra 2018), paper §3.5.
//!
//! REGAL's xNetMF embedding works in three steps:
//!
//! 1. **Structural identity**: each node gets a histogram of the
//!    (log-bucketed) degrees of its `K`-hop neighborhoods, discounted by
//!    `δ^{k−1}` (Equation 8). We run the study's `K = 2`.
//! 2. **Nyström cross-embedding**: `p = 10·log₂ n` landmark nodes are drawn
//!    from both graphs; the node-to-landmark similarity matrix `C`
//!    (Equation 9 with `γ_s = 1`, attributes disabled) and the
//!    pseudo-inverse of the landmark block `W` give embeddings
//!    `Y = C·U·Σ^{−1/2}` without ever forming the full similarity matrix.
//! 3. **Alignment**: greedy nearest-neighbor matching of the embeddings via
//!    a k-d tree (Equation 10) — the study then restricts REGAL to
//!    one-to-one outputs with SG/JV on the same embedding similarity.

use crate::features::{feature_pair, FeatureParams};
use crate::{check_sizes, AlignError, Aligner};
use graphalign_assignment::AssignmentMethod;
use graphalign_graph::Graph;
use graphalign_linalg::svd::thin_svd;
use graphalign_linalg::{DenseMatrix, LowRankKernel, LowRankSim, Similarity};
use rand::prelude::*;
use rand::rngs::StdRng;

/// REGAL with the study's tuned hyperparameters (Table 1: `K = 2`,
/// `p = 10·log₂ n`, NN native assignment).
#[derive(Debug, Clone)]
pub struct Regal {
    /// Neighborhood radius `K` (Equation 8).
    pub k_hops: usize,
    /// Per-hop discount factor `δ`.
    pub discount: f64,
    /// Structural similarity weight `γ_s` (Equation 9).
    pub gamma_struct: f64,
    /// Landmark count override; `None` uses the paper's `10·log₂ n`.
    pub landmarks: Option<usize>,
    /// Seed for landmark selection.
    pub seed: u64,
}

impl Default for Regal {
    fn default() -> Self {
        Self { k_hops: 2, discount: 0.1, gamma_struct: 1.0, landmarks: None, seed: 0x2e6a1 }
    }
}

impl Regal {
    /// The xNetMF embeddings of both graphs: `(Y_A, Y_B)` with `p`
    /// dimensions each, rows L2-normalized.
    ///
    /// # Errors
    /// Propagates SVD failures on the landmark block.
    pub fn embeddings(
        &self,
        source: &Graph,
        target: &Graph,
    ) -> Result<(DenseMatrix, DenseMatrix), AlignError> {
        let n_a = source.node_count();
        let n_b = target.node_count();
        let total = n_a + n_b;
        let params = FeatureParams { k_hops: self.k_hops, discount: self.discount };
        let (fa, fb) = feature_pair(source, target, &params);
        let all = fa.vstack(&fb);

        let p = self
            .landmarks
            .unwrap_or_else(|| (10.0 * (total.max(2) as f64).log2()).round() as usize)
            .clamp(1, total);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut ids: Vec<usize> = (0..total).collect();
        ids.shuffle(&mut rng);
        let landmarks: Vec<usize> = ids.into_iter().take(p).collect();

        // C: node-to-landmark similarity (Equation 9, attributes off),
        // computed in parallel over node rows.
        let c = DenseMatrix::par_from_fn(total, p, |i, l| {
            let d2 = graphalign_linalg::vec_ops::dist2_sq(all.row(i), all.row(landmarks[l]));
            (-self.gamma_struct * d2).exp()
        });
        // W: landmark-to-landmark block; embeddings Y = C · U · Σ^{−1/2}.
        let w = c.select_rows(&landmarks);
        let svd = thin_svd(&w).map_err(AlignError::Numerical)?;
        let cutoff = svd.sigma.first().copied().unwrap_or(0.0) * 1e-7;
        let rank = svd.sigma.iter().filter(|&&s| s > cutoff).count().max(1);
        let mut u_scaled = DenseMatrix::zeros(p, rank);
        for j in 0..rank {
            let scale = 1.0 / svd.sigma[j].sqrt();
            for i in 0..p {
                u_scaled.set(i, j, svd.u.get(i, j) * scale);
            }
        }
        let mut y = c.matmul(&u_scaled);
        y.normalize_rows();

        // Split back into the two graphs.
        let ya = y.select_rows(&(0..n_a).collect::<Vec<_>>());
        let yb = y.select_rows(&(n_a..total).collect::<Vec<_>>());
        Ok((ya, yb))
    }
}

impl Aligner for Regal {
    fn name(&self) -> &'static str {
        "REGAL"
    }

    fn native_assignment(&self) -> AssignmentMethod {
        AssignmentMethod::NearestNeighbor
    }

    /// REGAL's similarity stays factored: `sim(u, v) = exp(−‖Y_A[u] −
    /// Y_B[v]‖²)` (Equation 10) over the xNetMF embeddings, carried as
    /// `O(n · p)` factors instead of the `n × n` matrix. The assignment layer
    /// runs NN through the k-d tree directly on the factors — REGAL's native
    /// extraction — and densifies only for the LAP solvers.
    fn similarity(&self, source: &Graph, target: &Graph) -> Result<Similarity, AlignError> {
        check_sizes(source, target)?;
        let (ya, yb) = self.embeddings(source, target)?;
        Ok(Similarity::LowRank(LowRankSim::new(ya, yb, LowRankKernel::ExpNegSqDist)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::permuted_instance;
    use graphalign_metrics::{accuracy, mnc};

    #[test]
    fn defaults_match_table1() {
        let r = Regal::default();
        assert_eq!(r.k_hops, 2);
        assert_eq!(r.native_assignment(), AssignmentMethod::NearestNeighbor);
    }

    #[test]
    fn embeddings_have_matching_dimensions_and_unit_rows() {
        let inst = permuted_instance(5, 4);
        let (ya, yb) = Regal::default().embeddings(&inst.source, &inst.target).unwrap();
        assert_eq!(ya.cols(), yb.cols());
        assert_eq!(ya.rows(), inst.source.node_count());
        for i in 0..ya.rows() {
            let norm = graphalign_linalg::vec_ops::norm2(ya.row(i));
            assert!(norm < 1.0 + 1e-9, "rows must be normalized, got {norm}");
        }
    }

    #[test]
    fn structurally_aligned_nodes_get_consistent_neighborhoods() {
        // REGAL embeds structure, not identity: isomorphic twins share
        // features, so NN may tie-break arbitrarily among them. MNC is the
        // right structural yardstick here.
        let inst = permuted_instance(6, 9);
        let aligned = Regal::default()
            .align_with(&inst.source, &inst.target, AssignmentMethod::JonkerVolgenant)
            .unwrap();
        let score = mnc(&inst.source, &inst.target, &aligned);
        assert!(score > 0.3, "REGAL MNC on isomorphic graphs: {score}");
    }

    #[test]
    fn native_nn_and_matrix_nn_agree() {
        let inst = permuted_instance(4, 10);
        let r = Regal::default();
        let native = r.align(&inst.source, &inst.target).unwrap();
        let via_matrix = {
            let sim = r.similarity(&inst.source, &inst.target).unwrap();
            graphalign_assignment::assign(&sim, AssignmentMethod::NearestNeighbor)
        };
        // Both take the closest embedding; distances tie only on exact
        // duplicates, where either answer is fine — compare distances
        // instead of indices.
        let (ya, yb) = r.embeddings(&inst.source, &inst.target).unwrap();
        for i in 0..native.len() {
            let d1 = graphalign_linalg::vec_ops::dist2_sq(ya.row(i), yb.row(native[i]));
            let d2 = graphalign_linalg::vec_ops::dist2_sq(ya.row(i), yb.row(via_matrix[i]));
            assert!((d1 - d2).abs() < 1e-9, "node {i}: {d1} vs {d2}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = permuted_instance(4, 12);
        let r = Regal::default();
        let a = r.align(&inst.source, &inst.target).unwrap();
        let b = r.align(&inst.source, &inst.target).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn degree_distinct_graph_aligns_well() {
        // A star-of-paths graph where every node has a unique 2-hop profile.
        use graphalign_graph::permutation::AlignmentInstance;
        let mut edges = vec![];
        // Central hub 0 with arms of distinct lengths.
        let mut next = 1;
        for arm in 1..=6 {
            let mut prev = 0;
            for _ in 0..arm {
                edges.push((prev, next));
                prev = next;
                next += 1;
            }
        }
        let g = Graph::from_edges(next, &edges);
        let inst = AlignmentInstance::permuted(g, 77);
        let aligned = Regal::default()
            .align_with(&inst.source, &inst.target, AssignmentMethod::JonkerVolgenant)
            .unwrap();
        let acc = accuracy(&aligned, &inst.ground_truth);
        assert!(acc > 0.2, "REGAL accuracy on arm graph: {acc}");
    }
}
