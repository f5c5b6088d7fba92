//! Factored (low-rank) similarity kernels: row evaluation, row-argmax and
//! row-wise top-k over an implicit `n × m` matrix held as a pair of factor
//! matrices, without ever materializing the product.
//!
//! The embedding-based aligners (REGAL, CONE, GRASP, LREA) compute rank-`d`
//! factors `Ya` (`n × d`) and `Yb` (`m × d`) and then compare rows pairwise;
//! the entry `(i, j)` of the implicit similarity matrix is a fixed kernel of
//! `Ya.row(i)` and `Yb.row(j)` (plus an optional per-row offset). Routing the
//! factors to the assignment layer instead of the `n × m` product is what
//! keeps those methods subquadratic in memory (fig13/fig14 scale).
//!
//! Every evaluation goes through the same `simd` microkernels that
//! `vec_ops` forwards to (the kernels of the dense constructors used before
//! this module existed), so row scans here are bit-identical to the
//! corresponding rows of the densified matrix:
//!
//! * [`LowRankKernel::Dot`] matches `DenseMatrix::matmul_tr`, whose per-element
//!   ascending shared-index summation is documented to equal
//!   [`vec_ops::dot`] bit for bit.
//! * [`LowRankKernel::NegSqDist`] and [`LowRankKernel::ExpNegSqDist`] evaluate
//!   the exact closure the dense constructors pass to
//!   `DenseMatrix::par_from_fn` (`-dist2_sq` and `(-dist2_sq).exp()`).
//!
//! An entry is computed in two steps, a monotone *key* ([`LowRankSim::key`],
//! the dot product or `-dist2_sq`) and its finish
//! ([`LowRankSim::value_from_key`]: `exp` for `ExpNegSqDist`, then the row
//! offset), so a top-k scan can discard most entries on the key alone.

use crate::dense::DenseMatrix;
use crate::simd;
use crate::vec_ops;
use crate::workspace::Workspace;

/// The pairwise kernel an implicit factored similarity applies to a row of
/// `Ya` and a row of `Yb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LowRankKernel {
    /// `ya_i · yb_j` — an implicit `Ya · Ybᵀ` product (LREA).
    Dot,
    /// `-‖ya_i - yb_j‖²` — negated squared Euclidean distance (GRASP).
    NegSqDist,
    /// `exp(-‖ya_i - yb_j‖²)` — the embedding similarity of REGAL and CONE.
    ExpNegSqDist,
}

impl LowRankKernel {
    /// Stable lower-snake-case name used in JSON and docs.
    pub fn as_str(self) -> &'static str {
        match self {
            LowRankKernel::Dot => "dot",
            LowRankKernel::NegSqDist => "neg_sq_dist",
            LowRankKernel::ExpNegSqDist => "exp_neg_sq_dist",
        }
    }

    /// Whether larger kernel values correspond to smaller factor-row
    /// distances, i.e. whether a nearest-neighbor structure over the rows of
    /// `Yb` (k-d tree) can answer row-argmax queries for this kernel.
    pub fn is_distance_kernel(self) -> bool {
        matches!(self, LowRankKernel::NegSqDist | LowRankKernel::ExpNegSqDist)
    }

    /// The monotone pre-image of the kernel: `a · b` for `Dot`,
    /// `-‖a − b‖²` for the distance kernels. [`Self::finish`] maps it to the
    /// kernel value without reordering any two keys.
    #[inline]
    fn key(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            LowRankKernel::Dot => simd::dot(a, b),
            LowRankKernel::NegSqDist | LowRankKernel::ExpNegSqDist => -simd::dist2_sq(a, b),
        }
    }

    /// Kernel value of a key: `exp(key)` for `ExpNegSqDist`, the key itself
    /// otherwise.
    #[inline]
    fn finish(self, key: f64) -> f64 {
        match self {
            LowRankKernel::ExpNegSqDist => key.exp(),
            LowRankKernel::Dot | LowRankKernel::NegSqDist => key,
        }
    }

    /// The pruning floor of a top-k scan whose worst kept candidate has key
    /// `worst`: every key strictly below the floor finishes (with the same
    /// finite row offset) to a value no greater than `worst`'s, so it can
    /// never beat that candidate. For `Dot` and `NegSqDist` the finish is the
    /// identity and `x ↦ fl(x + off)` is monotone, so the floor is `worst`
    /// itself. libm `exp` is accurate to below 1 ULP but not guaranteed
    /// monotone, so `ExpNegSqDist` keeps a `1e-12` margin — a relative gap
    /// in `exp` thousands of ULPs wide — and does not prune at all below
    /// `-700`, where `exp` nears the subnormal range and ULPs stop being
    /// relative. A NaN `worst` yields a NaN floor, which prunes nothing.
    pub fn prune_floor(self, worst: f64) -> f64 {
        match self {
            LowRankKernel::Dot | LowRankKernel::NegSqDist => worst,
            LowRankKernel::ExpNegSqDist if worst < -700.0 => f64::NEG_INFINITY,
            LowRankKernel::ExpNegSqDist => worst - 1e-12,
        }
    }
}

/// An implicit `n × m` similarity matrix held in factored form: entry
/// `(i, j)` is `kernel(ya.row(i), yb.row(j)) + row_offsets[i]` (offsets
/// default to zero and never change within-row argmax results).
#[derive(Debug, Clone, PartialEq)]
pub struct LowRankSim {
    ya: DenseMatrix,
    yb: DenseMatrix,
    kernel: LowRankKernel,
    row_offsets: Option<Vec<f64>>,
}

impl LowRankSim {
    /// Wraps factor matrices with `ya.cols() == yb.cols()` shared rank.
    ///
    /// # Panics
    /// Panics when the factor ranks differ.
    pub fn new(ya: DenseMatrix, yb: DenseMatrix, kernel: LowRankKernel) -> Self {
        assert_eq!(ya.cols(), yb.cols(), "LowRankSim: factor ranks differ");
        Self { ya, yb, kernel, row_offsets: None }
    }

    /// Adds a per-row additive offset (length `rows()`); entry `(i, j)`
    /// becomes `kernel(i, j) + offsets[i]`.
    ///
    /// # Panics
    /// Panics when `offsets.len() != rows()`.
    pub fn with_row_offsets(mut self, offsets: Vec<f64>) -> Self {
        assert_eq!(offsets.len(), self.rows(), "LowRankSim: row-offset length mismatch");
        self.row_offsets = Some(offsets);
        self
    }

    /// Number of implicit rows (`ya` rows).
    pub fn rows(&self) -> usize {
        self.ya.rows()
    }

    /// Number of implicit columns (`yb` rows).
    pub fn cols(&self) -> usize {
        self.yb.rows()
    }

    /// Shared factor rank `d`.
    pub fn rank(&self) -> usize {
        self.ya.cols()
    }

    /// The left factor (`rows × rank`).
    pub fn ya(&self) -> &DenseMatrix {
        &self.ya
    }

    /// The right factor (`cols × rank`).
    pub fn yb(&self) -> &DenseMatrix {
        &self.yb
    }

    /// The kernel applied to factor-row pairs.
    pub fn kernel(&self) -> LowRankKernel {
        self.kernel
    }

    /// The per-row additive offsets, when set.
    pub fn row_offsets(&self) -> Option<&[f64]> {
        self.row_offsets.as_deref()
    }

    /// Evaluates the implicit entry `(i, j)`:
    /// `value_from_key(i, key(i, j))`.
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.value_from_key(i, self.key(i, j))
    }

    /// The monotone pre-image of entry `(i, j)` (see
    /// [`LowRankKernel::prune_floor`]): `dot` for `Dot`, `-dist2_sq` for the
    /// distance kernels.
    pub fn key(&self, i: usize, j: usize) -> f64 {
        self.kernel.key(self.ya.row(i), self.yb.row(j))
    }

    /// Finishes a key of row `i` into its entry value: the kernel's `exp`
    /// (for `ExpNegSqDist`), then the row offset.
    #[inline]
    pub fn value_from_key(&self, i: usize, key: f64) -> f64 {
        self.kernel.finish(key) + self.row_offsets.as_ref().map_or(0.0, |o| o[i])
    }

    /// Fills `out` with the keys of row `i` at columns `c0..c0 + out.len()`,
    /// each bit-identical to [`Self::key`]; the kernel is dispatched once per
    /// call, not per entry.
    ///
    /// # Panics
    /// Panics when the column range exceeds `cols()`.
    pub fn fill_keys(&self, i: usize, c0: usize, out: &mut [f64]) {
        let a = self.ya.row(i);
        let cols = (c0..c0 + out.len()).map(|j| self.yb.row(j));
        match self.kernel {
            LowRankKernel::Dot => {
                for (o, b) in out.iter_mut().zip(cols) {
                    *o = simd::dot(a, b);
                }
            }
            LowRankKernel::NegSqDist | LowRankKernel::ExpNegSqDist => {
                for (o, b) in out.iter_mut().zip(cols) {
                    *o = -simd::dist2_sq(a, b);
                }
            }
        }
    }

    /// Fills `out` with row `i` of the implicit matrix. Bit-identical to the
    /// corresponding row of [`Self::fill_dense`]'s output.
    ///
    /// # Panics
    /// Panics when `out.len() != cols()`.
    pub fn fill_row(&self, i: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols(), "fill_row: output length mismatch");
        self.fill_keys(i, 0, out);
        for o in out.iter_mut() {
            *o = self.value_from_key(i, *o);
        }
    }

    /// First strict maximum of row `i` (lowest column index wins ties),
    /// matching [`vec_ops::argmax`] on the densified row. `None` only for a
    /// zero-column matrix. Uses an `O(cols)` scratch row from `ws`.
    pub fn row_argmax(&self, i: usize, ws: &mut Workspace) -> Option<usize> {
        if self.cols() == 0 {
            return None;
        }
        let mut buf = ws.take(self.cols());
        self.fill_row(i, &mut buf);
        let best = vec_ops::argmax(&buf);
        ws.give(buf);
        best
    }

    /// The next `k` candidates of row `i` in the dense sort-greedy order —
    /// value descending (`partial_cmp`, so `-0.0` ties `0.0`), then column
    /// ascending — strictly after `after` in that order (`None` starts at the
    /// top). Uses an `O(cols)` scratch row from `ws`.
    ///
    /// # Panics
    /// Panics when a row value is NaN (callers assert finiteness up front).
    pub fn row_top_k_after(
        &self,
        i: usize,
        after: Option<(f64, usize)>,
        k: usize,
        ws: &mut Workspace,
    ) -> Vec<(f64, usize)> {
        let mut buf = ws.take(self.cols());
        self.fill_row(i, &mut buf);
        let mut cands: Vec<(f64, usize)> = Vec::new();
        for (j, &v) in buf.iter().enumerate() {
            let eligible = match after {
                None => true,
                Some((av, aj)) => v < av || (v == av && j > aj),
            };
            if eligible {
                cands.push((v, j));
            }
        }
        ws.give(buf);
        cands.sort_by(|x, y| {
            y.0.partial_cmp(&x.0).expect("row_top_k_after: NaN value").then(x.1.cmp(&y.1))
        });
        cands.truncate(k);
        cands
    }

    /// Materializes the full matrix into `out` (shape `rows × cols`),
    /// bit-identical to the dense constructors this factored form replaced:
    /// `Dot` runs `matmul_tr_into` (documented bit-equal to per-entry
    /// [`vec_ops::dot`]), the distance kernels evaluate the exact
    /// `par_from_fn` closures of the pre-factored code.
    pub fn fill_dense(&self, out: &mut DenseMatrix, ws: &mut Workspace) {
        assert_eq!(out.shape(), (self.rows(), self.cols()), "fill_dense: output shape mismatch");
        match self.kernel {
            LowRankKernel::Dot => {
                self.ya.matmul_tr_into(&self.yb, out, ws);
                if let Some(off) = &self.row_offsets {
                    for i in 0..self.rows() {
                        let d = off[i];
                        for j in 0..self.cols() {
                            out.set(i, j, out.get(i, j) + d);
                        }
                    }
                }
            }
            LowRankKernel::NegSqDist | LowRankKernel::ExpNegSqDist => {
                out.par_fill_from_fn(|i, j| self.value(i, j));
            }
        }
    }

    /// Bytes held by the factored representation (factors + offsets).
    pub fn nbytes(&self) -> usize {
        8 * (self.ya.rows() * self.ya.cols() + self.yb.rows() * self.yb.cols())
            + self.row_offsets.as_ref().map_or(0, |o| 8 * o.len())
    }

    /// Whether both factors and the offsets are free of NaN/infinities.
    pub fn all_finite(&self) -> bool {
        self.ya.all_finite()
            && self.yb.all_finite()
            && self.row_offsets.as_deref().is_none_or(vec_ops::all_finite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factors() -> (DenseMatrix, DenseMatrix) {
        let ya = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.5, 0.5], &[0.0, -1.0]]);
        let yb = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[0.5, -0.5], &[2.0, 2.0]]);
        (ya, yb)
    }

    #[test]
    fn value_and_fill_row_match_fill_dense_bitwise() {
        let mut ws = Workspace::new();
        // Without offsets too: `ya` row 0 and `yb` row 1 coincide, so the
        // distance kernels see a `-0.0` key there.
        let kernels = [LowRankKernel::Dot, LowRankKernel::NegSqDist, LowRankKernel::ExpNegSqDist];
        for (kernel, offsets) in kernels.into_iter().flat_map(|k| [(k, false), (k, true)]) {
            let (ya, yb) = factors();
            let mut lr = LowRankSim::new(ya, yb, kernel);
            if offsets {
                lr = lr.with_row_offsets(vec![0.25, 0.0, -1.5]);
            }
            let mut dense = DenseMatrix::zeros(lr.rows(), lr.cols());
            lr.fill_dense(&mut dense, &mut ws);
            let mut row = vec![0.0; lr.cols()];
            for i in 0..lr.rows() {
                lr.fill_row(i, &mut row);
                for j in 0..lr.cols() {
                    assert_eq!(
                        row[j].to_bits(),
                        dense.get(i, j).to_bits(),
                        "({i},{j}) {kernel:?} offsets {offsets}"
                    );
                    assert_eq!(lr.value(i, j).to_bits(), dense.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn fill_keys_match_key_and_finish_to_value() {
        for kernel in [LowRankKernel::Dot, LowRankKernel::NegSqDist, LowRankKernel::ExpNegSqDist] {
            let (ya, yb) = factors();
            let lr = LowRankSim::new(ya, yb, kernel).with_row_offsets(vec![0.25, 0.0, -1.5]);
            let mut keys = vec![0.0; 3];
            for i in 0..lr.rows() {
                lr.fill_keys(i, 1, &mut keys);
                for (j, key) in (1..).zip(&keys) {
                    assert_eq!(key.to_bits(), lr.key(i, j).to_bits(), "({i},{j}) {kernel:?}");
                    let v = lr.value_from_key(i, *key);
                    assert_eq!(v.to_bits(), lr.value(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn prune_floor_keeps_the_exp_margin_and_the_subnormal_guard() {
        assert_eq!(LowRankKernel::Dot.prune_floor(-3.5), -3.5);
        assert_eq!(LowRankKernel::NegSqDist.prune_floor(-3.5), -3.5);
        assert_eq!(LowRankKernel::ExpNegSqDist.prune_floor(-3.5), -3.5 - 1e-12);
        assert_eq!(LowRankKernel::ExpNegSqDist.prune_floor(-700.5), f64::NEG_INFINITY);
        assert!(LowRankKernel::ExpNegSqDist.prune_floor(f64::NAN).is_nan());
    }

    #[test]
    fn row_argmax_matches_dense_argmax() {
        let mut ws = Workspace::new();
        for kernel in [LowRankKernel::Dot, LowRankKernel::NegSqDist, LowRankKernel::ExpNegSqDist] {
            let (ya, yb) = factors();
            let lr = LowRankSim::new(ya, yb, kernel);
            let mut dense = DenseMatrix::zeros(lr.rows(), lr.cols());
            lr.fill_dense(&mut dense, &mut ws);
            for i in 0..lr.rows() {
                assert_eq!(lr.row_argmax(i, &mut ws), vec_ops::argmax(dense.row(i)), "{kernel:?}");
            }
        }
    }

    #[test]
    fn row_top_k_after_pages_through_the_whole_row_in_order() {
        let (ya, yb) = factors();
        let lr = LowRankSim::new(ya, yb, LowRankKernel::Dot);
        let mut ws = Workspace::new();
        // Page through row 1 two candidates at a time and check the
        // concatenation is the full row sorted (value desc, col asc).
        let mut paged = Vec::new();
        let mut after = None;
        loop {
            let chunk = lr.row_top_k_after(1, after, 2, &mut ws);
            if chunk.is_empty() {
                break;
            }
            after = Some(*chunk.last().unwrap());
            paged.extend(chunk);
        }
        let mut full: Vec<(f64, usize)> = (0..lr.cols()).map(|j| (lr.value(1, j), j)).collect();
        full.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap().then(x.1.cmp(&y.1)));
        assert_eq!(paged, full);
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        let lr =
            LowRankSim::new(DenseMatrix::zeros(1, 1), DenseMatrix::zeros(1, 1), LowRankKernel::Dot);
        let mut ws = Workspace::new();
        assert_eq!(lr.row_argmax(0, &mut ws), Some(0));
        let empty_cols =
            LowRankSim::new(DenseMatrix::zeros(2, 3), DenseMatrix::zeros(0, 3), LowRankKernel::Dot);
        assert_eq!(empty_cols.row_argmax(0, &mut ws), None);
        assert!(empty_cols.row_top_k_after(0, None, 4, &mut ws).is_empty());
    }

    #[test]
    fn all_finite_flags_bad_factors_and_offsets() {
        let (ya, yb) = factors();
        let lr = LowRankSim::new(ya.clone(), yb.clone(), LowRankKernel::Dot);
        assert!(lr.all_finite());
        assert!(!lr.with_row_offsets(vec![0.0, f64::NAN, 0.0]).all_finite());
        let mut bad = ya;
        bad.set(0, 0, f64::INFINITY);
        assert!(!LowRankSim::new(bad, yb, LowRankKernel::Dot).all_finite());
    }
}
