//! Sharded blocked top-k over factored similarities.
//!
//! The XL-tier replacement for per-row full scans: rows are partitioned into
//! fixed shards, each shard walks the column space in fixed-order tiles of the
//! implicit factor product, and every row keeps only a bounded heap of its
//! `k` best candidates. Live memory per worker is one tile of keys plus the
//! heaps — never a full row of an `n × m` product, let alone the product.
//! Only columns whose key reaches the heap's floor pay for `exp` and a heap
//! offer (see [`sharded_row_top_k_counted`]).
//!
//! Determinism: each row is owned by exactly one shard, shards are mapped over
//! a fixed ascending range by [`par::map_collect`] (which assembles results in
//! input order regardless of scheduling), and the tile walk within a shard is
//! sequential ascending. The per-row result is therefore a pure function of
//! `(similarity, k, config)` — bit-identical at any thread count and any
//! shard/tile size, which the tests pin against the single-shard reference
//! [`LowRankSim::row_top_k_after`].

use graphalign_linalg::{LowRankKernel, LowRankSim};
use graphalign_par as par;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Shard/tile geometry for [`sharded_row_top_k`].
#[derive(Debug, Clone, Copy)]
pub struct TopKConfig {
    /// Rows per shard (one parallel work item).
    pub shard_rows: usize,
    /// Columns per tile within a shard's scan.
    pub tile_cols: usize,
}

impl Default for TopKConfig {
    fn default() -> Self {
        Self { shard_rows: 128, tile_cols: 2048 }
    }
}

/// Heap entry ordered by *worseness*: the heap max is the worst kept
/// candidate, so a bounded top-k needs only `peek`/`pop`/`push`. A candidate
/// `a` is worse than `b` when `a.v < b.v`, ties broken toward the larger
/// column — the exact complement of the dense order (value descending by
/// `partial_cmp`, column ascending). The key rides along for the pruning
/// floor and takes no part in the order.
#[derive(Debug)]
struct Worst {
    v: f64,
    j: usize,
    key: f64,
}

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        self.v == other.v && self.j == other.j
    }
}

impl Eq for Worst {}

impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .v
            .partial_cmp(&self.v)
            .expect("finite similarities")
            .then_with(|| self.j.cmp(&other.j))
    }
}

impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Bounded per-row candidate heap: keeps the `k` best `(value, col)` pairs
/// seen so far under the dense order, plus the key floor below which a
/// later column cannot enter.
struct BoundedTopK {
    k: usize,
    heap: BinaryHeap<Worst>,
    /// [`LowRankKernel::prune_floor`] of the worst kept key once the heap
    /// is full; `-∞` (prune nothing) until then.
    floor: f64,
}

impl BoundedTopK {
    /// Capacity is bounded by the row length, not by the requested `k`.
    fn new(k: usize, cols: usize) -> Self {
        Self { k, heap: BinaryHeap::with_capacity(k.min(cols) + 1), floor: f64::NEG_INFINITY }
    }

    #[inline]
    fn offer(&mut self, v: f64, j: usize, key: f64, kernel: LowRankKernel) {
        let cand = Worst { v, j, key };
        if self.heap.len() < self.k {
            self.heap.push(cand);
        } else {
            match self.heap.peek_mut() {
                // Strictly better than the worst kept candidate?
                Some(mut worst) if cand < *worst => *worst = cand,
                _ => return,
            }
        }
        if self.heap.len() == self.k {
            let worst = self.heap.peek().expect("a full heap with k > 0 is non-empty");
            self.floor = kernel.prune_floor(worst.key);
        }
    }

    /// Best-first candidate list (value descending, column ascending) —
    /// exactly the order `row_top_k_after(i, None, k)` returns.
    fn into_sorted(self) -> Vec<(f64, usize)> {
        self.heap.into_sorted_vec().into_iter().map(|w| (w.v, w.j)).collect()
    }
}

/// Top-`k` candidates of every row of the factored similarity, computed by
/// fixed-order sharded tile scans. Returns one best-first candidate list per
/// row, each bit-identical to `lr.row_top_k_after(i, None, k, ..)` at any
/// thread count (proven by the cross-checks in the tests and the XL
/// integration suite).
pub fn sharded_row_top_k(lr: &LowRankSim, k: usize, cfg: &TopKConfig) -> Vec<Vec<(f64, usize)>> {
    sharded_row_top_k_counted(lr, k, cfg).0
}

/// [`sharded_row_top_k`], also returning how many of the `rows × cols`
/// entries passed the key floor, i.e. were finished (`exp`, row offset)
/// and offered to a heap.
///
/// Each row's keys are computed a tile at a time by
/// [`LowRankSim::fill_keys`]; once the row's heap holds `k` candidates, a
/// key below the [`LowRankKernel::prune_floor`] of the worst kept key is
/// dropped without being finished. That is exact for finite row offsets:
/// such a key finishes to a value no greater than the worst kept one, and
/// on a tie it loses anyway, because columns are scanned in ascending order
/// and every kept column is smaller. A NaN key is never below the floor, so
/// it still reaches the heap's `finite similarities` check.
pub fn sharded_row_top_k_counted(
    lr: &LowRankSim,
    k: usize,
    cfg: &TopKConfig,
) -> (Vec<Vec<(f64, usize)>>, u64) {
    let (n, m) = (lr.rows(), lr.cols());
    let kernel = lr.kernel();
    let shard_rows = cfg.shard_rows.max(1);
    let tile_cols = cfg.tile_cols.clamp(1, m.max(1));
    let shards = n.div_ceil(shard_rows);
    // Cost per shard ≈ shard_rows × m kernel evaluations; the weight makes
    // the scheduler fork even for a single large shard row range.
    let weight = shard_rows.saturating_mul(m).max(1);
    let per_shard = par::map_collect(shards, weight, |s| {
        let lo = s * shard_rows;
        let hi = lo.saturating_add(shard_rows).min(n);
        let mut heaps: Vec<BoundedTopK> = (lo..hi).map(|_| BoundedTopK::new(k, m)).collect();
        let mut keys = vec![0.0; tile_cols];
        let mut offered = 0u64;
        let mut c0 = 0;
        while c0 < m {
            let c1 = (c0 + tile_cols).min(m);
            let keys = &mut keys[..c1 - c0];
            for (heap, i) in heaps.iter_mut().zip(lo..hi) {
                lr.fill_keys(i, c0, keys);
                for (j, &key) in (c0..).zip(keys.iter()) {
                    if key < heap.floor {
                        continue;
                    }
                    offered += 1;
                    heap.offer(lr.value_from_key(i, key), j, key, kernel);
                }
            }
            c0 = c1;
        }
        (heaps.into_iter().map(BoundedTopK::into_sorted).collect::<Vec<_>>(), offered)
    });
    // Fixed shard order: concatenation is row order 0..n.
    let mut out = Vec::with_capacity(n);
    let mut offered = 0;
    for (shard, count) in per_shard {
        out.extend(shard);
        offered += count;
    }
    (out, offered)
}

/// Sharded top-1: the nearest-neighbor column of every row (maximum value,
/// lowest column on ties — the [`graphalign_linalg::vec_ops`] `argmax`
/// convention), computed with the same deterministic shard scan.
///
/// # Panics
/// Panics when the similarity has zero columns.
pub fn nearest_neighbor_sharded(lr: &LowRankSim, cfg: &TopKConfig) -> Vec<usize> {
    assert!(lr.cols() > 0, "nearest_neighbor_sharded: no columns to match");
    sharded_row_top_k(lr, 1, cfg)
        .into_iter()
        .map(|row| row.first().expect("cols > 0 guarantees a candidate").1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalign_linalg::{DenseMatrix, Workspace};
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_lowrank(rng: &mut StdRng, kernel: LowRankKernel) -> LowRankSim {
        let (n, d) = (rng.random_range(1..40usize), rng.random_range(1..4usize));
        let m = rng.random_range(1..60usize);
        // Coarse grid values force plenty of exact ties.
        let ya = DenseMatrix::from_fn(n, d, |_, _| rng.random_range(-2..3) as f64 * 0.5);
        let yb = DenseMatrix::from_fn(m, d, |_, _| rng.random_range(-2..3) as f64 * 0.5);
        let lr = LowRankSim::new(ya, yb, kernel);
        if rng.random_range(0..10) < 3 {
            let offs = (0..n).map(|i| (i % 3) as f64 * 0.25).collect();
            lr.with_row_offsets(offs)
        } else {
            lr
        }
    }

    #[test]
    fn matches_single_shard_reference_for_all_kernels() {
        let mut rng = StdRng::seed_from_u64(1031);
        let mut ws = Workspace::new();
        for kernel in [LowRankKernel::Dot, LowRankKernel::NegSqDist, LowRankKernel::ExpNegSqDist] {
            for _ in 0..8 {
                let lr = random_lowrank(&mut rng, kernel);
                let k = rng.random_range(1..8usize);
                // Deliberately tiny shards/tiles to exercise every boundary.
                let cfg = TopKConfig {
                    shard_rows: rng.random_range(1..5usize),
                    tile_cols: rng.random_range(1..7usize),
                };
                let got = sharded_row_top_k(&lr, k, &cfg);
                for (i, row) in got.iter().enumerate() {
                    let want = lr.row_top_k_after(i, None, k, &mut ws);
                    assert_eq!(*row, want, "{kernel:?} row {i} cfg {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn identical_across_thread_counts_and_geometries() {
        let mut rng = StdRng::seed_from_u64(77);
        let lr = random_lowrank(&mut rng, LowRankKernel::NegSqDist);
        let reference = sharded_row_top_k(
            &lr,
            5,
            &TopKConfig { shard_rows: usize::MAX, tile_cols: usize::MAX },
        );
        for threads in [1usize, 2, 8] {
            graphalign_par::set_max_threads(threads);
            for cfg in [
                TopKConfig::default(),
                TopKConfig { shard_rows: 1, tile_cols: 3 },
                TopKConfig { shard_rows: 7, tile_cols: 2 },
            ] {
                assert_eq!(
                    sharded_row_top_k(&lr, 5, &cfg),
                    reference,
                    "threads={threads} cfg={cfg:?}"
                );
            }
        }
        graphalign_par::set_max_threads(0);
    }

    #[test]
    fn top1_matches_row_argmax() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ws = Workspace::new();
        for kernel in [LowRankKernel::Dot, LowRankKernel::ExpNegSqDist] {
            for _ in 0..6 {
                let lr = random_lowrank(&mut rng, kernel);
                let nn = nearest_neighbor_sharded(&lr, &TopKConfig::default());
                for (i, &col) in nn.iter().enumerate() {
                    assert_eq!(Some(col), lr.row_argmax(i, &mut ws), "{kernel:?} row {i}");
                }
            }
        }
    }

    #[test]
    fn k_zero_and_k_beyond_cols_are_well_defined() {
        let ya = DenseMatrix::filled(3, 2, 1.0);
        let yb = DenseMatrix::filled(4, 2, 1.0);
        let lr = LowRankSim::new(ya, yb, LowRankKernel::Dot);
        let none = sharded_row_top_k(&lr, 0, &TopKConfig::default());
        assert!(none.iter().all(Vec::is_empty));
        let all = sharded_row_top_k(&lr, 99, &TopKConfig::default());
        // All values tie at 2.0, so each row lists columns in ascending order.
        for row in &all {
            assert_eq!(row.iter().map(|&(_, j)| j).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn k_max_returns_every_column_in_dense_order() {
        let ya = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.5, -0.5]]);
        let yb = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[2.0, 2.0], &[1.0, 0.0]]);
        let mut ws = Workspace::new();
        for kernel in [LowRankKernel::Dot, LowRankKernel::NegSqDist, LowRankKernel::ExpNegSqDist] {
            let lr = LowRankSim::new(ya.clone(), yb.clone(), kernel);
            let all = sharded_row_top_k(&lr, usize::MAX, &TopKConfig::default());
            for (i, row) in all.iter().enumerate() {
                assert_eq!(row.len(), lr.cols());
                assert_eq!(*row, lr.row_top_k_after(i, None, usize::MAX, &mut ws), "{kernel:?}");
            }
        }
    }

    #[test]
    fn nan_key_after_a_full_heap_is_not_pruned() {
        // Column 0 fills the k = 1 heap; column 1's NaN key must still reach
        // the heap's comparison instead of being skipped by the floor.
        let ya = DenseMatrix::from_rows(&[&[1.0]]);
        let yb = DenseMatrix::from_rows(&[&[1.0], &[f64::NAN]]);
        for kernel in [LowRankKernel::Dot, LowRankKernel::NegSqDist, LowRankKernel::ExpNegSqDist] {
            let lr = LowRankSim::new(ya.clone(), yb.clone(), kernel);
            let err =
                std::panic::catch_unwind(|| sharded_row_top_k(&lr, 1, &TopKConfig::default()))
                    .expect_err("a NaN similarity must panic");
            let msg = err.downcast_ref::<String>().map(String::as_str);
            let msg = msg.or_else(|| err.downcast_ref::<&str>().copied()).unwrap_or_default();
            assert!(msg.contains("finite similarities"), "{kernel:?}: {msg}");
        }
    }

    /// The plain reference: every value of row `i`, sorted by the dense
    /// order (value descending, column ascending), truncated to `k`.
    fn reference_row(lr: &LowRankSim, i: usize, k: usize) -> Vec<(f64, usize)> {
        let mut row: Vec<(f64, usize)> = (0..lr.cols()).map(|j| (lr.value(i, j), j)).collect();
        row.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap().then(x.1.cmp(&y.1)));
        row.truncate(k);
        row
    }

    /// Factor rows of one of three shapes: a coarse grid (many exact ties),
    /// continuous values, or points at squared distance 600–800 from the
    /// origin, which puts `ExpNegSqDist` keys around the `-700` guard and
    /// below `-745`, where `exp` underflows to 0.
    fn factor(rng: &mut StdRng, rows: usize, d: usize, shape: usize) -> DenseMatrix {
        DenseMatrix::from_fn(rows, d, |_, _| match shape {
            0 => rng.random_range(-2..3) as f64 * 0.5,
            1 => rng.random_range(-1.5..1.5),
            _ => {
                (rng.random_range(600.0f64..800.0) / d as f64).sqrt() * rng.random_range(0.98..1.02)
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The pruned scan is bit-identical to sorting every value of the
        /// row, for all kernels with and without row offsets, exact and
        /// near ties from duplicated target rows, underflowing `exp`, `k` in
        /// {0, 1, random, m, > m} and random shard and tile geometry.
        #[test]
        fn pruned_scan_is_bit_identical_to_a_full_sort(
            seed in any::<u64>(),
            (kernel_idx, shape, offsets) in (0usize..3, 0usize..3, 0usize..3),
            (k_sel, dups) in (0usize..6, 0usize..6),
            (shard_rows, tile_cols) in (1usize..6, 1usize..9),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let kernel =
                [LowRankKernel::Dot, LowRankKernel::NegSqDist, LowRankKernel::ExpNegSqDist]
                    [kernel_idx];
            let (n, m, d) =
                (rng.random_range(1..24usize), rng.random_range(1..48usize), rng.random_range(1..5));
            // Source rows sit near the origin for the far shape, so every
            // key is about minus the target row's squared norm.
            let ya = factor(&mut rng, n, d, shape.min(1));
            let mut yb = factor(&mut rng, m, d, shape);
            // Copied target rows tie exactly; a copy nudged by a few ULPs in
            // one coordinate gives keys a hair apart, inside any margin.
            // `dups == 5` makes every row a copy of rows 0 or 1, so the k-th
            // candidate almost always sits in a cluster of (near) ties.
            let copies = if dups == 5 { m } else { dups };
            for c in 0..copies {
                let (from, to) = if dups == 5 {
                    (rng.random_range(0..2.min(m)), c)
                } else {
                    (rng.random_range(0..m), rng.random_range(0..m))
                };
                let mut row = yb.row(from).to_vec();
                if rng.random_range(0..2) == 1 {
                    row[0] = f64::from_bits(row[0].to_bits() + rng.random_range(1..4u64));
                }
                yb.row_mut(to).copy_from_slice(&row);
            }
            let mut lr = LowRankSim::new(ya, yb, kernel);
            if offsets > 0 {
                let big = [0.25, 1e3][offsets - 1];
                lr = lr.with_row_offsets((0..n).map(|i| (i % 3) as f64 * big - 0.5).collect());
            }
            let k = match k_sel {
                0 => 0,
                1 => 1,
                2 => rng.random_range(1..=m),
                3 => m,
                4 => m + rng.random_range(1..4usize),
                _ => usize::MAX,
            };
            let cfg = TopKConfig { shard_rows, tile_cols };
            let got = sharded_row_top_k(&lr, k, &cfg);
            prop_assert_eq!(got.len(), n);
            for (i, row) in got.iter().enumerate() {
                let want = reference_row(&lr, i, k);
                let bits = |r: &[(f64, usize)]| -> Vec<(u64, usize)> {
                    r.iter().map(|&(v, j)| (v.to_bits(), j)).collect()
                };
                prop_assert_eq!(bits(row), bits(&want), "{:?} row {} k {} cfg {:?}", kernel, i, k, cfg);
            }
        }
    }

    #[test]
    fn far_shape_reaches_the_guard_and_underflow() {
        // The generator's far shape must really produce keys on both sides
        // of the -700 guard and below -745, or the property test above would
        // not exercise them.
        let mut rng = StdRng::seed_from_u64(3);
        let ya = DenseMatrix::from_fn(4, 2, |_, _| rng.random_range(-1.5..1.5));
        let yb = factor(&mut rng, 64, 2, 2);
        let lr = LowRankSim::new(ya, yb, LowRankKernel::ExpNegSqDist);
        let keys: Vec<f64> = (0..64).map(|j| lr.key(0, j)).collect();
        assert!(keys.iter().any(|&x| x > -700.0));
        assert!(keys.iter().any(|&x| (-745.0..-700.0).contains(&x)));
        assert!((0..64).any(|j| keys[j] < -745.0 && lr.value(0, j) == 0.0));
    }
}
