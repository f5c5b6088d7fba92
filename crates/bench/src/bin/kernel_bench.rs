//! Perf baseline harness for the hot numerical kernels (PR 4 tentpole).
//!
//! Times the cache-blocked GEMM, the fused dense·CSRᵀ SpMM, Sinkhorn
//! scaling sweeps, graphlet counting, and a fig11-scale IsoRank iteration
//! loop — each against a *naive reference implementation* reproducing the
//! pre-optimization formulation (plain ikj GEMM with the zero-skip branch,
//! transpose-per-iteration SpMM), so the emitted numbers are honest
//! before/after pairs on the same machine.
//!
//! ```text
//! kernel_bench [--quick] [--threads N] [--seed S] [--out PATH]
//! kernel_bench [--quick] [--threads N] --compare BENCH_kernels.json
//! ```
//!
//! Full mode (the committed-baseline mode) sweeps the whole suite at
//! `threads = 1, 2, 8` so the baseline doubles as a roofline table for the
//! tiled kernels; `--threads` selects the single thread count of a `--quick`
//! run (the CI smoke configuration runs quick at 1 and at 8).
//!
//! Without `--compare`, writes a JSON report (default `BENCH_kernels.json`):
//! `{"schema":"kernel_bench/v1","threads":…,"mode":…,"rows":[{kernel, size,
//! threads, reps, median_ns, throughput}, …]}` where `throughput` is
//! kernel-specific work units per second (flops for GEMM/SpMM, matvec flops
//! for Sinkhorn, edges for graphlets, iteration flops for the IsoRank loop).
//!
//! With `--compare`, reruns the suite and checks the *relative* speedups
//! (naive median / optimized median) against the baseline's — absolute
//! nanoseconds vary across machines, the blocked-vs-naive ratio should not —
//! and exits nonzero when any pair regressed by more than 10% (with an
//! absolute 0.2 cushion for near-parity ratios, where quotient noise
//! outruns a relative threshold — see [`REGRESSION_SLACK_ABS`]). The compare
//! also fails when baseline coverage is missing from the fresh run: exact
//! `(kernel, size, threads)` rows in full mode, kernel names in quick mode —
//! a kernel that silently stops being benchmarked cannot hide a regression.
//!
//! `--only` takes a comma-separated list of exact group names (see
//! [`SUITE_GROUPS`] and [`INFO_GROUPS`]); an unknown name is a usage error.
//! Six informational groups run only when `--only` names them, so they
//! stay out of the default suite, the committed baseline and `--compare`:
//! `graal_dictionary` (15- vs 73-orbit graphlet preprocessing),
//! `isorank_prior` (degree prior vs uniform prior), `assignment_density`
//! (dense JV vs sparse auction over 8 candidates per row),
//! `spmm_crossover` (the scatter / gather / hoist+axpy right-SpMM forms
//! whose crossover sets `SPMM_RIGHT_HOIST_CUTOFF`) and
//! `structural_features` (the K-hop feature extractor on a hub-heavy and
//! a uniform-degree graph, in scanned adjacency entries per second) and
//! `sharded_topk` (the pruned top-10 scan of a factored similarity, per
//! kernel, in similarity entries per second).

use graphalign::graal::Graal;
use graphalign::isorank::IsoRank;
use graphalign::Aligner;
use graphalign_assignment::{assign, AssignmentMethod};
use graphalign_graph::permutation::AlignmentInstance;
use graphalign_graph::spectral;
use graphalign_json::Json;
use graphalign_linalg::sinkhorn::{sinkhorn, uniform_marginal, SinkhornParams};
use graphalign_linalg::{vec_ops, CsrMatrix, DenseMatrix, Similarity, Workspace};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::hint::black_box;
use std::time::Instant;

/// Thread counts swept by a full run (the roofline axis of the baseline).
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// Groups of the default suite (and of the committed baseline).
const SUITE_GROUPS: [&str; 5] = ["gemm", "spmm", "sinkhorn", "graphlets", "isorank"];

/// Informational groups: they run only when `--only` names them.
const INFO_GROUPS: [&str; 6] = [
    "graal_dictionary",
    "isorank_prior",
    "assignment_density",
    "spmm_crossover",
    "structural_features",
    "sharded_topk",
];

/// Naive/optimized kernel pairs whose speedup ratio `--compare` tracks.
const RATIO_PAIRS: [(&str, &str); 3] = [
    ("gemm_naive", "gemm_blocked"),
    ("spmm_right_naive", "spmm_right_fused"),
    ("isorank_loop_naive", "isorank_loop_fused"),
];

/// Maximum tolerated relative drop of a speedup ratio vs the baseline.
const REGRESSION_SLACK: f64 = 0.10;

/// Absolute ratio cushion for near-parity pairs. A ratio is a quotient of
/// two medians, so its run-to-run noise is multiplicative in both; for a
/// pair sitting near 1.0× (the fused IsoRank loop at n=256, whose fix
/// makes it *not worse* rather than much faster) a ±6% wobble on each
/// median swings the ratio by more than the 10% relative slack. The gate
/// therefore allows whichever cushion is larger — relative for the
/// multi-x pairs where 10% is the bigger allowance, absolute for pairs
/// near parity — and still catches the bug class it exists for (the
/// pre-fix fused loop sat at 0.68×, far below either threshold).
const REGRESSION_SLACK_ABS: f64 = 0.2;

struct Config {
    quick: bool,
    /// Thread count of a `--quick` run; full runs sweep [`THREAD_SWEEP`].
    threads: usize,
    seed: u64,
    out: String,
    compare: Option<String>,
    /// Run exactly these groups (from [`SUITE_GROUPS`] and
    /// [`INFO_GROUPS`]) instead of the default suite. Measurement aid only:
    /// filtered runs are refused as baselines or compare inputs.
    only: Option<Vec<&'static str>>,
}

fn usage() -> ! {
    eprintln!(
        "usage: kernel_bench [--quick] [--threads N] [--seed S] [--only GROUP[,GROUP…]] \
         [--out PATH] [--compare BASELINE]\n\
         --threads applies to --quick runs; full runs sweep threads=1,2,8\n\
         groups: {} (default suite); {} (informational)",
        SUITE_GROUPS.join(", "),
        INFO_GROUPS.join(", ")
    );
    std::process::exit(2);
}

impl Config {
    fn from_args() -> Self {
        let mut cfg = Self {
            quick: false,
            threads: 1,
            seed: 7,
            out: "BENCH_kernels.json".to_string(),
            compare: None,
            only: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cfg.quick = true,
                "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => cfg.threads = n,
                    _ => usage(),
                },
                "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(s) => cfg.seed = s,
                    None => usage(),
                },
                "--out" => match args.next() {
                    Some(p) => cfg.out = p,
                    None => usage(),
                },
                "--compare" => match args.next() {
                    Some(p) => cfg.compare = Some(p),
                    None => usage(),
                },
                "--only" => match args.next().as_deref().map(parse_only) {
                    Some(Ok(groups)) => cfg.only = Some(groups),
                    Some(Err(name)) => {
                        eprintln!("unknown group: {name:?}");
                        usage();
                    }
                    None => usage(),
                },
                "--help" | "-h" => usage(),
                other => {
                    eprintln!("unknown argument: {other}");
                    usage();
                }
            }
        }
        cfg
    }

    fn reps(&self) -> usize {
        if self.quick {
            3
        } else {
            5
        }
    }
}

/// Parses a comma-separated list of exact group names; `Err` carries the
/// first name that is not a group (an empty name included).
fn parse_only(list: &str) -> Result<Vec<&'static str>, String> {
    list.split(',')
        .map(|name| {
            SUITE_GROUPS
                .iter()
                .chain(&INFO_GROUPS)
                .find(|g| **g == name)
                .copied()
                .ok_or_else(|| name.to_string())
        })
        .collect()
}

/// Whether `group` runs: without `--only`, the default suite; with it,
/// exactly the named groups.
fn group_runs(only: Option<&[&str]>, group: &str) -> bool {
    match only {
        None => SUITE_GROUPS.contains(&group),
        Some(groups) => groups.contains(&group),
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Row {
    kernel: String,
    size: String,
    threads: usize,
    reps: usize,
    median_ns: u64,
    /// Work units per second (kernel-specific; see module docs).
    throughput: f64,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kernel".into(), Json::Str(self.kernel.clone())),
            ("size".into(), Json::Str(self.size.clone())),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("reps".into(), Json::Num(self.reps as f64)),
            ("median_ns".into(), Json::Num(self.median_ns as f64)),
            ("throughput".into(), Json::Num(self.throughput)),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            kernel: v.get("kernel")?.as_str()?.to_string(),
            size: v.get("size")?.as_str()?.to_string(),
            threads: v.get("threads")?.as_f64()? as usize,
            reps: v.get("reps")?.as_f64()? as usize,
            median_ns: v.get("median_ns")?.as_f64()? as u64,
            throughput: v.get("throughput")?.as_f64()?,
        })
    }
}

/// One warm-up run, then timed runs; returns `(median_ns, reps)`.
///
/// The warm-up also calibrates the rep count: fast kernels get up to 25
/// reps so their median covers ~250 ms of samples and stays stable under
/// scheduler noise (the `--compare` gate needs reproducible ratios), slow
/// kernels keep the configured floor.
fn time_median<F: FnMut()>(base_reps: usize, mut f: F) -> (u64, usize) {
    let t0 = Instant::now();
    f();
    let warm = (t0.elapsed().as_nanos() as u64).max(1);
    const TARGET_TOTAL_NS: u64 = 250_000_000;
    let reps = base_reps.max(((TARGET_TOTAL_NS / warm) as usize).min(25));
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    (samples[samples.len() / 2], reps)
}

fn row(kernel: &str, size: String, threads: usize, work_units: f64, timing: (u64, usize)) -> Row {
    let (median_ns, reps) = timing;
    let throughput = if median_ns > 0 { work_units / (median_ns as f64 / 1e9) } else { 0.0 };
    println!("  {kernel:<20} {size:<12} t{threads} median {median_ns:>12} ns  ({reps} reps)");
    Row { kernel: kernel.to_string(), size, threads, reps, median_ns, throughput }
}

/// The pre-blocking dense GEMM: sequential ikj with row-axpy and the
/// since-removed `a_il == 0.0` skip — the honest "before" reference.
fn gemm_naive_ref(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = DenseMatrix::zeros(m, n);
    let data = out.as_mut_slice();
    for i in 0..m {
        let orow = &mut data[i * n..(i + 1) * n];
        for l in 0..k {
            let a_il = a.get(i, l);
            if a_il == 0.0 {
                continue;
            }
            vec_ops::axpy(a_il, b.row(l), orow);
        }
    }
    out
}

fn dense_of(n: usize, m: usize, seed: u64) -> DenseMatrix {
    DenseMatrix::from_fn(n, m, |i, j| {
        let t = (i * 31 + j * 17 + seed as usize * 13) % 101;
        (t as f64 - 50.0) / 50.0
    })
}

fn bench_gemm(cfg: &Config, t: usize, rows: &mut Vec<Row>) {
    let sizes: &[usize] = if cfg.quick { &[256] } else { &[256, 512, 1024] };
    for &n in sizes {
        let a = dense_of(n, n, cfg.seed);
        let b = dense_of(n, n, cfg.seed + 1);
        let flops = 2.0 * (n as f64).powi(3);
        let size = format!("{n}x{n}");
        let med = time_median(cfg.reps(), || {
            black_box(gemm_naive_ref(black_box(&a), black_box(&b)));
        });
        rows.push(row("gemm_naive", size.clone(), t, flops, med));
        let med = time_median(cfg.reps(), || {
            black_box(black_box(&a).matmul(black_box(&b)));
        });
        rows.push(row("gemm_blocked", size, t, flops, med));
    }
}

fn bench_spmm(cfg: &Config, t: usize, rows: &mut Vec<Row>) {
    let sizes: &[usize] = if cfg.quick { &[512] } else { &[512, 2048] };
    for &n in sizes {
        let g =
            graphalign_gen::configuration_model(&graphalign_gen::degrees::uniform(n, 10), cfg.seed);
        let a: CsrMatrix = g.adjacency();
        let x = dense_of(n, 64, cfg.seed + 2);
        let flops = 2.0 * a.nnz() as f64 * 64.0;
        let size = format!("{n}x{n}d10");
        let med = time_median(cfg.reps(), || {
            black_box(black_box(&a).mul_dense(black_box(&x)));
        });
        rows.push(row("spmm", size.clone(), t, flops, med));

        // The tiled transposed-product and dense·denseᵀ kernels, tracked as
        // single roofline rows (their thread scaling, not a naive pair).
        let med = time_median(cfg.reps(), || {
            black_box(black_box(&a).tr_mul_dense(black_box(&x)));
        });
        rows.push(row("spmm_tr", size.clone(), t, flops, med));
        let y = dense_of(64, n, cfg.seed + 6);
        let med = time_median(cfg.reps(), || {
            black_box(black_box(&a).mul_dense_tr(black_box(&y)));
        });
        rows.push(row("spmm_dense_tr", size.clone(), t, flops, med));

        // Right-multiplication by a CSR transpose, the IsoRank/GWL shape:
        // fused dense·CSRᵀ kernel vs the transpose-per-call formulation.
        let d = dense_of(n, n, cfg.seed + 3);
        let flops = 2.0 * a.nnz() as f64 * n as f64;
        let med = time_median(cfg.reps(), || {
            let naive = black_box(&a).transpose().mul_dense(&black_box(&d).transpose()).transpose();
            black_box(naive);
        });
        rows.push(row("spmm_right_naive", size.clone(), t, flops, med));
        let med = time_median(cfg.reps(), || {
            black_box(black_box(&d).mul_csr_tr(black_box(&a)));
        });
        rows.push(row("spmm_right_fused", size, t, flops, med));
    }
}

fn bench_sinkhorn(cfg: &Config, t: usize, rows: &mut Vec<Row>) {
    let sizes: &[usize] = if cfg.quick { &[256] } else { &[256, 512] };
    const SWEEPS: usize = 50;
    for &n in sizes {
        let cost = DenseMatrix::from_fn(n, n, |i, j| ((i + j) % 17) as f64 / 17.0);
        let mu = uniform_marginal(n);
        // tol = 0 pins the work to exactly SWEEPS sweeps per run.
        let params = SinkhornParams { epsilon: 0.05, max_iter: SWEEPS, tol: 0.0 };
        // Three n-length matvecs of 2n² flops each per sweep.
        let flops = 6.0 * (n as f64).powi(2) * SWEEPS as f64;
        let med = time_median(cfg.reps(), || {
            black_box(sinkhorn(black_box(&cost), &mu, &mu, &params).unwrap());
        });
        rows.push(row("sinkhorn", format!("{n}x{n}i{SWEEPS}"), t, flops, med));
    }
}

fn bench_graphlets(cfg: &Config, t: usize, rows: &mut Vec<Row>) {
    let sizes: &[usize] = if cfg.quick { &[2000] } else { &[2000, 10000] };
    for &n in sizes {
        let g = graphalign_gen::configuration_model(
            &graphalign_gen::degrees::uniform(n, 10),
            cfg.seed + 4,
        );
        let edges = g.edge_count() as f64;
        let med = time_median(cfg.reps(), || {
            black_box(graphalign_graph::graphlets::graphlet_degrees(black_box(&g)));
        });
        rows.push(row("graphlet_degrees", format!("n{n}d10"), t, edges, med));
    }
}

/// The IsoRank inner loop at fig11 scale, old shape vs new shape, on
/// identical inputs. The two variants must produce bit-identical similarity
/// matrices — verified on every run — so the timing difference is purely the
/// kernel work. The fused variant mirrors the production `IsoRank` path
/// exactly: hoisted CSR transpose, reused buffers, and the form-selecting
/// right-SpMM (`mul_csr_tr_into_auto`) whose size cutoff fixes the small-n
/// regression.
fn bench_isorank_loop(cfg: &Config, t: usize, rows: &mut Vec<Row>) {
    let sizes: &[usize] = if cfg.quick { &[256] } else { &[256, 1024] };
    const ITERS: usize = 10;
    const ALPHA: f64 = 0.9;
    for &n in sizes {
        let g = graphalign_gen::configuration_model(
            &graphalign_gen::degrees::uniform(n, 10),
            cfg.seed + 5,
        );
        let pa: CsrMatrix = spectral::row_normalized_adjacency(&g).transpose();
        let pb: CsrMatrix = spectral::row_normalized_adjacency(&g);
        let e = DenseMatrix::filled(n, n, 1.0 / (n * n) as f64);
        let flops = 2.0 * 2.0 * pa.nnz() as f64 * n as f64 * ITERS as f64;
        let size = format!("n{n}i{ITERS}");

        let naive = |out: &mut DenseMatrix| {
            let mut r = e.clone();
            for _ in 0..ITERS {
                let left = pa.mul_dense(&r);
                let mut next = pb.transpose().mul_dense(&left.transpose()).transpose();
                next.scale_inplace(ALPHA);
                next.add_scaled(1.0 - ALPHA, &e);
                let total = next.sum();
                if total > 0.0 {
                    next.scale_inplace(1.0 / total);
                }
                r = next;
            }
            *out = r;
        };
        let fused = |out: &mut DenseMatrix| {
            let pbt = pb.transpose();
            let mut r = e.clone();
            let mut left = DenseMatrix::zeros(n, n);
            let mut next = DenseMatrix::zeros(n, n);
            let mut ws = Workspace::new();
            for _ in 0..ITERS {
                pa.mul_dense_into(&r, &mut left);
                left.mul_csr_tr_into_auto(&pbt, &mut next, &mut ws);
                next.scale_inplace(ALPHA);
                next.add_scaled(1.0 - ALPHA, &e);
                let total = next.sum();
                if total > 0.0 {
                    next.scale_inplace(1.0 / total);
                }
                std::mem::swap(&mut r, &mut next);
            }
            *out = r;
        };

        let mut r_naive = DenseMatrix::zeros(n, n);
        let mut r_fused = DenseMatrix::zeros(n, n);
        let med = time_median(cfg.reps(), || naive(black_box(&mut r_naive)));
        rows.push(row("isorank_loop_naive", size.clone(), t, flops, med));
        let med = time_median(cfg.reps(), || fused(black_box(&mut r_fused)));
        rows.push(row("isorank_loop_fused", size, t, flops, med));
        let (a, b) = (r_naive.as_slice(), r_fused.as_slice());
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "fused IsoRank loop diverged bitwise from the naive loop at n={n}"
        );
    }
}

/// GRAAL's graphlet preprocessing with the default 15-orbit (≤4-node)
/// dictionary vs the full 73-orbit (≤5-node) one — the cost that earns
/// GRAAL its O(n⁵) reputation. Throughput counts source edges.
fn bench_graal_dictionary(cfg: &Config, t: usize, rows: &mut Vec<Row>) {
    let n = if cfg.quick { 60 } else { 120 };
    let inst =
        AlignmentInstance::permuted(graphalign_gen::powerlaw_cluster(n, 4, 0.5, 5), cfg.seed);
    let edges = inst.source.edge_count() as f64;
    for (kernel, graal) in
        [("graal_orbits15", Graal::default()), ("graal_orbits73", Graal::with_full_dictionary())]
    {
        let med = time_median(cfg.reps(), || {
            black_box(graal.costs(&inst.source, &inst.target));
        });
        rows.push(row(kernel, format!("n{n}"), t, edges, med));
    }
}

/// IsoRank with the paper's §6.1 degree-similarity prior vs a uniform
/// prior: the quality claim lives in the figure binaries, this shows the
/// prior costs nothing. Throughput counts similarity entries.
fn bench_isorank_prior(cfg: &Config, t: usize, rows: &mut Vec<Row>) {
    let n = if cfg.quick { 100 } else { 200 };
    let inst =
        AlignmentInstance::permuted(graphalign_gen::powerlaw_cluster(n, 5, 0.5, 5), cfg.seed);
    for (kernel, aligner) in [
        ("isorank_degree_prior", IsoRank::default()),
        ("isorank_uniform_prior", IsoRank::without_degree_prior()),
    ] {
        let med = time_median(cfg.reps(), || {
            black_box(aligner.similarity(&inst.source, &inst.target).unwrap());
        });
        rows.push(row(kernel, format!("n{n}"), t, (n * n) as f64, med));
    }
}

/// Optimal extraction on a dense similarity (JV) vs the auction MWM over a
/// thin candidate list of 8 entries per row — the paper's "the density of
/// the similarity matrix affects JV's runtime". Throughput counts rows.
fn bench_assignment_density(cfg: &Config, t: usize, rows: &mut Vec<Row>) {
    let n = if cfg.quick { 192 } else { 384 };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let dense = Similarity::Dense(DenseMatrix::from_fn(n, n, |_, _| rng.random_range(0.0..1.0)));
    let triplets: Vec<_> =
        (0..n * 8).map(|e| (e / 8, rng.random_range(0..n), rng.random_range(0.0..1.0))).collect();
    let sparse = CsrMatrix::from_triplets(n, n, &triplets);
    let med = time_median(cfg.reps(), || {
        black_box(assign(black_box(&dense), AssignmentMethod::JonkerVolgenant));
    });
    rows.push(row("assign_jv_dense", format!("n{n}"), t, n as f64, med));
    let med = time_median(cfg.reps(), || {
        black_box(graphalign_assignment::auction::auction_max(black_box(&sparse)));
    });
    rows.push(row("assign_auction_sparse8", format!("n{n}"), t, n as f64, med));
}

/// The three bit-identical forms of the IsoRank right-SpMM `D · Aᵀ` on
/// degree-10 operands: scatter over the CSR rows, gather over a hoisted
/// transpose, and hoist+axpy (`(Aᵀ · Dᵀ)ᵀ`, two dense transposes per call
/// feeding the row-axpy kernel). The sweep around n = 512 is where
/// `mul_csr_tr_into_auto` switches from hoist+axpy to gather.
fn bench_spmm_crossover(cfg: &Config, t: usize, rows: &mut Vec<Row>) {
    let sizes: &[usize] =
        if cfg.quick { &[256, 512] } else { &[64, 128, 256, 320, 384, 448, 512, 1024, 2048] };
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ n as u64);
        let triplets: Vec<_> = (0..n * 10).map(|e| (e / 10, rng.random_range(0..n), 0.1)).collect();
        let a = CsrMatrix::from_triplets(n, n, &triplets);
        let at = a.transpose();
        let d = dense_of(n, n, cfg.seed + 7);
        let mut out = DenseMatrix::zeros(n, n);
        let mut dt = DenseMatrix::zeros(n, n);
        let mut out_t = DenseMatrix::zeros(n, n);
        let flops = 2.0 * a.nnz() as f64 * n as f64;
        let size = format!("n{n}d10");
        let forms = [
            (
                "spmm_form_scatter",
                time_median(cfg.reps(), || d.mul_csr_into(black_box(&a), &mut out)),
            ),
            (
                "spmm_form_gather",
                time_median(cfg.reps(), || d.mul_csr_tr_into(black_box(&at), &mut out)),
            ),
            (
                "spmm_form_hoist",
                time_median(cfg.reps(), || {
                    black_box(&d).transpose_into(&mut dt);
                    at.mul_dense_into(&dt, &mut out_t);
                    out_t.transpose_into(&mut out);
                }),
            ),
        ];
        let best = forms.iter().min_by_key(|(_, (ns, _))| *ns).map_or("", |&(k, _)| k);
        for (kernel, med) in forms {
            rows.push(row(kernel, size.clone(), t, flops, med));
        }
        println!("  n={n}: fastest form {best}");
    }
}

/// The shared K-hop structural-feature extractor (REGAL, FPROP, CONE and
/// S-GWL all call it) at `K = 2` on n = 2¹⁴ graphs: a power-law
/// configuration model (exponent 2.5), whose hubs make it expensive, and a
/// uniform degree-10 one. Throughput counts scanned adjacency entries,
/// `Σ_u deg(u) + Σ_u deg(u)²` at `K = 2`.
fn bench_structural_features(cfg: &Config, t: usize, rows: &mut Vec<Row>) {
    use graphalign::features::{bucket_count, structural_features, FeatureParams};
    use graphalign_gen::degrees;
    const N: usize = 1 << 14;
    let params = FeatureParams::default();
    for (size, degree_seq) in [
        ("n16384pl2.5", degrees::power_law(N, 2.5, 3, cfg.seed)),
        ("n16384d10", degrees::uniform(N, 10)),
    ] {
        let g = graphalign_gen::configuration_model(&degree_seq, cfg.seed + 8);
        let scanned: usize = (0..N).map(|u| g.degree(u) * (g.degree(u) + 1)).sum();
        let buckets = bucket_count(&g, &g);
        let med = time_median(cfg.reps(), || {
            black_box(structural_features(black_box(&g), &params, buckets));
        });
        rows.push(row("structural_features", size.to_string(), t, scanned as f64, med));
    }
}

/// The sharded top-10 scan (`assignment::topk`, which NN assignment on the
/// XL tier and SortGreedy's first pages run) over a 1024 × 16384 factored
/// similarity of rank 32, with L2-normalized random factor rows like REGAL's
/// and CONE's embeddings, for each kernel. Throughput counts similarity
/// entries; the printed share is the fraction of entries whose key passed
/// the pruning floor and so paid for `exp` and a heap offer.
fn bench_sharded_topk(cfg: &Config, t: usize, rows: &mut Vec<Row>) {
    use graphalign_assignment::topk::{sharded_row_top_k_counted, TopKConfig};
    use graphalign_linalg::{LowRankKernel, LowRankSim};
    const K: usize = 10;
    let (n, m, d) = (1024, 16384, 32);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ya = DenseMatrix::from_fn(n, d, |_, _| rng.random_range(-1.0..1.0));
    let mut yb = DenseMatrix::from_fn(m, d, |_, _| rng.random_range(-1.0..1.0));
    ya.normalize_rows();
    yb.normalize_rows();
    for kernel in [LowRankKernel::Dot, LowRankKernel::NegSqDist, LowRankKernel::ExpNegSqDist] {
        let lr = LowRankSim::new(ya.clone(), yb.clone(), kernel);
        let topk = TopKConfig::default();
        let (_, offered) = sharded_row_top_k_counted(&lr, K, &topk);
        let med = time_median(cfg.reps(), || {
            black_box(sharded_row_top_k_counted(black_box(&lr), K, &topk));
        });
        let size = format!("{}_n{n}m{m}d{d}k{K}", kernel.as_str());
        rows.push(row("sharded_topk", size, t, (n * m) as f64, med));
        println!(
            "  {:.2}% of entries reached exp and the heap",
            100.0 * offered as f64 / (n * m) as f64
        );
    }
}

fn run_all(cfg: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    // Quick runs measure at the requested thread count; full runs sweep the
    // roofline thread axis so the committed baseline carries scaling rows.
    let sweep: &[usize] = if cfg.quick { &[cfg.threads] } else { &THREAD_SWEEP };
    println!(
        "kernel_bench: {} mode, threads {:?}",
        if cfg.quick { "quick" } else { "full" },
        sweep
    );
    let runs = |group: &str| group_runs(cfg.only.as_deref(), group);
    for &t in sweep {
        graphalign_par::set_max_threads(t);
        if runs("gemm") {
            bench_gemm(cfg, t, &mut rows);
        }
        if runs("spmm") {
            bench_spmm(cfg, t, &mut rows);
        }
        if runs("sinkhorn") {
            bench_sinkhorn(cfg, t, &mut rows);
        }
        if runs("graphlets") {
            bench_graphlets(cfg, t, &mut rows);
        }
        if runs("isorank") {
            bench_isorank_loop(cfg, t, &mut rows);
        }
        if runs("graal_dictionary") {
            bench_graal_dictionary(cfg, t, &mut rows);
        }
        if runs("isorank_prior") {
            bench_isorank_prior(cfg, t, &mut rows);
        }
        if runs("assignment_density") {
            bench_assignment_density(cfg, t, &mut rows);
        }
        if runs("spmm_crossover") {
            bench_spmm_crossover(cfg, t, &mut rows);
        }
        if runs("structural_features") {
            bench_structural_features(cfg, t, &mut rows);
        }
        if runs("sharded_topk") {
            bench_sharded_topk(cfg, t, &mut rows);
        }
    }
    rows
}

/// Physical parallelism of this host, as recorded in the report header. The
/// thread-sweep rows (`threads = 2, 8`) are oversubscription noise when the
/// recording host has fewer cores — `compare` uses the baseline's value to
/// skip exactly those pairs instead of trusting a prose caveat.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// SIMD dispatch level the kernels ran at (`"avx2"` or `"scalar"`). Both
/// paths are bitwise-identical, so this only contextualizes throughput —
/// but a baseline recorded under one level should be read knowing it.
fn simd_level() -> &'static str {
    if graphalign_linalg::simd::simd_active() {
        "avx2"
    } else {
        "scalar"
    }
}

fn report_json(cfg: &Config, rows: &[Row]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str("kernel_bench/v1".into())),
        ("threads".into(), Json::Num(cfg.threads as f64)),
        ("mode".into(), Json::Str(if cfg.quick { "quick" } else { "full" }.into())),
        ("host_cores".into(), Json::Num(host_cores() as f64)),
        ("simd".into(), Json::Str(simd_level().into())),
        ("rows".into(), Json::Arr(rows.iter().map(Row::to_json).collect())),
    ])
}

/// A parsed baseline: its rows plus the host parallelism it was recorded
/// under. `host_cores` is `None` for pre-schema-extension baselines (no
/// skipping is applied for those — the rule cannot be retrofitted honestly).
struct Baseline {
    rows: Vec<Row>,
    host_cores: Option<usize>,
}

fn load_baseline(path: &str) -> Baseline {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("kernel_bench: cannot read baseline {path}: {e}");
        std::process::exit(2);
    });
    let parsed = graphalign_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("kernel_bench: baseline {path} is not valid JSON: {e:?}");
        std::process::exit(2);
    });
    let rows = parsed
        .get("rows")
        .and_then(Json::as_array)
        .map(|arr| arr.iter().filter_map(Row::from_json).collect::<Vec<_>>())
        .unwrap_or_default();
    if rows.is_empty() {
        eprintln!("kernel_bench: baseline {path} has no parseable rows");
        std::process::exit(2);
    }
    let host_cores = parsed.get("host_cores").and_then(Json::as_f64).map(|c| c as usize);
    if let Some(simd) = parsed.get("simd").and_then(Json::as_str) {
        let current = simd_level();
        if simd != current {
            println!(
                "note: baseline recorded at SIMD level {simd}, this run is {current} — \
                 ratios compare naive/optimized at the same level, so the gate still holds"
            );
        }
    }
    Baseline { rows, host_cores }
}

fn median_of<'a>(rows: &'a [Row], kernel: &str, size: &str, threads: usize) -> Option<&'a Row> {
    rows.iter().find(|r| r.kernel == kernel && r.size == size && r.threads == threads)
}

/// Compares the naive/optimized speedup ratios of the current run against
/// the baseline's, at matching `(size, threads)`. Returns the number of
/// regressions (> 10% ratio drop).
///
/// Pairs at thread counts exceeding the baseline's recorded `host_cores` are
/// skipped with a note: a 1-core host timing `threads = 8` measures
/// oversubscription scheduling, not kernel speed, so its ratios gate
/// nothing. A run where *every* pair is skipped by that rule passes (the
/// machine-checked replacement for the old prose-only caveat); having no
/// comparable pairs for any other reason is still a hard setup error.
fn compare(baseline: &Baseline, current: &[Row]) -> usize {
    let mut regressions = 0;
    let mut pairs_checked = 0;
    let mut skipped_over_cores = 0;
    for &(naive, optimized) in &RATIO_PAIRS {
        for cur_opt in current.iter().filter(|r| r.kernel == optimized) {
            let (size, t) = (&cur_opt.size, cur_opt.threads);
            if let Some(cores) = baseline.host_cores {
                if t > cores {
                    println!(
                        "skip {optimized} [{size} t{t}]: baseline host had {cores} core(s) — \
                         its t{t} rows are oversubscription noise"
                    );
                    skipped_over_cores += 1;
                    continue;
                }
            }
            let Some(cur_naive) = median_of(current, naive, size, t) else { continue };
            let Some(base_opt) = median_of(&baseline.rows, optimized, size, t) else { continue };
            let Some(base_naive) = median_of(&baseline.rows, naive, size, t) else { continue };
            if cur_opt.median_ns == 0 || base_opt.median_ns == 0 {
                continue;
            }
            let cur_ratio = cur_naive.median_ns as f64 / cur_opt.median_ns as f64;
            let base_ratio = base_naive.median_ns as f64 / base_opt.median_ns as f64;
            pairs_checked += 1;
            let floor =
                (base_ratio * (1.0 - REGRESSION_SLACK)).min(base_ratio - REGRESSION_SLACK_ABS);
            let ok = cur_ratio >= floor;
            println!(
                "{} {optimized} [{size} t{t}]: speedup {cur_ratio:.2}x vs baseline \
                 {base_ratio:.2}x",
                if ok { "ok  " } else { "FAIL" },
            );
            if !ok {
                regressions += 1;
            }
        }
    }
    if pairs_checked == 0 {
        if skipped_over_cores > 0 {
            println!(
                "kernel_bench: all {skipped_over_cores} ratio pair(s) exceed the baseline \
                 host's parallelism — nothing to gate at this thread count"
            );
            return 0;
        }
        eprintln!("kernel_bench: no comparable kernel/size pairs between run and baseline");
        std::process::exit(2);
    }
    regressions
}

/// Verifies that the fresh run still covers the committed baseline, so a
/// kernel that silently stops being benchmarked cannot hide a regression.
/// Full runs must reproduce every exact `(kernel, size, threads)` row; quick
/// runs (a deliberate subset of sizes and thread counts) must still exercise
/// every kernel *name* the baseline knows. Returns the number of misses.
fn check_coverage(baseline: &[Row], current: &[Row], quick: bool) -> usize {
    let mut missing = 0;
    if quick {
        let mut reported: Vec<&str> = Vec::new();
        for b in baseline {
            if reported.contains(&b.kernel.as_str()) {
                continue;
            }
            if !current.iter().any(|c| c.kernel == b.kernel) {
                println!("FAIL missing from run: kernel {} absent entirely", b.kernel);
                reported.push(&b.kernel);
                missing += 1;
            }
        }
    } else {
        for b in baseline {
            if median_of(current, &b.kernel, &b.size, b.threads).is_none() {
                println!("FAIL missing from run: {} [{} t{}]", b.kernel, b.size, b.threads);
                missing += 1;
            }
        }
    }
    missing
}

fn main() {
    let cfg = Config::from_args();
    if cfg.only.is_some() && cfg.compare.is_some() {
        eprintln!("kernel_bench: --only produces a partial run; it cannot be used with --compare");
        std::process::exit(2);
    }
    if cfg.only.is_some() && cfg.out == "BENCH_kernels.json" {
        eprintln!(
            "kernel_bench: --only requires an explicit --out (refusing to write a partial \
                   baseline to the default path)"
        );
        std::process::exit(2);
    }
    let rows = run_all(&cfg);
    match &cfg.compare {
        Some(path) => {
            let baseline = load_baseline(path);
            let regressions = compare(&baseline, &rows);
            let missing = check_coverage(&baseline.rows, &rows, cfg.quick);
            if regressions + missing > 0 {
                eprintln!(
                    "kernel_bench: {regressions} speedup regression(s) > 10% and {missing} \
                     missing baseline row(s) vs {path}"
                );
                std::process::exit(1);
            }
            println!("kernel_bench: no speedup regressions, full baseline coverage vs {path}");
        }
        None => {
            let report = report_json(&cfg, &rows);
            std::fs::write(&cfg.out, report.to_string_pretty()).unwrap_or_else(|e| {
                eprintln!("kernel_bench: cannot write {}: {e}", cfg.out);
                std::process::exit(2);
            });
            println!("kernel_bench: wrote {} rows to {}", rows.len(), cfg.out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_takes_exact_comma_separated_group_names() {
        assert_eq!(parse_only("isorank"), Ok(vec!["isorank"]));
        assert_eq!(
            parse_only("structural_features,sharded_topk"),
            Ok(vec!["structural_features", "sharded_topk"])
        );
        for bad in ["", "isorank_", "iso", "gemm,", ",gemm", "gemm,,spmm", "Gemm", " gemm"] {
            assert!(parse_only(bad).is_err(), "{bad:?} must be refused");
        }
        assert_eq!(parse_only("gemm,nope"), Err("nope".to_string()));
    }

    #[test]
    fn only_runs_exactly_the_named_groups() {
        let only = parse_only("isorank").unwrap();
        assert!(group_runs(Some(&only), "isorank"));
        assert!(!group_runs(Some(&only), "isorank_prior"));
        for info in INFO_GROUPS {
            assert!(!group_runs(None, info), "{info} must stay out of the default suite");
        }
        assert!(SUITE_GROUPS.iter().all(|g| group_runs(None, g)));
    }
}
