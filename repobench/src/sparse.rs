//! `sparse-regular` and `sparse-skewed`: XL aligners (REGAL, CONE, FPROP
//! in their `O(n·d)` configurations) on streamed ring-plus-chords pairs.
//!
//! `sparse-regular` runs the whole XL roster. `sparse-skewed` runs REGAL and
//! FPROP only: CONE's `thin_svd` returns `NotFinite` on a large share of
//! Chung-Lu pairs, and a workload on which operations fail gives failure
//! counts that depend on how many pairs a run reaches.
//!
//! Set-up writes each pair's source and one-way-noised target through the
//! stream writer and builds both graphs from the files. A run aligns
//! several independent pairs drawn from its seed: CONE's running time
//! varies by a third from pair to pair, and one pair per run would make
//! every run a coin toss. A unit is one alignment of one pair:
//! `precompute_similarity`, then the sharded top-k of a fixed, evenly
//! spaced slice of source rows against all target columns, which yields
//! k@1 and k@10 on those rows.

use crate::batch::{self, Scored};
use crate::common::{align_error_class, check_mapping, hits, Ctx, Report, Scale};
use crate::stats::median;
use crate::streamgen::{write_noisy_pair, Chords};
use crate::trace::Tracer;
use graphalign::precompute_similarity;
use graphalign_assignment::topk::{sharded_row_top_k, TopKConfig};
use graphalign_assignment::AssignmentMethod;
use graphalign_bench::xl::XlAlgo;
use graphalign_graph::{Graph, Permutation};
use graphalign_linalg::{LowRankSim, Similarity};
use std::time::Instant;

/// Average degree of every graph (the XL tier's).
const AVG_DEGREE: f64 = graphalign_bench::xl::XL_AVG_DEGREE;

/// Fraction of chords dropped from each target.
const NOISE: f64 = 0.001;

/// Candidates kept per sliced row.
const K: usize = 10;

/// Nodes per graph and sliced rows per pair.
fn shape(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (1 << 14, 1024),
        Scale::Smoke => (1 << 9, 32),
    }
}

struct Instance {
    source: Graph,
    target: Graph,
    /// Ground truth of the sliced rows.
    truth: Vec<usize>,
    stream_bytes: u64,
}

/// Writes and builds the pair of round `k`.
fn setup(
    ctx: &Ctx,
    chords: Chords,
    k: u64,
    rows: &[usize],
    tracer: &mut Tracer,
    report: &mut Report,
) -> std::io::Result<Instance> {
    let (n, _) = shape(ctx.scale);
    let seed = ctx.round_seed(k);
    let pair = tracer.span("datasets.stream.write", 0, |_| {
        write_noisy_pair(&ctx.work_dir, &format!("pair{k}"), n, AVG_DEGREE, chords, NOISE, seed)
    })?;
    report.notes.push(format!(
        "pair {k}: {} chords, {} dropped from the target",
        pair.chords, pair.dropped
    ));
    let perm = Permutation::random(n, seed ^ 0x007e_123a);
    let (source, target) = tracer.span("datasets.stream.build", 0, |_| {
        Ok::<_, std::io::Error>((
            pair.source.build_graph()?,
            pair.target.build_graph_with(|v| perm.apply(v))?,
        ))
    })?;
    let stream_bytes =
        std::fs::metadata(pair.source.path())?.len() + std::fs::metadata(pair.target.path())?.len();
    std::fs::remove_file(pair.source.path())?;
    std::fs::remove_file(pair.target.path())?;
    let truth = rows.iter().map(|&r| perm.apply(r)).collect();
    Ok(Instance { source, target, truth, stream_bytes })
}

/// The similarity restricted to the rows in `rows`.
fn slice_rows(lr: &LowRankSim, rows: &[usize]) -> LowRankSim {
    let sliced = LowRankSim::new(lr.ya().select_rows(rows), lr.yb().clone(), lr.kernel());
    match lr.row_offsets() {
        Some(off) => sliced.with_row_offsets(rows.iter().map(|&r| off[r]).collect()),
        None => sliced,
    }
}

/// Runs `algos` on uniform (`sparse-regular`) or Chung-Lu (`sparse-skewed`)
/// chords.
///
/// # Errors
/// Stream file errors during set-up.
pub fn run(ctx: &Ctx, chords: Chords, algos: &[XlAlgo]) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(ctx.trace, Instant::now());
    let (n, slice) = shape(ctx.scale);
    let rows: Vec<usize> = (0..slice).map(|i| i * n / slice).collect();
    let roster: Vec<&str> = algos.iter().map(XlAlgo::name).collect();

    let setup = |k, tr: &mut Tracer, report: &mut Report| {
        let inst = setup(ctx, chords, k, &rows, tr, report)
            .map_err(|e| format!("stream pair {k}: {e}"))?;
        report.set("datasets.stream.bytes", inst.stream_bytes as f64);
        Ok(inst)
    };
    batch::run(
        ctx,
        &mut report,
        &mut tracer,
        &roster,
        true,
        setup,
        |inst: &Instance, i, tr, id, traced| {
            let algo = algos[i];
            let aligner = algo.make();
            let method = AssignmentMethod::NearestNeighbor;
            let sim = tr
                .span(&format!("core.similarity.{}", algo.name()), id, |_| {
                    precompute_similarity(&*aligner, &inst.source, &inst.target, method)
                })
                .map_err(|e| (align_error_class(&e), e.to_string()))?;
            let Similarity::LowRank(lr) = &sim else {
                return Err((
                    "violation",
                    format!("{} similarity is not factored", sim.repr_kind()),
                ));
            };
            let sliced = slice_rows(lr, &rows);
            let top = tr.span("assignment.topk", id, |_| {
                sharded_row_top_k(&sliced, K, &TopKConfig::default())
            });
            let mapping: Vec<usize> =
                top.iter().map(|row| row.first().map_or(usize::MAX, |c| c.1)).collect();
            check_mapping(&mapping, slice, inst.target.node_count(), false)
                .map_err(|e| ("violation", e))?;
            let k10 = traced.then(|| {
                let in_top =
                    top.iter().zip(&inst.truth).filter(|(row, t)| row.iter().any(|c| c.1 == **t));
                in_top.count() as f64 / slice as f64
            });
            Ok(Scored { accuracy: hits(&mapping, &inst.truth), k10 })
        },
    )?;
    report.set("datasets.stream.write_s", median(&tracer.durations("datasets.stream.write")));
    report.set("datasets.stream.build_s", median(&tracer.durations("datasets.stream.build")));
    let topk = median(&tracer.durations("assignment.topk"));
    report.set("assignment.topk_s", topk);
    report.set(
        "assignment.topk_pairs_per_s",
        if topk > 0.0 { (slice * n) as f64 / topk } else { 0.0 },
    );
    report.tracer = Some(tracer);
    Ok(report)
}
