//! `dense-grid`: the registry aligners but CONE with JV assignment on one
//! noisy powerlaw-cluster pair — the paper's protocol with its common
//! assignment.
//!
//! A unit is one alignment: `precompute_similarity`, `assign_precomputed`
//! and `metrics::evaluate`. A round runs the eight units in registry order.
//! CONE is left out because its dense Sinkhorn reports `singular input` on
//! a few pairs in a thousand, and a workload on which operations fail gives
//! failure counts that depend on how many pairs a run reaches; CONE is
//! measured on `sparse-regular`.

use crate::batch::{self, Scored};
use crate::common::{align_error_class, check_mapping, Ctx, Report, Scale};
use crate::stats::median;
use crate::trace::Tracer;
use graphalign::{assign_precomputed, precompute_similarity, registry};
use graphalign_assignment::AssignmentMethod;
use graphalign_graph::permutation::AlignmentInstance;
use graphalign_linalg::Similarity;
use graphalign_noise::{make_instance, NoiseConfig, NoiseModel};
use std::time::Instant;

/// Nodes, attachment count and triangle probability of the source graph.
fn shape(scale: Scale) -> (usize, usize, f64) {
    match scale {
        Scale::Full => (192, 5, 0.5),
        Scale::Smoke => (40, 3, 0.5),
    }
}

/// One-way edge-removal noise of the target.
const NOISE: f64 = 0.05;

/// Candidates a ground-truth target may rank among for k@10.
const K: usize = 10;

/// Whether the ground-truth target of every source row ranks among the
/// row's `K` best (value descending, column ascending); returns the hit
/// fraction.
fn top_k_hits(sim: &Similarity, truth: &[usize]) -> f64 {
    let cols = sim.cols();
    let hit = truth
        .iter()
        .enumerate()
        .filter(|&(i, &t)| {
            let st = sim.get(i, t);
            let ahead = (0..cols)
                .filter(|&j| {
                    let v = sim.get(i, j);
                    v > st || (v == st && j < t)
                })
                .take(K)
                .count();
            ahead < K
        })
        .count();
    hit as f64 / truth.len().max(1) as f64
}

fn setup(ctx: &Ctx, k: u64, tracer: &mut Tracer) -> AlignmentInstance {
    let (n, m, p) = shape(ctx.scale);
    let seed = ctx.round_seed(k);
    let noise = NoiseConfig::new(NoiseModel::OneWay, NOISE);
    let source =
        tracer.span("gen.generate", 0, |_| graphalign_gen::powerlaw_cluster(n, m, p, seed));
    tracer.span("noise.make_instance", 0, |_| make_instance(&source, &noise, seed ^ 0x006e_015e))
}

/// Runs the workload.
///
/// # Errors
/// None in practice: generating the pairs cannot fail.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(ctx.trace, Instant::now());
    let method = AssignmentMethod::JonkerVolgenant;
    let aligners: Vec<_> = registry().into_iter().filter(|a| a.name() != "CONE").collect();
    let roster: Vec<&str> = aligners.iter().map(|a| a.name()).collect();

    let setup = |k, tr: &mut Tracer, _: &mut Report| Ok(setup(ctx, k, tr));
    let outcome = batch::run(
        ctx,
        &mut report,
        &mut tracer,
        &roster,
        false,
        setup,
        |inst: &AlignmentInstance, i, tr, id, traced| {
            let name = roster[i];
            let sim = tr
                .span(&format!("core.similarity.{name}"), id, |_| {
                    precompute_similarity(&*aligners[i], &inst.source, &inst.target, method)
                })
                .map_err(|e| (align_error_class(&e), e.to_string()))?;
            let mapping = tr.span("assignment.assign.JV", id, |_| assign_precomputed(&sim, method));
            let quality = tr.span("metrics.evaluate", id, |_| {
                graphalign_metrics::evaluate(
                    &inst.source,
                    &inst.target,
                    &mapping,
                    &inst.ground_truth,
                )
            });
            let (rows, cols) = (inst.source.node_count(), inst.target.node_count());
            check_mapping(&mapping, rows, cols, true).map_err(|e| ("violation", e))?;
            let k10 = traced.then(|| top_k_hits(&sim, &inst.ground_truth));
            Ok(Scored { accuracy: quality.accuracy, k10 })
        },
    );
    outcome?;
    report.set("gen.generate_s", median(&tracer.durations("gen.generate")));
    report.set("noise.make_instance_s", median(&tracer.durations("noise.make_instance")));
    report.set("assignment.assign_s.JV", median(&tracer.durations("assignment.assign.JV")));
    report.set("metrics.evaluate_s", median(&tracer.durations("metrics.evaluate")));
    report.tracer = Some(tracer);
    Ok(report)
}
