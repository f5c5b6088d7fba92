//! The round loop shared by the batch workloads (`dense-grid`,
//! `sparse-regular`, `sparse-skewed`).
//!
//! Each round sets up a fresh input pair drawn from the run's seed and the
//! round number, then runs every aligner of the roster on it once, each as
//! one unit of work under a cooperative deadline and panic isolation.
//! Rounds repeat until the run's time is spent. In a traced run untraced
//! and traced rounds alternate: the end-to-end figures come from untraced
//! rounds, the per-layer figures from traced ones.
//!
//! Units and set-ups are timed in process CPU time ([`crate::cpu`]): on a
//! shared host the wall clock of the same work swings with the neighbours'
//! load, CPU time follows the work. Aligner running times also vary from
//! pair to pair, so `throughput_per_s` is the roster size over the sum of
//! each aligner's mean time over the rounds, and `latency_tail_s` the
//! slowest of those means: a mean moves smoothly with the share of slow
//! pairs, where a median can jump between them. `latency_p50_s` is the
//! median of all units. A unit that fails still finished: its time counts,
//! it scores 0 in the accuracy, and the failure is counted with its class.

use crate::common::{overhead_frac, phase, Ctx, Ops, Report, UNIT_TIMEOUT};
use crate::cpu;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use graphalign_par::telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What a successful unit scored.
#[derive(Debug, Clone, Copy)]
pub struct Scored {
    /// k@1.
    pub accuracy: f64,
    /// k@10, computed in traced rounds only.
    pub k10: Option<f64>,
}

/// Why a unit did not score: a failure class (`numeric`, `timeout`, …), or
/// `violation` for a wrong result, and a detail.
pub type Failure = (&'static str, String);

/// Runs the rounds and sets the metrics every batch workload shares:
/// `throughput_per_s`, the latencies, `accuracy`, `setup_s`,
/// `peak_rss_mib`, `core.similarity_s.*`, `core.features_s`, `linalg.*`,
/// `metrics.accuracy_k10` and `trace.overhead_frac`.
///
/// `setup(k, tracer, report)` builds the input of round `k`; its CPU time is
/// a `setup_s` sample. `unit(input, i, tracer, id, traced)` runs roster member
/// `i` on it as unit `id`, inside a span named `unit.<name>`; it should wrap
/// the similarity call in a span named `core.similarity.<name>`. With
/// `no_densify`, a unit whose telemetry shows a densification is a
/// violation.
pub fn run<I>(
    ctx: &Ctx,
    report: &mut Report,
    tracer: &mut Tracer,
    roster: &[&str],
    no_densify: bool,
    mut setup: impl FnMut(u64, &mut Tracer, &mut Report) -> Result<I, String>,
    mut unit: impl FnMut(&I, usize, &mut Tracer, u64, bool) -> Result<Scored, Failure>,
) -> Result<(), String> {
    let _sink = telemetry::install(false);
    let mut setup_secs = Vec::new();
    let mut unit_secs: Vec<Vec<f64>> = vec![Vec::new(); roster.len()];
    let mut accuracy = Vec::new();
    let (mut traced_throughput, mut plain_throughput) = (vec![], vec![]);
    let (mut features, mut ops, mut k10) = (vec![], None, vec![]);
    let started = Instant::now();
    let mut round = 0;
    while ctx.more_rounds(round, started.elapsed().as_secs_f64()) {
        let traced = ctx.traced_round(round);
        tracer.set_enabled(ctx.trace);
        let t = cpu::process_seconds();
        let input = setup(round as u64, tracer, report)?;
        setup_secs.push(cpu::process_seconds() - t);
        tracer.set_enabled(traced);
        let (mut secs, mut round_features, mut round_ops) = (0.0, 0.0, Ops::default());
        for (i, name) in roster.iter().enumerate() {
            let id = report.attempted;
            report.attempted += 1;
            let t = cpu::process_seconds();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _budget = graphalign_par::budget::install(Some(UNIT_TIMEOUT));
                tracer.span(&format!("unit.{name}"), id, |tr| unit(&input, i, tr, id, traced))
            }));
            let elapsed = cpu::process_seconds() - t;
            tracer.close_open();
            let rep = telemetry::drain();
            secs += elapsed;
            report.notes.push(format!("unit {id} round {round} {name} {elapsed:.3} cpu-s"));
            let outcome = match outcome {
                Ok(Ok(_)) if no_densify && rep.densifications != 0 => {
                    Err(("violation", format!("{} densifications", rep.densifications)))
                }
                Ok(result) => result,
                Err(payload) => Err(("panic", graphalign_par::panic_message(payload.as_ref()))),
            };
            let score = match outcome {
                Ok(scored) => {
                    round_features += phase(&rep, "features");
                    round_ops.add(&rep);
                    k10.extend(scored.k10);
                    scored.accuracy
                }
                Err(("violation", detail)) => {
                    report.violate(format!("{name}: {detail}"));
                    0.0
                }
                Err((class, detail)) => {
                    report.fail(class, &format!("{name}: {detail}"));
                    0.0
                }
            };
            if !traced {
                unit_secs[i].push(elapsed);
                accuracy.push(score);
            }
        }
        let throughput = roster.len() as f64 / secs.max(f64::MIN_POSITIVE);
        if traced {
            traced_throughput.push(throughput);
            features.push(round_features);
            // The first traced round's counts are exact and repeat for the
            // same seed.
            ops.get_or_insert(round_ops);
        } else {
            plain_throughput.push(throughput);
        }
        round += 1;
    }

    let means: Vec<f64> = unit_secs.iter().map(|s| mean(s)).collect();
    let round_secs: f64 = means.iter().sum();
    report.set("throughput_per_s", roster.len() as f64 / round_secs.max(f64::MIN_POSITIVE));
    report.set("latency_p50_s", median(&unit_secs.concat()));
    report.set("latency_tail_s", means.iter().copied().fold(0.0, f64::max));
    report.notes.push(format!(
        "times are CPU seconds over {} rounds; latency_tail_s is the slowest aligner's mean",
        plain_throughput.len()
    ));
    report.set("accuracy", mean(&accuracy));
    report.set_common(&setup_secs);
    for name in roster {
        let secs = tracer.durations(&format!("core.similarity.{name}"));
        report.set(&format!("core.similarity_s.{name}"), median(&secs));
    }
    report.set("core.features_s", median(&features));
    ops.unwrap_or_default().report(report);
    report.set("metrics.accuracy_k10", mean(&k10));
    report.set(
        "trace.overhead_frac",
        overhead_frac(median(&plain_throughput), median(&traced_throughput)),
    );
    Ok(())
}
