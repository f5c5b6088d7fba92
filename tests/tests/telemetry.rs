//! End-to-end contract of the solver-telemetry layer, driven through the
//! same harness paths the figure binaries use:
//!
//! * the `--trace` JSONL sidecar matches its golden schema: every line is a
//!   [`TraceRecord`] with the documented keys in the documented order, a
//!   stop reason from the taxonomy, finite residuals, and a stop reason
//!   consistent with its convergence flag;
//! * a forcibly tightened iteration cap surfaces as `converged: false` with
//!   stop `max_iter` in the cell's aggregated telemetry block — while the
//!   cell still yields its quality measures (truncation must be *reported*,
//!   never silently averaged away, and never fatal);
//! * the telemetry block (counters, iteration totals, stop-reason counts)
//!   is bit-identical across worker thread counts.
//!
//! The iteration-cap override and the thread-count override are process
//! globals, so these tests serialize on a mutex.

use graphalign_assignment::AssignmentMethod;
use graphalign_bench::figures::SweepSession;
use graphalign_bench::harness::{run_cell, run_cell_traced, RunPolicy};
use graphalign_bench::suite::{set_forced_max_iter, Algo};
use graphalign_bench::telemetry::TraceRecord;
use graphalign_bench::Config;
use graphalign_noise::{NoiseConfig, NoiseModel};
use graphalign_par::telemetry::StopReason;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the forced iteration cap even when an assertion panics, so one
/// failing test cannot poison the rest of the (serialized) suite.
struct CapGuard;

impl Drop for CapGuard {
    fn drop(&mut self) {
        set_forced_max_iter(None);
    }
}

fn small_graph() -> graphalign_graph::Graph {
    graphalign_gen::powerlaw_cluster(60, 3, 0.5, 1)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ga-telemetry-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The documented key order of a trace record — the golden schema the
/// `trace_lint` binary and any downstream tooling rely on.
const TRACE_KEYS: [&str; 12] = [
    "workload",
    "algorithm",
    "assignment",
    "noise",
    "level",
    "rep",
    "routine",
    "iterations",
    "residual",
    "converged",
    "stop",
    "residuals",
];

#[test]
fn trace_jsonl_matches_golden_schema() {
    let _guard = serial();
    graphalign_par::fault::set_for_test(None);
    let dir = temp_dir("schema");
    let trace_path = dir.join("sweep.trace.jsonl");

    let cfg = Config { seed: 7, trace: Some(trace_path.clone()), ..Config::default() };
    let mut session = SweepSession::new(&cfg);
    let rows = session.quality_sweep("t", &small_graph(), true, &[NoiseModel::OneWay], &[0.02], 1);
    drop(session);
    assert_eq!(rows.len(), Algo::ALL.len());

    let text = std::fs::read_to_string(&trace_path).expect("trace sidecar written");
    let mut records = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let value = graphalign_json::from_str(line)
            .unwrap_or_else(|e| panic!("trace line {}: bad JSON: {e}", idx + 1));

        // Key set *and* order are part of the schema: the sidecar is meant
        // to be diffable across runs and greppable with fixed offsets.
        let graphalign_json::Json::Obj(entries) = &value else {
            panic!("trace line {}: not a JSON object", idx + 1);
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, TRACE_KEYS, "trace line {}: key schema drifted", idx + 1);

        let record = TraceRecord::from_json(&value)
            .unwrap_or_else(|| panic!("trace line {}: does not parse as a TraceRecord", idx + 1));
        records += 1;

        assert!(
            StopReason::parse(&record.stop).is_some(),
            "trace line {}: stop reason {:?} outside the taxonomy",
            idx + 1,
            record.stop
        );
        assert!(record.residual.is_finite(), "trace line {}: non-finite final residual", idx + 1);
        assert!(
            record.residuals.iter().all(|r| r.is_finite()),
            "trace line {}: non-finite residual in series",
            idx + 1
        );
        assert!(
            record.residuals.len() <= record.iterations,
            "trace line {}: {} residuals for {} iterations",
            idx + 1,
            record.residuals.len(),
            record.iterations
        );
        // Taxonomy consistency: tolerance implies converged, interruption
        // implies not converged.
        if record.stop == "tolerance" {
            assert!(record.converged, "trace line {}: tolerance but not converged", idx + 1);
        }
        if record.stop == "interrupted" {
            assert!(!record.converged, "trace line {}: interrupted yet converged", idx + 1);
        }
        assert_eq!(record.workload, "t");
        assert_eq!(record.noise, "One-Way");
        assert!(Algo::from_name(&record.algorithm).is_some());
    }
    assert!(records > 0, "a nine-algorithm sweep must trace at least one solver invocation");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forced_truncation_reports_nonconvergence_with_measures() {
    let _guard = serial();
    graphalign_par::fault::set_for_test(None);
    let _restore = CapGuard;
    set_forced_max_iter(Some(2));

    let base = small_graph();
    let noise = NoiseConfig::new(NoiseModel::OneWay, 0.02);
    let policy = RunPolicy::new(2, 7, true);

    // IsoRank's power iteration and CONE's Sinkhorn inner loop are the two
    // solvers the override caps; two iterations is far below what either
    // needs at the default tolerances.
    for algo in [Algo::IsoRank, Algo::Cone] {
        let cell = run_cell(algo, &base, true, &noise, AssignmentMethod::JonkerVolgenant, &policy);
        assert_eq!(cell.reps_ok, cell.reps, "{}: truncation must not fail the cell", algo.name());
        assert!(
            cell.accuracy.is_some() && cell.mnc.is_some() && cell.s3.is_some(),
            "{}: a truncated solver still yields measures",
            algo.name()
        );
        let telemetry =
            cell.telemetry.as_ref().unwrap_or_else(|| panic!("{}: telemetry block", algo.name()));
        assert!(
            !telemetry.converged,
            "{}: a 2-iteration cap must be reported as non-convergence",
            algo.name()
        );
        assert!(telemetry.nonconverged_runs > 0, "{}", algo.name());
        let max_iter_stops = telemetry
            .stop_reasons
            .iter()
            .find(|(reason, _)| reason == "max_iter")
            .map_or(0, |(_, count)| *count);
        assert!(
            max_iter_stops > 0,
            "{}: expected stop reason max_iter in {:?}",
            algo.name(),
            telemetry.stop_reasons
        );
    }

    // End-to-end through the figure-binary path: every figure binary is a
    // thin wrapper over `quality_sweep`, so a truncated IsoRank cell must
    // carry the non-convergence verdict in the rows (and JSON) it emits.
    let cfg = Config { seed: 7, ..Config::default() };
    let mut session = SweepSession::without_journal(&cfg);
    let rows = session.quality_sweep("t", &base, true, &[NoiseModel::OneWay], &[0.02], 1);
    let isorank = rows.iter().find(|r| r.cell.algorithm == "IsoRank").expect("IsoRank row");
    let telemetry = isorank.cell.telemetry.as_ref().expect("telemetry block in sweep row");
    assert!(!telemetry.converged, "truncation must survive the sweep path");
    assert!(isorank.cell.accuracy.is_some(), "the truncated cell still reports measures");
    let json = graphalign_json::to_string_compact(isorank);
    assert!(
        json.contains("\"telemetry\":{\"converged\":false"),
        "the JSON row carries the verdict: {json}"
    );

    drop(_restore);

    // With the Table 1 defaults restored, the same IsoRank cell converges —
    // the non-convergence above is the cap's doing, not the solver's.
    let cell =
        run_cell(Algo::IsoRank, &base, true, &noise, AssignmentMethod::JonkerVolgenant, &policy);
    let telemetry = cell.telemetry.as_ref().expect("telemetry block");
    assert!(
        telemetry.converged,
        "IsoRank at defaults should converge on a 60-node graph: {:?}",
        telemetry.stop_reasons
    );
}

#[test]
fn telemetry_is_thread_count_invariant() {
    let _guard = serial();
    graphalign_par::fault::set_for_test(None);
    let base = small_graph();
    let noise = NoiseConfig::new(NoiseModel::OneWay, 0.02);
    let mut policy = RunPolicy::new(3, 7, true);
    policy.trace = true;

    let run = |threads: usize| {
        graphalign_par::set_max_threads(threads);
        let out = run_cell_traced(
            Algo::IsoRank,
            &base,
            true,
            &noise,
            AssignmentMethod::JonkerVolgenant,
            &policy,
        );
        graphalign_par::set_max_threads(0);
        out
    };
    let (cell_1, series_1) = run(1);
    let (cell_8, series_8) = run(8);

    // Counters, stop reasons, and iteration totals are part of the result,
    // not of the schedule: they must be bit-identical across thread counts.
    let t1 = cell_1.telemetry.expect("telemetry at 1 thread");
    let t8 = cell_8.telemetry.expect("telemetry at 8 threads");
    assert_eq!(t1.converged, t8.converged);
    assert_eq!(t1.solver_runs, t8.solver_runs);
    assert_eq!(t1.nonconverged_runs, t8.nonconverged_runs);
    assert_eq!(t1.iterations, t8.iterations);
    assert_eq!(t1.stop_reasons, t8.stop_reasons);
    assert_eq!(t1.matmuls, t8.matmuls);
    assert_eq!(t1.sinkhorn_sweeps, t8.sinkhorn_sweeps);
    assert_eq!(t1.auction_bids, t8.auction_bids);
    // Phase *timings* are wall clock; only the phase set is invariant.
    let names = |t: &graphalign_bench::telemetry::CellTelemetry| {
        t.phases.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
    };
    assert_eq!(names(&t1), names(&t8));

    // The traced residual series — every iterate of every solver run — are
    // bit-identical too, in the same (repetition, invocation) order.
    assert_eq!(series_1.len(), series_8.len());
    for ((r1, s1), (r8, s8)) in series_1.iter().zip(&series_8) {
        assert_eq!(r1, r8);
        assert_eq!(s1.routine, s8.routine);
        assert_eq!(s1.convergence.iterations, s8.convergence.iterations);
        assert_eq!(s1.convergence.residual.to_bits(), s8.convergence.residual.to_bits());
        assert_eq!(s1.convergence.stop, s8.convergence.stop);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&s1.residuals), bits(&s8.residuals), "{} series drifted", s1.routine);
    }
    assert!(!series_1.is_empty(), "tracing an IsoRank cell must record residual series");
}

#[test]
fn untraced_policy_still_aggregates_telemetry() {
    let _guard = serial();
    graphalign_par::fault::set_for_test(None);
    let base = small_graph();
    let noise = NoiseConfig::new(NoiseModel::OneWay, 0.0);
    let policy = RunPolicy::new(1, 7, true);
    assert!(!policy.trace);

    let (cell, series) = run_cell_traced(
        Algo::IsoRank,
        &base,
        true,
        &noise,
        AssignmentMethod::JonkerVolgenant,
        &policy,
    );
    assert!(series.is_empty(), "residual series are opt-in via --trace");
    let telemetry = cell.telemetry.expect("events and counters are always collected");
    assert!(telemetry.solver_runs > 0);
    assert!(telemetry.iterations > 0);
    assert!(telemetry.matmuls > 0, "IsoRank's power iteration counts matmuls");
}
