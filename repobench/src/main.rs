//! The graphalign repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload <dense-grid|sparse-regular|sparse-skewed|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every line of output but the last is
//! context (host, failures, units, each metric with its unit); the last
//! line is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! An untraced run (`--trace 0`) reports the end-to-end metrics, a traced
//! run (`--trace 1`) the per-layer metrics and writes its spans to
//! `.bench_work/trace-<workload>-<seed>.jsonl`. A correctness violation
//! makes the command exit with status 1 after printing the result; a
//! set-up failure or a bad argument exits non-zero without one.
//!
//! The metric catalogue is `BENCHMARK.json` at the repository root;
//! `plan.json` next to this package records how each metric is measured,
//! which end-to-end metric each per-layer metric should move, and the seeds.

mod batch;
mod common;
mod cpu;
mod dense;
mod serve;
mod sparse;
mod spec;
mod stats;
mod streamgen;
mod trace;

use common::{Ctx, Report, Scale};
use graphalign_bench::xl::XlAlgo;
use graphalign_json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Root of everything a run writes, relative to the working directory.
const WORK_ROOT: &str = ".bench_work";

const USAGE: &str =
    "usage: repobench --workload <dense-grid|sparse-regular|sparse-skewed|serve-mix> \
                     --seed <u64> --seconds <secs> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(String, u64, f64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, seed.ok_or("--seed is required")?, seconds, trace.ok_or("--trace is required")?))
}

/// Runs one workload.
fn run_workload(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    match workload {
        "dense-grid" => dense::run(ctx),
        "sparse-regular" => sparse::run(ctx, streamgen::Chords::Uniform, &XlAlgo::ALL),
        "sparse-skewed" => sparse::run(
            ctx,
            streamgen::Chords::ChungLu { gamma: 2.5 },
            &[XlAlgo::Regal, XlAlgo::Fprop],
        ),
        "serve-mix" => serve::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The commit the checkout was made from, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn host_json() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let simd = if graphalign_linalg::simd::simd_active() { "avx2" } else { "scalar" };
    Json::Obj(vec![
        ("host_cores".into(), Json::Num(cores as f64)),
        ("simd".into(), Json::Str(simd.into())),
        ("threads".into(), Json::Num(graphalign_par::max_threads() as f64)),
        ("commit".into(), Json::Str(commit())),
    ])
}

/// The result object: the catalogue's metrics for this kind of run, each
/// with its unit. Per-layer metrics a workload does not exercise read 0; an
/// end-to-end metric the workload failed to produce is an error.
fn result_json(report: &Report, trace: bool) -> Result<Json, String> {
    let catalogue: &[spec::Metric] = if trace { &spec::PER_LAYER } else { &spec::END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit, _) in catalogue {
        let value = match report.values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(report.violations.is_empty())),
        ("attempted".into(), Json::Num(report.attempted as f64)),
        ("failed".into(), Json::Num(report.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    graphalign_par::set_max_threads(cores);
    let work_dir =
        PathBuf::from(WORK_ROOT).join(format!("{workload}-{seed}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx { seed, seconds, trace, scale: Scale::Full, work_dir: work_dir.clone() };
    let steal_before = cpu::steal_jiffies();
    let outcome = run_workload(&workload, &ctx);
    let steal = steal_before
        .zip(cpu::steal_jiffies())
        .map(|((s0, t0), (s1, t1))| (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    let _ = std::fs::remove_dir_all(&work_dir);
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{workload}: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("# workload {workload} seed {seed} seconds {seconds} trace {}", u8::from(trace));
    println!("# host {}", host_json().to_string_compact());
    if let Some(steal) = steal {
        println!("# host CPU time stolen by the hypervisor during the run: {:.1}%", 100.0 * steal);
    }
    for (class, count) in &report.classes {
        println!("# failures {class}: {count}");
    }
    for note in report.notes.iter().chain(&report.violations) {
        println!("# {note}");
    }
    if let Some(tracer) = report.tracer.as_ref().filter(|_| trace) {
        let path = Path::new(WORK_ROOT).join(format!("trace-{workload}-{seed}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("# spans {} written to {}", tracer.spans().len(), path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    match result_json(&report, trace) {
        Ok(json) => {
            if let Some(Json::Obj(metrics)) = json.get("metrics") {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    println!(
                        "# {name} = {value} {}",
                        m.get("unit").and_then(Json::as_str).unwrap_or("")
                    );
                }
            }
            println!("{}", json.to_string_compact());
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Report {
        let work_dir = std::env::temp_dir()
            .join(format!("repobench_smoke_{workload}_{trace}_{}", std::process::id()));
        std::fs::create_dir_all(&work_dir).unwrap();
        let ctx =
            Ctx { seed: 11, seconds: 0.01, trace, scale: Scale::Smoke, work_dir: work_dir.clone() };
        let report = run_workload(workload, &ctx).unwrap();
        std::fs::remove_dir_all(&work_dir).ok();
        assert!(report.violations.is_empty(), "{workload}: {:?}", report.violations);
        assert!(report.attempted > 0);
        report
    }

    #[test]
    fn every_catalogued_metric_is_emitted_by_some_workload() {
        let mut nonzero: Vec<String> = Vec::new();
        for workload in spec::WORKLOADS {
            let plain = smoke(workload, false);
            let json = result_json(&plain, false).expect("every end-to-end metric is measured");
            assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
            for (name, ..) in spec::END_TO_END {
                assert!(plain.values.contains_key(name), "{workload} lacks {name}");
            }
            let traced = smoke(workload, true);
            result_json(&traced, true).expect("per-layer result");
            let spans = traced.tracer.as_ref().map_or(0, |t| t.spans().len());
            assert!(spans > 0, "{workload} recorded no spans");
            nonzero
                .extend(traced.values.iter().filter(|(_, v)| **v != 0.0).map(|(k, _)| k.clone()));
        }
        // Counts of work that tiny inputs may legitimately not do: retries
        // and refusals happen only under faults or overload, densification
        // only where a factored similarity meets a dense solver, and the
        // trace overhead is a difference of two timings.
        let may_be_zero = ["serve.rejected_429", "serve.retries", "trace.overhead_frac"];
        for (name, ..) in spec::PER_LAYER {
            assert!(
                nonzero.iter().any(|k| k == name) || may_be_zero.contains(&name),
                "no workload measured {name}"
            );
        }
    }

    #[test]
    fn arguments_are_strict() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload serve-mix --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(ok, ("serve-mix".to_string(), 3, 10.0, true));
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload serve-mix --seed -1 --seconds 10 --trace 0",
            "--workload serve-mix --seed 3 --seconds 0 --trace 0",
            "--workload serve-mix --seed 3 --seconds 10 --trace 2",
            "--workload serve-mix --seed 3 --seconds 10",
            "--workload serve-mix --seed 3 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
