//! What every workload shares: the run context, the report it fills in,
//! failure classes, and the mapping checks.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Input size of a run: the benchmark's own, or a tiny one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny inputs that exercise every code path in about a second.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// Everything a workload is given.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measuring time in wall-clock seconds; rounds of work repeat until it
    /// is spent (see [`Ctx::more_rounds`]).
    pub seconds: f64,
    /// Traced run: alternate untraced and traced rounds and report the
    /// per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Scratch directory for stream files, removed when the run ends.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Whether round `round` (0-based) records spans: in a traced run the
    /// odd rounds do, so traced and untraced rounds alternate.
    pub fn traced_round(&self, round: usize) -> bool {
        self.trace && round % 2 == 1
    }

    /// Whether another round is due after `rounds` rounds that took
    /// `elapsed` seconds: rounds repeat until the time is spent, and there
    /// are at least [`MIN_ROUNDS`] untraced (and as many traced) rounds.
    pub fn more_rounds(&self, rounds: usize, elapsed: f64) -> bool {
        let min_rounds = if self.trace { 2 * MIN_ROUNDS } else { MIN_ROUNDS };
        rounds < min_rounds || elapsed < self.seconds
    }

    /// Seed of the input of round `k`.
    pub fn round_seed(&self, k: u64) -> u64 {
        self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k)
    }
}

/// Fewest untraced rounds in a run; every round sets its input up anew, so
/// this is also the fewest set-ups `setup_s` is the median of.
pub const MIN_ROUNDS: usize = 3;

/// Deadline of one unit of work: a unit that outlives it is stopped
/// cooperatively and counted as a `timeout` failure.
pub const UNIT_TIMEOUT: Duration = Duration::from_secs(60);

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Units of work attempted.
    pub attempted: u64,
    /// Units that failed, including correctness violations.
    pub failed: u64,
    /// Failure count per class.
    pub classes: BTreeMap<String, u64>,
    /// Correctness violations (each also a failed unit).
    pub violations: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Context lines printed with the result.
    pub notes: Vec<String>,
    /// The run's spans, written out when the run ends.
    pub tracer: Option<crate::trace::Tracer>,
}

impl Report {
    /// Records a failed unit of `class`.
    pub fn fail(&mut self, class: &str, detail: &str) {
        self.failed += 1;
        *self.classes.entry(class.to_string()).or_default() += 1;
        self.notes.push(format!("failure {class}: {detail}"));
    }

    /// Records a correctness violation: a failed unit that also fails the
    /// run.
    pub fn violate(&mut self, detail: String) {
        self.failed += 1;
        *self.classes.entry("violation".to_string()).or_default() += 1;
        self.violations.push(detail);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Sets `peak_rss_mib` and `setup_s`, and notes the error rate.
    pub fn set_common(&mut self, setup: &[f64]) {
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        self.notes.push(format!(
            "error_rate = {error_rate} ({} of {} units failed)",
            self.failed, self.attempted
        ));
        let rss = graphalign_bench::memprobe::peak_rss_bytes().unwrap_or(0);
        self.set("peak_rss_mib", rss as f64 / f64::from(1 << 20));
        self.set("setup_s", crate::stats::median(setup));
    }
}

/// Failure class of an alignment error, as the experiment harness and the
/// server name them.
pub fn align_error_class(e: &graphalign::AlignError) -> &'static str {
    match e {
        graphalign::AlignError::Interrupted { .. } => "timeout",
        graphalign::AlignError::BadInstance(_) => "infeasible",
        graphalign::AlignError::Numerical(_) => "numeric",
    }
}

/// Checks a mapping of `rows` source nodes into `cols` target nodes: right
/// length, ids in range, and no target used twice when `injective`.
pub fn check_mapping(
    mapping: &[usize],
    rows: usize,
    cols: usize,
    injective: bool,
) -> Result<(), String> {
    if mapping.len() != rows {
        return Err(format!("mapping has {} entries for {rows} source nodes", mapping.len()));
    }
    if let Some((u, v)) = mapping.iter().enumerate().find(|(_, &v)| v >= cols) {
        return Err(format!("node {u} maps to {v}, outside 0..{cols}"));
    }
    if injective {
        let mut seen = vec![false; cols];
        for (u, &v) in mapping.iter().enumerate() {
            if std::mem::replace(&mut seen[v], true) {
                return Err(format!("target {v} is used twice (again by {u})"));
            }
        }
    }
    Ok(())
}

/// Fraction of source nodes mapped to their ground-truth target (k@1).
pub fn hits(mapping: &[usize], truth: &[usize]) -> f64 {
    let hit = mapping.iter().zip(truth).filter(|(a, b)| a == b).count();
    hit as f64 / mapping.len().max(1) as f64
}

/// Accumulated seconds of a telemetry phase, 0 when absent.
pub fn phase(rep: &graphalign_par::telemetry::RepTelemetry, name: &str) -> f64 {
    rep.phases.iter().filter(|(n, _)| *n == name).map(|(_, s)| s).sum()
}

/// Op counters summed over units, reported as the per-layer `linalg.*`
/// metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    /// Matrix products.
    pub matmuls: u64,
    /// Sinkhorn sweeps.
    pub sinkhorn_sweeps: u64,
    /// Scratch allocations avoided by workspace reuse.
    pub allocs_saved: u64,
    /// Similarities densified.
    pub densifications: u64,
    /// Bytes densified.
    pub densified_bytes: u64,
}

impl Ops {
    /// Adds one unit's counters.
    pub fn add(&mut self, rep: &graphalign_par::telemetry::RepTelemetry) {
        self.matmuls += rep.matmuls;
        self.sinkhorn_sweeps += rep.sinkhorn_sweeps;
        self.allocs_saved += rep.allocs_saved;
        self.densifications += rep.densifications;
        self.densified_bytes += rep.densified_bytes;
    }

    /// Adds another set of counters.
    pub fn merge(&mut self, other: Ops) {
        self.matmuls += other.matmuls;
        self.sinkhorn_sweeps += other.sinkhorn_sweeps;
        self.allocs_saved += other.allocs_saved;
        self.densifications += other.densifications;
        self.densified_bytes += other.densified_bytes;
    }

    /// Writes the counters as `linalg.*` metrics.
    pub fn report(&self, report: &mut Report) {
        report.set("linalg.matmuls", self.matmuls as f64);
        report.set("linalg.sinkhorn_sweeps", self.sinkhorn_sweeps as f64);
        report.set("linalg.allocs_saved", self.allocs_saved as f64);
        report.set("linalg.densifications", self.densifications as f64);
        report.set("linalg.densified_bytes", self.densified_bytes as f64);
    }
}

/// `trace.overhead_frac`: throughput lost by traced rounds relative to
/// untraced ones (negative when the traced rounds happened to run faster).
pub fn overhead_frac(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        1.0 - traced / untraced
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_checks() {
        assert!(check_mapping(&[1, 0, 2], 3, 3, true).is_ok());
        assert!(check_mapping(&[1, 1, 2], 3, 3, false).is_ok());
        assert!(check_mapping(&[1, 1, 2], 3, 3, true).unwrap_err().contains("twice"));
        assert!(check_mapping(&[1, 3, 2], 3, 3, false).unwrap_err().contains("outside"));
        assert!(check_mapping(&[1, 0], 3, 3, false).unwrap_err().contains("entries"));
        assert_eq!(hits(&[0, 2, 1], &[0, 1, 2]), 1.0 / 3.0);
    }

    #[test]
    fn rounds_alternate_in_traced_runs() {
        let mut ctx = Ctx {
            seed: 1,
            seconds: 1.0,
            trace: false,
            scale: Scale::Smoke,
            work_dir: PathBuf::new(),
        };
        assert!(ctx.more_rounds(MIN_ROUNDS - 1, 5.0));
        assert!(!ctx.more_rounds(MIN_ROUNDS, 5.0));
        assert!(ctx.more_rounds(MIN_ROUNDS, 0.5));
        assert!(!ctx.traced_round(1));
        ctx.trace = true;
        assert!(ctx.more_rounds(2 * MIN_ROUNDS - 1, 5.0));
        assert!(!ctx.more_rounds(2 * MIN_ROUNDS, 5.0));
        assert!(!ctx.traced_round(0) && ctx.traced_round(1) && !ctx.traced_round(2));
    }
}
