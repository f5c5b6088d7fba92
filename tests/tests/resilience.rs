//! Resilience suite: the fault-tolerance contract of the experiment
//! harness, driven through the same sweep path the figure binaries use.
//!
//! * an injected panic in one cell is caught, classified, and leaves every
//!   other cell of the sweep untouched;
//! * an injected stall winds down through the cooperative cell budget and
//!   is classified as a timeout;
//! * a sweep interrupted after N cells resumes from its journal, replaying
//!   the journaled cells bit-identically and re-running only the rest;
//! * journaled cells are *not* re-executed on resume (a fault armed for a
//!   journaled cell never fires).
//!
//! The fault spec and the journal files are process-global, so these tests
//! serialize on a mutex.

use graphalign_bench::figures::{SweepRow, SweepSession};
use graphalign_bench::journal::Journal;
use graphalign_bench::suite::Algo;
use graphalign_bench::Config;
use graphalign_noise::NoiseModel;
use graphalign_par::fault;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A panicking test poisons the mutex; the remaining tests still run.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_graph() -> graphalign_graph::Graph {
    graphalign_gen::powerlaw_cluster(60, 3, 0.5, 1)
}

fn cfg_with(out: Option<PathBuf>) -> Config {
    Config { seed: 11, out, ..Config::default() }
}

fn sweep(session: &mut SweepSession, levels: &[f64]) -> Vec<SweepRow> {
    session.quality_sweep("t", &small_graph(), true, &[NoiseModel::OneWay], levels, 1)
}

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ga-resilience-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join("sweep.json")
}

#[test]
fn injected_panic_is_isolated_to_its_cell() {
    let _guard = serial();
    fault::set_for_test(Some("IsoRank:One-Way:0.02:r0:panic"));
    let cfg = cfg_with(None);
    let mut session = SweepSession::without_journal(&cfg);
    let rows = sweep(&mut session, &[0.0, 0.02]);
    fault::set_for_test(None);

    assert_eq!(rows.len(), Algo::ALL.len() * 2, "the process survived and the sweep completed");
    let hit = rows
        .iter()
        .find(|r| r.cell.algorithm == "IsoRank" && r.level == 0.02)
        .expect("faulted cell present");
    assert_eq!(hit.cell.error_class.as_deref(), Some("panic"));
    assert_eq!(hit.cell.reps_ok, 0);
    assert!(
        hit.cell.error.as_deref().expect("panic message recorded").contains("injected fault"),
        "error carries the panic payload: {:?}",
        hit.cell.error
    );
    assert!(hit.cell.wall_clock > 0.0, "the attempt's elapsed time is recorded");
    for r in rows.iter().filter(|r| !(r.cell.algorithm == "IsoRank" && r.level == 0.02)) {
        assert!(
            !r.cell.has_failure(),
            "{} at level {} disturbed by the injected panic: {:?}",
            r.cell.algorithm,
            r.level,
            r.cell.error
        );
        assert_eq!(r.cell.reps_ok, r.cell.reps);
    }
}

#[test]
fn injected_stall_is_classified_timeout() {
    let _guard = serial();
    fault::set_for_test(Some("IsoRank:One-Way:0:r0:stall"));
    let mut cfg = cfg_with(None);
    cfg.cell_timeout = Some(0.05);
    let mut session = SweepSession::without_journal(&cfg);
    let rows = sweep(&mut session, &[0.0]);
    fault::set_for_test(None);

    assert_eq!(rows.len(), Algo::ALL.len(), "the process survived the stalled cell");
    let hit = rows.iter().find(|r| r.cell.algorithm == "IsoRank").expect("stalled cell present");
    assert_eq!(hit.cell.error_class.as_deref(), Some("timeout"));
    assert_eq!(hit.cell.reps_ok, 0);
}

#[test]
fn interrupted_sweep_resumes_bit_identically() {
    let _guard = serial();
    fault::set_for_test(None);
    let out = temp_out("resume");
    let levels = [0.0, 0.02];

    // The uninterrupted reference run, journaling every cell.
    let cfg = cfg_with(Some(out.clone()));
    let mut session = SweepSession::new(&cfg);
    let reference = sweep(&mut session, &levels);
    drop(session);

    // Simulate a crash after 5 completed cells: keep the journal's first 5
    // lines plus the torn beginning of a 6th (an interrupted write).
    let jpath = Journal::path_for(&out);
    let text = std::fs::read_to_string(&jpath).expect("journal written");
    assert!(text.lines().count() >= levels.len() * Algo::ALL.len());
    let mut kept: String = text.lines().take(5).map(|l| format!("{l}\n")).collect();
    kept.push_str("{\"journal_seed\":\"11\",\"journal_re");
    std::fs::write(&jpath, kept).expect("truncate journal");

    let resume_cfg = Config { resume: true, ..cfg.clone() };
    let mut resumed_session = SweepSession::new(&resume_cfg);
    let resumed = sweep(&mut resumed_session, &levels);
    assert_eq!(resumed_session.replayed(), 5, "exactly the journaled cells replay");
    assert_eq!(resumed.len(), reference.len());

    for (i, (orig, re)) in reference.iter().zip(&resumed).enumerate() {
        if i < 5 {
            // Replayed cells are byte-for-byte the journaled ones, timing
            // fields included.
            assert_eq!(
                graphalign_json::to_string_compact(re),
                graphalign_json::to_string_compact(orig),
                "replayed cell {i} not bit-identical"
            );
        } else {
            // Re-executed cells reproduce every measure exactly (same seeds);
            // only the wall-clock fields may differ.
            assert_eq!(re.cell.algorithm, orig.cell.algorithm);
            assert_eq!(re.level, orig.level);
            assert_eq!(
                re.cell.accuracy.map(f64::to_bits),
                orig.cell.accuracy.map(f64::to_bits),
                "cell {i}"
            );
            assert_eq!(re.cell.mnc.map(f64::to_bits), orig.cell.mnc.map(f64::to_bits), "cell {i}");
            assert_eq!(re.cell.s3.map(f64::to_bits), orig.cell.s3.map(f64::to_bits), "cell {i}");
            assert_eq!(re.cell.ec.map(f64::to_bits), orig.cell.ec.map(f64::to_bits), "cell {i}");
            assert_eq!(re.cell.ics.map(f64::to_bits), orig.cell.ics.map(f64::to_bits), "cell {i}");
            assert_eq!(re.cell.reps_ok, orig.cell.reps_ok);
            assert_eq!(re.cell.error, orig.cell.error);
            assert_eq!(re.cell.error_class, orig.cell.error_class);
        }
    }
    std::fs::remove_dir_all(out.parent().expect("temp dir")).ok();
}

#[test]
fn journaled_cells_are_not_rerun_on_resume() {
    let _guard = serial();
    fault::set_for_test(None);
    let out = temp_out("noreplay");
    let levels = [0.0];

    // Journal a clean run of every cell.
    let cfg = cfg_with(Some(out.clone()));
    let mut session = SweepSession::new(&cfg);
    let clean = sweep(&mut session, &levels);
    drop(session);

    // Arm a fault that would blow up the IsoRank cell if it re-executed.
    fault::set_for_test(Some("IsoRank:One-Way:0:r0:panic"));
    let resume_cfg = Config { resume: true, ..cfg.clone() };
    let mut resumed_session = SweepSession::new(&resume_cfg);
    let resumed = sweep(&mut resumed_session, &levels);
    fault::set_for_test(None);

    assert_eq!(resumed_session.replayed(), clean.len(), "every cell replayed from the journal");
    let isorank =
        resumed.iter().find(|r| r.cell.algorithm == "IsoRank").expect("IsoRank cell present");
    assert!(
        !isorank.cell.has_failure(),
        "journaled cell re-executed (armed fault fired): {:?}",
        isorank.cell.error
    );
    std::fs::remove_dir_all(out.parent().expect("temp dir")).ok();
}
