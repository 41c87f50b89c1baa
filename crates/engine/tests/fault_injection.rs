//! Deterministic fault injection against the process backend (one local daemon driven
//! through the network backend): every scripted failure mode must degrade to a
//! byte-identical report, and the rescue accounting must be *exact* — a fault at result
//! line K leaves exactly K verified cells standing and re-runs exactly the rest.
//!
//! Counter assertions use before/after deltas under one test-local lock, because the obs
//! counters are process-global and the test harness runs tests concurrently.

use local_engine::backend::{FaultPlan, ProcessBackend};
use local_engine::{run_grid, workload, Report, ScenarioGrid, Sweep, SweepConfig};
use local_graphs::family;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// A small grid (8 cells) so exact per-line fault arithmetic stays readable.
fn small_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .problems([workload("mis"), workload("luby-mis")])
        .families([family("sparse-gnp"), family("grid")])
        .sizes([36usize, 48])
        .replicates(1)
        .base_seed(9)
}

fn worker_bin() -> String {
    env!("CARGO_BIN_EXE_sweep").to_string()
}

fn assert_reports_identical(reference: &Report, candidate: &Report, label: &str) {
    assert_eq!(reference.cell_count, candidate.cell_count, "{label}: cell counts differ");
    for (a, b) in reference.cells.iter().zip(&candidate.cells) {
        assert_eq!(a.deterministic_view(), b.deterministic_view(), "{label}: cell diverged");
    }
    assert_eq!(
        reference.deterministic_view().to_csv(),
        candidate.deterministic_view().to_csv(),
        "{label}: CSV bytes diverged"
    );
}

fn rescued() -> u64 {
    local_obs::counter_value(local_obs::metrics::RESCUED_CELLS)
}

/// One single-worker faulted sweep; returns the report and how many cells were rescued.
fn faulted_sweep(grid: &ScenarioGrid, script: &str) -> (Report, u64) {
    local_obs::enable();
    let before = rescued();
    let backend = ProcessBackend::with_command(1, vec![worker_bin()])
        .faults(FaultPlan::parse(script).expect("test script parses"));
    let report = Sweep::over(grid).backend(backend).run();
    (report, rescued() - before)
}

#[test]
fn a_killed_worker_leaves_exactly_the_verified_prefix() {
    let _guard = SERIAL.lock().unwrap();
    let grid = small_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    // The worker exits(1) right before its 4th result line: 3 cells verified, 5 rescued.
    let (candidate, rescued) = faulted_sweep(&grid, "w0:kill@3");
    assert_reports_identical(&reference, &candidate, "killed worker");
    assert_eq!(rescued, grid.cell_count() as u64 - 3, "exactly the unverified cells re-run");
}

#[test]
fn mid_stream_corruption_rescues_exactly_the_unverified_remainder() {
    let _guard = SERIAL.lock().unwrap();
    let grid = small_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    // Two verified lines, then one garbage line, then more valid lines the parent must
    // refuse to trust: exactly the 6 unverified cells are re-run, and the report is
    // byte-identical to the in-process reference.
    let (candidate, rescued) = faulted_sweep(&grid, "w0:garble@2");
    assert_reports_identical(&reference, &candidate, "garbled stream");
    assert_eq!(rescued, grid.cell_count() as u64 - 2, "exactly the unverified cells re-run");
}

#[test]
fn truncated_streams_keep_the_flushed_prefix() {
    let _guard = SERIAL.lock().unwrap();
    let grid = small_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    // The worker flushes 5 lines and exits(0) without a sentinel: a clean truncation.
    let (candidate, rescued) = faulted_sweep(&grid, "w0:truncate@5");
    assert_reports_identical(&reference, &candidate, "truncated stream");
    assert_eq!(rescued, grid.cell_count() as u64 - 5, "exactly the unverified cells re-run");
}

#[test]
fn duplicated_result_lines_are_rejected_not_double_counted() {
    let _guard = SERIAL.lock().unwrap();
    let grid = small_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    // Line 1 arrives twice; the duplicate is refused and the stream abandoned with two
    // cells verified (lines 0 and 1 — the duplicate follows the original).
    let (candidate, rescued) = faulted_sweep(&grid, "w0:dup@1");
    assert_reports_identical(&reference, &candidate, "duplicated line");
    assert_eq!(rescued, grid.cell_count() as u64 - 2, "exactly the unverified cells re-run");
}

#[test]
fn scripted_connect_refusals_are_retried_parent_side() {
    let _guard = SERIAL.lock().unwrap();
    let grid = small_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    local_obs::enable();
    let retries_before = local_obs::counter_value(local_obs::metrics::NET_RETRIES);
    let injected_before = local_obs::counter_value(local_obs::metrics::FAULTS_INJECTED);
    // The parent refuses its first connect to the daemon, then retries through the
    // network backend's backoff: the daemon serves the whole stripe.
    let (candidate, rescued) = faulted_sweep(&grid, "w0:refuse*1");
    assert_reports_identical(&reference, &candidate, "refused connect");
    assert_eq!(rescued, 0, "a retried connect rescues nothing");
    assert_eq!(
        local_obs::counter_value(local_obs::metrics::NET_RETRIES) - retries_before,
        1,
        "the refusal costs exactly one retry"
    );
    assert_eq!(
        local_obs::counter_value(local_obs::metrics::FAULTS_INJECTED) - injected_before,
        1,
        "the refusal itself counts as an injected fault"
    );
}

#[test]
fn a_delay_fault_trips_the_liveness_deadline() {
    let _guard = SERIAL.lock().unwrap();
    let grid = small_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    local_obs::enable();
    let before = rescued();
    // The worker stalls 5 seconds before its 2nd result line while the parent only
    // tolerates 300ms of silence: the stall is declared a death, one verified cell stands.
    let backend = ProcessBackend::with_command(1, vec![worker_bin()])
        .faults(FaultPlan::parse("w0:delay@1=5000").unwrap())
        .io_deadline_ms(300);
    let candidate = Sweep::over(&grid).backend(backend).run();
    assert_reports_identical(&reference, &candidate, "stalled worker");
    assert_eq!(rescued() - before, grid.cell_count() as u64 - 1);
}

#[test]
fn workers_that_never_read_stdin_hit_the_write_deadline_discipline() {
    let _guard = SERIAL.lock().unwrap();
    let grid = small_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    local_obs::enable();
    let before = rescued();
    // A wedged worker: accepts the spawn, never reads its stdin, never writes a byte — so
    // it never announces an address. The launcher stops waiting at the connect timeout,
    // the worker is killed, and everything is rescued.
    let wedged = vec!["/bin/sh".to_string(), "-c".to_string(), "sleep 300".to_string()];
    let backend = ProcessBackend::with_command(1, wedged).io_deadline_ms(300);
    let started = std::time::Instant::now();
    let candidate = Sweep::over(&grid).backend(backend).run();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(60),
        "a wedged worker must be abandoned at the deadline, not waited out"
    );
    assert_reports_identical(&reference, &candidate, "wedged worker");
    assert_eq!(rescued() - before, grid.cell_count() as u64);
}
