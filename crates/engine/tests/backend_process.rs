//! The process backend's headline guarantees, exercised against local daemons launched
//! from the real `sweep` binary (Cargo builds it for integration tests and exposes the path
//! as `CARGO_BIN_EXE_sweep`):
//!
//! * a 2-worker process sweep is byte-identical to a single-threaded in-process sweep;
//! * daemons that never announce an address (dead on arrival, killed, garbage on stdout)
//!   degrade to in-process re-execution with a byte-identical report;
//! * streaming through the result store and cost calibration compose with the process
//!   backend (`store_resweep.rs` covers plain write-through).
//!
//! Cut and under-emitting streams are the stream verifier's unit tests (`backend/stream.rs`).

use local_engine::backend::ProcessBackend;
use local_engine::{
    run_grid, workload, BinaryStore, CellResult, Report, ResultStore, ScenarioGrid, Sweep,
    SweepConfig,
};
use local_graphs::{family, Family};
use std::path::PathBuf;
use std::sync::Arc;

fn worker_bin() -> String {
    env!("CARGO_BIN_EXE_sweep").to_string()
}

fn demo_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .problems([workload("mis"), workload("luby-mis"), workload("ruling-set-b2")])
        .families([Family::SparseGnp.into(), Family::Grid.into(), family("gnp-d16")])
        .sizes([36usize, 48])
        .replicates(2)
        .base_seed(9)
}

fn assert_reports_identical(reference: &Report, candidate: &Report, label: &str) {
    assert_eq!(reference.cell_count, candidate.cell_count, "{label}: cell counts differ");
    assert_eq!(
        reference.cells.len(),
        candidate.cells.len(),
        "{label}: collected cell vectors differ in length"
    );
    for (a, b) in reference.cells.iter().zip(&candidate.cells) {
        assert_eq!(a.deterministic_view(), b.deterministic_view(), "{label}: cell diverged");
    }
    let strip = |report: &Report| {
        report
            .summaries
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.total_wall_micros = 0;
                s
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(reference), strip(candidate), "{label}: summaries diverged");
    assert_eq!(
        reference.deterministic_view().to_csv(),
        candidate.deterministic_view().to_csv(),
        "{label}: CSV bytes diverged"
    );
}

#[test]
fn two_worker_processes_match_one_in_process_thread_byte_for_byte() {
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let candidate =
        Sweep::over(&grid).backend(ProcessBackend::with_command(2, vec![worker_bin()])).run();
    assert_eq!(candidate.threads, 2, "the report records the worker-process count");
    assert_reports_identical(&reference, &candidate, "process backend");
}

#[test]
fn dead_on_arrival_workers_fall_back_in_process() {
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    // `/bin/false` exits immediately without reading the shard or writing a byte.
    let candidate = Sweep::over(&grid)
        .backend(ProcessBackend::with_command(2, vec!["/bin/false".to_string()]))
        .run();
    assert_reports_identical(&reference, &candidate, "dead worker");
}

#[test]
fn killed_workers_fall_back_in_process() {
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let killer = vec!["/bin/sh".to_string(), "-c".to_string(), "kill -9 $$".to_string()];
    let candidate = Sweep::over(&grid).backend(ProcessBackend::with_command(2, killer)).run();
    assert_reports_identical(&reference, &candidate, "killed worker");
}

#[test]
fn garbage_on_stdout_falls_back_in_process() {
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    // Consumes the shard politely, then speaks nonsense and exits 0: the cleanest liar.
    let script = "cat > /dev/null; echo 'definitely { not json'; exit 0".to_string();
    let liar = vec!["/bin/sh".to_string(), "-c".to_string(), script];
    let candidate = Sweep::over(&grid).backend(ProcessBackend::with_command(2, liar)).run();
    assert_reports_identical(&reference, &candidate, "garbage worker");
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("backend-process-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn streaming_composes_with_the_process_backend() {
    let dir = temp_dir("stream");
    let grid = demo_grid();
    let collected = run_grid(&grid, &SweepConfig::with_threads(1));
    let streamed = Sweep::over(&grid)
        .backend(ProcessBackend::with_command(2, vec![worker_bin()]))
        .store(Arc::new(BinaryStore::open(&dir).expect("store opens")))
        .streaming()
        .run();
    assert!(streamed.cells.is_empty(), "streaming mode must not hold cells in memory");
    assert_eq!(streamed.cell_count, collected.cell_count);
    for (s, c) in streamed.summaries.iter().zip(&collected.summaries) {
        let mut s = s.clone();
        s.total_wall_micros = c.total_wall_micros;
        assert_eq!(&s, c, "streamed summary diverges for {}/{}", c.problem, c.family);
    }
    // Every worker-produced cell is recoverable from the store at its canonical position.
    let store = BinaryStore::open(&dir).expect("store reopens");
    let reloaded: Vec<CellResult> = grid
        .cells()
        .into_iter()
        .map(|cell| store.load(&cell, grid.base_seed).expect("streamed cell must be stored"))
        .collect();
    for (a, b) in collected.cells.iter().zip(&reloaded) {
        assert_eq!(a.deterministic_view(), b.deterministic_view());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
