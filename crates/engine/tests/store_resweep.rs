//! Incremental re-sweeps through the result store: a second identical sweep is 100 % store
//! hits and byte-identical to the first; changing an axis executes only the new cells; a
//! code-version bump retires every stored cell; a streamed sweep keeps its cells only in
//! the store and folds the same summaries, and its re-sweep summarizes through the
//! columnar path without materializing a single `CellResult` row; the process backend
//! writes through the store like the in-process pool does; and a second `sweep` on a
//! store directory another process holds exits 1 without touching it.

use local_engine::backend::ProcessBackend;
use local_engine::{
    folded_stacks, report_from_store, run_grid, workload, BinaryStore, ResultStore, ScenarioGrid,
    Sweep, SweepConfig,
};
use local_graphs::{family, Family};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store-resweep-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 2 problems × 2 families × 2 sizes × 2 seeds = 16 cells.
fn small_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .problems([workload("mis"), workload("luby-mis")])
        .families([Family::SparseGnp.into(), family("gnp-d10")])
        .sizes([36usize, 48])
        .replicates(2)
        .base_seed(5)
}

fn open_store(dir: &Path) -> Arc<BinaryStore> {
    Arc::new(BinaryStore::open(dir).expect("store opens"))
}

#[test]
fn second_sweep_through_the_store_is_all_hits_and_byte_identical() {
    let dir = temp_dir("identical");
    let grid = small_grid();
    let store = open_store(&dir);
    let cfg = SweepConfig::with_threads(2).with_store(Arc::clone(&store) as Arc<dyn ResultStore>);

    let first = run_grid(&grid, &cfg);
    assert_eq!(first.cache_hits, 0, "a cold store must not hit");
    assert!(first.cells.iter().all(|c| c.valid && c.solved));
    assert_eq!(
        store.stats().records_appended,
        grid.cell_count() as u64,
        "every executed cell is appended"
    );

    let second = run_grid(&grid, &cfg);
    assert_eq!(second.cache_hits, second.cell_count, "a re-sweep must be 100% store hits");
    assert_eq!(second.distinct_instances, 0, "hits must not regenerate instances");
    // The merged report is byte-identical: stored cells carry their original measurements.
    assert_eq!(first.to_csv_with(true), second.to_csv_with(true));
    assert_eq!(first.summaries, second.summaries);
    assert_eq!(first.to_folded(), second.to_folded());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same re-sweep, but across a close and reopen of the store directory: the cells
/// persist on disk, not only in the open store's memory.
#[test]
fn second_sweep_is_all_hits_and_byte_identical() {
    let dir = temp_dir("identical-reopened");
    let grid = small_grid();

    let first = {
        let cfg = SweepConfig::with_threads(2).with_store(open_store(&dir) as Arc<dyn ResultStore>);
        run_grid(&grid, &cfg)
    };
    assert_eq!(first.cache_hits, 0, "a cold store must not hit");
    assert!(first.cells.iter().all(|c| c.valid && c.solved));

    let reopened = open_store(&dir);
    assert_eq!(
        reopened.stats().records_indexed,
        grid.cell_count() as u64,
        "every cell survives the reopen"
    );
    let cfg =
        SweepConfig::with_threads(2).with_store(Arc::clone(&reopened) as Arc<dyn ResultStore>);
    let second = run_grid(&grid, &cfg);
    assert_eq!(second.cache_hits, second.cell_count, "a re-sweep must be 100% store hits");
    assert_eq!(second.distinct_instances, 0, "hits must not regenerate instances");
    assert_eq!(reopened.stats().records_appended, 0, "hits append nothing");
    // The merged report is byte-identical: stored cells carry their original measurements.
    assert_eq!(first.to_csv_with(true), second.to_csv_with(true));
    assert_eq!(first.summaries, second.summaries);
    assert_eq!(first.to_folded(), second.to_folded());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changed_axes_execute_only_the_new_cells() {
    let dir = temp_dir("partial");
    let grid = small_grid();
    let cfg = SweepConfig::with_threads(2).with_store(open_store(&dir));
    let first = run_grid(&grid, &cfg);

    // Same grid plus one extra size: only the new cells run.
    let extended = small_grid().sizes([36usize, 48, 60]);
    let second = run_grid(&extended, &cfg);
    assert_eq!(second.cache_hits, first.cell_count);
    assert_eq!(
        second.cell_count - second.cache_hits,
        8,
        "2 problems x 2 families x 1 new size x 2 seeds"
    );
    // Shared cells are carried over verbatim.
    for cell in &first.cells {
        assert!(
            second.cells.iter().any(|c| c == cell),
            "stored cell {}/{}/n{} missing from the extended sweep",
            cell.problem,
            cell.family,
            cell.requested_n
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_version_bump_retires_the_store() {
    let dir = temp_dir("codebump");
    let grid = small_grid();
    let versioned = |tag: &str| {
        let store = BinaryStore::with_code_version(&dir, tag).expect("store opens");
        SweepConfig::with_threads(2).with_store(Arc::new(store))
    };
    let cell_count = {
        let v1 = versioned("resweep-test-v1");
        let first = run_grid(&grid, &v1);
        assert_eq!(first.cache_hits, 0);
        assert_eq!(run_grid(&grid, &v1).cache_hits, first.cell_count);
        first.cell_count
    };

    let bumped = run_grid(&grid, &versioned("resweep-test-v2"));
    assert_eq!(bumped.cell_count, cell_count);
    assert_eq!(bumped.cache_hits, 0, "a code-version bump must re-execute every cell");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_mode_matches_collected_summaries_without_holding_cells() {
    let dir = temp_dir("stream");
    let grid = small_grid();
    let collected = run_grid(&grid, &SweepConfig::with_threads(2));

    let streamed =
        run_grid(&grid, &SweepConfig::with_threads(2).with_store(open_store(&dir)).streaming());
    assert!(streamed.cells.is_empty(), "streaming mode must not hold cells in memory");
    assert_eq!(streamed.cell_count, collected.cell_count);
    // Summaries agree on every deterministic field (wall times differ between two live runs).
    assert_eq!(streamed.summaries.len(), collected.summaries.len());
    for (s, c) in streamed.summaries.iter().zip(&collected.summaries) {
        let mut s = s.clone();
        s.total_wall_micros = c.total_wall_micros;
        assert_eq!(&s, c, "streamed summary diverges for {}/{}", c.problem, c.family);
    }

    // Every cell is recoverable from a reopened store, in canonical order, deterministically
    // identical to the collected run.
    let store = open_store(&dir);
    let reloaded: Vec<_> = grid
        .cells()
        .into_iter()
        .map(|cell| store.load(&cell, grid.base_seed).expect("streamed cell must be stored"))
        .collect();
    let reloaded_view: Vec<_> = reloaded.iter().map(|c| c.deterministic_view()).collect();
    let collected_view: Vec<_> = collected.cells.iter().map(|c| c.deterministic_view()).collect();
    assert_eq!(reloaded_view, collected_view);
    let folded = folded_stacks(reloaded);
    assert!(folded.lines().any(|l| l.starts_with("sweep;mis;")), "folded stacks missing: {folded}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_columnar_resweep_materializes_no_rows() {
    let dir = temp_dir("columnar");
    let grid = small_grid();
    // Cold streaming run to populate the store.
    let first = run_grid(
        &grid,
        &SweepConfig::with_threads(2)
            .with_store(open_store(&dir) as Arc<dyn ResultStore>)
            .streaming(),
    );
    assert!(first.cells.is_empty(), "streaming mode must not hold cells in memory");

    // Streamed re-sweep on a fresh handle: every cell is served through the columnar
    // probe, so the handle must never build a single CellResult row.
    let reopened = open_store(&dir);
    let second = run_grid(
        &grid,
        &SweepConfig::with_threads(2)
            .with_store(Arc::clone(&reopened) as Arc<dyn ResultStore>)
            .streaming(),
    );
    assert_eq!(second.cache_hits, second.cell_count, "a re-sweep must be 100% store hits");
    assert_eq!(
        reopened.rows_materialized(),
        0,
        "the columnar re-sweep path must not materialize rows"
    );
    assert_eq!(first.summaries, second.summaries, "columnar folds must match the first run");

    // report_from_store folds the same stored columns in the same canonical order, so its
    // summaries are byte-identical to the streamed re-sweep's — again without rows.
    let offline = report_from_store(&grid, reopened.as_ref()).expect("every cell is stored");
    assert_eq!(offline.summaries, second.summaries);
    assert_eq!(offline.cache_hits, grid.cell_count());
    assert_eq!(reopened.rows_materialized(), 0, "report_from_store must stay columnar");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_process_backend_writes_through_the_store() {
    let dir = temp_dir("process");
    let grid = small_grid();
    let store = open_store(&dir);
    let first = Sweep::over(&grid)
        .backend(ProcessBackend::with_command(2, vec![env!("CARGO_BIN_EXE_sweep").to_string()]))
        .store(Arc::clone(&store) as Arc<dyn ResultStore>)
        .run();
    assert_eq!(first.cache_hits, 0, "a cold store must not hit");
    assert_eq!(store.stats().records_appended, grid.cell_count() as u64);

    // The in-process re-sweep is served entirely from what the worker processes wrote.
    let second = run_grid(
        &grid,
        &SweepConfig::with_threads(2).with_store(Arc::clone(&store) as Arc<dyn ResultStore>),
    );
    assert_eq!(second.cache_hits, second.cell_count);
    assert_eq!(first.to_csv_with(true), second.to_csv_with(true));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_second_sweep_on_a_held_store_exits_with_a_hint_and_appends_nothing() {
    let dir = temp_dir("held");
    let sweep = || {
        Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(["--problems", "mis", "--families", "sparse-gnp", "--sizes", "36"])
            .args(["--seeds", "1", "--store", dir.to_str().expect("utf-8 temp dir")])
            .output()
            .expect("sweep runs")
    };
    let segment_bytes = || std::fs::metadata(dir.join("seg-00000.bin")).expect("segment").len();

    let held = open_store(&dir);
    let before = segment_bytes();
    let refused = sweep();
    assert_eq!(refused.status.code(), Some(1), "a held store must refuse: {refused:?}");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("one sweep per store directory"), "no hint: {stderr}");
    assert!(stderr.contains("--no-store"), "no way out named: {stderr}");
    assert!(!String::from_utf8_lossy(&refused.stdout).contains("from cache"));
    assert_eq!(segment_bytes(), before, "the refused sweep must append nothing");

    // Once the holder is gone the same sweep runs and appends its cell.
    drop(held);
    let ran = sweep();
    assert!(ran.status.success(), "the released store must open: {ran:?}");
    assert!(String::from_utf8_lossy(&ran.stdout).contains("1 cells (0 from cache)"));
    assert!(segment_bytes() > before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cost_ordered_execution_is_thread_count_independent() {
    // The cost model reorders the work queue; results must still land in canonical order
    // and be byte-identical across thread counts (the determinism contract).
    let grid = small_grid();
    let seq = run_grid(&grid, &SweepConfig::with_threads(1));
    let par = run_grid(&grid, &SweepConfig::with_threads(8));
    let seq_view: Vec<_> = seq.cells.iter().map(|c| c.deterministic_view()).collect();
    let par_view: Vec<_> = par.cells.iter().map(|c| c.deterministic_view()).collect();
    assert_eq!(seq_view, par_view);
}
