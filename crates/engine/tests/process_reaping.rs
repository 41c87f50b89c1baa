//! Worker-child lifecycle: no worker process may outlive the backend that spawned it — not
//! as a zombie (dead but unreaped) and not as a live orphan — no matter how the dispatch
//! ends (clean, failed, or panicked mid-emit).
//!
//! These tests scan `/proc` for children of the test process, so they live in their own
//! integration-test binary (own PID) and serialize on a lock.

use local_engine::backend::{CellShard, ExecBackend, ProcessBackend};
use local_engine::{workload, Scenario, ScenarioGrid, Sweep};
use local_graphs::family;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn small_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .problems([workload("mis"), workload("luby-mis")])
        .families([family("sparse-gnp")])
        .sizes([36usize, 48])
        .replicates(1)
        .base_seed(9)
}

/// Children of this process right now, as (pid, comm, state) parsed from `/proc/*/stat`.
fn children() -> Vec<(u32, String, char)> {
    let my_pid = std::process::id();
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else { return out };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else { continue };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else { continue };
        // Field 2 (comm) is parenthesized and may contain spaces; split after the last ')'.
        let Some(close) = stat.rfind(')') else { continue };
        let comm = stat[stat.find('(').map_or(0, |i| i + 1)..close].to_string();
        let mut rest = stat[close + 1..].split_whitespace();
        let Some(state) = rest.next().and_then(|s| s.chars().next()) else { continue };
        let Some(ppid) = rest.next().and_then(|s| s.parse::<u32>().ok()) else { continue };
        if ppid == my_pid {
            out.push((pid, comm, state));
        }
    }
    out
}

/// Pids of every process on the machine whose command line is exactly `argv`.
fn processes_running(argv: &[&str]) -> Vec<u32> {
    let wanted: Vec<u8> = argv.iter().flat_map(|arg| arg.bytes().chain([0])).collect();
    let Ok(entries) = std::fs::read_dir("/proc") else { return Vec::new() };
    entries
        .flatten()
        .filter_map(|entry| entry.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| std::fs::read(format!("/proc/{pid}/cmdline")).is_ok_and(|c| c == wanted))
        .collect()
}

/// Polls until no child matching `predicate` remains (they may need a scheduler tick to
/// finish dying); returns the survivors on timeout.
fn settle(predicate: impl Fn(&(u32, String, char)) -> bool) -> Vec<(u32, String, char)> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let leftover: Vec<_> = children().into_iter().filter(&predicate).collect();
        if leftover.is_empty() || Instant::now() > deadline {
            return leftover;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn no_worker_outlives_a_completed_sweep() {
    let _guard = SERIAL.lock().unwrap();
    let grid = small_grid();
    let report = Sweep::over(&grid)
        .backend(ProcessBackend::with_command(2, vec![env!("CARGO_BIN_EXE_sweep").to_string()]))
        .run();
    assert_eq!(report.cell_count, grid.cell_count());
    // Every worker must be dead *and reaped*: no zombies (state Z), no live stragglers.
    let leftover = settle(|(_, comm, _)| comm.contains("sweep"));
    assert!(leftover.is_empty(), "workers outlived the sweep: {leftover:?}");
}

#[test]
fn a_panicking_emit_still_kills_and_reaps_the_worker() {
    let _guard = SERIAL.lock().unwrap();
    let grid = small_grid();
    let cells: Vec<Scenario> = grid.cells();
    let shard = CellShard::new(grid.base_seed, cells);
    let backend = ProcessBackend::with_command(1, vec![env!("CARGO_BIN_EXE_sweep").to_string()]);
    // The emit sink panics on the first result: the dispatcher thread unwinds mid-stream
    // with the worker still running. The reap guard must kill and wait for it during the
    // unwind — an early drop must not leak a zombie.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        backend.run_shard(&shard, &|_, _| panic!("sink exploded"));
    }));
    assert!(result.is_err(), "the panic must propagate");
    let leftover = settle(|(_, comm, _)| comm.contains("sweep"));
    assert!(leftover.is_empty(), "a worker survived the panicking dispatch: {leftover:?}");
}

#[test]
fn hung_workers_are_killed_at_the_deadline_and_reaped() {
    let _guard = SERIAL.lock().unwrap();
    let grid = small_grid();
    let wedged = vec!["/bin/sh".to_string(), "-c".to_string(), "sleep 600".to_string()];
    // A shell that forks `sleep` instead of exec'ing it (dash does) leaves `sleep` a
    // grandchild: once the shell dies it is reparented, so `settle` no longer sees it.
    // Whatever `sleep 600` ran before this sweep is not this sweep's.
    let before = processes_running(&["sleep", "600"]);
    let report = Sweep::over(&grid)
        .backend(ProcessBackend::with_command(1, wedged).io_deadline_ms(300))
        .run();
    assert_eq!(report.cell_count, grid.cell_count(), "the rescue path still delivers");
    let leftover = settle(|(_, comm, state)| comm == "sleep" || comm == "sh" || *state == 'Z');
    assert!(leftover.is_empty(), "a wedged worker was not killed and reaped: {leftover:?}");
    let deadline = Instant::now() + Duration::from_secs(5);
    let orphans = loop {
        let orphans: Vec<u32> = processes_running(&["sleep", "600"])
            .into_iter()
            .filter(|pid| !before.contains(pid))
            .collect();
        if orphans.is_empty() || Instant::now() > deadline {
            break orphans;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(orphans.is_empty(), "the wedged worker's `sleep 600` outlived it: {orphans:?}");
}
