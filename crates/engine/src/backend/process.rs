//! The multi-process backend: a launcher of local `sweep --serve` daemons, driven through
//! [`NetworkBackend`].
//!
//! On every [`ExecBackend::run_shard`] the backend spawns up to `workers` daemons (never
//! more than the shard has cells), each as `CMD --serve 127.0.0.1:0 --threads T`, reads the
//! `listening on ADDR` line it announces, and runs the whole shard through a
//! [`NetworkBackend`] over the announced addresses. Verification, re-dispatch to healthy
//! daemons, liveness deadlines, heartbeats, span import and the in-process rescue of last
//! resort are therefore the network backend's — one remote transport, one fleet
//! dispatcher. A daemon that never announces an address — dead on arrival, killed,
//! printing garbage, or silent past the connect timeout — is simply left out of the fleet;
//! if none announces, the dispatcher rescues the whole shard in-process. Every daemon and
//! everything it forked is killed, and the daemon reaped, when the shard ends, on return
//! and on unwind, so no failure path leaks a zombie or an orphaned grandchild. Daemons
//! stay in the sweep's process group, so the terminal's Ctrl-C reaches them too.
//!
//! # Fault injection
//!
//! The backend honours a [`FaultPlan`] (builder knob, defaulting to the `LOCAL_FAULTS`
//! environment script): stream clauses scoped `w<i>:` become — unscoped — daemon `i`'s own
//! `LOCAL_FAULTS`, and a daemon without any gets the variable removed from its environment,
//! so a scripted parent never leaks its script into the fleet. `refuse*N` clauses stay
//! parent-side: the network backend refuses the first N connects to that daemon and
//! retries them through its backoff.

use super::faults::FaultPlan;
use super::network::DEFAULT_CONNECT_TIMEOUT_MS;
use super::{CellShard, EmitFn, ExecBackend, NetworkBackend};
use crate::pool;
use crate::progress::ProgressMeter;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// A child process that is *always* killed and reaped, together with every process it
/// forked, when dropped — on the normal path and when the owning thread unwinds (a
/// panicking emit, an early error return). Without this, an abandoned child outlives the
/// backend, as a zombie once it exits, and what a wrapper command forked (`sh -c` running
/// the real daemon) lives on as an orphan.
#[derive(Debug)]
struct ReapGuard(Child);

impl Drop for ReapGuard {
    fn drop(&mut self) {
        // Descendants first: once the child dies they are reparented and cannot be found.
        // The crate has no `unsafe` and no libc, so they are signalled through kill(1).
        let descendants = descendants(self.0.id());
        if !descendants.is_empty() {
            let _ = Command::new("kill")
                .arg("-KILL")
                .arg("--")
                .args(descendants.iter().map(u32::to_string))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status();
        }
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The pids of every live descendant of `root`, read from `/proc` (none where it is absent).
fn descendants(root: u32) -> Vec<u32> {
    let mut parents = Vec::new();
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let Some(pid) = entry.file_name().to_str().and_then(|name| name.parse::<u32>().ok()) else {
            continue;
        };
        // The parent pid is the second field after the parenthesized (and possibly
        // space-containing) command name.
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else { continue };
        let ppid = stat.rsplit_once(')').and_then(|(_, rest)| rest.split_whitespace().nth(1));
        if let Some(ppid) = ppid.and_then(|ppid| ppid.parse::<u32>().ok()) {
            parents.push((pid, ppid));
        }
    }
    let mut found = vec![root];
    let mut next = 0;
    while next < found.len() {
        let parent = found[next];
        found.extend(parents.iter().filter(|&&(_, ppid)| ppid == parent).map(|&(pid, _)| pid));
        next += 1;
    }
    found.split_off(1)
}

/// One local `sweep --serve 127.0.0.1:0` daemon on an OS-assigned port, killed and reaped on
/// drop.
#[derive(Debug)]
pub struct LocalDaemon {
    child: ReapGuard,
    addr: String,
}

impl LocalDaemon {
    /// Spawns `command` (program + leading arguments) as
    /// `… --serve 127.0.0.1:0 --threads THREADS`, with `faults` rendered into its
    /// `LOCAL_FAULTS` (removed from its environment when the plan is empty), and waits up to
    /// `timeout` for its `listening on ADDR` announcement. A daemon that exits, announces
    /// anything else, or stays silent is killed and reaped, and the reason returned.
    pub fn spawn(
        command: &[String],
        threads: usize,
        faults: &FaultPlan,
        timeout: Duration,
    ) -> Result<LocalDaemon, String> {
        let (program, args) = command.split_first().ok_or("no daemon command")?;
        let mut launch = Command::new(program);
        launch
            .args(args)
            .args(["--serve", "127.0.0.1:0", "--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if faults.is_empty() {
            launch.env_remove("LOCAL_FAULTS");
        } else {
            launch.env("LOCAL_FAULTS", faults.render());
        }
        let mut child = launch.spawn().map_err(|e| format!("cannot spawn {program}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let child = ReapGuard(child);

        // Pipes have no read timeout, so the announcement is read on a thread, which then
        // drains stdout so the daemon never blocks on a full pipe. It is not joined: a
        // grandchild of a wrapper command may hold the pipe open long after the kill.
        let (announce, announced) = mpsc::channel();
        std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            let mut line = String::new();
            let _ = stdout.read_line(&mut line);
            let _ = announce.send(line);
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
        });
        let line = announced
            .recv_timeout(timeout)
            .map_err(|_| format!("no address announced within {}ms", timeout.as_millis()))?;
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => Ok(LocalDaemon { child, addr: addr.to_string() }),
            None if line.is_empty() => Err("exited without announcing an address".to_string()),
            None => Err(format!("unexpected announcement {:?}", line.trim())),
        }
    }

    /// The `host:port` the daemon announced.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the daemon process is still running.
    pub fn is_running(&mut self) -> bool {
        matches!(self.child.0.try_wait(), Ok(None))
    }
}

/// Executes shards over local `sweep --serve` daemons it launches per shard.
#[derive(Debug)]
pub struct ProcessBackend {
    workers: usize,
    worker_threads: usize,
    command: Vec<String>,
    progress: Option<ProgressMeter>,
    heartbeat_ms: u64,
    io_deadline_ms: u64,
    faults: FaultPlan,
}

impl ProcessBackend {
    /// A backend that launches `workers` daemons (`0` = available parallelism), each
    /// re-invoking the current executable in `--serve` mode with one thread. The current
    /// executable is the right command when the caller *is* the `sweep` binary; library
    /// embedders and tests point elsewhere with [`ProcessBackend::with_command`].
    pub fn new(workers: usize) -> Self {
        let command =
            std::env::current_exe().map(|exe| vec![exe.display().to_string()]).unwrap_or_default();
        ProcessBackend::with_command(workers, command)
    }

    /// Like [`ProcessBackend::new`] with an explicit daemon command line (program + leading
    /// arguments; `--serve 127.0.0.1:0 --threads T` is appended at spawn time).
    pub fn with_command(workers: usize, command: impl Into<Vec<String>>) -> Self {
        ProcessBackend {
            workers: pool::resolve_worker_count(workers),
            worker_threads: 1,
            command: command.into(),
            progress: None,
            heartbeat_ms: 500,
            io_deadline_ms: super::DEFAULT_IO_DEADLINE_MS,
            faults: FaultPlan::from_env_lossy(),
        }
    }

    /// Sets how many threads each daemon runs its stripe with, and the in-process rescue
    /// path's thread count (`0` = available parallelism; default 1 — process-level
    /// parallelism usually wants single-threaded workers).
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads;
        self
    }

    /// Attaches a live progress meter: daemons are asked for heartbeats, and both result
    /// lines and heartbeat records update the per-worker throughput display.
    pub fn progress(mut self, meter: ProgressMeter) -> Self {
        self.progress = Some(meter);
        self
    }

    /// Sets the daemon heartbeat interval (default 500ms; only used when telemetry is on).
    pub fn heartbeat_ms(mut self, ms: u64) -> Self {
        self.heartbeat_ms = ms.max(1);
        self
    }

    /// Sets the I/O liveness deadline in milliseconds (default 600000): a daemon whose
    /// stream stays silent this long is declared dead and its missing cells are
    /// re-dispatched or rescued. When heartbeats flow, the effective window shrinks to a few
    /// heartbeat intervals ([`super::liveness_window`]).
    pub fn io_deadline_ms(mut self, ms: u64) -> Self {
        self.io_deadline_ms = ms.max(1);
        self
    }

    /// Sets the deterministic fault-injection plan (default: the `LOCAL_FAULTS`
    /// environment script). Clauses scoped to worker `i` are forwarded into that daemon's
    /// environment; `refuse` clauses refuse connects to it parent-side.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }
}

impl ExecBackend for ProcessBackend {
    fn name(&self) -> &'static str {
        "process"
    }

    fn parallelism(&self) -> usize {
        self.workers
    }

    fn run_shard(&self, shard: &CellShard, emit: &EmitFn) {
        if shard.cells.is_empty() {
            return;
        }
        // Launch the whole fleet at once, so announcements are awaited in parallel.
        let timeout = Duration::from_millis(DEFAULT_CONNECT_TIMEOUT_MS);
        let launched: Vec<Result<LocalDaemon, String>> = std::thread::scope(|scope| {
            let launches: Vec<_> = (0..self.workers.min(shard.cells.len()))
                .map(|i| {
                    let faults = self.faults.for_worker(i);
                    scope.spawn(move || {
                        LocalDaemon::spawn(&self.command, self.worker_threads, &faults, timeout)
                    })
                })
                .collect();
            launches.into_iter().map(|launch| launch.join().expect("launch panicked")).collect()
        });
        let mut fleet = Vec::new();
        let mut live = Vec::new();
        for (worker, daemon) in launched.into_iter().enumerate() {
            match daemon {
                Ok(daemon) => {
                    fleet.push(daemon);
                    live.push(worker);
                }
                Err(reason) => eprintln!(
                    "sweep process backend: worker {worker} failed ({reason}); leaving it out \
                     of the fleet"
                ),
            }
        }
        let mut network = NetworkBackend::new(fleet.iter().map(|d| d.addr.clone()).collect())
            .rescue_threads(self.worker_threads)
            .heartbeat_ms(self.heartbeat_ms)
            .io_deadline_ms(self.io_deadline_ms)
            .faults(self.faults.refusals_for(&live));
        if let Some(meter) = &self.progress {
            network = network.progress(meter.clone());
        }
        network.run_shard(shard, emit);
    }
}

/// The stream every launched daemon speaks, pinned at its source:
/// [`super::network::serve_shard`].
#[cfg(test)]
mod tests {
    use super::super::faults::FaultInjector;
    use super::super::network::{apply_line_fault, serve_shard};
    use super::super::stream::{accept_result, LineSink};
    use super::*;
    use crate::registry::workload;
    use crate::scenario::Scenario;
    use local_graphs::Family;
    use serde::Value;
    use std::io::Write;
    use std::time::{Duration, Instant};

    /// A writer that keeps every `write` call apart, with the time it was made.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<(Instant, Vec<u8>)>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push((Instant::now(), buf.to_vec()));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Recorder {
        fn text(&self) -> String {
            self.writes.iter().map(|(_, bytes)| String::from_utf8_lossy(bytes)).collect()
        }
    }

    fn no_faults() -> FaultInjector {
        FaultInjector::default()
    }

    fn small_shard() -> CellShard {
        CellShard::new(
            3,
            vec![
                Scenario {
                    problem: workload("luby-mis"),
                    family: Family::SparseGnp.into(),
                    n: 32,
                    replicate: 0,
                },
                Scenario {
                    problem: workload("luby-mis"),
                    family: Family::SparseGnp.into(),
                    n: 32,
                    replicate: 1,
                },
            ],
        )
    }

    #[test]
    fn serve_shard_round_trips_through_the_stream_format() {
        let shard = small_shard();
        let mut out = Vec::new();
        serve_shard(&shard, 1, None, &no_faults(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), shard.cells.len() + 1, "cells + sentinel");

        let mut emitted = vec![false; shard.cells.len()];
        for line in &lines[..shard.cells.len()] {
            let value = serde_json::from_str(line).unwrap();
            let (index, result) = accept_result(&shard, &value, &emitted).unwrap();
            emitted[index] = true;
            assert_eq!(result.seed, shard.cells[index].cell_seed(shard.base_seed));
        }
        let sentinel = serde_json::from_str(lines.last().unwrap()).unwrap();
        assert_eq!(sentinel, Value::Map(vec![("done".into(), Value::U64(2))]), "only `done`");
    }

    #[test]
    fn serve_shard_rejects_code_version_skew() {
        let mut shard = small_shard();
        shard.code_version = "some-stale-build".into();
        let mut out = Vec::new();
        let err = serve_shard(&shard, 1, None, &no_faults(), &mut out).unwrap_err();
        assert!(err.contains("code-version skew"), "{err}");
        assert!(out.is_empty(), "a refused shard must produce no results");
    }

    #[test]
    fn accept_result_rejects_foreign_and_duplicate_cells() {
        let shard = small_shard();
        let mut out = Vec::new();
        serve_shard(&shard, 1, None, &no_faults(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let first = serde_json::from_str(text.lines().next().unwrap()).unwrap();

        let fresh = vec![false; shard.cells.len()];
        let (index, _) = accept_result(&shard, &first, &fresh).unwrap();
        let mut seen = fresh.clone();
        seen[index] = true;
        assert!(accept_result(&shard, &first, &seen).unwrap_err().contains("twice"));

        // The same line against a shard with a different base seed: the derived execution
        // seed no longer matches, so the result is refused.
        let mut reseeded = shard.clone();
        reseeded.base_seed = 4;
        assert!(accept_result(&reseeded, &first, &fresh).unwrap_err().contains("does not match"));
    }

    #[test]
    fn garble_faults_insert_garbage_midstream_but_keep_valid_lines() {
        let shard = small_shard();
        let injector = FaultInjector::new(&FaultPlan::parse("garble@1").unwrap());
        let mut out = Vec::new();
        serve_shard(&shard, 1, None, &injector, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), shard.cells.len() + 2, "cells + one garbage line + sentinel");
        assert!(serde_json::from_str(lines[0]).is_ok(), "first result is clean");
        assert!(serde_json::from_str(lines[1]).is_err(), "garbage where scripted");
        assert!(serde_json::from_str(lines[2]).is_ok(), "valid lines continue after");
    }

    #[test]
    fn duplicate_faults_repeat_the_scripted_line() {
        let shard = small_shard();
        let injector = FaultInjector::new(&FaultPlan::parse("dup@0").unwrap());
        let mut out = Vec::new();
        serve_shard(&shard, 1, None, &injector, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), shard.cells.len() + 2, "cells + one duplicate + sentinel");
        assert_eq!(lines[0], lines[1], "the scripted line is emitted twice");
    }

    #[test]
    fn serve_shard_writes_its_result_lines_in_batches() {
        let cells = (0..32)
            .map(|replicate| Scenario {
                problem: workload("luby-mis"),
                family: Family::SparseGnp.into(),
                n: 32,
                replicate,
            })
            .collect();
        let shard = CellShard::new(3, cells);
        let mut out = Recorder::default();
        serve_shard(&shard, 1, None, &no_faults(), &mut out).unwrap();
        assert_eq!(out.text().lines().count(), 33, "cells + sentinel");
        // One write per line would be 33; a batch goes out per 20 ms of serving at most.
        assert!(out.writes.len() <= 8, "{} writes for 33 lines", out.writes.len());
    }

    #[test]
    fn kill_truncate_and_delay_hand_over_exactly_the_preceding_lines() {
        let lines: Vec<Value> =
            (0..6).map(|i| Value::Map(vec![("index".into(), Value::U64(i))])).collect();
        let expected: String =
            lines[..5].iter().map(|line| serde_json::to_string(line).unwrap() + "\n").collect();
        for (script, exit) in [("kill@5", Some(1)), ("truncate@5", Some(0)), ("delay@5=30", None)] {
            let injector = FaultInjector::new(&FaultPlan::parse(script).unwrap());
            let mut sink = LineSink::new(Recorder::default());
            for (index, line) in lines.iter().enumerate() {
                let fault = injector.on_result_line();
                if let Some(code) = apply_line_fault(fault, &mut sink, index, line) {
                    assert_eq!((index, Some(code)), (5, exit), "{script}");
                    break;
                }
                if index == 5 {
                    // The delay returned: every earlier line went out before the sleep.
                    let (written, _) = sink.get_ref().writes.last().cloned().unwrap();
                    assert!(written.elapsed() >= Duration::from_millis(30), "{script}");
                    break;
                }
                sink.line(line).unwrap();
            }
            assert_eq!(sink.get_ref().text(), expected, "{script}");
        }
    }
}
