//! perfbench — the sweep engine's benchmark harness.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --sweep-bin PATH
//!           [--reference FILE] [--work-dir DIR] [--tiny] [--daemon-faults SCRIPT]
//! perfbench --digest --workload NAME --seed N [--tiny]
//! ```
//!
//! One invocation measures one workload (see [`WORKLOADS`]) in a fresh process, so peak-RSS
//! high-water marks never leak from one workload into the next. It drives the engine only
//! through its public API (`Sweep`, the three execution backends, `BinaryStore`, `Report`)
//! plus the built `sweep` binary for `--serve` daemons.
//!
//! * `--trace 0` sets the workload up several times (daemon start, one warm-up shard, store
//!   seeding and restore), then repeats the timed sweep for `--seconds` and reports medians
//!   of the end-to-end metrics. The sweep clock runs from opening the result store to the
//!   validated report being rendered.
//! * `--trace 1` runs one plain sweep, one sweep with timing decorators around the store
//!   and the backend, and a per-cell replay that times each layer's public entry points
//!   (see [`replay`]); it reports the per-layer metrics.
//!
//! Every run checks its outputs: every cell valid and solved, the report's deterministic
//! digest equal to the committed reference (default seed) or to an in-process run of the
//! same grid, and — traced — every replayed cell equal to the engine's own result. Metric
//! lines read `metric NAME VALUE UNIT`; the last stdout line is one JSON object.

mod replay;
mod sys;
mod timed;

use local_engine::backend::FaultPlan;
use local_engine::{run_cell_in, workload, BinaryStore, ExecBackend, InProcessBackend, Instance};
use local_engine::{NetworkBackend, Report, ScenarioGrid, Sweep};
use local_graphs::{family, InstanceKey};
use local_runtime::Session;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sys::Daemon;
use timed::{seconds, ShardTimes, TimedBackend, TimedStore};

/// Compute threads and daemons per workload: the load comes from one harness process with
/// at most this much parallelism.
const PARALLELISM: usize = 2;

/// Full set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Telemetry heartbeat requested from the daemons while the traced run reads the
/// resilience counters: long enough that no heartbeat fires inside a sweep.
const HEARTBEAT_MS: u64 = 600_000;

/// The base seed the committed reference digests were taken at.
const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exec {
    InProcess,
    Network,
}

/// One benchmark workload: a sweep grid and the backend that executes it.
struct Workload {
    name: &'static str,
    problems: &'static [&'static str],
    families: &'static [&'static str],
    sizes: &'static [usize],
    replicates: u64,
    /// Sizes and replicates for the self-test.
    tiny_sizes: &'static [usize],
    tiny_replicates: u64,
    exec: Exec,
    /// Whether the store is pre-seeded with the first half of the replicates.
    seeded_store: bool,
}

// A fourth workload, the small-cells grid through `ProcessBackend` workers, was dropped: one
// process start per worker per sweep made its throughput spread by 20–30 % between runs of
// the same code on a shared 2-vCPU host, past any usable bound.
const WORKLOADS: &[Workload] = &[
    Workload {
        name: "baseline-heavy",
        problems: &["matching", "edge-coloring"],
        families: &["power-law", "regular-6", "gnp-avg8"],
        sizes: &[100],
        replicates: 6,
        tiny_sizes: &[24],
        tiny_replicates: 2,
        exec: Exec::InProcess,
        seeded_store: false,
    },
    Workload {
        name: "large-n",
        problems: &["coloring", "cor1-mis", "ruling-set"],
        families: &["regular-6", "triangulated-grid"],
        sizes: &[5000],
        replicates: 4,
        tiny_sizes: &[64],
        tiny_replicates: 2,
        exec: Exec::InProcess,
        seeded_store: false,
    },
    Workload {
        name: "small-cells-network",
        problems: &["mis", "ruling-set", "luby-mis", "log4-matching", "arboricity-mis"],
        families: &["gnp-avg8", "grid", "forest-union-3"],
        sizes: &[64, 128],
        replicates: 64,
        tiny_sizes: &[24],
        tiny_replicates: 4,
        exec: Exec::Network,
        seeded_store: true,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sweep: PathBuf,
    reference: Option<PathBuf>,
    work: PathBuf,
    tiny: bool,
    faults: Option<String>,
    digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let mut workload = None;
    let mut args = Args {
        workload: &WORKLOADS[0],
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        sweep: PathBuf::new(),
        reference: None,
        work: PathBuf::from(".bench_work"),
        tiny: false,
        faults: None,
        digest: false,
    };
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--sweep-bin" => args.sweep = PathBuf::from(value()?),
            "--reference" => args.reference = Some(PathBuf::from(value()?)),
            "--work-dir" => args.work = PathBuf::from(value()?),
            "--daemon-faults" => args.faults = Some(value()?),
            "--tiny" => args.tiny = true,
            "--digest" => args.digest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !args.digest && !args.sweep.is_file() {
        return Err(format!("--sweep-bin {:?} is not a built sweep binary", args.sweep));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.digest {
        let bench = Bench::new(&args);
        let report = Sweep::over(&bench.grid).backend(InProcessBackend::new(PARALLELISM)).run();
        println!("{} {:016x}", reference_key(&args), digest(&projection(&report), &report));
        return;
    }
    let mut bench = Bench::new(&args);
    let outcome = if args.trace { bench.traced() } else { bench.measured() };
    let _ = std::fs::remove_dir_all(&bench.work);
    drop(bench);
    match outcome {
        Ok(outcome) => outcome.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

// ------------------------------------------------------------------ output checking --------

/// The deterministic content of a report, one line per cell: `Report::deterministic_view`
/// restricted to the cell fields the paper's measurements consist of, so adding a column to
/// the report does not invalidate the committed reference.
fn projection(report: &Report) -> Vec<String> {
    report
        .deterministic_view()
        .cells
        .iter()
        .map(|c| {
            format!(
                "{} {} {} {} {} {} {} {} {} {} {} {} {} {}",
                c.problem,
                c.family,
                c.requested_n,
                c.n,
                c.edges,
                c.replicate,
                c.seed,
                c.uniform_rounds,
                c.uniform_messages,
                c.nonuniform_rounds,
                c.nonuniform_messages,
                c.subiterations,
                c.solved,
                c.valid
            )
        })
        .collect()
}

/// FNV-1a over the report header and its projection.
fn digest(lines: &[String], report: &Report) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let header = format!("{} {}\n", report.base_seed, report.cell_count);
    for line in std::iter::once(header).chain(lines.iter().map(|l| format!("{l}\n"))) {
        for byte in line.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn reference_key(args: &Args) -> String {
    let mode = if args.tiny { "tiny" } else { "full" };
    format!("{} {mode} {}", args.workload.name, args.seed)
}

/// What a run's reports must equal.
struct Expected {
    /// The run's own seed: only the report of that seed has a committed digest.
    seed: u64,
    /// The committed digest for this workload, size mode and seed, when there is one.
    digest: Option<u64>,
    /// Per-cell projection of an in-process sweep of the same grid, which every report of
    /// a distributed workload must reproduce.
    cells: Option<Vec<String>>,
}

impl Expected {
    /// Counts the failed cells of `report`: missing, invalid, unsolved, or different from
    /// what is expected.
    fn failed_cells(&self, report: &Report) -> usize {
        let lines = projection(report);
        let mut failed = report.cells.iter().filter(|c| !c.valid || !c.solved).count();
        failed += report.cell_count.saturating_sub(report.cells.len());
        if let Some(expected) = &self.cells {
            let differ = (0..lines.len().max(expected.len()))
                .filter(|&i| lines.get(i) != expected.get(i))
                .count();
            if differ > 0 {
                eprintln!("perfbench: {differ} cells differ from the in-process run");
            }
            failed = failed.max(differ);
        }
        if let Some(want) = self.digest.filter(|_| report.base_seed == self.seed) {
            let got = digest(&lines, report);
            if got != want {
                eprintln!("perfbench: digest {got:016x} differs from the reference {want:016x}");
                failed = report.cell_count;
            }
        }
        failed
    }
}

fn committed_digest(args: &Args) -> Result<Option<u64>, String> {
    let Some(path) = &args.reference else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
    let key = reference_key(args);
    text.lines()
        .find_map(|line| line.rsplit_once(' ').filter(|(head, _)| *head == key))
        .map(|(_, hex)| {
            u64::from_str_radix(hex, 16).map_err(|e| format!("bad digest {hex:?}: {e}"))
        })
        .transpose()
}

// ------------------------------------------------------------------ the workload runner ----

/// The measurements of one timed sweep.
struct Rep {
    wall: f64,
    cpu_s: f64,
    rss_kb: u64,
    remote_kb: u64,
    failed: usize,
    report: Report,
    /// Split of the wall time, filled in by the traced sweep only.
    open_s: f64,
    sweep_s: f64,
    render_s: f64,
}

/// What the traced sweep's decorators collected.
struct Probe {
    shard: ShardTimes,
    store: Option<Arc<TimedStore>>,
}

struct Bench<'a> {
    args: &'a Args,
    grid: ScenarioGrid,
    work: PathBuf,
    store_dir: PathBuf,
    template: Option<PathBuf>,
    daemons: Vec<Daemon>,
}

impl<'a> Bench<'a> {
    fn new(args: &'a Args) -> Self {
        let w = args.workload;
        let (sizes, replicates) =
            if args.tiny { (w.tiny_sizes, w.tiny_replicates) } else { (w.sizes, w.replicates) };
        let grid = ScenarioGrid::new()
            .problems(w.problems.iter().map(|p| workload(p)))
            .families(w.families.iter().map(|f| family(f)))
            .sizes(sizes.to_vec())
            .replicates(replicates)
            .base_seed(args.seed);
        let work = args.work.join(format!("{}-{}", w.name, std::process::id()));
        let store_dir = work.join("store");
        Bench { args, grid, work, store_dir, template: None, daemons: Vec::new() }
    }

    fn exec(&self) -> Exec {
        self.args.workload.exec
    }

    fn backend(&self) -> Box<dyn ExecBackend + '_> {
        match self.exec() {
            Exec::InProcess => Box::new(InProcessBackend::new(PARALLELISM)),
            Exec::Network => Box::new(
                NetworkBackend::new(self.daemons.iter().map(|d| d.addr.clone()).collect())
                    .rescue_threads(PARALLELISM)
                    .heartbeat_ms(HEARTBEAT_MS)
                    .faults(FaultPlan::default()),
            ),
        }
    }

    /// One full set-up: daemons, one warm-up shard, store template seeding and one restore.
    fn setup(&mut self) -> Result<f64, String> {
        self.daemons.clear();
        let started = Instant::now();
        if self.exec() == Exec::Network {
            for _ in 0..PARALLELISM {
                self.daemons.push(Daemon::start(&self.args.sweep, self.args.faults.as_deref())?);
            }
        }
        // A fault-scripted daemon would spend its script on the warm-up shard.
        if self.args.faults.is_none() {
            let warm = self.grid.clone().replicates(1).base_seed(self.args.seed ^ 0x5741_524d);
            Sweep::over(&warm).backend(TimedBackend::untimed(self.backend())).run();
        }
        if self.args.workload.seeded_store {
            let template = self.work.join("template");
            fresh_dir(&template)?;
            let store = BinaryStore::open(&template)
                .map_err(|e| format!("cannot open {}: {e}", template.display()))?;
            let half = self.grid.clone().replicates((self.grid.replicates / 2).max(1));
            Sweep::over(&half)
                .backend(InProcessBackend::new(PARALLELISM))
                .store(Arc::new(store))
                .run();
            self.template = Some(template);
        }
        self.restore()?;
        Ok(started.elapsed().as_secs_f64())
    }

    /// Resets the sweep's store to the seeded template (or to empty).
    fn restore(&self) -> Result<(), String> {
        fresh_dir(&self.store_dir)?;
        if let Some(template) = &self.template {
            let entries = std::fs::read_dir(template).map_err(|e| e.to_string())?;
            for entry in entries {
                let entry = entry.map_err(|e| e.to_string())?;
                std::fs::copy(entry.path(), self.store_dir.join(entry.file_name()))
                    .map_err(|e| format!("cannot restore the store: {e}"))?;
            }
        }
        Ok(())
    }

    fn expected(&self) -> Result<Expected, String> {
        let mut expected =
            Expected { seed: self.args.seed, digest: committed_digest(self.args)?, cells: None };
        if self.exec() != Exec::InProcess {
            let report = Sweep::over(&self.grid).backend(InProcessBackend::new(PARALLELISM)).run();
            expected.cells = Some(projection(&report));
        }
        Ok(expected)
    }

    /// The grid of repetition `rep`. The in-process workloads have few, large cells whose
    /// cost varies from instance to instance, so each repetition after the first draws the
    /// next grid of the seed's sequence: a run then averages over several grids. The
    /// distributed workloads repeat one grid against its pre-seeded store.
    fn rep_grid(&self, rep: usize) -> ScenarioGrid {
        if rep == 0 || self.exec() != Exec::InProcess {
            return self.grid.clone();
        }
        self.grid.clone().base_seed(self.args.seed ^ ((rep as u64) << 32))
    }

    /// CPU seconds so far of the harness and the live daemons.
    fn cpu_s(&self) -> f64 {
        sys::cpu_s() + self.daemons.iter().map(|d| sys::process_cpu_s(d.pid())).sum::<f64>()
    }

    fn reset_peaks(&self) {
        sys::release_free_heap();
        sys::reset_peak_rss(None);
        for daemon in &self.daemons {
            sys::reset_peak_rss(Some(daemon.pid()));
        }
    }

    /// Peak RSS of the daemons since the last reset, KiB.
    fn remote_rss_kb(&self) -> u64 {
        self.daemons.iter().map(|d| sys::peak_rss_kb(Some(d.pid()))).sum()
    }

    /// One timed sweep: store open → sweep → validation → rendered report. With a probe,
    /// the store and backend are wrapped in timing decorators.
    fn sweep(
        &self,
        grid: &ScenarioGrid,
        expected: &Expected,
        probe: Option<&mut Probe>,
    ) -> Result<Rep, String> {
        self.restore()?;
        self.reset_peaks();
        let cpu_before = self.cpu_s();
        let started = Instant::now();
        let store = BinaryStore::open(&self.store_dir)
            .map_err(|e| format!("cannot open {}: {e}", self.store_dir.display()))?;
        let opened = started.elapsed();
        let report = match probe {
            Some(probe) => {
                let store = Arc::new(TimedStore::new(store));
                probe.store = Some(Arc::clone(&store));
                Sweep::over(grid)
                    .backend(TimedBackend { inner: self.backend(), times: Some(&probe.shard) })
                    .store(store)
                    .run()
            }
            None => Sweep::over(grid)
                .backend(TimedBackend::untimed(self.backend()))
                .store(Arc::new(store))
                .run(),
        };
        let swept = started.elapsed();
        let invalid = report.cells.iter().filter(|c| !c.valid || !c.solved).count();
        let rendered = report.to_json();
        std::hint::black_box((invalid, rendered.len()));
        let wall = started.elapsed();
        let cpu_s = self.cpu_s() - cpu_before;
        let remote_kb = self.remote_rss_kb();
        let rss_kb = sys::peak_rss_kb(None) + remote_kb;
        let failed = expected.failed_cells(&report);
        Ok(Rep {
            wall: wall.as_secs_f64(),
            cpu_s,
            rss_kb,
            remote_kb,
            failed,
            report,
            open_s: opened.as_secs_f64(),
            sweep_s: (swept - opened).as_secs_f64(),
            render_s: (wall - swept).as_secs_f64(),
        })
    }

    /// `--trace 0`: the end-to-end metrics.
    fn measured(&mut self) -> Result<Outcome, String> {
        let mut setups = Vec::new();
        for _ in 0..SETUPS {
            setups.push(self.setup()?);
        }
        let expected = self.expected()?;
        let started = Instant::now();
        let mut reps = Vec::new();
        // Stop at the repetition boundary closest to `--seconds`.
        let mut swept = 0.0;
        while reps.is_empty() || swept + 0.5 * swept / (reps.len() as f64) < self.args.seconds {
            let mut rep = self.sweep(&self.rep_grid(reps.len()), &expected, None)?;
            // Kept reports would grow the harness's own resident set from rep to rep.
            rep.report.cells = Vec::new();
            reps.push(rep);
            swept = started.elapsed().as_secs_f64();
        }
        let cells = self.grid.cell_count();
        let attempted = cells * reps.len();
        let failed: usize = reps.iter().map(|r| r.failed).sum();
        let mut out = Outcome::new(attempted, failed);
        let rounded = |values: Vec<f64>| {
            values.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(" ")
        };
        out.info(format!(
            "{} reps of {cells} cells in {:.2} s; set-ups [{}] s; rep walls [{}] s; rep peaks \
             [{}] MiB",
            reps.len(),
            started.elapsed().as_secs_f64(),
            rounded(setups.clone()),
            rounded(reps.iter().map(|r| r.wall).collect()),
            rounded(reps.iter().map(|r| r.rss_kb as f64 / 1024.0).collect()),
        ));
        // Throughput and CPU are totals over the whole window; the host's speed fluctuates
        // within seconds, and a window-long average is steadier than a median of a few reps.
        let wall: f64 = reps.iter().map(|r| r.wall).sum();
        let cpu_s: f64 = reps.iter().map(|r| r.cpu_s).sum();
        out.metric("cells_per_s", attempted as f64 / wall, "1/s");
        out.metric("cpu_ms_per_cell", cpu_s * 1e3 / attempted as f64, "ms");
        out.metric("peak_rss_mb", median(reps.iter().map(|r| r.rss_kb as f64 / 1024.0)), "MiB");
        out.metric("setup_s", median(setups.iter().copied()), "s");
        out.print_only("failed_fraction", failed as f64 / attempted as f64, "fraction");
        Ok(out)
    }

    /// `--trace 1`: the per-layer metrics.
    fn traced(&mut self) -> Result<Outcome, String> {
        self.setup()?;
        let expected = self.expected()?;
        let distributed = self.exec() != Exec::InProcess;
        let plain = self.sweep(&self.grid, &expected, None)?;

        // The decorated sweep, against fresh daemons: a daemon asked for telemetry keeps
        // local-obs armed for the rest of its life, and a fault-scripted one has spent its
        // script. Resilience counters exist only as local-obs counters, so the distributed
        // workload arms local-obs for this sweep; the daemons are then asked for telemetry,
        // which is part of the tracing overhead.
        self.setup()?;
        let mut probe = Probe { shard: ShardTimes::default(), store: None };
        if distributed {
            local_obs::reset();
            local_obs::enable();
        }
        let traced = self.sweep(&self.grid, &expected, Some(&mut probe))?;
        let counter = |m| local_obs::counter_value(m) as f64;
        let retries = counter(local_obs::metrics::NET_RETRIES);
        let redispatched = counter(local_obs::metrics::REDISPATCHED_CELLS);
        let rescued = counter(local_obs::metrics::RESCUED_CELLS);
        local_obs::disable();
        let replayed = self.replay(&traced.report);

        let cells = self.grid.cell_count();
        let attempted = 3 * cells;
        let failed = traced.failed + plain.failed + replayed.mismatches;
        let mut out = Outcome::new(attempted, failed);
        let layers = &replayed.layers;
        let timed_layers = layers.baseline + layers.solve + layers.validate;
        let cell_wall = replayed.cell_wall.as_secs_f64();
        out.info(format!(
            "replay: {cells} cells, {} fidelity mismatches; cell wall {cell_wall:.4} s, replay \
             wall {:.4} s, unattributed residual {:.4} s (cell wall minus replay wall); replay \
             glue (line graph, port maps) {:.4} s",
            replayed.mismatches,
            replayed.replay_wall.as_secs_f64(),
            cell_wall - replayed.replay_wall.as_secs_f64(),
            layers.glue.as_secs_f64(),
        ));

        out.metric("graphgen.realize_s", replayed.realize.as_secs_f64(), "s");
        out.metric("graphgen.arcs", replayed.arcs as f64, "count");
        out.metric("baseline.execute_s", layers.baseline.as_secs_f64(), "s");
        out.metric("baseline.rounds", replayed.nonuniform_rounds as f64, "count");
        out.metric("baseline.messages", replayed.nonuniform_messages as f64, "count");
        let solve = layers.solve.as_secs_f64();
        let attempt = layers.attempt_us as f64 / 1e6;
        let prune = layers.prune_us as f64 / 1e6;
        out.metric("uniform.solve_s", solve, "s");
        out.metric("uniform.attempt_s", attempt, "s");
        out.metric("uniform.prune_s", prune, "s");
        out.metric("uniform.driver_s", solve - attempt - prune, "s");
        out.metric("uniform.rounds", replayed.uniform_rounds as f64, "count");
        out.metric("uniform.messages", replayed.uniform_messages as f64, "count");
        out.metric("uniform.subiterations", replayed.subiterations as f64, "count");
        out.metric(
            "uniform.round_ratio",
            replayed.uniform_rounds as f64 / replayed.nonuniform_rounds.max(1) as f64,
            "ratio",
        );
        out.metric("validate.check_s", layers.validate.as_secs_f64(), "s");
        out.metric("validate.checks", layers.checks as f64, "count");
        out.metric("workload.glue_s", cell_wall - timed_layers.as_secs_f64(), "s");

        let run_shard = seconds(&probe.shard.run_shard_ns);
        out.metric("scheduler.overhead_s", traced.sweep_s - run_shard, "s");
        out.metric("report.render_s", traced.render_s, "s");
        let store = probe.store.as_ref().expect("the traced sweep wraps its store");
        out.metric("store.open_s", traced.open_s, "s");
        out.metric("store.load_s", seconds(&store.load_ns), "s");
        out.metric("store.hits", store.hits.load(Ordering::Relaxed) as f64, "count");
        out.metric("store.append_s", seconds(&store.append_ns), "s");
        out.metric("store.appends", store.appends.load(Ordering::Relaxed) as f64, "count");
        out.metric("store.bytes", store.inner.stats().bytes_appended as f64, "bytes");

        let compute = probe.shard.compute_us.load(Ordering::Relaxed) as f64 / 1e6;
        let result_bytes: usize = traced
            .report
            .cells
            .iter()
            .map(|c| serde_json::to_string(c).expect("cell serializes").len())
            .sum();
        out.metric("transport.run_shard_s", run_shard, "s");
        out.metric("transport.compute_s", compute, "s");
        out.metric("transport.overhead_s", PARALLELISM as f64 * run_shard - compute, "s");
        out.metric(
            "transport.shard_bytes",
            probe.shard.shard_bytes.load(Ordering::Relaxed) as f64,
            "bytes",
        );
        out.metric("transport.result_bytes", result_bytes as f64, "bytes");
        out.metric("transport.retries", retries, "count");
        out.metric("transport.redispatched", redispatched, "count");
        out.metric("transport.rescued", rescued, "count");
        out.metric("transport.remote_rss_mb", traced.remote_kb as f64 / 1024.0, "MiB");
        out.info("transport byte counts are computed with serde, not observed on a wire".into());

        let traced_wall = traced.wall + replayed.wall.as_secs_f64();
        out.metric("trace.overhead_s", traced_wall - plain.wall, "s");
        Ok(out)
    }

    /// Replays every cell sequentially: the engine's own `run_cell_in` for the reference
    /// result and cell wall time, then [`replay::replay`] with a timer around each layer.
    fn replay(&self, swept: &Report) -> Replayed {
        let started = Instant::now();
        let base_seed = self.grid.base_seed;
        let mut out = Replayed::default();
        let mut session = Session::new();
        let mut replay_session = Session::new();
        let mut instances: HashMap<InstanceKey, Instance> = HashMap::new();
        for (i, cell) in self.grid.cells().iter().enumerate() {
            let key = cell.instance_key(base_seed);
            let instance = instances.entry(key.clone()).or_insert_with(|| {
                let realizing = Instant::now();
                let (graph, params) = key.realize();
                let took = realizing.elapsed();
                out.realize += took;
                out.arcs += 2 * graph.edge_count() as u64;
                Instance { key, graph, params, gen_micros: took.as_micros() as u64 }
            });
            let result = run_cell_in(cell, instance, base_seed, &mut session);
            out.cell_wall += Duration::from_micros(result.wall_micros);
            let replaying = Instant::now();
            let replayed = replay::replay(
                cell.problem.name(),
                instance,
                cell.cell_seed(base_seed),
                &mut replay_session,
            );
            out.replay_wall += replaying.elapsed();
            let Some((run, layers)) = replayed else {
                eprintln!("perfbench: no replay for workload {}", cell.problem.name());
                out.mismatches += 1;
                continue;
            };
            out.layers.add(&layers);
            out.uniform_rounds += run.uniform_rounds;
            out.uniform_messages += run.uniform_messages;
            out.nonuniform_rounds += run.nonuniform_rounds;
            out.nonuniform_messages += run.nonuniform_messages;
            out.subiterations += run.subiterations;
            let same = |r: &local_engine::CellResult| {
                (r.uniform_rounds, r.uniform_messages, r.nonuniform_rounds, r.nonuniform_messages)
                    == (
                        run.uniform_rounds,
                        run.uniform_messages,
                        run.nonuniform_rounds,
                        run.nonuniform_messages,
                    )
                    && (r.subiterations, r.solved, r.valid)
                        == (run.subiterations, run.solved, run.valid)
            };
            if !same(&result) || !swept.cells.get(i).is_some_and(same) {
                eprintln!("perfbench: replay of {} differs from the engine's result", cell.label());
                out.mismatches += 1;
            }
        }
        out.wall = started.elapsed();
        out
    }
}

#[derive(Default)]
struct Replayed {
    wall: Duration,
    cell_wall: Duration,
    replay_wall: Duration,
    realize: Duration,
    arcs: u64,
    layers: replay::Layers,
    uniform_rounds: u64,
    uniform_messages: u64,
    nonuniform_rounds: u64,
    nonuniform_messages: u64,
    subiterations: u64,
    mismatches: usize,
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.collect();
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

// ------------------------------------------------------------------ result printing --------

struct Outcome {
    attempted: usize,
    failed: usize,
    lines: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn new(attempted: usize, failed: usize) -> Self {
        Outcome { attempted, failed, lines: Vec::new(), metrics: Vec::new() }
    }

    fn info(&mut self, line: String) {
        self.lines.push(format!("info {line}"));
    }

    /// A metric printed on its own line but not part of the result object.
    fn print_only(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(format!("metric {name} {value} {unit}"));
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.print_only(name, value, unit);
        self.metrics.push((name.to_string(), value, unit));
    }

    fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
