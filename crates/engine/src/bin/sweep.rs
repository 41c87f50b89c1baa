//! The sweep CLI: run a scenario grid over a pluggable execution backend and write a
//! structured report.
//!
//! ```text
//! sweep --problems mis,matching --families sparse-gnp,tree --sizes 100..10000 \
//!       --seeds 32 --backend process --workers 8 --out results.json [--csv results.csv]
//! ```
//!
//! The binary has four modes: a sweep (above); `--serve ADDR`, a persistent TCP worker
//! daemon — the receiving end of `--backend network` and of the daemons `--backend process`
//! launches; `--coordinate ADDR`, a service that schedules many clients' `--submit`ted
//! sweeps fairly over a daemon fleet; and `store bench`. Every flag of every mode is one row
//! of [`FLAGS`], which drives both the parser and `sweep --help` — run that for the list.
//! See `local_engine::backend` for the framing and `local_engine::backend::coordinator` for
//! the job protocol.

use local_engine::backend::{
    coordinate_forever, serve_forever, CoordinatorConfig, FaultPlan, InProcessBackend,
    NetworkBackend, ProcessBackend, DEFAULT_IO_DEADLINE_MS,
};
use local_engine::{
    folded_stacks, parse_sizes, parse_workload, parse_workloads, render_listing, BinaryStore,
    CellResult, CostModel, ProgressMeter, Report, ResultStore, Scenario, ScenarioGrid,
    WorkloadSpec,
};
use local_graphs::{parse_families, parse_family, FamilySpec};
use std::process::ExitCode;
use std::sync::Arc;

/// The binary's modes. Every row of [`FLAGS`] names the mode it is valid in.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Sweep,
    Serve,
    Coordinate,
    StoreBench,
}

use Mode::{Coordinate, Serve, StoreBench, Sweep};

impl Mode {
    const ALL: [Mode; 4] = [Sweep, Serve, Coordinate, StoreBench];

    /// The mode `argv` selects and the arguments its flags are parsed from; `None` for a
    /// `store` command without the `bench` subcommand.
    fn select(argv: &[String]) -> (Mode, Option<&[String]>) {
        let has = |flag: &str| argv.iter().any(|a| a == flag);
        match argv.first().map(String::as_str) {
            Some("store") => (StoreBench, argv.get(2..).filter(|_| argv[1] == "bench")),
            _ if has("--serve") => (Serve, Some(argv)),
            _ if has("--coordinate") => (Coordinate, Some(argv)),
            _ => (Sweep, Some(argv)),
        }
    }

    /// The mode's command line (also the prefix of its error messages) and what it does.
    fn usage(self) -> (&'static str, &'static str) {
        match self {
            Sweep => ("sweep", "run a scenario grid and write a report"),
            Serve => ("sweep --serve ADDR", "run a persistent worker daemon"),
            Coordinate => ("sweep --coordinate ADDR", "schedule many clients' sweeps over a fleet"),
            StoreBench => ("sweep store bench", "benchmark the result store on a synthetic grid"),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum BackendKind {
    InProcess,
    Process,
    Network,
    Coordinator,
}

/// Every mode's settings, each filled in by the [`FLAGS`] rows of the mode being parsed.
#[derive(Default)]
struct Args {
    problems: Vec<WorkloadSpec>,
    families: Vec<FamilySpec>,
    sizes: Vec<usize>,
    seeds: u64,
    base_seed: u64,
    /// `--backend` as given; [`sweep_backend`] resolves it against `--submit`.
    backend: Option<BackendKind>,
    threads: Option<usize>,
    workers: usize,
    connect: Vec<String>,
    submit: Option<String>,
    client: Option<String>,
    io_deadline_ms: u64,
    faults: Option<FaultPlan>,
    out: Option<String>,
    csv: Option<String>,
    list: bool,
    dry_run: bool,
    deterministic: bool,
    profile: bool,
    folded: Option<String>,
    store_dir: Option<String>,
    stream: bool,
    trace: Option<String>,
    trace_events: Option<String>,
    progress: bool,
    help: bool,
    /// The `--serve` / `--coordinate` bind address.
    addr: String,
    max_concurrent_shards: usize,
    cells: usize,
    dir: String,
    json: Option<String>,
}

impl Args {
    fn new(mode: Mode) -> Args {
        Args {
            problems: vec![local_engine::workload("mis")],
            families: vec![local_graphs::Family::SparseGnp.into()],
            sizes: vec![64, 128],
            seeds: 2,
            io_deadline_ms: DEFAULT_IO_DEADLINE_MS,
            // Sweeps use the store unless told otherwise; a coordinator only when given one.
            store_dir: (mode == Sweep).then(|| "target/sweep-store".to_string()),
            cells: 10_000,
            dir: "target/store-bench".to_string(),
            ..Args::default()
        }
    }
}

/// One command-line flag of one mode: its name, its value's placeholder (`None` for a
/// switch), how it fills [`Args`] (a switch is passed `""`), and its help. A flag several
/// modes take has a row in each, with help that fits the mode.
struct Flag {
    name: &'static str,
    metavar: Option<&'static str>,
    mode: Mode,
    set: fn(&mut Args, &str) -> Result<(), String>,
    help: &'static str,
}

/// A [`Flag`] row, positional so that [`FLAGS`] reads as a table.
const fn flag(
    name: &'static str,
    metavar: Option<&'static str>,
    mode: Mode,
    set: fn(&mut Args, &str) -> Result<(), String>,
    help: &'static str,
) -> Flag {
    Flag { name, metavar, mode, set, help }
}

/// Stores a flag's parsed value.
fn set<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// Parses a worker/thread count. The semantics live in
/// [`local_engine::pool::resolve_worker_count`] — `0` means "use the machine's available
/// parallelism" — so the flags, `SweepConfig`, and both backends cannot drift apart; here
/// we only reject text that is not a count at all.
fn parse_count(text: &str) -> Result<usize, String> {
    text.parse().map_err(|e| format!("{e} (0 means available parallelism)"))
}

/// Parses any other numeric flag value.
fn parse_number<T: std::str::FromStr>(text: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e: T::Err| e.to_string())
}

fn parse_backend(name: &str) -> Result<BackendKind, String> {
    match name {
        "in-process" => Ok(BackendKind::InProcess),
        "process" => Ok(BackendKind::Process),
        "network" => Ok(BackendKind::Network),
        "coordinator" => Ok(BackendKind::Coordinator),
        other => Err(format!(
            "unknown backend: {other:?} (expected in-process, process, network, or \
             coordinator — sweep --list enumerates them)"
        )),
    }
}

fn parse_addrs(list: &str) -> Vec<String> {
    list.split(',').map(|a| a.trim().to_string()).collect()
}

/// Every flag of every mode, in `--help` order: the one source of the parser ([`parse`])
/// and of `--help` ([`render_help`]). Laid out by hand as a table: one row per flag — name,
/// metavar, mode, setter — with its help text below.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("--problems", Some("WORKLOADS"), Sweep, |a, v| set(&mut a.problems, parse_workloads(v)?),
        "comma list of registered workloads (see --list), or all; default mis"),
    flag("--families", Some("FAMILIES"), Sweep, |a, v| set(&mut a.families, parse_families(v)?),
        "comma list of graph families (see --list), parameterized ones such as gnp-d16 \
         included, or all; default sparse-gnp"),
    flag("--sizes", Some("SIZES"), Sweep, |a, v| set(&mut a.sizes, parse_sizes(v)?),
        "comma list (200,400) or doubling ladder (100..10000); default 64,128"),
    flag("--seeds", Some("N"), Sweep, |a, v| set(&mut a.seeds, parse_number(v)?),
        "replicates per cell (default 2)"),
    flag("--base-seed", Some("SEED"), Sweep, |a, v| set(&mut a.base_seed, parse_number(v)?),
        "the seed every cell's seed is derived from (default 0)"),
    flag("--list", None, Sweep, |a, _| set(&mut a.list, true),
        "print every registered workload, family and backend, then exit"),
    flag("--backend", Some("KIND"), Sweep, |a, v| set(&mut a.backend, Some(parse_backend(v)?)),
        "in-process (default), process, network or coordinator (sweep --list describes them); \
         the report is byte-identical on every backend"),
    flag("--threads", Some("N"), Sweep, |a, v| set(&mut a.threads, Some(parse_count(v)?)),
        "worker threads; 0 = available parallelism (default). Under --backend process, each \
         daemon's thread count (default 1); under network and coordinator, the in-process \
         rescue path's"),
    flag("--workers", Some("N"), Sweep, |a, v| set(&mut a.workers, parse_count(v)?),
        "local daemons for --backend process; 0 = available parallelism (default)"),
    flag("--connect", Some("ADDRS"), Sweep, |a, v| set(&mut a.connect, parse_addrs(v)),
        "comma list of sweep --serve daemon addresses (host:port) for --backend network"),
    flag("--submit", Some("ADDR"), Sweep, |a, v| set(&mut a.submit, Some(v.to_string())),
        "run the sweep on the sweep --coordinate service at ADDR (implies --backend \
         coordinator)"),
    flag("--client", Some("NAME"), Sweep, |a, v| set(&mut a.client, Some(v.to_string())),
        "this client's name for the coordinator's fairness and accounting (default: its \
         address)"),
    flag("--io-deadline-ms", Some("MS"), Sweep, |a, v| set(&mut a.io_deadline_ms, parse_number(v)?),
        "liveness deadline for worker I/O (default 600000): a stream silent this long is \
         declared dead and its cells rescued; heartbeats shrink the window"),
    flag("--faults", Some("SCRIPT"), Sweep, |a, v| set(&mut a.faults, Some(FaultPlan::parse(v)?)),
        "deterministic fault-injection script (also read from LOCAL_FAULTS), e.g. \
         \"w0:kill@5 w1:refuse*2\": kill@K, truncate@K, garble@K, dup@K and delay@K=MS act \
         on a worker's K-th result line, refuse*N refuses its first N connects, w<i>: \
         scopes a clause to worker i"),
    flag("--out", Some("FILE"), Sweep, |a, v| set(&mut a.out, Some(v.to_string())),
        "write the JSON report to FILE"),
    flag("--csv", Some("FILE"), Sweep, |a, v| set(&mut a.csv, Some(v.to_string())),
        "write one CSV row per cell to FILE"),
    flag("--dry-run", None, Sweep, |a, _| set(&mut a.dry_run, true),
        "print the cost model's predicted micros per cell and the LPT execution order, \
         without running cells"),
    flag("--deterministic", None, Sweep, |a, _| set(&mut a.deterministic, true),
        "zero every wall-clock field, so the outputs of any two backends or thread counts \
         compare byte-for-byte"),
    flag("--profile", None, Sweep, |a, _| set(&mut a.profile, true),
        "add per-phase wall-time columns to the CSV and print a phase-time summary"),
    flag("--folded", Some("FILE"), Sweep, |a, v| set(&mut a.folded, Some(v.to_string())),
        "write phase times as folded stacks (flamegraph.pl / inferno format) to FILE"),
    flag("--store", Some("DIR"), Sweep, |a, v| set(&mut a.store_dir, Some(v.to_string())),
        "result store directory (default target/sweep-store); a re-sweep executes only the \
         cells not in it. One sweep per directory at a time"),
    flag("--no-store", None, Sweep, |a, _| set(&mut a.store_dir, None),
        "run without the result store"),
    flag("--stream", None, Sweep, |a, _| set(&mut a.stream, true),
        "keep cells in the result store only, not in memory (for very large grids)"),
    flag("--trace", Some("FILE"), Sweep, |a, v| set(&mut a.trace, Some(v.to_string())),
        "write a Chrome trace-event JSON (open it in Perfetto) to FILE"),
    flag("--trace-events", Some("FILE"), Sweep,
        |a, v| set(&mut a.trace_events, Some(v.to_string())),
        "append the recorded events to FILE as NDJSON"),
    flag("--progress", None, Sweep, |a, _| set(&mut a.progress, true),
        "live stderr status line: cells done, cache hits, per-worker throughput, ETA"),
    flag("--help", None, Sweep, |a, _| set(&mut a.help, true),
        "print this help, then exit (also -h)"),

    flag("--serve", Some("ADDR"), Serve, |a, v| set(&mut a.addr, v.to_string()),
        "bind ADDR (host:port; port 0 picks one), print `listening on <addr>` and serve \
         shard requests until killed"),
    flag("--threads", Some("N"), Serve, |a, v| set(&mut a.threads, Some(parse_count(v)?)),
        "threads per shard; 0 = available parallelism (default)"),
    flag("--max-concurrent-shards", Some("N"), Serve,
        |a, v| set(&mut a.max_concurrent_shards, parse_count(v)?),
        "plain shard requests served at once (default 0 = thread budget / --threads); \
         fault-scripted and telemetry requests still run alone"),

    flag("--coordinate", Some("ADDR"), Coordinate, |a, v| set(&mut a.addr, v.to_string()),
        "bind ADDR, print `listening on <addr>` and schedule every client's submissions \
         fairly over the --connect fleet until killed"),
    flag("--connect", Some("ADDRS"), Coordinate, |a, v| set(&mut a.connect, parse_addrs(v)),
        "comma list of the fleet's sweep --serve daemon addresses"),
    flag("--threads", Some("N"), Coordinate, |a, v| set(&mut a.threads, Some(parse_count(v)?)),
        "threads of the in-process rescue path; 0 = available parallelism (default)"),
    flag("--io-deadline-ms", Some("MS"), Coordinate,
        |a, v| set(&mut a.io_deadline_ms, parse_number(v)?),
        "liveness deadline for the fleet's I/O (default 600000)"),
    flag("--faults", Some("SCRIPT"), Coordinate,
        |a, v| set(&mut a.faults, Some(FaultPlan::parse(v)?)),
        "refuse*N clauses towards the fleet (also read from LOCAL_FAULTS)"),
    flag("--store", Some("DIR"), Coordinate, |a, v| set(&mut a.store_dir, Some(v.to_string())),
        "serve repeat submissions from the result store at DIR and write fresh results \
         back (off unless given)"),

    flag("--cells", Some("N"), StoreBench, |a, v| set(&mut a.cells, parse_number(v)?),
        "synthetic cells to append and scan (default 10000)"),
    flag("--dir", Some("DIR"), StoreBench, |a, v| set(&mut a.dir, v.to_string()),
        "where to put the scratch store (default target/store-bench)"),
    flag("--json", Some("FILE"), StoreBench, |a, v| set(&mut a.json, Some(v.to_string())),
        "also write the measured throughputs to FILE as JSON"),
];

/// Parses `argv` for `mode` in one walk over [`FLAGS`]. A flag that is not a row valid in
/// `mode`, a value-taking flag without a value, or a value its row rejects is an error.
fn parse(mode: Mode, argv: &[String]) -> Result<Args, String> {
    let mut args = Args::new(mode);
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        let name = if arg == "-h" { "--help" } else { arg.as_str() };
        let flag = FLAGS
            .iter()
            .find(|flag| flag.name == name && flag.mode == mode)
            .ok_or_else(|| format!("unknown flag: {arg} (try sweep --help)"))?;
        let value = match flag.metavar {
            None => "",
            Some(_) => argv
                .next()
                .filter(|value| !value.starts_with("--"))
                .ok_or_else(|| format!("missing value for {name}"))?,
        };
        (flag.set)(&mut args, value).map_err(|e| format!("bad {name}: {e}"))?;
    }
    Ok(args)
}

/// Where `--help` starts each flag's text, and the width it wraps at.
const HELP_COLUMN: usize = 24;
const HELP_WIDTH: usize = 92;

/// `sweep --help`, rendered from [`FLAGS`]: every mode's usage, then each mode's flags.
fn render_help() -> String {
    let mut out = String::from(
        "sweep — parallel batched experiment engine for uniform LOCAL algorithms\n\nUSAGE:\n",
    );
    for mode in Mode::ALL {
        let (command, purpose) = mode.usage();
        out.push_str(&format!("  {:<34}{purpose}\n", format!("{command} [FLAGS]")));
    }
    for mode in Mode::ALL {
        out.push_str(&format!("\nFLAGS of {}:\n", mode.usage().0));
        for flag in FLAGS.iter().filter(|flag| flag.mode == mode) {
            let mut line = match flag.metavar {
                Some(metavar) => format!("  {} {metavar}", flag.name),
                None => format!("  {}", flag.name),
            };
            if line.len() >= HELP_COLUMN {
                out.push_str(&line);
                out.push('\n');
                line.clear();
            }
            for word in flag.help.split_whitespace() {
                if line.len() > HELP_COLUMN && line.len() + 1 + word.len() > HELP_WIDTH {
                    out.push_str(&line);
                    out.push('\n');
                    line.clear();
                }
                if line.len() < HELP_COLUMN {
                    line = format!("{line:<HELP_COLUMN$}");
                } else {
                    line.push(' ');
                }
                line.push_str(word);
            }
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// The backend a sweep runs on, checked against the flags that only make sense with it.
fn sweep_backend(args: &Args) -> Result<BackendKind, String> {
    let backend = match (args.backend, &args.submit) {
        (None | Some(BackendKind::Coordinator), Some(_)) => BackendKind::Coordinator,
        (Some(_), Some(_)) => {
            return Err("--submit runs the sweep on --backend coordinator: drop the other \
                        --backend"
                .to_string())
        }
        (backend, None) => backend.unwrap_or(BackendKind::InProcess),
    };
    if args.stream && args.store_dir.is_none() {
        return Err("--stream needs the result store (drop --no-store): streamed cells live \
                    on disk, not in memory"
            .to_string());
    }
    if backend == BackendKind::Network && args.connect.is_empty() {
        return Err("--backend network needs --connect host:port[,host:port…] (start daemons \
                    with sweep --serve ADDR)"
            .to_string());
    }
    if backend == BackendKind::Coordinator && args.submit.is_none() {
        return Err("--backend coordinator needs --submit host:port (start one with sweep \
                    --coordinate ADDR --connect …)"
            .to_string());
    }
    Ok(backend)
}

/// Opens the result store at `dir`. A directory another process holds gets a hint naming
/// the two ways out: another directory, or `no_store` (how this mode runs without one).
fn open_store(dir: &str, no_store: &str) -> Result<BinaryStore, String> {
    BinaryStore::open(dir).map_err(|e| match e.kind() {
        std::io::ErrorKind::WouldBlock => format!(
            "cannot open --store {dir}: {e}; one sweep per store directory: pass --store \
             OTHER_DIR or {no_store}"
        ),
        _ => format!("cannot open --store {dir}: {e}"),
    })
}

/// The `--serve` mode: a persistent worker daemon on a TCP address, the receiving end of
/// `--backend network` (and of `--backend process`, which launches such daemons locally).
/// Telemetry is per-request. Runs until killed.
fn serve(args: Args) -> Result<(), String> {
    serve_forever(&args.addr, args.threads.unwrap_or(0), args.max_concurrent_shards)
}

/// The `--coordinate` mode: a multi-client scheduling service over a `--connect` daemon
/// fleet. Runs until killed.
fn coordinate(args: Args) -> Result<(), String> {
    let store = match &args.store_dir {
        Some(dir) => Some(Arc::new(open_store(dir, "drop --store")?) as Arc<dyn ResultStore>),
        None => None,
    };
    if args.connect.is_empty() {
        eprintln!(
            "sweep --coordinate: empty fleet (no --connect); every job will be rescued \
             in-process"
        );
    }
    let fleet = NetworkBackend::new(args.connect)
        .rescue_threads(args.threads.unwrap_or(0))
        .io_deadline_ms(args.io_deadline_ms)
        .faults(args.faults.unwrap_or_else(FaultPlan::from_env_lossy));
    // The coordinator always arms observability: per-client accounting gauges are part of
    // its contract, not an opt-in.
    local_obs::enable();
    local_obs::set_track_name("coordinator");
    coordinate_forever(&args.addr, CoordinatorConfig { fleet, store })
}

/// A deterministic synthetic result for `sweep store bench` — realistic field shapes
/// without running any algorithm.
fn synthetic_result(cell: &Scenario, seed: u64) -> CellResult {
    let r = cell.replicate;
    let uniform_rounds = 40 + r % 17;
    let nonuniform_rounds = 20 + r % 7;
    CellResult {
        problem: cell.problem.name().to_string(),
        family: cell.family.name().to_string(),
        requested_n: cell.n,
        n: cell.n,
        edges: cell.n * 3,
        replicate: r,
        seed,
        uniform_rounds,
        uniform_messages: uniform_rounds * cell.n as u64,
        nonuniform_rounds,
        nonuniform_messages: nonuniform_rounds * cell.n as u64,
        overhead_ratio: uniform_rounds as f64 / nonuniform_rounds.max(1) as f64,
        subiterations: 3,
        solved: true,
        valid: true,
        wall_micros: 100 + r % 900,
        attempt_micros: 80 + r % 700,
        prune_micros: 10 + r % 90,
        instance_micros: 5,
    }
}

/// `sweep store bench [--cells N] [--dir DIR] [--json PATH]`: measures result-store
/// append / reopen / columnar-scan / row-scan throughput on a synthetic grid, and
/// optionally writes the numbers as a JSON benchmark artifact.
fn store_bench(cells: usize, dir: &str, json: Option<&str>) -> Result<(), String> {
    use std::time::Instant;
    let store_dir = std::path::PathBuf::from(dir).join("bench-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    // One synthetic grid: replicate is the only varying axis, so cell identities (and
    // store keys) are unique while staying cheap to generate at 10^5+ scale.
    let scenarios: Vec<Scenario> = (0..cells)
        .map(|r| Scenario {
            problem: parse_workload("mis").expect("mis is registered"),
            family: parse_family("sparse-gnp").expect("sparse-gnp is registered"),
            n: 64,
            replicate: r as u64,
        })
        .collect();
    let results: Vec<CellResult> =
        scenarios.iter().map(|cell| synthetic_result(cell, cell.cell_seed(0))).collect();

    let timed = |label: &str, f: &mut dyn FnMut() -> Result<(), String>| -> Result<f64, String> {
        let started = Instant::now();
        f()?;
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        println!(
            "store bench: {label:<22} {:>10.3} s  ({:>12.0} cells/s)",
            secs,
            cells as f64 / secs
        );
        Ok(secs)
    };

    let store =
        BinaryStore::open(&store_dir).map_err(|e| format!("cannot open bench store: {e}"))?;
    let bin_append = timed("store append", &mut || {
        for (cell, result) in scenarios.iter().zip(&results) {
            ResultStore::store(&store, cell, 0, result)
                .map_err(|e| format!("store append failed: {e}"))?;
        }
        Ok(())
    })?;
    let segments = store.stats().segments;
    drop(store);
    let mut reopened = None;
    let bin_open = timed("store reopen (index)", &mut || {
        reopened = Some(
            BinaryStore::open(&store_dir).map_err(|e| format!("cannot reopen bench store: {e}"))?,
        );
        Ok(())
    })?;
    let store = reopened.expect("reopen populated the store");
    let bin_columns = timed("store columnar scan", &mut || {
        for cell in &scenarios {
            store.load_columns(cell, 0).ok_or("columnar scan missed a written cell")?;
        }
        Ok(())
    })?;
    let bin_rows = timed("store row scan", &mut || {
        for cell in &scenarios {
            ResultStore::load(&store, cell, 0).ok_or("row scan missed a written cell")?;
        }
        Ok(())
    })?;

    println!(
        "store bench: {cells} cells in {segments} segments; index rebuild {} us",
        store.stats().index_rebuild_micros
    );
    if let Some(path) = json {
        let artifact = format!(
            "{{\n  \"cells\": {cells},\n  \"segments\": {segments},\n  \
             \"store_append_cells_per_s\": {:.0},\n  \"store_reopen_s\": {bin_open:.6},\n  \
             \"store_columnar_scan_cells_per_s\": {:.0},\n  \
             \"store_row_scan_cells_per_s\": {:.0}\n}}\n",
            cells as f64 / bin_append,
            cells as f64 / bin_columns,
            cells as f64 / bin_rows,
        );
        std::fs::write(path, artifact).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote benchmark JSON to {path}");
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(())
}

/// `--dry-run`: predict, order, print — execute nothing. The printed plan mirrors a real
/// sweep exactly: stored cells are served from disk (and calibrate the model), so only the
/// *missed* cells appear in the LPT execution order.
fn dry_run(grid: &ScenarioGrid, store: Option<&BinaryStore>) {
    let cells = grid.cells();
    let mut model = CostModel::new();
    let mut missed = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match store.and_then(|store| store.load_columns(cell, grid.base_seed)) {
            Some(hit) => model.observe(cell, hit.wall_micros),
            None => missed.push(i),
        }
    }
    let cached = cells.len() - missed.len();
    let order = model.order_slowest_first(&cells, missed);
    println!(
        "dry-run: {} cells, {} served from cache (they calibrate the cost model), {} to \
         execute in LPT (slowest-first) order:",
        cells.len(),
        cached,
        order.len()
    );
    println!("{:>5} {:>16}  cell", "rank", "predicted-us");
    let mut total = 0.0;
    for (rank, &i) in order.iter().enumerate() {
        let predicted = model.predict(&cells[i]);
        total += predicted;
        if local_obs::is_enabled() {
            // The predictions flow through the same metric registry as the observed
            // timings, so a dry-run trace joins against a real sweep's trace on
            // (metric, cell label) for predicted-vs-observed analysis.
            local_obs::record(
                local_obs::metrics::PREDICTED_MICROS,
                local_obs::label(&cells[i].label()),
                predicted as u64,
            );
        }
        println!("{:>5} {:>16.0}  {}", rank + 1, predicted, cells[i].label());
    }
    println!("total predicted work: {total:.0} us-equivalents (nothing was executed)");
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, flags) = Mode::select(&argv);
    let outcome = match flags {
        None => Err("the store command has one subcommand: sweep store bench [FLAGS]".into()),
        Some(flags) => parse(mode, flags).and_then(|args| match mode {
            Sweep => sweep(args),
            Serve => serve(args),
            Coordinate => coordinate(args),
            StoreBench => store_bench(args.cells.max(1), &args.dir, args.json.as_deref()),
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            // Errors are prefixed with the mode's command: `sweep`, `sweep --serve`, ….
            eprintln!("{}: {message}", mode.usage().0.trim_end_matches(" ADDR"));
            ExitCode::FAILURE
        }
    }
}

/// The sweep mode: run the grid, print the summaries and write the requested outputs.
fn sweep(args: Args) -> Result<(), String> {
    if args.help {
        print!("{}", render_help());
        return Ok(());
    }
    if args.list {
        print!("{}", render_listing());
        return Ok(());
    }
    let backend = sweep_backend(&args)?;

    // Tracing flags arm the global recorder before anything runs; it stays a no-op
    // otherwise, so the deterministic outputs of an untraced sweep are untouched. The
    // resilience machinery (network backend, fault injection) also arms it: every retry,
    // re-dispatch, rescue, and injected fault must land on an observable counter.
    let fault_plan = match &args.faults {
        Some(plan) => plan.clone(),
        None => FaultPlan::from_env_lossy(),
    };
    if args.trace.is_some()
        || args.trace_events.is_some()
        || backend == BackendKind::Network
        || backend == BackendKind::Coordinator
        || !fault_plan.is_empty()
    {
        local_obs::enable();
        local_obs::set_track_name("coordinator");
    }

    let grid = ScenarioGrid::new()
        .problems(args.problems)
        .families(args.families)
        .sizes(args.sizes)
        .replicates(args.seeds)
        .base_seed(args.base_seed);
    // The result store, held (and its directory locked) for the whole sweep.
    let store: Option<Arc<BinaryStore>> = match &args.store_dir {
        Some(dir) => Some(Arc::new(open_store(dir, "--no-store")?)),
        None => None,
    };

    if args.dry_run {
        dry_run(&grid, store.as_deref());
        return write_trace_outputs(&args.trace, &args.trace_events);
    }

    let backend_label = match backend {
        BackendKind::InProcess => format!(
            "{} threads in-process",
            local_engine::pool::resolve_worker_count(args.threads.unwrap_or(0))
        ),
        BackendKind::Process => format!(
            "{} worker processes × {} threads",
            local_engine::pool::resolve_worker_count(args.workers),
            local_engine::pool::resolve_worker_count(args.threads.unwrap_or(1))
        ),
        BackendKind::Network => {
            format!("{} network peers ({})", args.connect.len(), args.connect.join(", "))
        }
        BackendKind::Coordinator => format!(
            "coordinator at {} (client {})",
            args.submit.as_deref().unwrap_or("?"),
            args.client.as_deref().unwrap_or("anonymous")
        ),
    };
    eprintln!(
        "sweep: {} cells ({} problems × {} families × {} sizes × {} seeds), {}",
        grid.cell_count(),
        grid.problems.len(),
        grid.families.len(),
        grid.sizes.len(),
        grid.replicates,
        backend_label
    );

    let meter = args.progress.then(ProgressMeter::new);
    if let (Some(meter), Some(store)) = (&meter, &store) {
        let handle = Arc::clone(store);
        meter.set_store_status(Arc::new(move || {
            let stats = handle.stats();
            format!(
                "store: {} seg, {} rec, {} hit",
                stats.segments,
                stats.records_indexed + stats.records_appended,
                handle.hits()
            )
        }));
    }
    let mut sweep = local_engine::Sweep::over(&grid);
    sweep = match backend {
        BackendKind::InProcess => sweep.backend(InProcessBackend::new(args.threads.unwrap_or(0))),
        BackendKind::Process => {
            let mut backend = ProcessBackend::new(args.workers)
                .worker_threads(args.threads.unwrap_or(1))
                .io_deadline_ms(args.io_deadline_ms)
                .faults(fault_plan.clone());
            if let Some(meter) = &meter {
                backend = backend.progress(meter.clone());
            }
            sweep.backend(backend)
        }
        BackendKind::Network | BackendKind::Coordinator => {
            // A coordinator speaks the daemon protocol: `--submit ADDR` is the network
            // backend over the one peer ADDR, naming this client in every request.
            let mut backend = match &args.submit {
                Some(addr) => NetworkBackend::new(vec![addr.clone()]),
                None => NetworkBackend::new(args.connect.clone()),
            }
            .rescue_threads(args.threads.unwrap_or(0))
            .io_deadline_ms(args.io_deadline_ms)
            .faults(fault_plan.clone());
            if let Some(name) = &args.client {
                backend = backend.client(name.clone());
            }
            if let Some(meter) = &meter {
                backend = backend.progress(meter.clone());
            }
            sweep.backend(backend)
        }
    };
    if let Some(meter) = &meter {
        sweep = sweep.progress(meter.clone());
    }
    if let Some(store) = &store {
        sweep = sweep.store(Arc::clone(store) as Arc<dyn ResultStore>);
    }
    if args.stream {
        sweep = sweep.streaming();
    }
    let report = sweep.run();
    let report = if args.deterministic { report.deterministic_view() } else { report };

    println!("{}", report.render_summaries());
    let streamed = store.as_deref().filter(|_| args.stream);
    if args.profile {
        let mut attempt = 0u64;
        let mut prune = 0u64;
        // Instance generation is shared across the cells of one instance (identified within a
        // sweep by family × size × replicate); count each distinct instance exactly once.
        let mut instances = std::collections::BTreeMap::new();
        for c in cells(&report, &grid, streamed) {
            let c = c?;
            attempt += c.attempt_micros;
            prune += c.prune_micros;
            instances.insert((c.family, c.requested_n, c.replicate), c.instance_micros);
        }
        let instance_gen: u64 = instances.values().sum();
        println!(
            "phases: attempt {:.1} ms, pruning {:.1} ms, instance-gen {:.1} ms",
            attempt as f64 / 1000.0,
            prune as f64 / 1000.0,
            instance_gen as f64 / 1000.0
        );
    }
    let invalid = report.cells.iter().filter(|c| !c.valid).count();
    println!(
        "{} cells ({} from cache), {} distinct instances, {:.1} ms wall, {} invalid",
        report.cell_count,
        report.cache_hits,
        report.distinct_instances,
        report.total_wall_micros as f64 / 1000.0,
        invalid
    );
    if let Some(store) = &store {
        // The store's on-disk shape and this run's traffic. A fully-columnar streamed
        // re-sweep prints `rows materialized 0` — soak scripts assert on it.
        let stats = store.stats();
        println!(
            "store: {} segments, {} records ({} appended, {} bytes written), index rebuild \
             {} us, {} hits, {} misses, rows materialized {}",
            stats.segments,
            stats.records_indexed + stats.records_appended,
            stats.records_appended,
            stats.bytes_appended,
            stats.index_rebuild_micros,
            store.hits(),
            store.misses(),
            store.rows_materialized()
        );
    }
    if backend == BackendKind::Network
        || backend == BackendKind::Coordinator
        || !fault_plan.is_empty()
    {
        // The resilience counters: how the sweep degraded and recovered. Printed whenever
        // the machinery that can increment them was in play, so soak scripts can assert on
        // the line's presence and values.
        println!(
            "resilience: connects {}, retries {}, redispatched {}, rescued {}, \
             faults-injected {}",
            local_obs::counter_value(local_obs::metrics::NET_CONNECTS),
            local_obs::counter_value(local_obs::metrics::NET_RETRIES),
            local_obs::counter_value(local_obs::metrics::REDISPATCHED_CELLS),
            local_obs::counter_value(local_obs::metrics::RESCUED_CELLS),
            local_obs::counter_value(local_obs::metrics::FAULTS_INJECTED),
        );
    }
    let peak_kb = local_obs::sample_peak_rss_kb();
    if peak_kb > 0 {
        let arena = local_obs::counter_value(local_obs::metrics::ARENA_ARCS);
        if arena > 0 {
            println!(
                "peak RSS {:.1} MiB, arena high-water {arena} point-to-point message arcs",
                peak_kb as f64 / 1024.0
            );
        } else {
            println!("peak RSS {:.1} MiB", peak_kb as f64 / 1024.0);
        }
    }

    if let Some(path) = &args.out {
        std::fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote JSON report to {path}");
    }
    if let Some(path) = &args.csv {
        let mut csv = CellResult::csv_header(args.profile) + "\n";
        for c in cells(&report, &grid, streamed) {
            let c = if args.deterministic { c?.deterministic_view() } else { c? };
            csv.push_str(&c.csv_row(args.profile));
            csv.push('\n');
        }
        std::fs::write(path, csv).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote per-cell CSV to {path}");
    }
    if let Some(path) = &args.folded {
        // With the recorder armed, folded stacks come from the actual recorded spans
        // (per-phase, per-label, including worker-imported tracks) rather than being
        // reconstructed from per-cell timing fields.
        let folded = if local_obs::is_enabled() {
            local_obs::snapshot().to_folded()
        } else {
            let mut missing = Ok(());
            let cells = cells(&report, &grid, streamed);
            let folded = folded_stacks(cells.map_while(|c| c.map_err(|e| missing = Err(e)).ok()));
            missing.map(|()| folded)?
        };
        std::fs::write(path, folded).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote folded phase stacks to {path}");
    }
    write_trace_outputs(&args.trace, &args.trace_events)?;
    if invalid > 0 {
        return Err(format!("{invalid} cells failed validation"));
    }
    Ok(())
}

/// Writes the `--trace` / `--trace-events` outputs from one snapshot of the global
/// recorder. A no-op when the recorder was never armed.
fn write_trace_outputs(
    trace: &Option<String>,
    trace_events: &Option<String>,
) -> Result<(), String> {
    if !local_obs::is_enabled() {
        return Ok(());
    }
    let snapshot = local_obs::snapshot();
    if let Some(path) = trace {
        std::fs::write(path, snapshot.to_chrome_trace())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote Chrome trace (Perfetto-loadable) to {path}");
    }
    if let Some(path) = trace_events {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        file.write_all(snapshot.to_ndjson().as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("appended {} trace events as NDJSON to {path}", snapshot.event_count());
    }
    Ok(())
}

/// The sweep's cells in canonical order: the report's or, for a streamed sweep, whose cells
/// live only in the result store, each read back from `streamed` in turn — as stored, so
/// not yet put through `--deterministic` like the report's.
fn cells<'a>(
    report: &'a Report,
    grid: &'a ScenarioGrid,
    streamed: Option<&'a BinaryStore>,
) -> Box<dyn Iterator<Item = Result<CellResult, String>> + 'a> {
    let Some(store) = streamed else {
        return Box::new(report.cells.iter().cloned().map(Ok));
    };
    Box::new(grid.cells().into_iter().map(move |cell| {
        store.load(&cell, grid.base_seed).ok_or_else(|| {
            format!("{} is missing streamed cell {}", store.describe(), cell.label())
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(argv: &[&str]) -> Vec<String> {
        argv.iter().map(|word| word.to_string()).collect()
    }

    /// A value the rows with this metavar accept.
    fn sample(metavar: &str) -> &'static str {
        match metavar {
            "WORKLOADS" => "mis,matching",
            "FAMILIES" => "sparse-gnp,gnp-d16",
            "SIZES" => "64..256",
            "KIND" => "network",
            "SCRIPT" => "w0:refuse*2",
            "ADDR" | "ADDRS" => "127.0.0.1:1",
            _ => "7",
        }
    }

    fn error(mode: Mode, argv: &[&str]) -> String {
        parse(mode, &words(argv)).err().unwrap_or_else(|| panic!("{mode:?} accepted {argv:?}"))
    }

    #[test]
    fn every_row_parses_in_its_mode_and_is_unknown_in_the_others() {
        for flag in FLAGS {
            let mut argv = vec![flag.name];
            argv.extend(flag.metavar.map(sample));
            if let Err(e) = parse(flag.mode, &words(&argv)) {
                panic!("{:?} rejected {argv:?}: {e}", flag.mode);
            }
            for mode in Mode::ALL {
                // A flag several modes take has a row of its own in each.
                if !FLAGS.iter().any(|row| row.name == flag.name && row.mode == mode) {
                    assert!(error(mode, &argv).starts_with("unknown flag: "), "{mode:?} {argv:?}");
                }
            }
        }
    }

    #[test]
    fn each_mode_takes_exactly_its_flags() {
        let flags = |mode: Mode| {
            let mut names: Vec<&str> =
                FLAGS.iter().filter(|flag| flag.mode == mode).map(|flag| flag.name).collect();
            names.sort_unstable();
            names.join(" ")
        };
        assert_eq!(
            flags(Sweep),
            "--backend --base-seed --client --connect --csv --deterministic --dry-run --families \
             --faults --folded --help --io-deadline-ms --list --no-store --out --problems \
             --profile --progress --seeds --sizes --store --stream --submit --threads --trace \
             --trace-events --workers"
        );
        assert_eq!(flags(Serve), "--max-concurrent-shards --serve --threads");
        assert_eq!(
            flags(Coordinate),
            "--connect --coordinate --faults --io-deadline-ms --store --threads"
        );
        assert_eq!(flags(StoreBench), "--cells --dir --json");
    }

    #[test]
    fn unknown_flags_and_missing_values_fail_in_every_mode() {
        for mode in Mode::ALL {
            assert_eq!(error(mode, &["--bogus"]), "unknown flag: --bogus (try sweep --help)");
            let valued = FLAGS.iter().find(|flag| flag.mode == mode && flag.metavar.is_some());
            let name = valued.expect("every mode has a valued flag").name;
            let missing = format!("missing value for {name}");
            assert_eq!(error(mode, &[name]), missing);
            assert_eq!(error(mode, &[name, "--bogus"]), missing);
        }
        assert!(parse(Sweep, &words(&["-h"])).expect("-h is --help").help);
        assert!(error(Serve, &["-h"]).starts_with("unknown flag: -h"));
    }

    #[test]
    fn bad_values_name_their_flag() {
        assert!(error(Sweep, &["--seeds", "x"]).starts_with("bad --seeds: "));
        assert!(error(Serve, &["--threads", "abc"]).starts_with("bad --threads: "));
        assert!(error(Sweep, &["--problems", "nope"]).contains("(see sweep --list)"));
        assert!(error(Sweep, &["--backend", "nope"]).starts_with("bad --backend: "));
        assert!(error(Coordinate, &["--faults", "boom"]).starts_with("bad --faults: "));
    }

    #[test]
    fn modes_are_selected_by_their_command() {
        let mode = |argv: &[&str]| Mode::select(&words(argv)).0;
        assert_eq!(mode(&["--threads", "2", "--serve", "127.0.0.1:0"]), Serve);
        assert_eq!(mode(&["--coordinate", "127.0.0.1:0"]), Coordinate);
        assert_eq!(mode(&["store", "bench", "--cells", "5"]), StoreBench);
        assert_eq!(mode(&["--problems", "mis"]), Sweep);
        let argv = words(&["store", "bench", "--cells", "5"]);
        assert_eq!(Mode::select(&argv).1, Some(&argv[2..]));
        assert_eq!(Mode::select(&words(&["store"])).1, None);
        assert_eq!(Mode::select(&words(&["store", "import"])).1, None);
    }

    #[test]
    fn submit_conflicts_with_any_other_explicit_backend() {
        let backend = |argv: &[&str]| sweep_backend(&parse(Sweep, &words(argv)).unwrap());
        assert_eq!(backend(&["--submit", "a:1"]), Ok(BackendKind::Coordinator));
        assert_eq!(
            backend(&["--submit", "a:1", "--backend", "coordinator"]),
            Ok(BackendKind::Coordinator)
        );
        for other in ["in-process", "process", "network"] {
            for argv in
                [["--backend", other, "--submit", "a:1"], ["--submit", "a:1", "--backend", other]]
            {
                assert!(backend(&argv).unwrap_err().starts_with("--submit "), "{argv:?}");
            }
        }
        assert_eq!(backend(&[]), Ok(BackendKind::InProcess));
    }

    #[test]
    fn the_readme_shows_the_rendered_help() {
        let readme = include_str!("../../../../README.md");
        assert!(
            readme.contains(&format!("```text\n{}```\n", render_help())),
            "README.md's sweep --help block is stale: paste the output of `sweep --help`"
        );
        for line in render_help().lines() {
            assert!(line.chars().count() <= HELP_WIDTH, "help line too wide: {line}");
        }
    }
}
