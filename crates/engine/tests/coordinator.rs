//! The coordinator's headline guarantees, exercised with an in-process
//! [`CoordinatorServer`] (so the obs counters are visible to the test) over real
//! `sweep --serve` daemons on localhost:
//!
//! * two clients submitting concurrently through one coordinator each get a report
//!   byte-identical to a single-threaded in-process sweep, and the per-client exact
//!   accounting reconciles (`cells == verified + rescued`);
//! * a daemon killed mid-job rescues exactly the unverified cells — never a verified
//!   one, never one short;
//! * the deficit-round-robin scheduler is fair: a client that submits while another
//!   client's job is in flight starts receiving results before the first client's job
//!   finishes (neither client's cells all queue behind the other's).
//!
//! Counter assertions use before/after deltas under one test-local lock, because the obs
//! counters are process-global and the test harness runs tests concurrently.

use local_engine::backend::{FaultPlan, LocalDaemon};
use local_engine::{
    run_grid, workload, CoordinatorConfig, CoordinatorServer, NetworkBackend, Report, ScenarioGrid,
    Sweep, SweepConfig,
};
use local_graphs::{family, Family};
use serde::Serialize;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

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
    assert_eq!(
        reference.deterministic_view().to_json(),
        candidate.deterministic_view().to_json(),
        "{label}: JSON bytes diverged"
    );
}

/// A `sweep --serve` daemon on an OS-assigned localhost port, killed and reaped on drop.
fn spawn_daemon(faults: Option<&str>) -> LocalDaemon {
    let plan = FaultPlan::parse(faults.unwrap_or("")).expect("test script parses");
    let command = [env!("CARGO_BIN_EXE_sweep").to_string()];
    LocalDaemon::spawn(&command, 1, &plan, Duration::from_secs(30))
        .expect("daemon announces its address")
}

/// Binds an in-process coordinator over `fleet` with test-friendly (fast-failing) retry
/// settings and runs it on a detached thread; returns the address clients submit to.
fn start_coordinator(fleet: Vec<String>) -> String {
    let config = CoordinatorConfig { fleet: test_fleet(fleet), store: None };
    let server = CoordinatorServer::bind("127.0.0.1:0", config).expect("coordinator binds");
    let addr = server.local_addr().expect("coordinator has an address").to_string();
    thread::spawn(move || server.run());
    addr
}

/// The fleet transport with fast-failing retry settings.
fn test_fleet(peers: Vec<String>) -> NetworkBackend {
    NetworkBackend::new(peers).rescue_threads(1).retry(5, 50, 2).faults(FaultPlan::default())
}

/// A `--submit` client: the network backend over the one peer, the coordinator.
fn submitter(coordinator: String, name: &str) -> NetworkBackend {
    NetworkBackend::new(vec![coordinator]).client(name)
}

fn counters() -> (u64, u64, u64) {
    (
        local_obs::counter_value(local_obs::metrics::COORD_CELLS_VERIFIED),
        local_obs::counter_value(local_obs::metrics::RESCUED_CELLS),
        local_obs::counter_value(local_obs::metrics::COORD_JOBS),
    )
}

#[test]
fn two_concurrent_clients_each_get_byte_identical_reports() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    // Two distinct grids so a cross-delivered cell could never pass the comparison.
    let grid_a = ScenarioGrid::new()
        .problems([workload("mis"), workload("luby-mis")])
        .families([family("sparse-gnp"), Family::Grid.into()])
        .sizes([36usize, 48])
        .replicates(2)
        .base_seed(9);
    let grid_b = ScenarioGrid::new()
        .problems([workload("ruling-set-b2")])
        .families([family("gnp-d16"), Family::BinaryTree.into()])
        .sizes([30usize, 42, 54])
        .replicates(2)
        .base_seed(11);
    let reference_a = run_grid(&grid_a, &SweepConfig::with_threads(1));
    let reference_b = run_grid(&grid_b, &SweepConfig::with_threads(1));
    let first = spawn_daemon(None);
    let second = spawn_daemon(None);
    let coordinator = start_coordinator(vec![first.addr().to_string(), second.addr().to_string()]);
    let (verified0, rescued0, jobs0) = counters();
    let submit = |grid: ScenarioGrid, name: &str| {
        let addr = coordinator.clone();
        let name = name.to_string();
        thread::spawn(move || Sweep::over(&grid).backend(submitter(addr, &name)).run())
    };
    let candidate_a = submit(grid_a.clone(), "alpha");
    let candidate_b = submit(grid_b.clone(), "beta");
    let candidate_a = candidate_a.join().expect("client alpha finishes");
    let candidate_b = candidate_b.join().expect("client beta finishes");
    assert_reports_identical(&reference_a, &candidate_a, "client alpha");
    assert_reports_identical(&reference_b, &candidate_b, "client beta");
    let (verified1, rescued1, jobs1) = counters();
    let total = (grid_a.cell_count() + grid_b.cell_count()) as u64;
    assert_eq!(verified1 - verified0, total, "every cell must be fleet-verified");
    assert_eq!(rescued1 - rescued0, 0, "a healthy fleet needs no in-process rescue");
    assert_eq!(jobs1 - jobs0, 2, "one job per client");
}

#[test]
fn a_daemon_killed_mid_job_rescues_exactly_the_unverified_cells() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    // 12 cells over 12 distinct instances. The single-peer fleet dies right before its 6th
    // result line (process-cumulative), so exactly 5 cells come back verified; the
    // coordinator must rescue exactly the other 7 — not one more, not one less.
    let grid = ScenarioGrid::new()
        .problems([workload("mis")])
        .families([family("sparse-gnp")])
        .sizes([30usize, 36, 42, 48, 54, 60])
        .replicates(2)
        .base_seed(9);
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let doomed = spawn_daemon(Some("kill@5"));
    let coordinator = start_coordinator(vec![doomed.addr().to_string()]);
    let (verified0, rescued0, _) = counters();
    let candidate = Sweep::over(&grid).backend(submitter(coordinator, "mourner")).run();
    assert_reports_identical(&reference, &candidate, "killed fleet");
    let (verified1, rescued1, _) = counters();
    assert_eq!(verified1 - verified0, 5, "the 5 cells served before the kill stand");
    assert_eq!(rescued1 - rescued0, 7, "exactly the 7 unverified cells are rescued");
}

/// A raw protocol client: submits `grid` as one job line and timestamps every result line
/// as it arrives, so the test can observe the *interleaving* of two clients' streams.
fn submit_raw(coordinator: &str, grid: &ScenarioGrid, name: &str) -> Vec<Instant> {
    let mut stream = TcpStream::connect(coordinator).expect("client connects");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout set");
    let request = Value::Map(vec![
        ("grid".into(), grid.to_value()),
        ("client".into(), Value::Str(name.to_string())),
    ]);
    let text = serde_json::to_string(&request).expect("job line serializes");
    writeln!(stream, "{text}").and_then(|_| stream.flush()).expect("job line sends");
    let mut arrivals = Vec::new();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("result line arrives");
        assert!(n > 0, "stream ended before the sentinel for client {name}");
        let value = serde_json::from_str(line.trim()).expect("protocol line parses");
        if value.get("index").is_some() {
            arrivals.push(Instant::now());
        } else if value.get("done").is_some() {
            let Value::Map(entries) = &value else { panic!("sentinel is not a map: {value:?}") };
            let keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
            assert_eq!(keys, ["done", "stats"], "the coordinator's sentinel keys");
            return arrivals;
        } else if let Some(error) = value.get("error") {
            panic!("coordinator refused client {name}: {error:?}");
        }
    }
}

#[test]
fn a_late_client_is_served_before_the_early_clients_job_finishes() {
    let _guard = SERIAL.lock().unwrap();
    // One slow daemon: every result line of the two 8-cell jobs takes 120 ms, so stripe
    // service times dominate scheduling noise. Client beta submits ~250 ms after alpha;
    // deficit round-robin must interleave the jobs rather than queue beta behind alpha.
    let delays: Vec<String> = (0..16).map(|k| format!("delay@{k}=120")).collect();
    let slow = spawn_daemon(Some(&delays.join(" ")));
    let coordinator = start_coordinator(vec![slow.addr().to_string()]);
    let grid = |base_seed: u64| {
        ScenarioGrid::new()
            .problems([workload("mis")])
            .families([family("sparse-gnp")])
            .sizes([30usize, 36, 42, 48])
            .replicates(2)
            .base_seed(base_seed)
    };
    let alpha = {
        let coordinator = coordinator.clone();
        thread::spawn(move || submit_raw(&coordinator, &grid(9), "alpha"))
    };
    thread::sleep(Duration::from_millis(250));
    let beta = {
        let coordinator = coordinator.clone();
        thread::spawn(move || submit_raw(&coordinator, &grid(11), "beta"))
    };
    let alpha = alpha.join().expect("client alpha finishes");
    let beta = beta.join().expect("client beta finishes");
    assert_eq!(alpha.len(), 8, "alpha receives all its cells");
    assert_eq!(beta.len(), 8, "beta receives all its cells");
    let (a_first, a_last) = (alpha[0], *alpha.last().unwrap());
    let (b_first, b_last) = (beta[0], *beta.last().unwrap());
    assert!(
        b_first < a_last,
        "beta's first cell must arrive before alpha's job finishes (fair interleaving)"
    );
    assert!(
        a_first < b_last,
        "alpha's first cell must arrive before beta's job finishes (fair interleaving)"
    );
}

#[test]
fn a_store_backed_coordinator_serves_repeat_submissions_without_the_fleet() {
    use local_engine::{BinaryStore, ResultStore};
    use std::sync::Arc;

    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    let dir = std::env::temp_dir().join(format!("coordinator-store-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let grid = ScenarioGrid::new()
        .problems([workload("mis")])
        .families([family("sparse-gnp"), Family::Grid.into()])
        .sizes([30usize, 42])
        .replicates(2)
        .base_seed(13);
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let store = Arc::new(BinaryStore::open(&dir).expect("store opens"));

    let daemon = spawn_daemon(None);
    let config = CoordinatorConfig {
        fleet: test_fleet(vec![daemon.addr().to_string()]),
        store: Some(Arc::clone(&store) as Arc<dyn ResultStore>),
    };
    let server = CoordinatorServer::bind("127.0.0.1:0", config).expect("coordinator binds");
    let coordinator = server.local_addr().expect("coordinator has an address").to_string();
    thread::spawn(move || server.run());

    // First submission runs on the fleet; every fresh cell is written back to the store.
    let first = Sweep::over(&grid).backend(submitter(coordinator.clone(), "first")).run();
    assert_reports_identical(&reference, &first, "first store-backed submission");
    assert_eq!(
        store.stats().records_appended,
        grid.cell_count() as u64,
        "every fleet-verified cell must be written back"
    );

    // Kill the whole fleet. A repeat submission must still be answered, entirely from
    // the store — no rescue, no daemon.
    drop(daemon);
    let (_, rescued0, _) = counters();
    let second = Sweep::over(&grid).backend(submitter(coordinator, "second")).run();
    assert_reports_identical(&reference, &second, "store-served submission");
    let (_, rescued1, _) = counters();
    assert_eq!(rescued1 - rescued0, 0, "store hits must not touch the rescue path");
    assert_eq!(store.hits(), grid.cell_count() as u64, "the repeat job hits every cell");
    let _ = std::fs::remove_dir_all(&dir);
}
