//! The network backend's headline guarantees, exercised against real `sweep --serve`
//! daemons on localhost (Cargo builds the binary for integration tests and exposes the
//! path as `CARGO_BIN_EXE_sweep`):
//!
//! * a 2-daemon network sweep is byte-identical to a single-threaded in-process sweep;
//! * a daemon killed mid-sweep (scripted via `LOCAL_FAULTS`) loses nothing: verified cells
//!   stand, the remainder is re-dispatched to the healthy peer;
//! * refused connections retry through the capped backoff and recover;
//! * an unreachable fleet degrades all the way to in-process rescue, at any fleet width;
//! * hostile requests (a 200 000-deep bracket bomb, a line over the request cap) get an
//!   error line, not a crash;
//! * every degradation increments the observable resilience counters;
//! * a malformed number on a `--serve` or `--coordinate` command line exits 1 before the
//!   mode binds, instead of serving with a default.
//!
//! Counter assertions use before/after deltas under one test-local lock, because the obs
//! counters are process-global and the test harness runs tests concurrently.

use local_engine::backend::{FaultPlan, LocalDaemon, NetworkBackend, MAX_REQUEST_BYTES};
use local_engine::{run_grid, workload, Report, ScenarioGrid, Sweep, SweepConfig};
use local_graphs::{family, Family};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

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

fn counters() -> (u64, u64, u64, u64) {
    (
        local_obs::counter_value(local_obs::metrics::NET_RETRIES),
        local_obs::counter_value(local_obs::metrics::REDISPATCHED_CELLS),
        local_obs::counter_value(local_obs::metrics::RESCUED_CELLS),
        local_obs::counter_value(local_obs::metrics::FAULTS_INJECTED),
    )
}

#[test]
fn two_network_daemons_match_one_in_process_thread_byte_for_byte() {
    let _guard = SERIAL.lock().unwrap();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let a = spawn_daemon(None);
    let b = spawn_daemon(None);
    let candidate = Sweep::over(&grid)
        .backend(NetworkBackend::new(vec![a.addr().to_string(), b.addr().to_string()]))
        .run();
    assert_eq!(candidate.threads, 2, "the report records the peer count");
    assert_reports_identical(&reference, &candidate, "network backend");
}

#[test]
fn one_connection_serves_many_shards_and_stays_deterministic() {
    let _guard = SERIAL.lock().unwrap();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let daemon = spawn_daemon(None);
    // Two sweeps against the same persistent daemon: the second request must be served as
    // cleanly as the first (fresh connections, same daemon process).
    for round in 0..2 {
        let candidate =
            Sweep::over(&grid).backend(NetworkBackend::new(vec![daemon.addr().to_string()])).run();
        assert_reports_identical(
            &reference,
            &candidate,
            &format!("persistent daemon round {round}"),
        );
    }
}

#[test]
fn a_daemon_killed_mid_sweep_loses_nothing() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let healthy = spawn_daemon(None);
    // This daemon exits(1) right before serving its 6th result line — a mid-sweep crash.
    let doomed = spawn_daemon(Some("kill@5"));
    let (retries0, redispatched0, rescued0, _) = counters();
    let candidate = Sweep::over(&grid)
        .backend(
            NetworkBackend::new(vec![healthy.addr().to_string(), doomed.addr().to_string()])
                .retry(5, 50, 2),
        )
        .run();
    assert_reports_identical(&reference, &candidate, "killed daemon");
    let (_, redispatched1, rescued1, _) = counters();
    assert!(
        redispatched1 - redispatched0 > 0,
        "the dead daemon's unverified cells must be re-dispatched"
    );
    // The healthy peer absorbs everything; nothing should need the in-process fallback.
    assert_eq!(rescued1, rescued0, "no irreducible remainder with a healthy peer up");
    let _ = retries0;
}

#[test]
fn overlapping_peer_deaths_count_each_redispatch_and_rescue_exactly_once() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    // 12 equal-cost cells (one instance each) stripe 6/6 across two peers. Peer 0 dies
    // before its 3rd result line, leaving 4 cells. Peer 1 serves its own 6, then dies two
    // lines into the re-dispatched remainder (its process-cumulative counter hits 8). The
    // accounting must book exactly the 2 cells that *landed* on the retry peer as
    // re-dispatched — not the 4 attempted — and exactly the 2 irreducible cells as
    // rescued. Mid-stream deaths are not connect failures, so no retry is booked at all.
    let grid = ScenarioGrid::new()
        .problems([workload("mis")])
        .families([family("sparse-gnp")])
        .sizes([48usize])
        .replicates(12)
        .base_seed(9);
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let first_to_die = spawn_daemon(Some("kill@2"));
    let second_to_die = spawn_daemon(Some("kill@8"));
    let (retries0, redispatched0, rescued0, _) = counters();
    let candidate = Sweep::over(&grid)
        .backend(
            NetworkBackend::new(vec![
                first_to_die.addr().to_string(),
                second_to_die.addr().to_string(),
            ])
            .retry(5, 50, 2),
        )
        .run();
    assert_reports_identical(&reference, &candidate, "double kill");
    let (retries1, redispatched1, rescued1, _) = counters();
    assert_eq!(retries1 - retries0, 0, "mid-stream deaths must not book connect retries");
    assert_eq!(
        redispatched1 - redispatched0,
        2,
        "only the cells that landed on the retry peer count as re-dispatched"
    );
    assert_eq!(rescued1 - rescued0, 2, "exactly the irreducible remainder is rescued");
}

#[test]
fn truncated_daemon_streams_keep_verified_cells() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let healthy = spawn_daemon(None);
    // This daemon flushes four verified lines, then exits(0): a clean stream that simply
    // ends without a sentinel.
    let truncating = spawn_daemon(Some("truncate@4"));
    let candidate = Sweep::over(&grid)
        .backend(
            NetworkBackend::new(vec![truncating.addr().to_string(), healthy.addr().to_string()])
                .retry(5, 50, 2),
        )
        .run();
    assert_reports_identical(&reference, &candidate, "truncated daemon");
}

#[test]
fn garbled_daemon_streams_abandon_trust_at_the_corruption() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    // A single peer that garbles its stream after two verified lines: the two cells stand,
    // the peer is marked unhealthy, and with no other peers the remainder is rescued
    // in-process — still byte-identical.
    let garbler = spawn_daemon(Some("garble@2"));
    let (_, _, rescued0, _) = counters();
    let candidate = Sweep::over(&grid)
        .backend(NetworkBackend::new(vec![garbler.addr().to_string()]).retry(5, 50, 2))
        .run();
    assert_reports_identical(&reference, &candidate, "garbled daemon");
    let (_, _, rescued1, _) = counters();
    assert!(rescued1 - rescued0 > 0, "the unverified remainder must be rescued");
}

#[test]
fn refused_connections_back_off_and_recover() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let daemon = spawn_daemon(None);
    let (retries0, _, _, injected0) = counters();
    // The coordinator's own fault plan refuses this peer's first two connect attempts;
    // the third goes through and the sweep completes over the daemon.
    let candidate = Sweep::over(&grid)
        .backend(
            NetworkBackend::new(vec![daemon.addr().to_string()])
                .faults(FaultPlan::parse("w0:refuse*2").unwrap())
                .retry(1, 5, 5),
        )
        .run();
    assert_reports_identical(&reference, &candidate, "refused connects");
    let (retries1, _, _, injected1) = counters();
    assert!(retries1 - retries0 >= 2, "each refusal must count as a retry");
    assert_eq!(injected1 - injected0, 2, "each scripted refusal must count as a fault");
}

#[test]
fn an_unreachable_fleet_degrades_to_in_process_rescue() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let (retries0, _, rescued0, _) = counters();
    // Nothing listens on port 1; every connect is refused by the kernel.
    let candidate = Sweep::over(&grid)
        .backend(NetworkBackend::new(vec!["127.0.0.1:1".to_string()]).retry(1, 5, 2))
        .run();
    assert_reports_identical(&reference, &candidate, "unreachable fleet");
    let (retries1, _, rescued1, _) = counters();
    assert!(retries1 - retries0 >= 2, "failed connects must count as retries");
    assert_eq!(
        rescued1 - rescued0,
        grid.cell_count() as u64,
        "every cell must be rescued in-process"
    );
}

#[test]
fn a_fleet_wider_than_64_peers_degrades_like_any_other() {
    let _guard = SERIAL.lock().unwrap();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    // 65 unreachable peers, one connect attempt each: a task's failed peers are a list,
    // not a 64-bit mask, so the fleet width is not capped.
    let fleet = vec!["127.0.0.1:1".to_string(); 65];
    let candidate = Sweep::over(&grid)
        .backend(NetworkBackend::new(fleet).retry(1, 1, 1).rescue_threads(1))
        .run();
    assert_reports_identical(&reference, &candidate, "65 unreachable peers");
}

#[test]
fn a_bracket_bomb_is_refused_and_the_daemon_keeps_serving() {
    let _guard = SERIAL.lock().unwrap();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let mut daemon = spawn_daemon(None);
    // One request line of 200 000 `[`: a parser without a nesting limit overflows the
    // connection thread's stack and takes the whole daemon down.
    let mut bomb = TcpStream::connect(daemon.addr()).expect("daemon accepts");
    bomb.write_all(&[b'['; 200_000]).and_then(|()| bomb.write_all(b"\n")).expect("bomb sent");
    let mut reply = String::new();
    BufReader::new(&bomb).read_line(&mut reply).expect("daemon answers the bomb");
    assert!(reply.contains("\"error\""), "expected an error line, got {reply:?}");
    assert!(reply.contains("recursion limit exceeded"), "unexpected error: {reply:?}");
    assert!(daemon.is_running(), "daemon died");
    let candidate =
        Sweep::over(&grid).backend(NetworkBackend::new(vec![daemon.addr().to_string()])).run();
    assert_reports_identical(&reference, &candidate, "after the bracket bomb");
}

#[test]
fn an_oversized_request_line_is_refused_and_the_daemon_keeps_serving() {
    let _guard = SERIAL.lock().unwrap();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let mut daemon = spawn_daemon(None);
    // One byte over the cap and no newline: the daemon must stop buffering at the cap, not
    // wait for the end of a line that never comes. Sending nothing past what it reads
    // keeps the reply readable (no reset from unread bytes).
    let mut hog = TcpStream::connect(daemon.addr()).expect("daemon accepts");
    hog.write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1]).expect("oversized line sent");
    let mut reply = String::new();
    BufReader::new(&hog).read_line(&mut reply).expect("daemon answers the oversized line");
    assert!(reply.contains("\"error\""), "expected an error line, got {reply:?}");
    assert!(reply.contains("request line longer than"), "unexpected error: {reply:?}");
    let mut rest = String::new();
    assert_eq!(BufReader::new(&hog).read_line(&mut rest).ok(), Some(0), "connection closed");
    assert!(daemon.is_running(), "daemon died");
    let candidate =
        Sweep::over(&grid).backend(NetworkBackend::new(vec![daemon.addr().to_string()])).run();
    assert_reports_identical(&reference, &candidate, "after the oversized line");
}

#[test]
fn a_dead_peer_in_a_fleet_shifts_its_stripe_to_the_living() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let live = spawn_daemon(None);
    let candidate = Sweep::over(&grid)
        .backend(
            NetworkBackend::new(vec![live.addr().to_string(), "127.0.0.1:1".to_string()])
                .retry(1, 5, 2),
        )
        .run();
    assert_reports_identical(&reference, &candidate, "half-dead fleet");
}

#[test]
fn malformed_numbers_stop_serve_and_coordinate_before_they_listen() {
    for args in [
        ["--serve", "127.0.0.1:0", "--threads", "abc"],
        ["--serve", "127.0.0.1:0", "--max-concurrent-shards", "-1"],
        ["--coordinate", "127.0.0.1:0", "--threads", "abc"],
        ["--coordinate", "127.0.0.1:0", "--io-deadline-ms", "soon"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(args)
            .env_remove("LOCAL_FAULTS")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sweep spawns");
        // A mode that swallowed the bad value would listen forever: bound the wait.
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("child polls").is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = child.kill();
        let output = child.wait_with_output().expect("child reaps");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?} must exit 1: {stderr}");
        assert!(!stdout.contains("listening on"), "{args:?} bound anyway: {stdout}");
        assert!(stderr.contains(&format!("bad {}", args[2])), "{args:?}: {stderr}");
    }
}
