//! Every mode of the `sweep` binary rejects a flag it does not take — a typo or a flag of
//! another mode — with exit status 1 and an `unknown flag` message, before it binds, serves
//! or runs anything. A `--serve` daemon that skipped such a flag would listen forever, so
//! each run is killed after a deadline and counts as a failure if it had to be.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `sweep args` to completion or for at most 10 s; returns its exit code (`None` when
/// the deadline killed it) and its stderr.
fn sweep(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .env_remove("LOCAL_FAULTS")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sweep spawns");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("child polls").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let killed = child.try_wait().expect("child polls").is_none();
    let _ = child.kill();
    let output = child.wait_with_output().expect("child reaps");
    let code = if killed { None } else { output.status.code() };
    (code, String::from_utf8_lossy(&output.stderr).into_owned())
}

fn assert_unknown_flag(args: &[&str], flag: &str) {
    let (code, stderr) = sweep(args);
    assert_eq!(code, Some(1), "{args:?} must exit 1: {stderr}");
    assert!(stderr.contains(&format!("unknown flag: {flag}")), "{args:?}: {stderr}");
}

#[test]
fn a_misspelt_serve_flag_exits_instead_of_serving() {
    assert_unknown_flag(&["--serve", "127.0.0.1:0", "--thraeds", "1"], "--thraeds");
}

#[test]
fn a_misspelt_coordinate_flag_exits_instead_of_coordinating() {
    assert_unknown_flag(&["--coordinate", "127.0.0.1:0", "--conect", "127.0.0.1:1"], "--conect");
}

#[test]
fn a_misspelt_store_bench_flag_exits_instead_of_benchmarking() {
    assert_unknown_flag(&["store", "bench", "--cell", "5"], "--cell");
}

#[test]
fn a_flag_of_another_mode_is_unknown() {
    assert_unknown_flag(&["--serve", "127.0.0.1:0", "--problems", "mis"], "--problems");
    assert_unknown_flag(&["--coordinate", "127.0.0.1:0", "--workers", "2"], "--workers");
    assert_unknown_flag(&["store", "bench", "--threads", "2"], "--threads");
    assert_unknown_flag(&["--no-store", "--max-concurrent-shards", "2"], "--max-concurrent-shards");
}
