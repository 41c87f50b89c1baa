//! End-to-end observability guarantees, exercised against the real `sweep` binary:
//!
//! * a 2-worker process sweep under `--trace` produces a valid Chrome trace-event JSON
//!   with phase spans from at least two distinct worker tracks (the workers' span dumps
//!   made it home over the wire and were rebased onto coordinator time);
//! * `--trace-events` writes parseable NDJSON, one self-describing object per line;
//! * tracing is observation only: the `--deterministic` report and CSV bytes are
//!   byte-identical with and without the recorder armed;
//! * `--dry-run` pushes its predictions through the same metric registry, so a dry-run
//!   trace joins a real sweep's trace on (metric, cell label).

use serde::{Deserialize, Value};
use std::path::PathBuf;
use std::process::Command;

fn sweep_bin() -> &'static str {
    env!("CARGO_BIN_EXE_sweep")
}

/// The grid every test sweeps: 2 sizes × 2 seeds = 4 cells (4 distinct instances, so
/// instance-grouped striping spreads them over both workers).
const GRID: [&str; 8] =
    ["--problems", "mis", "--families", "sparse-gnp", "--sizes", "32,48", "--seeds", "2"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obs-trace-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs the sweep binary with the demo grid plus `extra`, asserting success.
fn sweep(extra: &[&str]) {
    let output = Command::new(sweep_bin())
        .args(GRID)
        .args(["--no-store"])
        .args(extra)
        .output()
        .expect("sweep runs");
    assert!(
        output.status.success(),
        "sweep {extra:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

fn parse_json(path: &std::path::Path) -> Value {
    let text = std::fs::read_to_string(path).expect("trace file exists");
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path:?} is not valid JSON: {e}"))
}

fn as_str(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

#[test]
fn two_worker_trace_is_valid_chrome_json_with_both_worker_tracks() {
    let dir = temp_dir("chrome");
    let trace = dir.join("trace.json");
    sweep(&[
        "--backend",
        "process",
        "--workers",
        "2",
        "--threads",
        "1",
        "--trace",
        trace.to_str().unwrap(),
    ]);

    let parsed = parse_json(&trace);
    let events = match parsed.get("traceEvents") {
        Some(Value::Seq(events)) => events,
        other => panic!("no traceEvents array: {other:?}"),
    };

    // Track names come from "M" thread_name metadata; worker-imported tracks are prefixed
    // "worker N ". Both workers must have shipped spans home.
    let mut worker_tids: std::collections::BTreeMap<u64, String> =
        std::collections::BTreeMap::new();
    let mut track_names = Vec::new();
    for event in events {
        if event.get("ph").map(as_str) == Some("M") {
            let name = as_str(event.get("args").and_then(|a| a.get("name")).expect("track name"));
            track_names.push(name.to_string());
            if name.starts_with("worker ") {
                let tid = u64::from_value(event.get("tid").expect("tid")).expect("numeric tid");
                let worker = name.split_whitespace().take(2).collect::<Vec<_>>().join(" ");
                worker_tids.insert(tid, worker);
            }
        }
    }
    let distinct_workers: std::collections::BTreeSet<&String> = worker_tids.values().collect();
    assert!(
        distinct_workers.len() >= 2,
        "expected tracks from >= 2 workers, got tracks {track_names:?}"
    );

    // Phase spans ("X" complete events, cat "sweep") must appear on worker tracks from at
    // least two distinct workers — proof the dumps were imported, not just announced.
    let mut workers_with_spans: std::collections::BTreeSet<&String> =
        std::collections::BTreeSet::new();
    for event in events {
        if event.get("ph").map(as_str) == Some("X") {
            assert_eq!(event.get("cat").map(as_str), Some("sweep"));
            let metric = as_str(event.get("name").expect("span name"));
            assert!(
                local_obs::metric_by_name(metric).is_some(),
                "span {metric:?} is not a registered metric"
            );
            let tid = u64::from_value(event.get("tid").expect("tid")).expect("numeric tid");
            if let Some(worker) = worker_tids.get(&tid) {
                workers_with_spans.insert(worker);
            }
        }
    }
    assert!(
        workers_with_spans.len() >= 2,
        "expected phase spans from >= 2 workers, got {workers_with_spans:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_event_log_is_parseable_ndjson() {
    let dir = temp_dir("ndjson");
    let log = dir.join("events.ndjson");
    sweep(&["--threads", "2", "--trace-events", log.to_str().unwrap()]);

    let text = std::fs::read_to_string(&log).expect("event log exists");
    let mut types = std::collections::BTreeSet::new();
    for line in text.lines() {
        let value: Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad NDJSON line {line:?}: {e}"));
        types.insert(as_str(value.get("type").expect("self-describing line")).to_string());
    }
    for expected in ["track", "span", "counter"] {
        assert!(types.contains(expected), "no {expected:?} lines in {types:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracing_leaves_deterministic_outputs_byte_identical() {
    let dir = temp_dir("deterministic");
    let run = |tag: &str, traced: bool| {
        let csv = dir.join(format!("{tag}.csv"));
        let json = dir.join(format!("{tag}.json"));
        let trace = dir.join(format!("{tag}.trace.json"));
        let mut extra = vec![
            "--deterministic".to_string(),
            "--csv".to_string(),
            csv.to_str().unwrap().to_string(),
            "--out".to_string(),
            json.to_str().unwrap().to_string(),
        ];
        if traced {
            extra.extend(["--trace".to_string(), trace.to_str().unwrap().to_string()]);
        }
        sweep(&extra.iter().map(String::as_str).collect::<Vec<_>>());
        (std::fs::read(&csv).unwrap(), std::fs::read(&json).unwrap())
    };
    let (csv_plain, json_plain) = run("plain", false);
    let (csv_traced, json_traced) = run("traced", true);
    assert_eq!(csv_plain, csv_traced, "tracing changed the deterministic CSV bytes");
    assert_eq!(json_plain, json_traced, "tracing changed the deterministic report bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dry_run_predictions_join_observed_cells_on_label() {
    let dir = temp_dir("join");
    let labels_of = |path: &std::path::Path, metric: &str| {
        let text = std::fs::read_to_string(path).expect("event log exists");
        let mut labels = std::collections::BTreeSet::new();
        for line in text.lines() {
            let value: Value = serde_json::from_str(line).expect("valid NDJSON");
            if value.get("metric").map(as_str) == Some(metric) {
                labels.insert(as_str(value.get("label").expect("label")).to_string());
            }
        }
        labels
    };

    let dry = dir.join("dry.ndjson");
    sweep(&["--dry-run", "--trace-events", dry.to_str().unwrap()]);
    let observed = dir.join("run.ndjson");
    sweep(&["--threads", "1", "--trace-events", observed.to_str().unwrap()]);

    let predicted = labels_of(&dry, "predicted-micros");
    let executed = labels_of(&observed, "cell-micros");
    assert!(!predicted.is_empty(), "dry-run recorded no predictions");
    assert_eq!(
        predicted, executed,
        "predicted-vs-observed join must cover exactly the executed cells"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
