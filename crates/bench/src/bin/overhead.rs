//! The message-complexity preset: sweep `mean_message_overhead_ratio` across families ×
//! sizes and emit the study's CSV — the ROADMAP's message-complexity item. The paper bounds
//! the uniform transformations in *rounds* only; this measures what they cost in
//! *messages*, and how that cost scales with `n` and with the instance's density (the
//! parameterized `gnp-d<d>` degree ladder makes density a first-class axis).
//!
//! Usage: `cargo run --release -p local-bench --bin overhead [-- --sizes 64..512 --seeds 4 \
//!         --problems mis,matching --families gnp-d2,gnp-d8,gnp-d16 --out overhead.csv]`

use local_engine::{parse_sizes, parse_workloads, workload, WorkloadSpec};
use local_graphs::{parse_families, Family, FamilySpec};
use std::process::ExitCode;

fn main() -> ExitCode {
    // Defaults: every message-simulating transformer of the catalog (the synthetic black
    // boxes charge rounds without messages and would only report zeros), on families that
    // span sparse, structured, dense-ish, and geometric instances.
    let mut problems: Vec<WorkloadSpec> = vec![
        workload("mis"),
        workload("matching"),
        workload("ruling-set-b2"),
        workload("coloring"),
    ];
    let mut families: Vec<FamilySpec> = vec![
        Family::SparseGnp.into(),
        Family::Grid.into(),
        Family::Regular6.into(),
        Family::UnitDisk.into(),
    ];
    let mut sizes = vec![64usize, 128, 256];
    let mut seeds = 3u64;
    let mut out: Option<String> = None;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        let parsed = match flag.as_str() {
            "--sizes" => value("--sizes").and_then(|v| parse_sizes(&v).map(|s| sizes = s)),
            "--seeds" => value("--seeds").and_then(|v| {
                v.parse().map(|s| seeds = s).map_err(|e| format!("bad --seeds: {e}"))
            }),
            "--problems" => {
                value("--problems").and_then(|v| parse_workloads(&v).map(|p| problems = p))
            }
            "--families" => {
                value("--families").and_then(|v| parse_families(&v).map(|f| families = f))
            }
            "--out" => value("--out").map(|v| out = Some(v)),
            other => Err(format!(
                "unknown flag: {other} (overhead takes --sizes --seeds --problems --families --out)"
            )),
        };
        if let Err(message) = parsed {
            eprintln!("overhead: {message}");
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "overhead: {} problems × {} families × {} sizes × {seeds} seeds",
        problems.len(),
        families.len(),
        sizes.len()
    );
    let points = local_bench::message_overhead_series(&problems, &families, &sizes, seeds, 7);
    let csv = local_bench::overhead_csv(&points);
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &csv) {
                eprintln!("overhead: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {} rows to {path}", points.len());
        }
        None => print!("{csv}"),
    }
    ExitCode::SUCCESS
}
