//! Wire stability of the shard protocol (and the cache files built on the same serde):
//! serialize → deserialize → serialize is byte-identical for `Scenario`, `CellResult`, and
//! `CellShard`, so a result can cross a process boundary (or sit in the cache) and come
//! back exactly as it left — including scenarios built from *parameterized* workload and
//! family specs, which spell their parameters inside the stable name. Every type also writes
//! the same JSON text straight through the writer as through its `Value` tree.

use local_engine::backend::{SpanDump, WireEvent, WireTrack, WorkerTelemetry};
use local_engine::{
    default_workloads, summarize, workload, CellResult, CellShard, Report, Scenario, WorkloadSpec,
};
use local_graphs::{builtin_families, family, Family, FamilySpec};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

/// The JSON text written straight through the writer equals the text of the value's
/// `Value` tree, compact and pretty.
fn assert_direct_matches_tree<T: Serialize + ?Sized>(value: &T) {
    let tree = value.to_value();
    assert_eq!(serde_json::to_string(value).unwrap(), serde_json::to_string(&tree).unwrap());
    assert_eq!(
        serde_json::to_string_pretty(value).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap()
    );
}

/// serialize → deserialize → serialize, asserting the two wire strings are byte-identical
/// and the reconstructed value equals the original.
fn assert_stable<T>(value: &T)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    assert_direct_matches_tree(value);
    let first = serde_json::to_string(value).expect("serializes");
    let reparsed = serde_json::from_str(&first).expect("own output parses");
    let back = T::from_value(&reparsed).expect("own output deserializes");
    assert_eq!(&back, value, "value changed across the wire");
    let second = serde_json::to_string(&back).expect("reserializes");
    assert_eq!(first, second, "wire bytes changed across a round trip");
}

/// The workload pool the proptests draw from: every default plus parameterized kinds with
/// non-default parameters.
fn workload_pool() -> Vec<WorkloadSpec> {
    let mut pool = default_workloads();
    pool.push(workload("ruling-set-b5"));
    pool.push(workload("lambda4-coloring"));
    pool
}

/// The family pool: every builtin plus one of each parameterized generator shape.
fn family_pool() -> Vec<FamilySpec> {
    let mut pool = builtin_families();
    for name in
        ["gnp-d2", "gnp-d16", "regular-4", "regular-12", "forest-5", "pa-2", "unit-disk-r75"]
    {
        pool.push(family(name));
    }
    pool
}

#[test]
fn scenario_round_trips_for_every_workload_and_family() {
    for problem in workload_pool() {
        for family in family_pool() {
            assert_stable(&Scenario { problem: problem.clone(), family, n: 97, replicate: 3 });
        }
    }
}

#[test]
fn cell_result_round_trips_with_every_field_populated() {
    assert_stable(&CellResult {
        problem: "ruling-set-b3".into(),
        family: "unit-disk".into(),
        requested_n: 100,
        n: 96,
        edges: 512,
        replicate: 7,
        seed: u64::MAX,
        uniform_rounds: 1234,
        uniform_messages: 99999,
        nonuniform_rounds: 617,
        nonuniform_messages: 88888,
        overhead_ratio: 2.000_648_3,
        subiterations: 9,
        solved: true,
        valid: false,
        wall_micros: 424_242,
        attempt_micros: 400_000,
        prune_micros: 20_000,
        instance_micros: 4_242,
    });
}

#[test]
fn shard_round_trips_with_mixed_builtin_and_parameterized_cells() {
    let shard = CellShard::new(
        0xDEAD_BEEF,
        vec![
            Scenario {
                problem: workload("mis"),
                family: Family::SparseGnp.into(),
                n: 64,
                replicate: 0,
            },
            Scenario {
                problem: workload("lambda3-coloring"),
                family: family("gnp-d16"),
                n: 128,
                replicate: 2,
            },
            Scenario {
                problem: workload("ruling-set-b2"),
                family: family("forest-5"),
                n: 32,
                replicate: 9,
            },
        ],
    );
    assert_stable(&shard);
}

#[test]
fn telemetry_records_round_trip_with_every_field_populated() {
    assert_stable(&WorkerTelemetry {
        cells_done: u64::MAX,
        wall_micros: 123_456_789,
        counters: vec![("messages-sent".into(), 42), ("rounds".into(), 0)],
    });
    assert_stable(&SpanDump {
        tracks: vec![
            WireTrack {
                name: "thread-0".into(),
                events: vec![
                    WireEvent {
                        metric: "attempt".into(),
                        label: "mis;sparse-gnp".into(),
                        start_micros: 12,
                        dur_micros: 34,
                        value: 0,
                        is_span: true,
                    },
                    WireEvent {
                        metric: "active-nodes".into(),
                        label: String::new(),
                        start_micros: 56,
                        dur_micros: 0,
                        value: u64::MAX,
                        is_span: false,
                    },
                ],
            },
            WireTrack { name: "thread-1".into(), events: Vec::new() },
        ],
        counters: vec![("cells-done".into(), 7)],
    });
}

fn arbitrary_scenario() -> impl Strategy<Value = Scenario> {
    let problems = workload_pool();
    let families = family_pool();
    (0usize..problems.len(), 0usize..families.len(), 1usize..100_000, 0u64..64).prop_map(
        move |(p, f, n, replicate)| Scenario {
            problem: problems[p].clone(),
            family: families[f].clone(),
            n,
            replicate,
        },
    )
}

fn arbitrary_result() -> impl Strategy<Value = CellResult> {
    let problems = workload_pool();
    let families = family_pool();
    (
        (0usize..problems.len(), 0usize..families.len(), 1usize..100_000, 0u64..64),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            move |((p, f, n, replicate), (seed, ur, um, nr, nm), (solved, valid, w, a, pr, i))| {
                CellResult {
                    problem: problems[p].name().to_string(),
                    family: families[f].name().to_string(),
                    requested_n: n,
                    n,
                    edges: n / 2,
                    replicate,
                    seed,
                    uniform_rounds: ur,
                    uniform_messages: um,
                    nonuniform_rounds: nr,
                    nonuniform_messages: nm,
                    // A quotient of arbitrary u64s covers integral, fractional, huge, and tiny
                    // floats — the shapes the JSON number formatter has to reproduce exactly.
                    overhead_ratio: ur as f64 / nr.max(1) as f64,
                    subiterations: um % 97,
                    solved,
                    valid,
                    wall_micros: w,
                    attempt_micros: a,
                    prune_micros: pr,
                    instance_micros: i,
                }
            },
        )
}

/// Registered metric names the telemetry proptests draw from (workers only ever put
/// registered names on the wire).
const METRIC_NAMES: [&str; 7] =
    ["cell", "instance-gen", "attempt", "prune", "verify", "messages-sent", "active-nodes"];

/// Label shapes that actually occur: none, phase labels, and full cell labels.
const LABEL_POOL: [&str; 4] = ["", "mis;sparse-gnp", "matching;tree", "mis/sparse-gnp/n128/r0"];

fn arbitrary_wire_event() -> impl Strategy<Value = WireEvent> {
    (
        (0usize..METRIC_NAMES.len(), 0usize..LABEL_POOL.len()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
    )
        .prop_map(|((m, l), (start, dur, value, is_span))| WireEvent {
            metric: METRIC_NAMES[m].to_string(),
            label: LABEL_POOL[l].to_string(),
            start_micros: start,
            dur_micros: dur,
            value,
            is_span,
        })
}

fn arbitrary_counters() -> impl Strategy<Value = Vec<(String, u64)>> {
    proptest::collection::vec((0usize..METRIC_NAMES.len(), any::<u64>()), 0..5).prop_map(
        |counters| counters.into_iter().map(|(m, v)| (METRIC_NAMES[m].to_string(), v)).collect(),
    )
}

fn arbitrary_span_dump() -> impl Strategy<Value = SpanDump> {
    (
        proptest::collection::vec(
            (0usize..4, proptest::collection::vec(arbitrary_wire_event(), 0..8)),
            0..4,
        ),
        arbitrary_counters(),
    )
        .prop_map(|(tracks, counters)| SpanDump {
            tracks: tracks
                .into_iter()
                .map(|(k, events)| WireTrack { name: format!("thread-{k}"), events })
                .collect(),
            counters,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scenario_wire_is_byte_stable(scenario in arbitrary_scenario()) {
        assert_stable(&scenario);
    }

    #[test]
    fn cell_result_wire_is_byte_stable(result in arbitrary_result()) {
        assert_stable(&result);
    }

    #[test]
    fn shard_wire_is_byte_stable(cells in proptest::collection::vec(arbitrary_scenario(), 0..12),
                                 base_seed in any::<u64>()) {
        assert_stable(&CellShard::new(base_seed, cells));
    }

    #[test]
    fn worker_telemetry_wire_is_byte_stable(cells_done in any::<u64>(),
                                            wall_micros in any::<u64>(),
                                            counters in arbitrary_counters()) {
        assert_stable(&WorkerTelemetry { cells_done, wall_micros, counters });
    }

    #[test]
    fn span_dump_wire_is_byte_stable(dump in arbitrary_span_dump()) {
        assert_stable(&dump);
    }

    #[test]
    fn reports_and_summaries_write_their_tree_text(
        cells in proptest::collection::vec(arbitrary_result(), 0..12),
        (threads, base_seed, wall) in (0usize..64, any::<u64>(), any::<u64>()),
    ) {
        // The group totals are plain sums: keep a dozen of them below `u64::MAX`.
        let cells: Vec<CellResult> = cells
            .into_iter()
            .map(|c| CellResult {
                uniform_rounds: c.uniform_rounds >> 8,
                uniform_messages: c.uniform_messages >> 8,
                nonuniform_messages: c.nonuniform_messages >> 8,
                wall_micros: c.wall_micros >> 8,
                ..c
            })
            .collect();
        let summaries = summarize(&cells);
        for summary in &summaries {
            assert_direct_matches_tree(summary);
        }
        let report = Report {
            threads,
            base_seed,
            cell_count: cells.len(),
            distinct_instances: cells.len() / 2,
            cache_hits: cells.len() / 3,
            total_wall_micros: wall,
            summaries,
            cells,
        };
        assert_direct_matches_tree(&report);
        assert_eq!(report.to_json(), serde_json::to_string_pretty(&report.to_value()).unwrap());
    }
}
