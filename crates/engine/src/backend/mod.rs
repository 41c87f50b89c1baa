//! The execution-backend abstraction: *how* cells become [`CellResult`]s.
//!
//! The scheduler ([`crate::scheduler`]) owns everything around execution — cache probing,
//! cost-model ordering, streaming aggregation, canonical report order — and hands the
//! actual running of cells to an [`ExecBackend`] as one [`CellShard`]. A backend only
//! executes and emits: the cost model learns from the store probe, never from a backend.
//! Three backends ship:
//!
//! * [`InProcessBackend`] — the work-stealing thread pool ([`crate::pool`]) that has always
//!   powered `run_grid`, now behind the trait;
//! * [`NetworkBackend`] — the one remote transport: stripes shards over persistent
//!   `sweep --serve` TCP daemons (or one `sweep --coordinate` service) with connect/read
//!   deadlines, capped reconnect backoff and heartbeat liveness;
//! * [`ProcessBackend`] — launches local `sweep --serve 127.0.0.1:0` daemons per shard
//!   ([`LocalDaemon`]) and drives the ones that announce an address through a
//!   [`NetworkBackend`].
//!
//! Every cell that runs remotely — from a network sweep, a process sweep, or a coordinator
//! ([`CoordinatorServer`]) serving many clients — goes through one fleet dispatcher
//! (`dispatch`): a fair stripe queue with one worker per peer and the only failure path.
//! A failed peer is retired, the unverified rest of its stripe is re-queued for the
//! surviving peers, and whatever no live peer can serve is rescued in-process. All of it
//! is exercised against the same deterministic fault-injection layer ([`faults`]), so the
//! rescue discipline is tested, not asserted.
//!
//! The determinism contract survives the abstraction because every cell's seed is a pure
//! function of its identity and results are emitted with their shard index: any backend, at
//! any parallelism, produces byte-identical results (wall-clock fields aside).

pub mod coordinator;
mod dispatch;
pub mod faults;
mod in_process;
pub mod network;
mod process;
pub(crate) mod stream;
pub mod telemetry;

pub use coordinator::{coordinate_forever, CoordinatorConfig, CoordinatorServer};
pub use faults::{backoff_ms, FaultAction, FaultClause, FaultInjector, FaultPlan, LineFault};
pub use in_process::InProcessBackend;
pub use network::{serve_forever, NetworkBackend, MAX_REQUEST_BYTES};
pub use process::{LocalDaemon, ProcessBackend};
pub use telemetry::{liveness_window, SpanDump, WireEvent, WireTrack, WorkerTelemetry};

use crate::cost::CostModel;
use crate::report::CellResult;
use crate::scenario::Scenario;
use serde::{Deserialize, Serialize, Value, Writer};

/// Default read/write liveness deadline of every remote backend and the coordinator:
/// generous enough for the largest single cells when no heartbeats flow (telemetry shrinks
/// the effective window via [`liveness_window`]).
pub const DEFAULT_IO_DEADLINE_MS: u64 = 600_000;

/// A batch of cells dispatched to a backend as one unit of work, in execution (LPT) order.
///
/// The shard is the wire unit of the daemon protocol: the client serializes it into one
/// request line; the daemon refuses shards whose `code_version` does not match its own (a
/// stale binary would silently produce non-reproducible results).
#[derive(Debug, Clone, PartialEq)]
pub struct CellShard {
    /// The grid's base seed; every instance/cell seed derives from it.
    pub base_seed: u64,
    /// The [`crate::store::CODE_VERSION`] of the dispatching engine.
    pub code_version: String,
    /// The cells to execute, already cost-ordered by the scheduler.
    pub cells: Vec<Scenario>,
}

impl CellShard {
    /// A shard of `cells` under this engine's own code version.
    pub fn new(base_seed: u64, cells: Vec<Scenario>) -> Self {
        CellShard { base_seed, code_version: crate::store::CODE_VERSION.to_string(), cells }
    }

    /// Splits the shard into `count` stripes by round-robining *graph instances* (in
    /// first-appearance order, which is the shard's cost order): every cell follows its
    /// [`local_graphs::InstanceKey`], so cells sharing an instance land on the same worker
    /// and no instance is ever generated twice across the fleet — the cross-process
    /// analogue of the in-process backend's shared instance cache. Cost order is preserved
    /// within each stripe (every stripe still runs its slowest cells first), and each
    /// stripe records its cells' indices in the parent shard so results merge back to
    /// canonical positions.
    pub fn stripe(&self, count: usize) -> Vec<(CellShard, Vec<usize>)> {
        let count = count.max(1).min(self.cells.len().max(1));
        let mut stripes: Vec<(CellShard, Vec<usize>)> = (0..count)
            .map(|_| {
                (
                    CellShard {
                        base_seed: self.base_seed,
                        code_version: self.code_version.clone(),
                        cells: Vec::new(),
                    },
                    Vec::new(),
                )
            })
            .collect();
        let mut assignment: std::collections::HashMap<local_graphs::InstanceKey, usize> =
            std::collections::HashMap::new();
        for (i, cell) in self.cells.iter().enumerate() {
            let next = assignment.len() % count;
            let slot = *assignment.entry(cell.instance_key(self.base_seed)).or_insert(next);
            let (stripe, indices) = &mut stripes[slot];
            stripe.cells.push(cell.clone());
            indices.push(i);
        }
        stripes
    }
}

impl Serialize for CellShard {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_map();
        out.field("base_seed", &self.base_seed);
        out.field("code_version", &self.code_version);
        out.field("cells", &self.cells);
        out.end_map();
    }
}

impl Deserialize for CellShard {
    fn from_value(value: &Value) -> Result<Self, String> {
        let field =
            |key: &str| value.get(key).ok_or_else(|| format!("shard is missing field {key:?}"));
        Ok(CellShard {
            base_seed: u64::from_value(field("base_seed")?)?,
            code_version: String::from_value(field("code_version")?)?,
            cells: Vec::from_value(field("cells")?)?,
        })
    }
}

/// A sink for finished cells: `emit(shard_index, result)`. Backends call it from worker
/// threads as cells complete (it must be `Sync`); the scheduler maps shard indices back to
/// canonical grid positions, so completion order never affects the report.
pub type EmitFn<'a> = dyn Fn(usize, CellResult) + Sync + 'a;

/// Owns "how cells become [`CellResult`]s".
///
/// Implementations must uphold the engine's determinism contract: every emitted result is a
/// pure function of the cell's identity and the shard's base seed (wall-clock fields aside),
/// and every cell of the shard is emitted exactly once — by whatever means, including
/// falling back to a slower path when a faster one fails.
pub trait ExecBackend: Sync {
    /// A short name for logs and reports (`in-process`, `process`).
    fn name(&self) -> &'static str;

    /// The backend's degree of parallelism (worker threads or worker processes), recorded in
    /// the report.
    fn parallelism(&self) -> usize;

    /// Executes every cell of `shard`, emitting each result exactly once with its shard
    /// index. May emit from multiple threads concurrently.
    fn run_shard(&self, shard: &CellShard, emit: &EmitFn);

    /// A cost model calibrated while running shards. No engine backend overrides this
    /// empty default: the scheduler calibrates from its own store probe, and this hook is
    /// kept only for external implementors that still forward it.
    fn calibration(&self) -> CostModel {
        CostModel::new()
    }
}

/// One row of the execution-backend catalog, mirroring the workload/family registries so
/// `sweep --list` documents *how* cells can execute, not just what can run.
#[derive(Debug, Clone, Copy)]
pub struct BackendEntry {
    /// The `--backend` name.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every available execution backend, in `--backend` name order of preference.
pub const BACKEND_ENTRIES: &[BackendEntry] = &[
    BackendEntry {
        name: "in-process",
        summary: "work-stealing thread pool inside the sweep process (default)",
    },
    BackendEntry {
        name: "process",
        summary: "launches local `sweep --serve` daemons and drives the ones that start like \
                  `network`; with none up, every cell is rescued in-process",
    },
    BackendEntry {
        name: "network",
        summary: "persistent `sweep --serve` TCP daemons; reconnect with capped backoff, \
                  heartbeat liveness, re-dispatch to healthy peers, in-process rescue",
    },
    BackendEntry {
        name: "coordinator",
        summary: "submits the sweep to a `sweep --coordinate` service that schedules many \
                  clients fairly over a shared daemon fleet (same verify/rescue discipline)",
    },
];

/// Renders the backend catalog for `sweep --list`, names padded to `width` columns.
pub fn render_backend_listing(width: usize) -> String {
    let mut out = String::from("backends (--backend):\n");
    for entry in BACKEND_ENTRIES {
        out.push_str(&format!("  {:<width$} {}\n", entry.name, entry.summary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::workload;
    use local_graphs::Family;

    fn shard_of(n_cells: usize) -> CellShard {
        let cells = (0..n_cells)
            .map(|i| Scenario {
                problem: workload("mis"),
                family: Family::SparseGnp.into(),
                n: 32 + i,
                replicate: 0,
            })
            .collect();
        CellShard::new(7, cells)
    }

    #[test]
    fn striping_round_robins_and_remembers_parent_indices() {
        // Every cell here has a distinct size, hence a distinct instance key, so
        // instance-grouped striping degenerates to plain round-robin.
        let shard = shard_of(5);
        let stripes = shard.stripe(2);
        assert_eq!(stripes.len(), 2);
        assert_eq!(stripes[0].1, vec![0, 2, 4]);
        assert_eq!(stripes[1].1, vec![1, 3]);
        for (stripe, indices) in &stripes {
            assert_eq!(stripe.base_seed, shard.base_seed);
            assert_eq!(stripe.code_version, shard.code_version);
            for (cell, &parent) in stripe.cells.iter().zip(indices) {
                assert_eq!(cell, &shard.cells[parent]);
            }
        }
    }

    #[test]
    fn cells_sharing_an_instance_land_on_the_same_stripe() {
        // Two problems per (family, n, replicate): each instance is realized by exactly
        // one worker, never regenerated across the fleet.
        let mut cells = Vec::new();
        for n in [32usize, 48, 64] {
            for problem in [workload("mis"), workload("luby-mis")] {
                cells.push(Scenario { problem, family: Family::SparseGnp.into(), n, replicate: 0 });
            }
        }
        let shard = CellShard::new(7, cells);
        let stripes = shard.stripe(2);
        let mut instance_to_stripe = std::collections::HashMap::new();
        for (s, (stripe, _)) in stripes.iter().enumerate() {
            for cell in &stripe.cells {
                let prior = instance_to_stripe.insert(cell.instance_key(shard.base_seed), s);
                assert!(
                    prior.is_none() || prior == Some(s),
                    "instance split across stripes: {}",
                    cell.label()
                );
            }
        }
        // The three instances still spread over both workers.
        assert!(stripes.iter().all(|(stripe, _)| !stripe.cells.is_empty()));
    }

    #[test]
    fn striping_never_exceeds_the_cell_count() {
        let stripes = shard_of(2).stripe(8);
        assert_eq!(stripes.len(), 2, "empty stripes would spawn idle workers");
        let empty = shard_of(0).stripe(4);
        assert_eq!(empty.len(), 1);
        assert!(empty[0].0.cells.is_empty());
    }

    #[test]
    fn shard_serialization_round_trips() {
        let shard = shard_of(3);
        let text = serde_json::to_string(&shard).unwrap();
        let back = CellShard::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, shard);
    }

    #[test]
    fn shards_carry_parameterized_specs_across_the_wire() {
        let shard = CellShard::new(
            11,
            vec![Scenario {
                problem: workload("ruling-set-b4"),
                family: local_graphs::family("gnp-d16"),
                n: 64,
                replicate: 1,
            }],
        );
        let text = serde_json::to_string(&shard).unwrap();
        let back = CellShard::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, shard);
        assert_eq!(back.cells[0].problem.name(), "ruling-set-b4");
        assert_eq!(back.cells[0].family.name(), "gnp-d16");
    }

    #[test]
    fn foreign_code_versions_are_preserved_not_rewritten() {
        let mut shard = shard_of(1);
        shard.code_version = "some-other-build".into();
        let text = serde_json::to_string(&shard).unwrap();
        let back = CellShard::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.code_version, "some-other-build");
    }
}
