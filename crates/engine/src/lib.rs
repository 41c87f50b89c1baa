//! # local-engine — a parallel batched experiment engine for LOCAL-model sweeps
//!
//! The seed reproduction executes one algorithm on one graph at a time; this crate makes
//! *grids* of experiments — every (problem × graph family × size × seed) cell of an
//! evaluation like the paper's Table 1 — a first-class, parallel, reproducible operation.
//!
//! Layers:
//!
//! * [`registry`] — the workload table: one row per workload with its name pattern, seed
//!   tag, cost shape, parser and `run` function (parse, the `all` catalog, the
//!   self-documenting `sweep --list` output); the family table is
//!   [`local_graphs::FAMILY_ENTRIES`].
//! * [`workloads`] — the `run` functions of the rows, and the name-keyed [`WorkloadSpec`]
//!   handle on a row and its parameter.
//! * [`scenario`] — the experiment model: [`Scenario`] (one cell pairing a workload spec
//!   with a family spec) and the [`ScenarioGrid`] cross-product builder.
//! * [`scheduler`] — the [`Sweep`] builder: cache probe, cost-model LPT ordering, streaming
//!   aggregation, and canonical report order, around an abstract execution backend. Per-cell
//!   seeding is deterministic (built on [`local_runtime::mix_seed`]), so a sweep is
//!   byte-identical across thread counts, worker processes, and backends (wall-clock fields
//!   aside).
//! * [`backend`] — *how cells become results*: the [`ExecBackend`] trait, the
//!   [`InProcessBackend`] work-stealing pool ([`pool`]) with its instance cache keyed by
//!   [`local_graphs::InstanceKey`], the [`NetworkBackend`] that stripes serialized
//!   [`CellShard`]s over `sweep --serve` daemons and verifies their result streams
//!   (re-dispatching or re-running in-process whatever a failed daemon leaves behind), and
//!   the [`ProcessBackend`] that launches such daemons locally.
//! * [`store`] — persistence behind the [`ResultStore`] trait: the [`BinaryStore`] (the
//!   `local-store` append-only segmented store) serves and absorbs cells for every
//!   backend, and answers columnar probes so streamed summaries fold without
//!   materializing rows.
//! * [`report`] — aggregation: per-cell [`CellResult`]s folded into per-group
//!   [`GroupSummary`]s (mean/p50/p99 rounds, uniform-over-non-uniform overhead ratios),
//!   serialized to JSON or CSV.
//! * `sweep` (in `src/bin`) — the CLI driver:
//!   `sweep --problems mis,matching --families sparse-gnp,tree --sizes 100..10000
//!   --seeds 32 --backend process --workers 8 --out results.json`.
//!
//! ## Example
//!
//! ```
//! use local_engine::{run_grid, workload, ScenarioGrid, SweepConfig};
//! use local_graphs::{family, Family};
//!
//! let grid = ScenarioGrid::new()
//!     .problems([workload("mis")])
//!     .families([Family::SparseGnp.into(), family("gnp-d16")])
//!     .sizes([48usize])
//!     .replicates(2);
//! let report = run_grid(&grid, &SweepConfig::with_threads(2));
//! assert_eq!(report.cell_count, 4);
//! assert!(report.cells.iter().all(|cell| cell.valid));
//! println!("{}", report.render_summaries());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
pub mod backend;
pub mod cost;
mod gate;
pub mod pool;
pub mod progress;
pub mod registry;
pub mod report;
pub mod scenario;
pub mod scheduler;
pub mod store;
pub mod workloads;

pub use backend::{
    CellShard, CoordinatorConfig, CoordinatorServer, ExecBackend, FaultInjector, FaultPlan,
    InProcessBackend, NetworkBackend, ProcessBackend,
};
pub use cost::CostModel;
pub use progress::ProgressMeter;
pub use registry::{
    default_workloads, parse_workload, parse_workloads, render_listing, workload, WorkloadEntry,
    WORKLOAD_ENTRIES,
};
pub use report::{
    folded_stacks, summarize, CellColumns, CellResult, GroupSummary, Report, SummaryAccumulator,
};
pub use scenario::{parse_sizes, Scenario, ScenarioGrid};
pub use scheduler::{run_cell, run_cell_in, run_grid, Instance, Sweep, SweepConfig};
pub use store::{report_from_store, BinaryStore, ResultStore, CODE_VERSION};
pub use workloads::{MeasuredRun, WorkloadSpec};
