//! The workloads: the name-keyed [`WorkloadSpec`] handle, and one module per group of
//! Table 1 rows holding the functions that execute a cell.
//!
//! Each function is the `run` of one [`WorkloadEntry`] row of the registry
//! ([`crate::registry`]), which also holds the workload's name, seed tag and cost shape.
//! `name()` is the wire and store representation and must never change for an existing
//! workload; `tag()` is mixed into per-cell execution seeds and must be distinct from
//! every other registered workload.

mod coloring;
mod matching;
mod mis;
mod ruling_set;

pub(crate) use coloring::{edge_coloring, lambda_coloring};
pub(crate) use matching::{log4_matching, matching};
pub(crate) use mis::{arboricity_mis, cor1_mis, luby_mis, mis, ps_mis};
pub(crate) use ruling_set::ruling_set;

use crate::registry::WorkloadEntry;
use crate::scheduler::Instance;
use local_runtime::{Graph, GraphView, Session};
use local_uniform::problem::Problem;
use std::sync::Arc;

/// What one workload execution measured; the scheduler packages this into a
/// [`crate::report::CellResult`] together with the cell's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeasuredRun {
    /// Rounds of the transformed uniform algorithm.
    pub uniform_rounds: u64,
    /// Messages delivered by the uniform algorithm's black-box attempts.
    pub uniform_messages: u64,
    /// Rounds of the non-uniform baseline executed with correct guesses.
    pub nonuniform_rounds: u64,
    /// Messages delivered by the non-uniform baseline.
    pub nonuniform_messages: u64,
    /// Sub-iterations (black-box attempts) the uniform driver executed, when applicable.
    pub subiterations: u64,
    /// Whether the uniform driver terminated on its own.
    pub solved: bool,
    /// Whether every produced output passed the problem's validator.
    pub valid: bool,
    /// Wall time the uniform driver spent inside black-box attempts, in microseconds.
    pub attempt_micros: u64,
    /// Wall time the uniform driver spent pruning, in microseconds.
    pub prune_micros: u64,
}

/// A cheap clonable handle on one registered workload: a registry row and its parameter.
///
/// Identity (equality, ordering, hashing) is the workload's stable *name*, exactly like
/// [`local_graphs::FamilySpec`] on the family side.
#[derive(Clone)]
pub struct WorkloadSpec {
    name: Arc<str>,
    row: &'static WorkloadEntry,
    param: u64,
}

impl WorkloadSpec {
    /// The spec of `row` at `param`, under its canonical `name`.
    pub(crate) fn new(row: &'static WorkloadEntry, name: String, param: u64) -> Self {
        WorkloadSpec { name: name.into(), row, param }
    }

    /// The workload's stable canonical name: the wire and store representation, what
    /// [`crate::registry::parse_workload`] accepts and what reports print.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload's stable seed tag, `tag_base + param`, mixed into per-cell execution
    /// seeds. Distinct for every registered workload.
    pub fn tag(&self) -> u64 {
        self.row.tag_base + self.param
    }

    /// The static power-law cost shape `(weight, exponent)` of one cell (the
    /// [`crate::cost::CostModel`] prior). Only ever affects scheduling *order*.
    pub fn cost_shape(&self) -> (f64, f64) {
        self.row.cost_shape
    }

    /// Executes one cell on `instance` with the cell's derived execution `seed`, reusing
    /// the caller's `session` across attempts.
    pub fn run(&self, instance: &Instance, seed: u64, session: &mut Session) -> MeasuredRun {
        (self.row.run)(self.param, instance, seed, session)
    }
}

impl PartialEq for WorkloadSpec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for WorkloadSpec {}

impl PartialOrd for WorkloadSpec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorkloadSpec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name.cmp(&other.name)
    }
}

impl std::hash::Hash for WorkloadSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

impl std::fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkloadSpec({})", self.name)
    }
}

impl std::fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

/// Unit inputs for an `n`-node graph (every catalog problem takes `()` per node).
pub(crate) fn units(n: usize) -> Vec<()> {
    vec![(); n]
}

/// Shared shape of the transformed workloads: run the boxed non-uniform baseline at
/// correct guesses and the uniform solver, validate both against `problem`, and package
/// the measurements.
pub(crate) fn run_transformed<P: Problem<Input = ()>>(
    problem: &P,
    graph: &Graph,
    baseline: local_runtime::DynAlgorithm<(), P::Output>,
    seed: u64,
    session: &mut Session,
    uniform: impl Fn(&Graph, u64, &mut Session) -> local_uniform::UniformRun<P::Output>,
) -> MeasuredRun {
    let nu = baseline.execute_view(
        &GraphView::full(graph),
        &units(graph.node_count()),
        None,
        seed,
        session,
    );
    let uni = uniform(graph, seed, session);
    let valid = problem.validate(graph, &units(graph.node_count()), &nu.outputs).is_ok()
        && problem.validate(graph, &units(graph.node_count()), &uni.outputs).is_ok();
    MeasuredRun {
        uniform_rounds: uni.rounds,
        uniform_messages: uni.messages,
        nonuniform_rounds: nu.rounds,
        nonuniform_messages: nu.messages,
        subiterations: uni.subiterations,
        solved: uni.solved,
        valid,
        attempt_micros: uni.attempt_micros,
        prune_micros: uni.prune_micros,
    }
}
