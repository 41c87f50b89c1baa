//! The open workload model: the [`Workload`] trait, the name-keyed [`WorkloadSpec`]
//! handle, and one implementation module per problem of the catalog.
//!
//! Historically every problem was one arm of a closed `ProblemKind` enum, with its name,
//! parser, seed tag, cost shape, and a ~160-line execution dispatch spread across four
//! files. A workload now owns all five facets behind one trait, the scheduler calls
//! [`WorkloadSpec::run`] without knowing what it runs, and the registry
//! ([`crate::registry`]) is the single table new workloads are wired into.
//!
//! The stability contract mirrors the family side ([`local_graphs::GraphFamily`]):
//! `name()` is the wire/cache representation and must never change for an existing
//! workload; `tag()` is mixed into per-cell execution seeds and must be distinct from
//! every other registered workload (the builtin tags reproduce the historical
//! `ProblemKind::tag` integers exactly, so pre-existing sweeps keep their seeds).

mod coloring;
mod matching;
mod mis;
mod ruling_set;

pub use coloring::{EdgeColoring, LambdaColoring};
pub use matching::{Log4Matching, Matching};
pub use mis::{ArboricityMis, ColoringMis, Corollary1Mis, LubyMisWorkload, PsMis};
pub use ruling_set::RulingSet;

pub(crate) use coloring::{parse_edge_coloring, parse_lambda_coloring};
pub(crate) use matching::{parse_log4_matching, parse_matching};
pub(crate) use mis::{
    parse_arboricity_mis, parse_cor1_mis, parse_luby_mis, parse_mis, parse_ps_mis,
};
pub(crate) use ruling_set::parse_ruling_set;

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

/// One experiment workload: a named, seeded execution of a uniform algorithm against its
/// non-uniform baseline on a shared instance.
pub trait Workload: Send + Sync {
    /// The stable canonical name (the wire/cache representation; what
    /// [`crate::registry::parse_workload`] accepts and reports print).
    fn name(&self) -> String;

    /// A small stable integer distinguishing workloads, mixed into per-cell execution
    /// seeds.
    fn tag(&self) -> u64;

    /// The static power-law cost shape `(weight, exponent)` of one cell of this workload
    /// (the [`crate::cost::CostModel`] prior). Only ever affects scheduling *order*.
    fn cost_shape(&self) -> (f64, f64);

    /// A one-line human description for CLI listings.
    fn describe(&self) -> String;

    /// Executes one cell on `instance` with the cell's derived execution `seed`, reusing
    /// the caller's `session` across attempts.
    fn run(&self, instance: &Instance, seed: u64, session: &mut Session) -> MeasuredRun;
}

/// A cheap clonable handle on a registered workload.
///
/// Identity (equality, ordering, hashing) is the workload's stable *name*, exactly like
/// [`local_graphs::FamilySpec`] on the family side; the implementation is shared behind an
/// `Arc`.
#[derive(Clone)]
pub struct WorkloadSpec {
    name: Arc<str>,
    workload: Arc<dyn Workload>,
}

impl WorkloadSpec {
    /// Wraps a [`Workload`] implementation, capturing its canonical name.
    pub fn new(workload: impl Workload + 'static) -> Self {
        WorkloadSpec { name: workload.name().into(), workload: Arc::new(workload) }
    }

    /// The workload's stable canonical name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload's stable seed tag (see [`Workload::tag`]).
    pub fn tag(&self) -> u64 {
        self.workload.tag()
    }

    /// The workload's static cost shape (see [`Workload::cost_shape`]).
    pub fn cost_shape(&self) -> (f64, f64) {
        self.workload.cost_shape()
    }

    /// One-line description for CLI listings.
    pub fn describe(&self) -> String {
        self.workload.describe()
    }

    /// Executes one cell (see [`Workload::run`]).
    pub fn run(&self, instance: &Instance, seed: u64, session: &mut Session) -> MeasuredRun {
        self.workload.run(instance, seed, session)
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
