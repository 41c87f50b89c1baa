//! The MIS workloads: the Table 1 rows whose output is an independent-set indicator.

use super::{run_transformed, units, MeasuredRun, Workload, WorkloadSpec};
use crate::scheduler::Instance;
use local_algos::mis::LubyMis;
use local_runtime::{GraphAlgorithm, GraphView, Session};
use local_uniform::catalog;
use local_uniform::problem::{MisProblem, Problem};

/// `mis` — deterministic MIS via (Δ+1)-colouring, transformed by Theorem 1 (Table 1
/// row 1).
pub struct ColoringMis;

impl Workload for ColoringMis {
    fn name(&self) -> String {
        "mis".into()
    }

    fn tag(&self) -> u64 {
        1
    }

    fn cost_shape(&self) -> (f64, f64) {
        (2.0, 1.3)
    }

    fn describe(&self) -> String {
        "deterministic MIS via (Δ+1)-colouring + Theorem 1 (Table 1 row 1)".into()
    }

    fn run(&self, instance: &Instance, seed: u64, session: &mut Session) -> MeasuredRun {
        let params = &instance.params;
        let baseline = catalog::coloring_mis_black_box();
        run_transformed(
            &MisProblem,
            &instance.graph,
            (baseline.build)(&[params.max_degree, params.max_id]),
            seed,
            session,
            |g, s, session| {
                catalog::uniform_coloring_mis().solve_in(g, &units(g.node_count()), s, session)
            },
        )
    }
}

/// `ps-mis` — deterministic MIS with the synthetic `2^{O(√log n)}` bound (Table 1 row 2).
pub struct PsMis;

impl Workload for PsMis {
    fn name(&self) -> String {
        "ps-mis".into()
    }

    fn tag(&self) -> u64 {
        2
    }

    fn cost_shape(&self) -> (f64, f64) {
        // The synthetic black box charges rounds without simulating messages.
        (0.5, 1.15)
    }

    fn describe(&self) -> String {
        "deterministic MIS, synthetic 2^O(√log n) black box (Table 1 row 2)".into()
    }

    fn run(&self, instance: &Instance, seed: u64, session: &mut Session) -> MeasuredRun {
        let baseline = catalog::panconesi_srinivasan_mis_black_box();
        run_transformed(
            &MisProblem,
            &instance.graph,
            (baseline.build)(&[instance.params.n]),
            seed,
            session,
            |g, s, session| {
                catalog::uniform_ps_mis().solve_in(g, &units(g.node_count()), s, session)
            },
        )
    }
}

/// `arboricity-mis` — deterministic MIS parameterised by arboricity (Table 1 rows 3–4).
pub struct ArboricityMis;

impl Workload for ArboricityMis {
    fn name(&self) -> String {
        "arboricity-mis".into()
    }

    fn tag(&self) -> u64 {
        3
    }

    fn cost_shape(&self) -> (f64, f64) {
        (2.0, 1.3)
    }

    fn describe(&self) -> String {
        "deterministic MIS parameterised by arboricity (Table 1 rows 3–4)".into()
    }

    fn run(&self, instance: &Instance, seed: u64, session: &mut Session) -> MeasuredRun {
        let params = &instance.params;
        let baseline = catalog::arboricity_mis_black_box();
        let guesses = [params.degeneracy.max(1), params.n, params.max_id];
        run_transformed(
            &MisProblem,
            &instance.graph,
            (baseline.build)(&guesses),
            seed,
            session,
            |g, s, session| {
                catalog::uniform_arboricity_mis().solve_in(g, &units(g.node_count()), s, session)
            },
        )
    }
}

/// `cor1-mis` — the Corollary 1(i) "fastest of the breeds" MIS combinator (Theorem 4).
pub struct Corollary1Mis;

impl Workload for Corollary1Mis {
    fn name(&self) -> String {
        "cor1-mis".into()
    }

    fn tag(&self) -> u64 {
        4
    }

    fn cost_shape(&self) -> (f64, f64) {
        (2.5, 1.3)
    }

    fn describe(&self) -> String {
        "Corollary 1(i) fastest-of-the-breeds MIS combinator (Theorem 4)".into()
    }

    fn run(&self, instance: &Instance, seed: u64, session: &mut Session) -> MeasuredRun {
        // Baseline: the Δ-based black box (the combinator's claim is to match the best
        // component, which this box's correct-guess run approximates from above).
        let params = &instance.params;
        let baseline = catalog::coloring_mis_black_box();
        run_transformed(
            &MisProblem,
            &instance.graph,
            (baseline.build)(&[params.max_degree, params.max_id]),
            seed,
            session,
            |g, s, session| {
                catalog::corollary1_mis().solve_in(g, &units(g.node_count()), s, session)
            },
        )
    }
}

/// `luby-mis` — Luby's uniform randomized MIS, the already-uniform baseline of Table 1's
/// last row (ratio 1 by definition).
pub struct LubyMisWorkload;

impl Workload for LubyMisWorkload {
    fn name(&self) -> String {
        "luby-mis".into()
    }

    fn tag(&self) -> u64 {
        5
    }

    fn cost_shape(&self) -> (f64, f64) {
        // Already uniform: executes once, no alternation cascade.
        (0.4, 1.1)
    }

    fn describe(&self) -> String {
        "Luby's uniform randomized MIS — the already-uniform baseline (Table 1 row 10)".into()
    }

    fn run(&self, instance: &Instance, seed: u64, session: &mut Session) -> MeasuredRun {
        let graph = &instance.graph;
        let run = LubyMis.execute_view(
            &GraphView::full(graph),
            &units(graph.node_count()),
            None,
            seed,
            session,
        );
        let valid = MisProblem.validate(graph, &units(graph.node_count()), &run.outputs).is_ok();
        MeasuredRun {
            uniform_rounds: run.rounds,
            uniform_messages: run.messages,
            nonuniform_rounds: run.rounds,
            nonuniform_messages: run.messages,
            subiterations: 0,
            solved: run.completed,
            valid,
            attempt_micros: 0,
            prune_micros: 0,
        }
    }
}

pub(crate) fn parse_mis(name: &str) -> Option<WorkloadSpec> {
    (name == "mis").then(|| WorkloadSpec::new(ColoringMis))
}

pub(crate) fn parse_ps_mis(name: &str) -> Option<WorkloadSpec> {
    (name == "ps-mis").then(|| WorkloadSpec::new(PsMis))
}

pub(crate) fn parse_arboricity_mis(name: &str) -> Option<WorkloadSpec> {
    (name == "arboricity-mis").then(|| WorkloadSpec::new(ArboricityMis))
}

pub(crate) fn parse_cor1_mis(name: &str) -> Option<WorkloadSpec> {
    (name == "cor1-mis").then(|| WorkloadSpec::new(Corollary1Mis))
}

pub(crate) fn parse_luby_mis(name: &str) -> Option<WorkloadSpec> {
    (name == "luby-mis").then(|| WorkloadSpec::new(LubyMisWorkload))
}
