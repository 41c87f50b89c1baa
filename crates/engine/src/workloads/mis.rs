//! The MIS workloads: the Table 1 rows whose output is an independent-set indicator.

use super::{run_transformed, units, MeasuredRun};
use crate::scheduler::Instance;
use local_algos::mis::LubyMis;
use local_runtime::{GraphAlgorithm, GraphView, Session};
use local_uniform::catalog;
use local_uniform::problem::{MisProblem, Problem};

/// `mis` — deterministic MIS via (Δ+1)-colouring, transformed by Theorem 1 (Table 1
/// row 1).
pub(crate) fn mis(_: u64, instance: &Instance, seed: u64, session: &mut Session) -> MeasuredRun {
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

/// `ps-mis` — deterministic MIS with the synthetic `2^{O(√log n)}` bound (Table 1 row 2).
pub(crate) fn ps_mis(_: u64, instance: &Instance, seed: u64, session: &mut Session) -> MeasuredRun {
    let baseline = catalog::panconesi_srinivasan_mis_black_box();
    run_transformed(
        &MisProblem,
        &instance.graph,
        (baseline.build)(&[instance.params.n]),
        seed,
        session,
        |g, s, session| catalog::uniform_ps_mis().solve_in(g, &units(g.node_count()), s, session),
    )
}

/// `arboricity-mis` — deterministic MIS parameterised by arboricity (Table 1 rows 3–4).
pub(crate) fn arboricity_mis(
    _: u64,
    instance: &Instance,
    seed: u64,
    session: &mut Session,
) -> MeasuredRun {
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

/// `cor1-mis` — the Corollary 1(i) "fastest of the breeds" MIS combinator (Theorem 4).
pub(crate) fn cor1_mis(
    _: u64,
    instance: &Instance,
    seed: u64,
    session: &mut Session,
) -> MeasuredRun {
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
        |g, s, session| catalog::corollary1_mis().solve_in(g, &units(g.node_count()), s, session),
    )
}

/// `luby-mis` — Luby's uniform randomized MIS, the already-uniform baseline of Table 1's
/// last row (ratio 1 by definition).
pub(crate) fn luby_mis(
    _: u64,
    instance: &Instance,
    seed: u64,
    session: &mut Session,
) -> MeasuredRun {
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
