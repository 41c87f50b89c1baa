//! The colouring workloads: Theorem 5's λ(Δ+1)-colouring and the line-graph edge
//! colouring built on it.

use super::{units, MeasuredRun};
use crate::scheduler::Instance;
use local_algos::checkers;
use local_algos::edge_coloring::{port_colors, LineGraphEdgeColoring};
use local_runtime::{GraphAlgorithm, GraphView, LineGraph, Session};
use local_uniform::catalog;

/// `coloring` / `lambda<λ>-coloring` — the Theorem 5 uniform `λ(Δ+1)`-colouring (`λ = 1`
/// is Table 1 row 1's colouring output; larger `λ` is row 5).
pub(crate) fn lambda_coloring(
    lambda: u64,
    instance: &Instance,
    seed: u64,
    session: &mut Session,
) -> MeasuredRun {
    let graph = &instance.graph;
    let params = &instance.params;
    let baseline = catalog::lambda_coloring_box(lambda);
    let nu = (baseline.build)(params.max_degree, params.max_id).execute_view(
        &GraphView::full(graph),
        &units(graph.node_count()),
        None,
        seed,
        session,
    );
    let transformer = catalog::uniform_lambda_coloring(lambda);
    let uni = transformer.solve_in(graph, seed, session);
    let nu_valid = checkers::check_coloring_with_palette(
        graph,
        &nu.outputs,
        (baseline.palette)(params.max_degree),
    )
    .is_ok();
    let uni_valid = checkers::check_coloring(graph, &uni.colors).is_ok()
        && (checkers::palette_size(&uni.colors) as u64)
            <= transformer.palette_bound(params.max_degree);
    MeasuredRun {
        uniform_rounds: uni.rounds,
        uniform_messages: uni.messages,
        nonuniform_rounds: nu.rounds,
        nonuniform_messages: nu.messages,
        subiterations: 0,
        solved: uni.solved,
        valid: nu_valid && uni_valid,
        attempt_micros: uni.attempt_micros,
        prune_micros: uni.prune_micros,
    }
}

/// `edge-coloring` — `O(Δ)`-edge colouring via the line graph + Theorem 5 (Table 1
/// rows 6–7): a vertex colouring of `L(G)` is an edge colouring of `G`, plus one round to
/// exchange the chosen colours over the edges.
pub(crate) fn edge_coloring(
    _: u64,
    instance: &Instance,
    seed: u64,
    session: &mut Session,
) -> MeasuredRun {
    let graph = &instance.graph;
    let params = &instance.params;
    let baseline =
        LineGraphEdgeColoring { delta_guess: params.max_degree, id_bound_guess: params.max_id };
    let full = GraphView::full(graph);
    let nu = baseline.execute_view(&full, &units(graph.node_count()), None, seed, session);
    let nu_valid = checkers::check_edge_coloring(graph, &nu.outputs).is_ok();

    let lg = LineGraph::of(&full);
    let transformer = catalog::uniform_lambda_coloring(1);
    let uni = transformer.solve_in(&lg.graph, seed, session);
    let uni_colors = port_colors(&lg, &uni.colors);
    let uni_valid = checkers::check_edge_coloring(graph, &uni_colors).is_ok();

    MeasuredRun {
        uniform_rounds: uni.rounds + 1,
        uniform_messages: uni.messages,
        nonuniform_rounds: nu.rounds,
        nonuniform_messages: nu.messages,
        subiterations: 0,
        solved: uni.solved,
        valid: nu_valid && uni_valid,
        attempt_micros: uni.attempt_micros,
        prune_micros: uni.prune_micros,
    }
}
