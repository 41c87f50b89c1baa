//! The ruling-set workload: the Las Vegas (2, β)-ruling set of Theorem 2 (Table 1 row 9).

use super::{units, MeasuredRun};
use crate::scheduler::Instance;
use local_runtime::{GraphView, Session};
use local_uniform::catalog;
use local_uniform::problem::{Problem, RulingSetProblem};

/// `ruling-set-b<beta>` — the Las Vegas (2, β)-ruling set of Theorem 2, for the domination
/// radius `beta`.
pub(crate) fn ruling_set(
    beta: u64,
    instance: &Instance,
    seed: u64,
    session: &mut Session,
) -> MeasuredRun {
    let graph = &instance.graph;
    let baseline = catalog::ruling_set_black_box();
    let nu = (baseline.build)(&[instance.params.n]).execute_view(
        &GraphView::full(graph),
        &units(graph.node_count()),
        None,
        seed,
        session,
    );
    let uni = catalog::uniform_ruling_set(beta as usize).solve_in(
        graph,
        &units(graph.node_count()),
        seed,
        session,
    );
    // The Monte-Carlo baseline is allowed to fail; the Las Vegas claim is on the uniform
    // output only.
    let valid = RulingSetProblem::two(beta as usize)
        .validate(graph, &units(graph.node_count()), &uni.outputs)
        .is_ok();
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
