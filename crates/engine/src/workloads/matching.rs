//! The maximal-matching workloads (Table 1 row 8 and its synthetic time-shape variant).

use super::{run_transformed, units, MeasuredRun};
use crate::scheduler::Instance;
use local_runtime::Session;
use local_uniform::catalog;
use local_uniform::problem::MatchingProblem;

/// `matching` — deterministic maximal matching from edge colouring (Table 1 row 8).
pub(crate) fn matching(
    _: u64,
    instance: &Instance,
    seed: u64,
    session: &mut Session,
) -> MeasuredRun {
    let params = &instance.params;
    let baseline = catalog::matching_black_box();
    run_transformed(
        &MatchingProblem,
        &instance.graph,
        (baseline.build)(&[params.max_degree, params.max_id]),
        seed,
        session,
        |g, s, session| catalog::uniform_matching().solve_in(g, &units(g.node_count()), s, session),
    )
}

/// `log4-matching` — maximal matching with the synthetic `O(log⁴ n)` time shape.
pub(crate) fn log4_matching(
    _: u64,
    instance: &Instance,
    seed: u64,
    session: &mut Session,
) -> MeasuredRun {
    let baseline = catalog::synthetic_log4_matching_black_box();
    run_transformed(
        &MatchingProblem,
        &instance.graph,
        (baseline.build)(&[instance.params.n]),
        seed,
        session,
        |g, s, session| {
            catalog::uniform_log4_matching().solve_in(g, &units(g.node_count()), s, session)
        },
    )
}
