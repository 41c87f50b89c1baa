//! The ruling-set workload: the Las Vegas (2, β)-ruling set of Theorem 2 (Table 1 row 9).

use super::{units, MeasuredRun, Workload, WorkloadSpec};
use crate::scheduler::Instance;
use local_runtime::{GraphView, Session};
use local_uniform::catalog;
use local_uniform::problem::{Problem, RulingSetProblem};

/// `ruling-set-b<beta>` — the Las Vegas (2, β)-ruling set of Theorem 2; `ruling-set` is
/// the β = 2 shorthand.
pub struct RulingSet {
    /// The domination radius β.
    pub beta: u64,
}

impl Workload for RulingSet {
    fn name(&self) -> String {
        format!("ruling-set-b{}", self.beta)
    }

    fn tag(&self) -> u64 {
        0x100 + self.beta
    }

    fn cost_shape(&self) -> (f64, f64) {
        (1.5, 1.25)
    }

    fn describe(&self) -> String {
        format!("Las Vegas (2, {})-ruling set of Theorem 2 (Table 1 row 9)", self.beta)
    }

    fn run(&self, instance: &Instance, seed: u64, session: &mut Session) -> MeasuredRun {
        let graph = &instance.graph;
        let baseline = catalog::ruling_set_black_box();
        let nu = (baseline.build)(&[instance.params.n]).execute_view(
            &GraphView::full(graph),
            &units(graph.node_count()),
            None,
            seed,
            session,
        );
        let uni = catalog::uniform_ruling_set(self.beta as usize).solve_in(
            graph,
            &units(graph.node_count()),
            seed,
            session,
        );
        // The Monte-Carlo baseline is allowed to fail; the Las Vegas claim is on the
        // uniform output only.
        let valid = RulingSetProblem::two(self.beta as usize)
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
}

pub(crate) fn parse_ruling_set(name: &str) -> Option<WorkloadSpec> {
    if name == "ruling-set" {
        return Some(WorkloadSpec::new(RulingSet { beta: 2 }));
    }
    let beta: u64 = name.strip_prefix("ruling-set-b")?.parse().ok()?;
    Some(WorkloadSpec::new(RulingSet { beta }))
}
