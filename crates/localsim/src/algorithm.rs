//! Graph-level view of a LOCAL algorithm.
//!
//! [`GraphAlgorithm`] is the execution-level interface consumed by the paper's transformers:
//! "run this algorithm on this configuration with these inputs, for at most `budget` rounds,
//! and tell me the outputs and how many rounds you used". It has one body per algorithm,
//! [`GraphAlgorithm::execute_view`], which runs on a live [`GraphView`] with a reusable
//! [`Session`]: the transformers' attempts on shrinking configurations and the engine's
//! baselines on whole instances both go through it. [`GraphAlgorithm::execute`] is a
//! convenience wrapper for a standalone [`Graph`].
//!
//! Every [`ProgramSpec`] is automatically a `GraphAlgorithm` (the runtime drives its node
//! automata), but composite algorithms — e.g. an algorithm that first computes a partition
//! and then runs a colouring phase on each part, or one that operates on the line graph — can
//! implement the trait directly, with their round count justified by the composition bound of
//! Observation 2.1.

use crate::graph::Graph;
use crate::program::ProgramSpec;
use crate::runner::{Execution, RunConfig};
use crate::session::{run_view, Session};
use crate::view::GraphView;

/// The outcome of executing a [`GraphAlgorithm`].
#[derive(Debug, Clone)]
pub struct AlgoRun<O> {
    /// Output per node, indexed like the view (or graph) the algorithm was executed on.
    pub outputs: Vec<O>,
    /// Number of rounds charged to the execution.
    pub rounds: u64,
    /// Total messages delivered (summed over composed phases; synthetic black boxes that
    /// simulate no real communication report 0).
    pub messages: u64,
    /// `true` when every node terminated by itself within the budget.
    pub completed: bool,
}

impl<O> AlgoRun<O> {
    /// An empty run (for the empty graph).
    pub fn empty() -> Self {
        AlgoRun { outputs: Vec::new(), rounds: 0, messages: 0, completed: true }
    }
}

/// A LOCAL algorithm seen as a function from a configuration `(G, x)` to an output vector,
/// with explicit round accounting and an optional round budget (the paper's *restriction to
/// `i` rounds*).
///
/// Implementations must be **budget-respecting**: the reported `rounds` never exceeds the
/// budget, and when the budget cuts the execution short every node still receives *some*
/// output (possibly meaningless — downstream pruning algorithms take care of that).
///
/// The `Send + Sync` supertrait and the `Send` bounds on the associated types let batch
/// schedulers (the `local-engine` crate) execute algorithms concurrently across experiment
/// cells and move their outputs between worker threads.
pub trait GraphAlgorithm: Send + Sync {
    /// Per-node input type `x(v)`.
    type Input: Clone + Send + Sync;
    /// Per-node output type `y(v)`.
    type Output: Clone + Send;

    /// Executes the algorithm on a live [`GraphView`] (inputs and outputs are live-indexed),
    /// reusing the session's buffers.
    ///
    /// The alternating drivers call this on a view that pruning shrinks in place, and the
    /// engine calls it on the full view of an instance; both hand in a long-lived session, so
    /// repeated runs do not reallocate the runtime's arenas. Composite algorithms run their
    /// phases through their phases' `execute_view` with the same session.
    fn execute_view(
        &self,
        view: &GraphView<'_>,
        inputs: &[Self::Input],
        budget: Option<u64>,
        seed: u64,
        session: &mut Session,
    ) -> AlgoRun<Self::Output>;

    /// Executes the algorithm on a whole standalone graph: [`GraphAlgorithm::execute_view`]
    /// on [`GraphView::full`] with a fresh [`Session`].
    fn execute(
        &self,
        graph: &Graph,
        inputs: &[Self::Input],
        budget: Option<u64>,
        seed: u64,
    ) -> AlgoRun<Self::Output> {
        self.execute_view(&GraphView::full(graph), inputs, budget, seed, &mut Session::new())
    }
}

/// Every node-automaton specification is a graph algorithm: the runtime drives it.
impl<S: ProgramSpec> GraphAlgorithm for S {
    type Input = S::Input;
    type Output = S::Output;

    fn execute_view(
        &self,
        view: &GraphView<'_>,
        inputs: &[Self::Input],
        budget: Option<u64>,
        seed: u64,
        session: &mut Session,
    ) -> AlgoRun<Self::Output> {
        let cfg = RunConfig { seed, max_rounds: budget, ..RunConfig::default() };
        let Execution { outputs, rounds, termination, halted, messages, completed, .. } =
            run_view(view, inputs, self, &cfg, session);
        // The per-node vectors AlgoRun does not carry go straight back to the session pool,
        // keeping repeated attempts on an unchanged configuration allocation-free.
        session.recycle_flags(termination, halted);
        AlgoRun { outputs, rounds, messages, completed }
    }
}

/// A boxed, object-safe graph algorithm (used by the transformer framework, which treats the
/// non-uniform algorithm as a black box).
pub type DynAlgorithm<I, O> = Box<dyn GraphAlgorithm<Input = I, Output = O> + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::program::{Action, NodeInit, NodeProgram, RoundCtx};

    struct ConstSpec(u32);
    struct ConstProg(u32);
    impl NodeProgram for ConstProg {
        type Msg = ();
        type Output = u32;
        fn round(&mut self, _ctx: &mut RoundCtx<'_, ()>) -> Action<u32> {
            Action::Halt(self.0)
        }
    }
    impl ProgramSpec for ConstSpec {
        type Input = ();
        type Msg = ();
        type Output = u32;
        type Prog = ConstProg;
        fn build(&self, _init: &NodeInit<()>) -> ConstProg {
            ConstProg(self.0)
        }
        fn default_output(&self, _init: &NodeInit<()>) -> u32 {
            0
        }
    }

    #[test]
    fn spec_is_a_graph_algorithm() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let run = ConstSpec(7).execute(&g, &[(); 3], None, 0);
        assert_eq!(run.outputs, vec![7, 7, 7]);
        assert_eq!(run.rounds, 0);
        assert!(run.completed);
    }

    #[test]
    fn boxed_algorithm_is_usable() {
        let alg: DynAlgorithm<(), u32> = Box::new(ConstSpec(3));
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let run = alg.execute(&g, &[(); 2], Some(10), 1);
        assert_eq!(run.outputs, vec![3, 3]);
    }

    #[test]
    fn empty_run_constructor() {
        let run: AlgoRun<u32> = AlgoRun::empty();
        assert!(run.outputs.is_empty());
        assert_eq!(run.rounds, 0);
    }
}
