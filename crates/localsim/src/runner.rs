//! The synchronous LOCAL-model execution engine.
//!
//! [`run`] drives one [`ProgramSpec`] over a [`Graph`] in lock-step rounds, with an optional
//! round budget (the paper's *algorithm restricted to `i` rounds*, Section 2) and a hard
//! safety cap for algorithms that would otherwise never terminate (a non-uniform algorithm
//! executed with bad guesses "may not even terminate", Section 2).
//!
//! Round accounting follows the paper: a node's termination time is the number of rounds it
//! executed before halting, and the running time of an execution is the maximum termination
//! time over all nodes.

use crate::graph::Graph;
use crate::program::ProgramSpec;
use crate::session::{run_core, Session};
use crate::trace::ExecutionTrace;

/// Configuration of one execution.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed for the per-node random streams. Two runs with the same seed, graph, and spec are
    /// identical.
    pub seed: u64,
    /// Round budget: when `Some(b)`, the execution is stopped after `b` rounds and every node
    /// that has not halted is forced to the spec's default output.
    pub max_rounds: Option<u64>,
    /// Hard safety cap on the rounds of an unbudgeted run (`max_rounds == None`); prevents
    /// runaway executions of incorrect or diverging algorithms. An explicit budget replaces
    /// it, so `Some(b)` runs up to `b` rounds even when `b > hard_cap`.
    pub hard_cap: u64,
    /// Whether to record a per-round trace (active node counts, message counts).
    pub record_trace: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { seed: 0, max_rounds: None, hard_cap: 1_000_000, record_trace: false }
    }
}

impl RunConfig {
    /// A configuration with the given seed and no budget.
    pub fn seeded(seed: u64) -> Self {
        RunConfig { seed, ..RunConfig::default() }
    }

    /// Sets the round budget (the restriction to `budget` rounds).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.max_rounds = Some(budget);
        self
    }

    /// Enables per-round tracing.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }
}

/// The result of one execution.
#[derive(Debug, Clone)]
pub struct Execution<O> {
    /// Final output `y(v)` per node (forced to the default output for nodes that hit the
    /// budget without halting).
    pub outputs: Vec<O>,
    /// Number of rounds after which every node had terminated (or the budget, if hit).
    pub rounds: u64,
    /// Per-node termination time.
    pub termination: Vec<u64>,
    /// Per-node flag: did the node halt on its own (as opposed to being cut off)?
    pub halted: Vec<bool>,
    /// Total number of messages delivered.
    pub messages: u64,
    /// `true` when every node halted on its own within the budget / cap.
    pub completed: bool,
    /// Optional per-round trace.
    pub trace: Option<ExecutionTrace>,
}

impl<O> Execution<O> {
    /// `true` if every node halted by itself (no forced outputs).
    pub fn all_halted(&self) -> bool {
        self.halted.iter().all(|&h| h)
    }
}

/// Runs `spec` on `graph` with per-node inputs `inputs`.
///
/// Drives the frontier-based loop of [`crate::session`] over the full graph with a throwaway
/// [`Session`]; callers that execute many runs (alternating drivers, batch schedulers) should
/// hold a session and use [`crate::session::run_view`] to reuse its buffers.
///
/// # Panics
///
/// Panics if `inputs.len() != graph.node_count()`.
pub fn run<S: ProgramSpec>(
    graph: &Graph,
    inputs: &[S::Input],
    spec: &S,
    cfg: &RunConfig,
) -> Execution<S::Output> {
    run_core(graph, inputs, spec, cfg, &mut Session::new())
}

/// Runs `first` and then `second`, feeding the outputs of `first` to `second` as inputs
/// (the composition `A1; A2` of Observation 2.1). The reported round count is the sum of the
/// two running times, which upper-bounds the running time of the composed algorithm.
pub fn run_sequence<S1, S2>(
    graph: &Graph,
    inputs: &[S1::Input],
    first: &S1,
    second: &S2,
    cfg: &RunConfig,
) -> (Execution<S1::Output>, Execution<S2::Output>)
where
    S1: ProgramSpec,
    S2: ProgramSpec<Input = S1::Output>,
{
    let exec1 = run(graph, inputs, first, cfg);
    let exec2 = run(graph, &exec1.outputs, second, cfg);
    (exec1, exec2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::program::{Action, NodeInit, NodeProgram, ProgramSpec, RoundCtx};

    /// Every node immediately outputs its own identity.
    struct EchoIdSpec;
    struct EchoId {
        id: u64,
    }
    impl NodeProgram for EchoId {
        type Msg = ();
        type Output = u64;
        fn round(&mut self, _ctx: &mut RoundCtx<'_, ()>) -> Action<u64> {
            Action::Halt(self.id)
        }
    }
    impl ProgramSpec for EchoIdSpec {
        type Input = ();
        type Msg = ();
        type Output = u64;
        type Prog = EchoId;
        fn build(&self, init: &NodeInit<()>) -> EchoId {
            EchoId { id: init.id }
        }
        fn default_output(&self, _init: &NodeInit<()>) -> u64 {
            u64::MAX
        }
    }

    /// Every node floods its identity and outputs the maximum identity it has seen after
    /// exactly `radius` rounds of gossip.
    struct MaxIdSpec {
        radius: u64,
    }
    struct MaxIdProg {
        radius: u64,
        best: u64,
    }
    impl NodeProgram for MaxIdProg {
        type Msg = u64;
        type Output = u64;
        fn round(&mut self, ctx: &mut RoundCtx<'_, u64>) -> Action<u64> {
            for m in ctx.inbox() {
                self.best = self.best.max(m.msg);
            }
            if ctx.round() == self.radius {
                return Action::Halt(self.best);
            }
            ctx.broadcast(self.best);
            Action::Continue
        }
    }
    impl ProgramSpec for MaxIdSpec {
        type Input = ();
        type Msg = u64;
        type Output = u64;
        type Prog = MaxIdProg;
        fn build(&self, init: &NodeInit<()>) -> MaxIdProg {
            MaxIdProg { radius: self.radius, best: init.id }
        }
        fn default_output(&self, _init: &NodeInit<()>) -> u64 {
            0
        }
    }

    /// Never halts.
    struct ForeverSpec;
    struct Forever;
    impl NodeProgram for Forever {
        type Msg = ();
        type Output = u32;
        fn round(&mut self, _ctx: &mut RoundCtx<'_, ()>) -> Action<u32> {
            Action::Continue
        }
    }
    impl ProgramSpec for ForeverSpec {
        type Input = ();
        type Msg = ();
        type Output = u32;
        type Prog = Forever;
        fn build(&self, _init: &NodeInit<()>) -> Forever {
            Forever
        }
        fn default_output(&self, _init: &NodeInit<()>) -> u32 {
            99
        }
    }

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn zero_round_algorithm_runs_in_zero_rounds() {
        let g = path(4);
        let exec = run(&g, &[(); 4], &EchoIdSpec, &RunConfig::default());
        assert!(exec.completed);
        assert_eq!(exec.rounds, 0);
        assert_eq!(exec.outputs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn gossip_reaches_distance_r() {
        let g = path(5);
        // Radius 4 = diameter, so everyone learns the max identity 4.
        let exec = run(&g, &[(); 5], &MaxIdSpec { radius: 4 }, &RunConfig::default());
        assert!(exec.completed);
        assert_eq!(exec.rounds, 4);
        assert!(exec.outputs.iter().all(|&o| o == 4));
    }

    #[test]
    fn gossip_limited_radius_sees_only_ball() {
        let g = path(5);
        let exec = run(&g, &[(); 5], &MaxIdSpec { radius: 1 }, &RunConfig::default());
        // Node 0 sees only node 1 after one round.
        assert_eq!(exec.outputs[0], 1);
        assert_eq!(exec.outputs[4], 4);
        assert_eq!(exec.outputs[2], 3);
    }

    #[test]
    fn budget_cuts_execution_and_forces_default_outputs() {
        let g = path(3);
        let cfg = RunConfig::default().with_budget(5);
        let exec = run(&g, &[(); 3], &ForeverSpec, &cfg);
        assert!(!exec.completed);
        assert!(exec.outputs.iter().all(|&o| o == 99));
        assert_eq!(exec.rounds, 5);
        assert!(exec.halted.iter().all(|&h| !h));
    }

    #[test]
    fn hard_cap_stops_divergent_algorithms() {
        let g = path(2);
        let cfg = RunConfig { hard_cap: 10, ..RunConfig::default() };
        let exec = run(&g, &[(); 2], &ForeverSpec, &cfg);
        assert!(!exec.completed);
        assert_eq!(exec.rounds, 10);
    }

    #[test]
    fn explicit_budget_overrides_hard_cap() {
        let g = path(3);
        let hard_cap = 10;
        let spec = MaxIdSpec { radius: hard_cap + 1 };
        let budgeted = RunConfig { hard_cap, ..RunConfig::default() }.with_budget(hard_cap + 10);
        let exec = run(&g, &[(); 3], &spec, &budgeted);
        assert!(exec.completed, "a budget above the hard cap must be honoured");
        assert_eq!(exec.rounds, hard_cap + 1);
        assert!(exec.outputs.iter().all(|&o| o == 2));

        let unbudgeted = RunConfig { hard_cap, ..RunConfig::default() };
        let exec = run(&g, &[(); 3], &spec, &unbudgeted);
        assert!(!exec.completed, "an unbudgeted run still stops at the hard cap");
        assert_eq!(exec.rounds, hard_cap);
    }

    #[test]
    fn trace_records_every_round() {
        let g = path(5);
        let cfg = RunConfig::default().with_trace();
        let exec = run(&g, &[(); 5], &MaxIdSpec { radius: 3 }, &cfg);
        let trace = exec.trace.expect("trace requested");
        assert_eq!(trace.rounds.len(), 4); // rounds 0..=3
        assert!(trace.rounds[0].messages > 0);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let g = path(6);
        let a = run(&g, &[(); 6], &MaxIdSpec { radius: 2 }, &RunConfig::seeded(7));
        let b = run(&g, &[(); 6], &MaxIdSpec { radius: 2 }, &RunConfig::seeded(7));
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn empty_graph_executes_trivially() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let exec = run(&g, &Vec::<()>::new(), &EchoIdSpec, &RunConfig::default());
        assert!(exec.completed);
        assert_eq!(exec.rounds, 0);
        assert!(exec.outputs.is_empty());
    }

    #[test]
    fn sequence_composes_outputs() {
        // First algorithm outputs identities, second doubles its input.
        struct DoubleSpec;
        struct Double {
            value: u64,
        }
        impl NodeProgram for Double {
            type Msg = ();
            type Output = u64;
            fn round(&mut self, _ctx: &mut RoundCtx<'_, ()>) -> Action<u64> {
                Action::Halt(self.value * 2)
            }
        }
        impl ProgramSpec for DoubleSpec {
            type Input = u64;
            type Msg = ();
            type Output = u64;
            type Prog = Double;
            fn build(&self, init: &NodeInit<u64>) -> Double {
                Double { value: *init.input }
            }
            fn default_output(&self, _init: &NodeInit<u64>) -> u64 {
                0
            }
        }
        let g = path(3);
        let (e1, e2) = run_sequence(&g, &[(); 3], &EchoIdSpec, &DoubleSpec, &RunConfig::default());
        assert_eq!(e1.outputs, vec![0, 1, 2]);
        assert_eq!(e2.outputs, vec![0, 2, 4]);
        // Observation 2.1: composed running time bounded by the sum.
        assert!(e1.rounds + e2.rounds <= 1);
    }
}
