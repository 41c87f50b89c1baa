//! Reference alternation drivers that rebuild the configuration after every pruning step.
//!
//! This is the pre-session execution strategy: every sub-iteration materializes the surviving
//! subgraph with [`Graph::induced_subgraph`] and runs the black box through a fresh
//! [`GraphAlgorithm::execute`] call. It is kept — verbatim in behaviour — as the
//! **equivalence oracle**: the zero-rebuild path of [`crate::transform`] (live
//! [`GraphView`] + reusable session) promises byte-identical [`UniformRun`]s, and the
//! property tests drive both paths over scenario grids and compare outputs, rounds,
//! messages, and traces field by field.
//!
//! The timing fields of the returned [`UniformRun`]s are left at zero — this path exists to
//! be compared against, not profiled.

use crate::nonuniform::Determinism;
use crate::problem::Problem;
use crate::pruning::PruningAlgorithm;
use crate::transform::{FastestOfTransformer, SubIterationTrace, UniformRun, UniformTransformer};
use local_runtime::{Graph, GraphAlgorithm, GraphView};

/// The rebuild-per-prune twin of `AlternationState`.
struct RebuildState<P: Problem> {
    graph: Graph,
    inputs: Vec<P::Input>,
    back: Vec<usize>,
    outputs: Vec<Option<P::Output>>,
    rounds: u64,
    messages: u64,
    subiterations: u64,
    record_trace: bool,
    trace: Vec<SubIterationTrace>,
}

impl<P: Problem> RebuildState<P> {
    fn new(graph: &Graph, inputs: &[P::Input], record_trace: bool) -> Self {
        RebuildState {
            graph: graph.clone(),
            inputs: inputs.to_vec(),
            back: (0..graph.node_count()).collect(),
            outputs: vec![None; graph.node_count()],
            rounds: 0,
            messages: 0,
            subiterations: 0,
            record_trace,
            trace: Vec::new(),
        }
    }

    fn alive(&self) -> usize {
        self.graph.node_count()
    }

    fn attempt<Pr: PruningAlgorithm<P> + ?Sized>(
        &mut self,
        iteration: u64,
        algorithm: &dyn GraphAlgorithm<Input = P::Input, Output = P::Output>,
        guesses: &[u64],
        budget: u64,
        pruning: &Pr,
        seed: u64,
    ) {
        let alive_before = self.alive();
        let run =
            self.graph.is_empty().then(local_runtime::AlgoRun::empty).unwrap_or_else(|| {
                algorithm.execute(&self.graph, &self.inputs, Some(budget), seed)
            });
        self.rounds += budget + pruning.rounds();
        self.messages += run.messages;
        self.subiterations += 1;

        let full = GraphView::full(&self.graph);
        let mut tentative = run.outputs;
        let pruned = pruning.normalize_and_prune(&full, &self.inputs, &mut tentative);
        drop(full);
        let pruned_count = pruned.pruned_count();
        if self.record_trace {
            self.trace.push(SubIterationTrace {
                iteration,
                guesses: guesses.to_vec(),
                budget,
                alive_before,
                pruned: pruned_count,
            });
        }
        if pruned_count == 0 {
            return;
        }
        for (v, output) in tentative.iter().enumerate() {
            if pruned.pruned[v] {
                self.outputs[self.back[v]] = Some(output.clone());
            }
        }
        let keep: Vec<bool> = pruned.pruned.iter().map(|&p| !p).collect();
        let (sub, sub_back) = self.graph.induced_subgraph(&keep);
        self.inputs = sub_back.iter().map(|&old| pruned.new_inputs[old].clone()).collect();
        self.back = sub_back.iter().map(|&old| self.back[old]).collect();
        self.graph = sub;
    }

    fn finish<O: Clone>(self, fallback: &O) -> UniformRun<O>
    where
        P: Problem<Output = O>,
    {
        let solved = self.graph.is_empty();
        let outputs =
            self.outputs.into_iter().map(|o| o.unwrap_or_else(|| fallback.clone())).collect();
        UniformRun {
            outputs,
            rounds: self.rounds,
            messages: self.messages,
            iterations: 0,
            subiterations: self.subiterations,
            solved,
            trace: self.trace,
            attempt_micros: 0,
            prune_micros: 0,
        }
    }
}

impl<P: Problem, Pr: PruningAlgorithm<P>> UniformTransformer<P, Pr> {
    /// Runs the uniform algorithm through the rebuild-per-prune reference path.
    ///
    /// Semantically identical to [`UniformTransformer::solve`] — outputs, rounds, messages,
    /// iteration counts, and traces agree for every seed — but pays an `O(n + m)` subgraph
    /// copy per pruning step and a full runtime re-allocation per attempt.
    pub fn solve_rebuild(
        &self,
        graph: &Graph,
        inputs: &[P::Input],
        seed: u64,
    ) -> UniformRun<P::Output> {
        match self.algorithm.determinism {
            Determinism::Deterministic => self.solve_deterministic_rebuild(graph, inputs, seed),
            Determinism::WeakMonteCarlo => self.solve_las_vegas_rebuild(graph, inputs, seed),
        }
    }

    fn solve_deterministic_rebuild(
        &self,
        graph: &Graph,
        inputs: &[P::Input],
        seed: u64,
    ) -> UniformRun<P::Output> {
        let mut state = RebuildState::<P>::new(graph, inputs, self.record_trace);
        let c = self.algorithm.time_bound.bounding_constant();
        let mut iterations = 0;
        for i in 1..=self.max_iterations {
            if state.alive() == 0 {
                break;
            }
            iterations = i;
            let budget = c.saturating_mul(1u64 << i.min(62));
            for (j, guesses) in
                self.algorithm.time_bound.set_sequence(1u64 << i.min(62)).iter().enumerate()
            {
                if state.alive() == 0 {
                    break;
                }
                let algo = (self.algorithm.build)(guesses);
                state.attempt(
                    i,
                    algo.as_ref(),
                    guesses,
                    budget,
                    self.pruning.as_ref(),
                    seed ^ (i << 32) ^ j as u64,
                );
            }
        }
        let mut run = state.finish(&self.fallback_output);
        run.iterations = iterations;
        run
    }

    fn solve_las_vegas_rebuild(
        &self,
        graph: &Graph,
        inputs: &[P::Input],
        seed: u64,
    ) -> UniformRun<P::Output> {
        let mut state = RebuildState::<P>::new(graph, inputs, self.record_trace);
        let c = self.algorithm.time_bound.bounding_constant();
        let mut iterations = 0;
        'outer: for i in 1..=self.max_iterations {
            if state.alive() == 0 {
                break;
            }
            iterations = i;
            for j in 1..=i {
                if state.alive() == 0 {
                    break 'outer;
                }
                let budget = c.saturating_mul(1u64 << j.min(62));
                for (k, guesses) in
                    self.algorithm.time_bound.set_sequence(1u64 << j.min(62)).iter().enumerate()
                {
                    if state.alive() == 0 {
                        break 'outer;
                    }
                    let algo = (self.algorithm.build)(guesses);
                    state.attempt(
                        j,
                        algo.as_ref(),
                        guesses,
                        budget,
                        self.pruning.as_ref(),
                        seed ^ (i << 40) ^ (j << 20) ^ k as u64,
                    );
                }
            }
        }
        let mut run = state.finish(&self.fallback_output);
        run.iterations = iterations;
        run
    }
}

impl<P: Problem, Pr: PruningAlgorithm<P>> FastestOfTransformer<P, Pr> {
    /// Runs the Theorem 4 combinator through the rebuild-per-prune reference path
    /// (see [`UniformTransformer::solve_rebuild`]).
    pub fn solve_rebuild(
        &self,
        graph: &Graph,
        inputs: &[P::Input],
        seed: u64,
    ) -> UniformRun<P::Output> {
        let mut state = RebuildState::<P>::new(graph, inputs, self.record_trace);
        let mut iterations = 0;
        for i in 1..=self.max_iterations {
            if state.alive() == 0 {
                break;
            }
            iterations = i;
            let budget = 1u64 << i.min(62);
            for (k, component) in self.components.iter().enumerate() {
                if state.alive() == 0 {
                    break;
                }
                state.attempt(
                    i,
                    component.algorithm.as_ref(),
                    &[],
                    budget,
                    self.pruning.as_ref(),
                    seed ^ (i << 32) ^ k as u64,
                );
            }
        }
        let mut run = state.finish(&self.fallback_output);
        run.iterations = iterations;
        run
    }
}

#[cfg(test)]
mod tests {
    use crate::catalog;
    use crate::problem::Problem;
    use local_graphs::{gnp, grid, path};

    fn units(n: usize) -> Vec<()> {
        vec![(); n]
    }

    #[test]
    fn rebuild_path_matches_view_path_exactly() {
        let transformer = catalog::uniform_coloring_mis();
        for (i, g) in [path(40), grid(6, 6), gnp(80, 0.08, 4)].iter().enumerate() {
            let n = g.node_count();
            let fast = transformer.solve(g, &units(n), i as u64);
            let reference = transformer.solve_rebuild(g, &units(n), i as u64);
            assert_eq!(fast.outputs, reference.outputs, "graph {i}: outputs diverge");
            assert_eq!(fast.rounds, reference.rounds, "graph {i}: rounds diverge");
            assert_eq!(fast.messages, reference.messages, "graph {i}: messages diverge");
            assert_eq!(fast.iterations, reference.iterations);
            assert_eq!(fast.subiterations, reference.subiterations);
            assert_eq!(fast.solved, reference.solved);
            assert_eq!(fast.trace, reference.trace, "graph {i}: traces diverge");
            crate::problem::MisProblem.validate(g, &units(n), &fast.outputs).unwrap();
        }
    }

    #[test]
    fn rebuild_matches_view_for_materializing_black_box() {
        // ArboricityMis runs its per-layer phase on retained copies of the live view, where the
        // rebuild path runs it on a full view of each induced subgraph. Results must still be
        // byte-identical.
        let transformer = catalog::uniform_arboricity_mis();
        let g = local_graphs::forest_union(90, 3, 5);
        let n = g.node_count();
        let fast = transformer.solve(&g, &units(n), 2);
        let reference = transformer.solve_rebuild(&g, &units(n), 2);
        assert_eq!(fast.outputs, reference.outputs);
        assert_eq!(fast.rounds, reference.rounds);
        assert_eq!(fast.messages, reference.messages);
        assert_eq!(fast.trace, reference.trace);
        crate::problem::MisProblem.validate(&g, &units(n), &fast.outputs).unwrap();
    }

    #[test]
    fn rebuild_matches_view_for_las_vegas_driver() {
        let transformer = catalog::uniform_ruling_set(2);
        for seed in 0..3u64 {
            let g = gnp(60, 0.08, seed);
            let fast = transformer.solve(&g, &units(60), seed);
            let reference = transformer.solve_rebuild(&g, &units(60), seed);
            assert_eq!(fast.outputs, reference.outputs);
            assert_eq!(fast.rounds, reference.rounds);
            assert_eq!(fast.messages, reference.messages);
            assert_eq!(fast.trace, reference.trace);
        }
    }

    #[test]
    fn rebuild_matches_view_for_fastest_of_combinator() {
        let combiner = catalog::corollary1_mis();
        let g = gnp(70, 0.1, 2);
        let fast = combiner.solve(&g, &units(70), 0);
        let reference = combiner.solve_rebuild(&g, &units(70), 0);
        assert_eq!(fast.outputs, reference.outputs);
        assert_eq!(fast.rounds, reference.rounds);
        assert_eq!(fast.messages, reference.messages);
        assert_eq!(fast.trace, reference.trace);
    }
}
