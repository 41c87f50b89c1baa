//! The transformers of Section 4: from non-uniform to uniform algorithms.
//!
//! * [`UniformTransformer`] — Algorithm π of Theorem 1 (deterministic black boxes) and
//!   Algorithm τ of Theorem 2 (weak Monte-Carlo black boxes, producing a Las Vegas uniform
//!   algorithm). Which of the two drivers runs is selected by the black box's
//!   [`Determinism`] tag.
//! * [`FastestOfTransformer`] — Theorem 4: combine `k` uniform algorithms with unknown
//!   running times into one uniform algorithm whose running time matches the fastest.
//!
//! Both drivers are *alternating algorithms* (Section 3.3): they repeatedly run a budgeted
//! attempt followed by the pruning algorithm, freeze the outputs of pruned nodes, and recurse
//! on the induced subgraph of surviving nodes. Observation 3.4 guarantees that on termination
//! the combined output solves the original instance; the budget-doubling guess schedule
//! guarantees termination within `O(f*·s_f(f*))` rounds once the budget and guesses reach the
//! instance's true parameters.
//!
//! Round accounting is intentionally conservative: every executed sub-iteration is charged its
//! full allocated budget `c·2^i` plus the pruning time `T₀`, exactly as in the paper's
//! analysis (nodes cannot detect globally that an attempt finished early).

use crate::nonuniform::{Determinism, NonUniformAlgorithm};
use crate::problem::Problem;
use crate::pruning::PruningAlgorithm;
use local_runtime::{Graph, GraphAlgorithm, GraphView, Session};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// A record of one executed sub-iteration, for the Figure 1 style traces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SubIterationTrace {
    /// Outer iteration index `i` (budgets are `c·2^i`).
    pub iteration: u64,
    /// The guess vector used.
    pub guesses: Vec<u64>,
    /// The allocated budget for the attempt (excluding the pruning rounds).
    pub budget: u64,
    /// Number of nodes alive before the attempt.
    pub alive_before: usize,
    /// Number of nodes pruned by the pruning algorithm after the attempt.
    pub pruned: usize,
}

/// The outcome of running a uniform (transformed) algorithm.
#[derive(Debug, Clone)]
pub struct UniformRun<O> {
    /// Final outputs, one per node of the original graph.
    pub outputs: Vec<O>,
    /// Total rounds charged (attempt budgets + pruning invocations).
    pub rounds: u64,
    /// Total messages delivered by the black-box attempts (pruning messages are not
    /// simulated; its cost is charged in rounds).
    pub messages: u64,
    /// Number of outer iterations executed.
    pub iterations: u64,
    /// Number of sub-iterations (black-box attempts) executed.
    pub subiterations: u64,
    /// `true` when every node was pruned before the safety cap.
    pub solved: bool,
    /// Per-sub-iteration trace.
    pub trace: Vec<SubIterationTrace>,
    /// Wall-clock time spent inside black-box attempts, in microseconds (profiling aid;
    /// non-deterministic, excluded from reproducibility comparisons).
    pub attempt_micros: u64,
    /// Wall-clock time spent in pruning and configuration shrinking, in microseconds
    /// (profiling aid; non-deterministic).
    pub prune_micros: u64,
}

/// Shared bookkeeping of the alternating drivers: the current configuration (a live
/// [`GraphView`] that pruning shrinks in place — nothing is rebuilt between attempts), the
/// frozen outputs, the reusable execution [`Session`], and the round/trace accounting.
struct AlternationState<'g, 's, P: Problem> {
    view: GraphView<'g>,
    inputs: Vec<P::Input>,
    /// Mapping from the current live indices to the *initial* view's indices (the caller's
    /// output indexing).
    back: Vec<usize>,
    outputs: Vec<Option<P::Output>>,
    session: &'s mut Session,
    rounds: u64,
    messages: u64,
    subiterations: u64,
    record_trace: bool,
    trace: Vec<SubIterationTrace>,
    /// Reused survivor mask (allocated once, refilled per effective pruning).
    keep: Vec<bool>,
    attempt_micros: u64,
    prune_micros: u64,
}

impl<'g, 's, P: Problem> AlternationState<'g, 's, P> {
    fn new(
        view: GraphView<'g>,
        inputs: &[P::Input],
        session: &'s mut Session,
        record_trace: bool,
    ) -> Self {
        let n = view.node_count();
        assert_eq!(inputs.len(), n, "one input per (live) node is required");
        AlternationState {
            view,
            inputs: inputs.to_vec(),
            back: (0..n).collect(),
            outputs: vec![None; n],
            session,
            rounds: 0,
            messages: 0,
            subiterations: 0,
            record_trace,
            trace: Vec::new(),
            keep: Vec::new(),
            attempt_micros: 0,
            prune_micros: 0,
        }
    }

    fn alive(&self) -> usize {
        self.view.node_count()
    }

    /// Runs one sub-iteration: the black-box attempt followed by the pruning algorithm.
    ///
    /// On an unsuccessful attempt (nothing pruned) the configuration is untouched, the
    /// attempt's output vector goes back to the session pool, and — because the view's epoch
    /// is unchanged — the next attempt reuses every cached buffer: the steady state of the
    /// doubling cascade executes without allocating in the runtime.
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
        let attempt_started = Instant::now();
        let run = if self.view.is_empty() {
            local_runtime::AlgoRun::empty()
        } else {
            algorithm.execute_view(&self.view, &self.inputs, Some(budget), seed, self.session)
        };
        self.attempt_micros += attempt_started.elapsed().as_micros() as u64;
        // Charge the full allocated budget plus the pruning time, as in the paper's analysis.
        self.rounds += budget + pruning.rounds();
        self.messages += run.messages;
        self.subiterations += 1;

        let prune_started = Instant::now();
        let mut tentative = run.outputs;
        let pruned = pruning.normalize_and_prune(&self.view, &self.inputs, &mut tentative);
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
            self.session.recycle_outputs(tentative);
            self.prune_micros += prune_started.elapsed().as_micros() as u64;
            return;
        }
        // Freeze the outputs of pruned nodes.
        for (v, output) in tentative.iter().enumerate() {
            if pruned.pruned[v] {
                self.outputs[self.back[v]] = Some(output.clone());
            }
        }
        self.session.recycle_outputs(tentative);
        // Shrink the configuration to the survivors, rewriting inputs as the pruning dictates:
        // the view is filtered in place (cost proportional to the pruned nodes' adjacency, not
        // to the graph), no CSR copy happens.
        self.keep.clear();
        self.keep.extend(pruned.pruned.iter().map(|&p| !p));
        // Compact `inputs` and `back` in place: survivor `v` moves to write index `w ≤ v`,
        // so `back[v]` is read before anything overwrites it.
        let mut w = 0;
        for (v, input) in pruned.new_inputs.into_iter().enumerate() {
            if self.keep[v] {
                self.inputs[w] = input;
                self.back[w] = self.back[v];
                w += 1;
            }
        }
        self.inputs.truncate(w);
        self.back.truncate(w);
        self.view.retain(&self.keep);
        self.prune_micros += prune_started.elapsed().as_micros() as u64;
    }

    fn finish<O: Clone>(self, fallback: &O) -> UniformRun<O>
    where
        P: Problem<Output = O>,
    {
        let solved = self.view.is_empty();
        let outputs =
            self.outputs.into_iter().map(|o| o.unwrap_or_else(|| fallback.clone())).collect();
        UniformRun {
            outputs,
            rounds: self.rounds,
            messages: self.messages,
            iterations: 0, // filled by the caller
            subiterations: self.subiterations,
            solved,
            trace: self.trace,
            attempt_micros: self.attempt_micros,
            prune_micros: self.prune_micros,
        }
    }
}

/// The uniform algorithm produced by Theorem 1 (deterministic) / Theorem 2 (Las Vegas).
pub struct UniformTransformer<P: Problem, Pr: PruningAlgorithm<P>> {
    /// The non-uniform black box being transformed.
    pub algorithm: NonUniformAlgorithm<P>,
    /// The Γ-monotone pruning algorithm.
    pub pruning: Arc<Pr>,
    /// Output used for nodes never pruned when the safety cap is reached (never used on
    /// successful runs).
    pub fallback_output: P::Output,
    /// Safety cap on the number of outer iterations (the uniform algorithm itself has no such
    /// cap; this only guards the simulation against mis-specified time bounds).
    pub max_iterations: u64,
    /// Whether to record the per-sub-iteration [`SubIterationTrace`]s (on by default).
    /// Recording allocates per attempt; throughput-sensitive callers (benchmarks, large
    /// sweeps that never read traces) can switch it off with
    /// [`UniformTransformer::without_trace`].
    pub record_trace: bool,
}

impl<P: Problem, Pr: PruningAlgorithm<P>> UniformTransformer<P, Pr> {
    /// Creates the transformer with a default iteration cap of 40 (budgets up to `c·2^40`).
    pub fn new(algorithm: NonUniformAlgorithm<P>, pruning: Pr, fallback_output: P::Output) -> Self {
        UniformTransformer {
            algorithm,
            pruning: Arc::new(pruning),
            fallback_output,
            max_iterations: 40,
            record_trace: true,
        }
    }

    /// Disables sub-iteration trace recording (the returned runs carry an empty trace).
    pub fn without_trace(mut self) -> Self {
        self.record_trace = false;
        self
    }

    /// Runs the uniform algorithm on `(G, x)` with a throwaway [`Session`].
    ///
    /// Dispatches on the black box's [`Determinism`]: Algorithm π (Theorem 1) for
    /// deterministic black boxes, Algorithm τ (Theorem 2) for weak Monte-Carlo ones.
    pub fn solve(&self, graph: &Graph, inputs: &[P::Input], seed: u64) -> UniformRun<P::Output> {
        self.solve_in(graph, inputs, seed, &mut Session::new())
    }

    /// Like [`UniformTransformer::solve`], but reuses the caller's [`Session`] buffers —
    /// the entry point for schedulers that run many solves back to back.
    pub fn solve_in(
        &self,
        graph: &Graph,
        inputs: &[P::Input],
        seed: u64,
        session: &mut Session,
    ) -> UniformRun<P::Output> {
        self.solve_view(GraphView::full(graph), inputs, seed, session)
    }

    /// Runs the uniform algorithm on an arbitrary live view (used by the Theorem 5 layering,
    /// which hands each degree layer over as a view of the base graph). Outputs are indexed by
    /// the view's initial live indices. The session's buffers carry across every attempt.
    pub fn solve_view(
        &self,
        view: GraphView<'_>,
        inputs: &[P::Input],
        seed: u64,
        session: &mut Session,
    ) -> UniformRun<P::Output> {
        match self.algorithm.determinism {
            Determinism::Deterministic => self.solve_deterministic(view, inputs, seed, session),
            Determinism::WeakMonteCarlo => self.solve_las_vegas(view, inputs, seed, session),
        }
    }

    /// Algorithm π (the proof of Theorem 1): iteration `i` runs one attempt per guess vector
    /// of `S_f(2^i)`, each restricted to `c·2^i` rounds and followed by the pruning algorithm.
    fn solve_deterministic(
        &self,
        view: GraphView<'_>,
        inputs: &[P::Input],
        seed: u64,
        session: &mut Session,
    ) -> UniformRun<P::Output> {
        let mut state = AlternationState::<P>::new(view, inputs, session, self.record_trace);
        let c = self.algorithm.time_bound.bounding_constant();
        let mut iterations = 0;
        for i in 1..=self.max_iterations {
            if state.alive() == 0 {
                break;
            }
            iterations = i;
            let budget = c.saturating_mul(1u64 << i.min(62));
            for (j, guesses) in self.algorithm.time_bound.set_sequence_pow2(i).iter().enumerate() {
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

    /// Algorithm τ (the proof of Theorem 2): outer iteration `i` replays the first `i`
    /// iterations of Algorithm π on the current configuration, giving the Monte-Carlo black
    /// box geometrically many fresh chances at every budget level.
    fn solve_las_vegas(
        &self,
        view: GraphView<'_>,
        inputs: &[P::Input],
        seed: u64,
        session: &mut Session,
    ) -> UniformRun<P::Output> {
        let mut state = AlternationState::<P>::new(view, inputs, session, self.record_trace);
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
                    self.algorithm.time_bound.set_sequence_pow2(j).iter().enumerate()
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

/// A uniform component for the Theorem 4 combinator: a uniform algorithm (it ignores guesses)
/// with an unknown running time.
pub struct UniformComponent<P: Problem> {
    /// Name used in reports.
    pub name: String,
    /// The uniform algorithm itself.
    pub algorithm: Arc<dyn GraphAlgorithm<Input = P::Input, Output = P::Output> + Send + Sync>,
}

impl<P: Problem> Clone for UniformComponent<P> {
    fn clone(&self) -> Self {
        UniformComponent { name: self.name.clone(), algorithm: self.algorithm.clone() }
    }
}

/// Theorem 4: given `k` uniform algorithms whose running times depend on different (unknown)
/// parameters, produce a uniform algorithm that runs as fast as the fastest of them (up to a
/// constant factor), by interleaving budget-doubled attempts of each component with pruning.
pub struct FastestOfTransformer<P: Problem, Pr: PruningAlgorithm<P>> {
    /// The component algorithms `U_1, …, U_k`.
    pub components: Vec<UniformComponent<P>>,
    /// The pruning algorithm (monotone with respect to every parameter involved).
    pub pruning: Arc<Pr>,
    /// Output for never-pruned nodes at the safety cap.
    pub fallback_output: P::Output,
    /// Safety cap on the number of doubling iterations.
    pub max_iterations: u64,
    /// Whether to record per-sub-iteration traces (see
    /// [`UniformTransformer::record_trace`]).
    pub record_trace: bool,
}

impl<P: Problem, Pr: PruningAlgorithm<P>> FastestOfTransformer<P, Pr> {
    /// Creates the combinator with a default iteration cap of 40.
    pub fn new(
        components: Vec<UniformComponent<P>>,
        pruning: Pr,
        fallback_output: P::Output,
    ) -> Self {
        FastestOfTransformer {
            components,
            pruning: Arc::new(pruning),
            fallback_output,
            max_iterations: 40,
            record_trace: true,
        }
    }

    /// Disables sub-iteration trace recording (the returned runs carry an empty trace).
    pub fn without_trace(mut self) -> Self {
        self.record_trace = false;
        self
    }

    /// Runs the combined uniform algorithm with a throwaway [`Session`].
    pub fn solve(&self, graph: &Graph, inputs: &[P::Input], seed: u64) -> UniformRun<P::Output> {
        self.solve_in(graph, inputs, seed, &mut Session::new())
    }

    /// Like [`FastestOfTransformer::solve`], but reuses the caller's [`Session`].
    pub fn solve_in(
        &self,
        graph: &Graph,
        inputs: &[P::Input],
        seed: u64,
        session: &mut Session,
    ) -> UniformRun<P::Output> {
        self.solve_view(GraphView::full(graph), inputs, seed, session)
    }

    /// Runs the combined uniform algorithm on a live view.
    pub fn solve_view(
        &self,
        view: GraphView<'_>,
        inputs: &[P::Input],
        seed: u64,
        session: &mut Session,
    ) -> UniformRun<P::Output> {
        let mut state = AlternationState::<P>::new(view, inputs, session, self.record_trace);
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
    use super::*;
    use crate::funcs::monotone;
    use crate::nonuniform::NonUniformAlgorithm;
    use crate::problem::{MatchingProblem, MisProblem, RulingSetProblem};
    use crate::pruning::{MatchingPruning, RulingSetPruning};
    use crate::seqnum::TimeBound;
    use local_algos::matching::MatchingFromEdgeColoring;
    use local_algos::mis::{ColoringMis, GreedyMis, LubyMis};
    use local_algos::ruling::MisRulingSet;
    use local_algos::synthetic::SyntheticMis;
    use local_graphs::{cycle, forest_union, gnp, grid, path, Family, GraphParams, Parameter};
    use local_runtime::DynAlgorithm;
    use std::sync::Arc;

    fn units(n: usize) -> Vec<()> {
        vec![(); n]
    }

    /// The ColoringMis black box with a *sound* additive bound (Bertrand gives the palette
    /// bound (2(Δ̃+1))², the rest is bookkeeping).
    fn coloring_mis_black_box() -> NonUniformAlgorithm<MisProblem> {
        NonUniformAlgorithm::deterministic(
            "coloring-MIS",
            vec![Parameter::MaxDegree, Parameter::MaxId],
            TimeBound::additive(vec![
                monotone(|d| {
                    let d = d as f64;
                    4.0 * (d + 2.0) * (d + 2.0) + d + 6.0
                }),
                monotone(|m| local_graphs::log_star(m as f64) as f64 + 6.0),
            ]),
            Arc::new(|g: &[u64]| {
                Box::new(ColoringMis { delta_guess: g[0], id_bound_guess: g[1] })
                    as DynAlgorithm<(), bool>
            }),
        )
    }

    fn synthetic_ps_black_box() -> NonUniformAlgorithm<MisProblem> {
        NonUniformAlgorithm::deterministic(
            "synthetic-PS",
            vec![Parameter::N],
            TimeBound::single(monotone(|n| {
                (2f64).powf(1.5 * (n.max(2) as f64).log2().sqrt()).ceil()
            })),
            Arc::new(|g: &[u64]| {
                Box::new(SyntheticMis::panconesi_srinivasan(g[0], 1.5)) as DynAlgorithm<(), bool>
            }),
        )
    }

    #[test]
    fn theorem1_uniform_mis_from_coloring_black_box() {
        let transformer =
            UniformTransformer::new(coloring_mis_black_box(), RulingSetPruning::mis(), false);
        for (i, g) in [path(30), cycle(25), grid(6, 6), gnp(70, 0.08, 3), forest_union(60, 2, 1)]
            .iter()
            .enumerate()
        {
            let run = transformer.solve(g, &units(g.node_count()), i as u64);
            assert!(run.solved, "graph {i} not solved");
            MisProblem.validate(g, &units(g.node_count()), &run.outputs).unwrap();
            assert!(run.iterations >= 1);
            assert!(run.subiterations >= 1);
            assert!(!run.trace.is_empty());
        }
    }

    #[test]
    fn theorem1_round_overhead_is_a_constant_factor() {
        // The headline claim: the uniform algorithm's rounds are within a constant factor of
        // f(Γ*) (the non-uniform bound at the correct guesses).
        let black_box = coloring_mis_black_box();
        let transformer =
            UniformTransformer::new(black_box.clone(), RulingSetPruning::mis(), false);
        for n in [64usize, 128, 256] {
            let g = Family::SparseGnp.generate(n, 7);
            let run = transformer.solve(&g, &units(g.node_count()), 0);
            assert!(run.solved);
            let f_star = black_box.bound_at_correct_guesses(&g);
            // O(f*·s_f(f*)) with s_f = 1: allow a generous constant (the doubling schedule
            // pays at most 4× on the last iteration plus the geometric lower tail).
            assert!(
                (run.rounds as f64) <= 16.0 * f_star + 200.0,
                "n={n}: uniform rounds {} vastly exceed f* = {}",
                run.rounds,
                f_star
            );
        }
    }

    #[test]
    fn theorem1_with_synthetic_ps_bound() {
        let transformer =
            UniformTransformer::new(synthetic_ps_black_box(), RulingSetPruning::mis(), false);
        let g = gnp(120, 0.05, 9);
        let run = transformer.solve(&g, &units(120), 0);
        assert!(run.solved);
        MisProblem.validate(&g, &units(120), &run.outputs).unwrap();
    }

    #[test]
    fn theorem1_trace_shows_doubling_budgets() {
        let transformer =
            UniformTransformer::new(coloring_mis_black_box(), RulingSetPruning::mis(), false);
        let g = gnp(60, 0.1, 2);
        let run = transformer.solve(&g, &units(60), 0);
        let budgets: Vec<u64> = run.trace.iter().map(|t| t.budget).collect();
        assert!(budgets.windows(2).all(|w| w[1] >= w[0]), "budgets must be non-decreasing");
        assert!(budgets.last().unwrap() >= &budgets[0]);
        // Once solved, the last sub-iteration prunes every remaining node.
        let last = run.trace.last().unwrap();
        assert_eq!(last.pruned, last.alive_before);
    }

    #[test]
    fn theorem1_uniform_matching() {
        let black_box: NonUniformAlgorithm<MatchingProblem> = NonUniformAlgorithm::deterministic(
            "edge-coloring-MM",
            vec![Parameter::MaxDegree, Parameter::MaxId],
            TimeBound::additive(vec![
                monotone(|d| {
                    let d = d as f64;
                    4.0 * (2.0 * d + 2.0) * (2.0 * d + 2.0) + 2.0 * d + 8.0
                }),
                monotone(|m| local_graphs::log_star((m as f64) * 1_000_004.0) as f64 + 6.0),
            ]),
            Arc::new(|g: &[u64]| {
                Box::new(MatchingFromEdgeColoring { delta_guess: g[0], id_bound_guess: g[1] })
                    as DynAlgorithm<(), Option<u64>>
            }),
        );
        let transformer = UniformTransformer::new(black_box, MatchingPruning, None);
        for g in [path(20), grid(5, 5), gnp(50, 0.1, 4)] {
            let run = transformer.solve(&g, &units(g.node_count()), 1);
            assert!(run.solved);
            MatchingProblem.validate(&g, &units(g.node_count()), &run.outputs).unwrap();
        }
    }

    #[test]
    fn theorem2_las_vegas_ruling_set() {
        // Weak Monte-Carlo black box: budgeted Luby with an O(log ñ) declared bound.
        let black_box: NonUniformAlgorithm<RulingSetProblem> = NonUniformAlgorithm::monte_carlo(
            "budgeted-Luby",
            vec![Parameter::N],
            TimeBound::single(monotone(|n| 16.0 * (n.max(2) as f64).log2() + 2.0)),
            Arc::new(|g: &[u64]| {
                Box::new(MisRulingSet::with_default_budget(g[0])) as DynAlgorithm<(), bool>
            }),
        );
        let beta = 2;
        let transformer = UniformTransformer::new(black_box, RulingSetPruning { beta }, false);
        for seed in 0..3u64 {
            let g = gnp(80, 0.07, seed);
            let run = transformer.solve(&g, &units(80), seed);
            assert!(run.solved, "Las Vegas run must terminate");
            RulingSetProblem::two(beta).validate(&g, &units(80), &run.outputs).unwrap();
        }
    }

    #[test]
    fn theorem2_las_vegas_with_flaky_synthetic_black_box() {
        // A Monte-Carlo black box that fails half of the time: the Las Vegas driver must still
        // always terminate with a correct answer.
        let black_box: NonUniformAlgorithm<MisProblem> = NonUniformAlgorithm::monte_carlo(
            "flaky-synthetic",
            vec![Parameter::N],
            TimeBound::single(monotone(|n| 4.0 * (n.max(2) as f64).log2())),
            Arc::new(|g: &[u64]| {
                Box::new(SyntheticMis::monte_carlo_log(g[0], 4, 0.5)) as DynAlgorithm<(), bool>
            }),
        );
        let transformer = UniformTransformer::new(black_box, RulingSetPruning::mis(), false);
        for seed in 0..5u64 {
            let g = gnp(60, 0.1, seed);
            let run = transformer.solve(&g, &units(60), seed);
            assert!(run.solved);
            MisProblem.validate(&g, &units(60), &run.outputs).unwrap();
        }
    }

    #[test]
    fn theorem4_fastest_of_runs_as_fast_as_best_component() {
        // Component 1: Luby (fast everywhere). Component 2: greedy by identity (slow on paths
        // with adversarial identities, fine on small-diameter graphs).
        let components = vec![
            UniformComponent::<MisProblem> { name: "luby".into(), algorithm: Arc::new(LubyMis) },
            UniformComponent::<MisProblem> {
                name: "greedy".into(),
                algorithm: Arc::new(GreedyMis),
            },
        ];
        let combiner = FastestOfTransformer::new(components, RulingSetPruning::mis(), false);
        for (i, g) in [path(200), gnp(100, 0.08, 1), grid(8, 8)].iter().enumerate() {
            let run = combiner.solve(g, &units(g.node_count()), i as u64);
            assert!(run.solved);
            MisProblem.validate(g, &units(g.node_count()), &run.outputs).unwrap();
            // The fastest component on these instances needs well under 100 rounds, so the
            // combinator (doubling overhead included) stays well under 1000.
            assert!(run.rounds < 1000, "combinator too slow: {} rounds", run.rounds);
        }
    }

    #[test]
    fn theorem4_matches_min_not_max() {
        // A deliberately slow component must not drag the combinator down: its budgeted
        // attempts are cut off and pruned away once the fast component solves the instance.
        struct NeverHalts;
        impl local_runtime::GraphAlgorithm for NeverHalts {
            type Input = ();
            type Output = bool;
            fn execute_view(
                &self,
                view: &local_runtime::GraphView<'_>,
                _inputs: &[()],
                budget: Option<u64>,
                _seed: u64,
                _session: &mut local_runtime::Session,
            ) -> local_runtime::AlgoRun<bool> {
                local_runtime::AlgoRun {
                    outputs: vec![false; view.node_count()],
                    rounds: budget.unwrap_or(1_000_000),
                    messages: 0,
                    completed: false,
                }
            }
        }
        let components = vec![
            UniformComponent::<MisProblem> {
                name: "never-halts".into(),
                algorithm: Arc::new(NeverHalts),
            },
            UniformComponent::<MisProblem> { name: "luby".into(), algorithm: Arc::new(LubyMis) },
        ];
        let combiner = FastestOfTransformer::new(components, RulingSetPruning::mis(), false);
        let g = gnp(80, 0.1, 3);
        let run = combiner.solve(&g, &units(80), 0);
        assert!(run.solved);
        MisProblem.validate(&g, &units(80), &run.outputs).unwrap();
        assert!(run.rounds < 2000);
    }

    #[test]
    fn transformer_on_empty_and_trivial_graphs() {
        let transformer =
            UniformTransformer::new(coloring_mis_black_box(), RulingSetPruning::mis(), false);
        let empty = Graph::from_edges(0, &[]).unwrap();
        let run = transformer.solve(&empty, &[], 0);
        assert!(run.solved);
        assert!(run.outputs.is_empty());
        assert_eq!(run.rounds, 0);

        let single = Graph::from_edges(1, &[]).unwrap();
        let run = transformer.solve(&single, &units(1), 0);
        assert!(run.solved);
        assert_eq!(run.outputs, vec![true]);
    }

    #[test]
    fn transformer_is_reproducible() {
        let transformer =
            UniformTransformer::new(coloring_mis_black_box(), RulingSetPruning::mis(), false);
        let g = gnp(70, 0.1, 5);
        let a = transformer.solve(&g, &units(70), 11);
        let b = transformer.solve(&g, &units(70), 11);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn pruning_monotonicity_preserved_along_the_run() {
        // Observation 3.1 / the Γ-monotonicity used by Theorem 1: parameters never increase
        // from one configuration to the next. We verify it on the recorded trace by checking
        // alive-node counts are non-increasing (n is one of the monotone parameters).
        let transformer =
            UniformTransformer::new(coloring_mis_black_box(), RulingSetPruning::mis(), false);
        let g = gnp(90, 0.06, 8);
        let run = transformer.solve(&g, &units(90), 0);
        let alive: Vec<usize> = run.trace.iter().map(|t| t.alive_before).collect();
        assert!(alive.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn theorem1_scaling_against_nonuniform_baseline() {
        // Figure-style check: the ratio uniform / non-uniform stays bounded as n grows.
        let black_box = coloring_mis_black_box();
        let transformer =
            UniformTransformer::new(black_box.clone(), RulingSetPruning::mis(), false);
        let mut ratios = Vec::new();
        for n in [64usize, 256] {
            let g = Family::Regular6.generate(n, 3);
            let p = GraphParams::of(&g);
            let non_uniform = (black_box.build)(&[p.max_degree, p.max_id]);
            let nu_run = non_uniform.execute(&g, &units(g.node_count()), None, 0);
            assert!(nu_run.completed);
            let run = transformer.solve(&g, &units(g.node_count()), 0);
            assert!(run.solved);
            ratios.push(run.rounds as f64 / nu_run.rounds.max(1) as f64);
        }
        // The two ratios are within a small factor of each other (no asymptotic blow-up).
        let (a, b) = (ratios[0], ratios[1]);
        assert!(b <= 8.0 * a + 8.0, "overhead ratio grew from {a} to {b}");
    }
}
