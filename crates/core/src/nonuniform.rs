//! Descriptors of non-uniform algorithms: the black-box interface consumed by the
//! transformers of Section 4.
//!
//! A [`NonUniformAlgorithm`] bundles exactly what the paper assumes about `A_Γ`:
//!
//! * the collection `Γ` of non-decreasing parameters it *requires* (guesses are supplied
//!   positionally),
//! * a factory that instantiates the algorithm for a concrete vector of guesses,
//! * a non-decreasing bound `f` on its running time as a function of the guesses, packaged as
//!   a [`TimeBound`] (which also carries the set-sequence construction of Section 4.2).
//!
//! Nothing else about the algorithm is visible to the transformers.
//!
//! [`NonUniformAlgorithm::weakly_dominated`] implements the parameter translation of
//! Theorem 3: when the correctness parameters `Γ` are only *weakly dominated* by the time
//! parameters `Λ` (each extra parameter `p ∈ Γ \ Λ` satisfies `g_p(p(G)) ≤ q_{h(p)}(G)` for an
//! ascending `g_p`), the descriptor is rewritten into one over `Λ` whose builder derives the
//! extra guesses via the monotone inverse `g_p⁻¹`.

use crate::funcs::{largest_arg_at_most, MonotoneFn, ARGUMENT_CAP};
use crate::problem::Problem;
use crate::seqnum::TimeBound;
use local_graphs::Parameter;
use local_runtime::DynAlgorithm;
use std::sync::Arc;

/// Factory type: instantiate the black box for a concrete vector of guesses for `Γ`.
pub type AlgorithmFactory<P> = Arc<
    dyn Fn(&[u64]) -> DynAlgorithm<<P as Problem>::Input, <P as Problem>::Output> + Send + Sync,
>;

/// How randomness of the black box is to be interpreted by the transformers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determinism {
    /// Deterministic: correct whenever the guesses are good (Theorem 1).
    Deterministic,
    /// Weak Monte-Carlo with some guarantee ρ ∈ (0, 1]: correct with probability at least ρ
    /// by its declared running time when the guesses are good (Theorem 2).
    WeakMonteCarlo,
}

/// A non-uniform algorithm `A_Γ`, as seen by the transformers.
#[derive(Clone)]
pub struct NonUniformAlgorithm<P: Problem> {
    /// Human-readable name, used in reports.
    pub name: String,
    /// The collection `Γ` of required parameters (order matters: guesses are positional).
    pub gamma: Vec<Parameter>,
    /// Instantiates the algorithm for a concrete guess vector (one entry per `gamma` item).
    pub build: AlgorithmFactory<P>,
    /// Non-decreasing bound on the running time, as a function of the guesses for `gamma`.
    pub time_bound: TimeBound,
    /// Deterministic or weak Monte-Carlo.
    pub determinism: Determinism,
}

impl<P: Problem> std::fmt::Debug for NonUniformAlgorithm<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NonUniformAlgorithm")
            .field("name", &self.name)
            .field("gamma", &self.gamma)
            .field("time_bound", &self.time_bound)
            .field("determinism", &self.determinism)
            .finish()
    }
}

/// One weak-domination relation of Theorem 3: the extra parameter `dominated` (a member of
/// `Γ \ Λ`) satisfies `relation(dominated(G)) ≤ Λ[dominating_index](G)` on every instance,
/// with `relation` ascending.
#[derive(Clone)]
pub struct Domination {
    /// The parameter in `Γ \ Λ` being eliminated.
    pub dominated: Parameter,
    /// Index into `Λ` of the parameter that dominates it.
    pub dominating_index: usize,
    /// The ascending function `g` with `g(p(G)) ≤ q(G)`.
    pub relation: MonotoneFn,
}

impl std::fmt::Debug for Domination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domination")
            .field("dominated", &self.dominated)
            .field("dominating_index", &self.dominating_index)
            .finish()
    }
}

impl<P: Problem> NonUniformAlgorithm<P> {
    /// Convenience constructor for a deterministic black box.
    pub fn deterministic(
        name: impl Into<String>,
        gamma: Vec<Parameter>,
        time_bound: TimeBound,
        build: AlgorithmFactory<P>,
    ) -> Self {
        NonUniformAlgorithm {
            name: name.into(),
            gamma,
            build,
            time_bound,
            determinism: Determinism::Deterministic,
        }
    }

    /// Convenience constructor for a weak Monte-Carlo black box.
    pub fn monte_carlo(
        name: impl Into<String>,
        gamma: Vec<Parameter>,
        time_bound: TimeBound,
        build: AlgorithmFactory<P>,
    ) -> Self {
        NonUniformAlgorithm {
            name: name.into(),
            gamma,
            build,
            time_bound,
            determinism: Determinism::WeakMonteCarlo,
        }
    }

    /// The running-time bound evaluated at the *correct* parameter values of a graph — the
    /// `f(Γ*)` against which the paper states the uniform algorithm's complexity.
    pub fn bound_at_correct_guesses(&self, graph: &local_runtime::Graph) -> f64 {
        let correct: Vec<u64> = self.gamma.iter().map(|p| p.eval(graph)).collect();
        self.time_bound.eval(&correct)
    }

    /// The Theorem 3 rewrite: produce an equivalent descriptor whose parameter collection is
    /// `lambda`, assuming the original `Γ` splits into parameters shared with `lambda`
    /// (matched by identity) and extra parameters each covered by a [`Domination`].
    ///
    /// The returned descriptor's `time_bound` must be the bound *with respect to `lambda`*,
    /// supplied by the caller (it is `f'` in the paper's proof, which coincides with `f` on
    /// the shared coordinates).
    ///
    /// # Panics
    ///
    /// Panics if some parameter of `Γ` is neither in `lambda` nor covered by a domination.
    pub fn weakly_dominated(
        &self,
        lambda: Vec<Parameter>,
        dominations: Vec<Domination>,
        time_bound_on_lambda: TimeBound,
    ) -> NonUniformAlgorithm<P> {
        // For each parameter of Γ, record how to derive its guess from a Λ guess vector.
        enum Source {
            Shared(usize),
            Dominated(usize, MonotoneFn),
        }
        let sources: Vec<Source> = self
            .gamma
            .iter()
            .map(|p| {
                if let Some(idx) = lambda.iter().position(|q| q == p) {
                    Source::Shared(idx)
                } else if let Some(dom) = dominations.iter().find(|d| &d.dominated == p) {
                    Source::Dominated(dom.dominating_index, dom.relation.clone())
                } else {
                    panic!("parameter {:?} of Γ is neither in Λ nor covered by a domination", p);
                }
            })
            .collect();
        let build = self.build.clone();
        let derived_build: AlgorithmFactory<P> = Arc::new(move |lambda_guesses: &[u64]| {
            let gamma_guesses: Vec<u64> = sources
                .iter()
                .map(|s| match s {
                    Source::Shared(idx) => lambda_guesses[*idx],
                    Source::Dominated(idx, g) => {
                        // Guess for the dominated parameter: the largest value whose image
                        // under g stays below the dominating guess (so a good Λ guess yields a
                        // good Γ guess, as in the proof of Theorem 3).
                        largest_arg_at_most(g, lambda_guesses[*idx] as f64, ARGUMENT_CAP)
                            .unwrap_or(1)
                    }
                })
                .collect();
            build(&gamma_guesses)
        });
        NonUniformAlgorithm {
            name: format!("{} [Γ→Λ]", self.name),
            gamma: lambda,
            build: derived_build,
            time_bound: time_bound_on_lambda,
            determinism: self.determinism,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcs::monotone;
    use crate::problem::MisProblem;
    use local_algos::mis::ColoringMis;
    use local_graphs::{gnp, GraphParams};
    use local_runtime::DynAlgorithm;

    fn coloring_mis_descriptor() -> NonUniformAlgorithm<MisProblem> {
        NonUniformAlgorithm::deterministic(
            "coloring-MIS",
            vec![Parameter::MaxDegree, Parameter::MaxId],
            TimeBound::additive(vec![
                monotone(|d| {
                    let algo = ColoringMis { delta_guess: d, id_bound_guess: 1 };
                    algo.round_bound() as f64
                }),
                monotone(|m| 2.0 * local_graphs::log_star(m as f64) as f64),
            ]),
            Arc::new(|guesses: &[u64]| {
                let algo = ColoringMis { delta_guess: guesses[0], id_bound_guess: guesses[1] };
                Box::new(algo) as DynAlgorithm<(), bool>
            }),
        )
    }

    #[test]
    fn descriptor_builds_and_runs() {
        let g = gnp(50, 0.1, 3);
        let p = GraphParams::of(&g);
        let descriptor = coloring_mis_descriptor();
        let algo = (descriptor.build)(&[p.max_degree, p.max_id]);
        let run = algo.execute(&g, &[(); 50], None, 0);
        assert!(run.completed);
        local_algos::checkers::check_mis(&g, &run.outputs).unwrap();
    }

    #[test]
    fn bound_at_correct_guesses_matches_manual_evaluation() {
        let g = gnp(40, 0.1, 1);
        let p = GraphParams::of(&g);
        let descriptor = coloring_mis_descriptor();
        let manual = descriptor.time_bound.eval(&[p.max_degree, p.max_id]);
        assert!((descriptor.bound_at_correct_guesses(&g) - manual).abs() < 1e-9);
    }

    #[test]
    fn weakly_dominated_rewrites_parameters() {
        // Pretend the algorithm needs {Δ, m} but we only want to guess n: Δ ≤ n − 1 ≤ n and
        // m... is not bounded by n in general, but for this test the graphs use identities
        // 0..n−1 so m ≤ n, witnessed by the identity relation.
        let descriptor = coloring_mis_descriptor();
        let derived = descriptor.weakly_dominated(
            vec![Parameter::N],
            vec![
                Domination {
                    dominated: Parameter::MaxDegree,
                    dominating_index: 0,
                    relation: monotone(|d| d as f64 + 1.0), // Δ + 1 ≤ n
                },
                Domination {
                    dominated: Parameter::MaxId,
                    dominating_index: 0,
                    relation: monotone(|m| m as f64 + 1.0), // m + 1 ≤ n for 0..n−1 identities
                },
            ],
            TimeBound::single(monotone(|n| n as f64 * n as f64)),
        );
        assert_eq!(derived.gamma, vec![Parameter::N]);
        // Building with a good n-guess must produce a correct algorithm.
        let g = gnp(40, 0.12, 5);
        let algo = (derived.build)(&[40]);
        let run = algo.execute(&g, &[(); 40], None, 0);
        assert!(run.completed);
        local_algos::checkers::check_mis(&g, &run.outputs).unwrap();
    }

    #[test]
    #[should_panic(expected = "neither in Λ nor covered")]
    fn weakly_dominated_panics_on_uncovered_parameter() {
        let descriptor = coloring_mis_descriptor();
        let _ = descriptor.weakly_dominated(
            vec![Parameter::N],
            vec![],
            TimeBound::single(monotone(|n| n as f64)),
        );
    }

    #[test]
    fn debug_output_mentions_name() {
        let descriptor = coloring_mis_descriptor();
        assert!(format!("{descriptor:?}").contains("coloring-MIS"));
    }
}
