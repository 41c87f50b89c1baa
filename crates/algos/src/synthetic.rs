//! Synthetic timed black boxes.
//!
//! The paper's transformers treat the non-uniform algorithm as a black box characterised only
//! by (i) which parameters it needs, (ii) a non-decreasing bound `f` on its running time as a
//! function of the *guesses*, and (iii) correctness whenever the guesses are good. A synthetic
//! black box reproduces exactly that interface for an arbitrary time function `f` — e.g. the
//! `2^{O(√log n)}` of Panconesi–Srinivasan, the `O(log⁴ n)` of Hańćkowiak et al., or the
//! `O(2^c · log^{1/c} n)` of Schneider–Wattenhofer — without implementing those algorithms:
//!
//! * it *charges* `f(guesses)` rounds (capped at the budget),
//! * if every guess is at least the true parameter value of the executed (sub)graph, it emits
//!   a correct solution (computed centrally),
//! * otherwise it emits garbage, exactly like a real non-uniform algorithm run with bad
//!   guesses is allowed to.
//!
//! This is a **simulated** dependency (documented in DESIGN.md): it exercises the
//! transformers' guess schedules, iteration counts, and round accounting for the paper's exact
//! time functions, which is what Table 1 rows (ii), (viii) and (ix) need.

use crate::mis::central_greedy_mis_view;
use local_graphs::Parameter;
use local_runtime::{AlgoRun, Graph, GraphAlgorithm, GraphView, NodeId, Session};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A running-time bound: maps the vector of guesses to a number of rounds.
pub type TimeFunction = Arc<dyn Fn(&[u64]) -> u64 + Send + Sync>;

/// Which problem a synthetic black box solves (determines how the reference solution is
/// computed and what "garbage" looks like).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticProblem {
    /// Maximal independent set (output `bool`).
    Mis,
    /// Maximal matching (output `Option<NodeId>`), derived greedily from identities.
    MaximalMatching,
}

/// A synthetic non-uniform black box for MIS.
#[derive(Clone)]
pub struct SyntheticMis {
    /// The parameters the algorithm "requires" (in order; guesses are matched positionally).
    pub parameters: Vec<Parameter>,
    /// The guesses the algorithm was instantiated with.
    pub guesses: Vec<u64>,
    /// Declared running-time bound as a function of the guesses.
    pub time: TimeFunction,
    /// Probability that the algorithm succeeds even though it is given good guesses; `1.0`
    /// models a deterministic algorithm, `ρ < 1` models a weak Monte-Carlo algorithm with
    /// guarantee `ρ`.
    pub success_probability: f64,
}

impl std::fmt::Debug for SyntheticMis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyntheticMis")
            .field("parameters", &self.parameters)
            .field("guesses", &self.guesses)
            .field("success_probability", &self.success_probability)
            .finish()
    }
}

impl SyntheticMis {
    /// A deterministic synthetic MIS with the Panconesi–Srinivasan time shape
    /// `2^{c·√(log₂ ñ)}`, parameterised by `n` only.
    pub fn panconesi_srinivasan(n_guess: u64, c: f64) -> Self {
        SyntheticMis {
            parameters: vec![Parameter::N],
            guesses: vec![n_guess],
            time: Arc::new(move |g: &[u64]| {
                let n = g[0].max(2) as f64;
                (2f64.powf(c * n.log2().sqrt())).ceil() as u64
            }),
            success_probability: 1.0,
        }
    }

    /// A deterministic synthetic MIS with an additive `c₁·Δ̃ + c₂·log₂* m̃`-style bound,
    /// parameterised by `{Δ, m}` (the Barenboim–Elkin / Kuhn shape).
    pub fn additive_delta_logstar(
        delta_weight: u64,
        logstar_weight: u64,
    ) -> impl Fn(u64, u64) -> Self {
        move |delta_guess: u64, id_guess: u64| SyntheticMis {
            parameters: vec![Parameter::MaxDegree, Parameter::MaxId],
            guesses: vec![delta_guess, id_guess],
            time: Arc::new(move |g: &[u64]| {
                delta_weight * g[0] + logstar_weight * local_graphs::log_star(g[1] as f64).max(1)
            }),
            success_probability: 1.0,
        }
    }

    /// A weak Monte-Carlo synthetic MIS with guarantee `rho` and bound `c·log₂ ñ`.
    pub fn monte_carlo_log(n_guess: u64, c: u64, rho: f64) -> Self {
        SyntheticMis {
            parameters: vec![Parameter::N],
            guesses: vec![n_guess],
            time: Arc::new(move |g: &[u64]| c * (g[0].max(2) as f64).log2().ceil() as u64),
            success_probability: rho,
        }
    }

    /// The declared bound evaluated at the instantiated guesses.
    pub fn declared_rounds(&self) -> u64 {
        (self.time)(&self.guesses)
    }

    fn guesses_are_good(&self, view: &GraphView<'_>) -> bool {
        self.parameters
            .iter()
            .zip(self.guesses.iter())
            .all(|(p, &guess)| guess >= p.eval_view(view))
    }
}

impl GraphAlgorithm for SyntheticMis {
    type Input = ();
    type Output = bool;

    fn execute_view(
        &self,
        view: &GraphView<'_>,
        inputs: &[()],
        budget: Option<u64>,
        seed: u64,
        _session: &mut Session,
    ) -> AlgoRun<bool> {
        if view.is_empty() {
            return AlgoRun::empty();
        }
        debug_assert_eq!(inputs.len(), view.node_count());
        let declared = self.declared_rounds();
        let rounds = budget.map_or(declared, |b| b.min(declared));
        let finished_in_time = budget.is_none_or(|b| declared <= b);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x53_59_4e_54);
        let lucky = rng.gen_bool(self.success_probability.clamp(0.0, 1.0));
        let correct = finished_in_time && self.guesses_are_good(view) && lucky;
        // Garbage otherwise: an output vector that is *not* promised to be a solution (all-out
        // is the paper's canonical arbitrary output).
        let outputs =
            if correct { central_greedy_mis_view(view) } else { vec![false; view.node_count()] };
        AlgoRun { outputs, rounds, messages: 0, completed: finished_in_time }
    }
}

/// A synthetic non-uniform black box for maximal matching with an `O(log⁴ ñ)` bound
/// (the Hańćkowiak–Karoński–Panconesi shape), parameterised by `n`.
#[derive(Clone)]
pub struct SyntheticMatching {
    /// Guess for `n`.
    pub n_guess: u64,
    /// Multiplier in front of `log₂⁴ ñ`.
    pub scale: f64,
}

impl std::fmt::Debug for SyntheticMatching {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyntheticMatching")
            .field("n_guess", &self.n_guess)
            .field("scale", &self.scale)
            .finish()
    }
}

impl SyntheticMatching {
    /// The declared `scale · log₂⁴ ñ` bound.
    pub fn declared_rounds(&self) -> u64 {
        let l = (self.n_guess.max(2) as f64).log2();
        (self.scale * l.powi(4)).ceil().max(1.0) as u64
    }
}

/// Central greedy maximal matching by identity order (reference solution).
pub fn central_greedy_matching(g: &Graph) -> Vec<Option<NodeId>> {
    central_greedy_matching_view(&GraphView::full(g))
}

/// [`central_greedy_matching`] over a live [`GraphView`] (live-indexed output).
pub fn central_greedy_matching_view(view: &GraphView<'_>) -> Vec<Option<NodeId>> {
    let mut edges: Vec<(usize, usize)> = view.edges().collect();
    edges.sort_by_key(|&(u, v)| (view.id(u).min(view.id(v)), view.id(u).max(view.id(v))));
    let mut partner: Vec<Option<NodeId>> = vec![None; view.node_count()];
    for (u, v) in edges {
        if partner[u].is_none() && partner[v].is_none() {
            partner[u] = Some(view.id(v));
            partner[v] = Some(view.id(u));
        }
    }
    partner
}

impl GraphAlgorithm for SyntheticMatching {
    type Input = ();
    type Output = Option<NodeId>;

    fn execute_view(
        &self,
        view: &GraphView<'_>,
        inputs: &[()],
        budget: Option<u64>,
        _seed: u64,
        _session: &mut Session,
    ) -> AlgoRun<Option<NodeId>> {
        if view.is_empty() {
            return AlgoRun::empty();
        }
        debug_assert_eq!(inputs.len(), view.node_count());
        let declared = self.declared_rounds();
        let rounds = budget.map_or(declared, |b| b.min(declared));
        let finished_in_time = budget.is_none_or(|b| declared <= b);
        let good = self.n_guess >= view.node_count() as u64;
        let outputs = if finished_in_time && good {
            central_greedy_matching_view(view)
        } else {
            vec![None; view.node_count()]
        };
        AlgoRun { outputs, rounds, messages: 0, completed: finished_in_time }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::{check_maximal_matching, check_mis};
    use local_graphs::{gnp, GraphParams};
    use local_runtime::GraphAlgorithm;

    #[test]
    fn synthetic_ps_mis_correct_with_good_guess() {
        let g = gnp(60, 0.1, 1);
        let algo = SyntheticMis::panconesi_srinivasan(60, 1.5);
        let run = algo.execute(&g, &[(); 60], None, 0);
        assert!(run.completed);
        check_mis(&g, &run.outputs).unwrap();
        assert_eq!(run.rounds, algo.declared_rounds());
    }

    #[test]
    fn synthetic_ps_mis_garbage_with_bad_guess() {
        let g = gnp(60, 0.1, 1);
        let algo = SyntheticMis::panconesi_srinivasan(4, 1.5);
        let run = algo.execute(&g, &[(); 60], None, 0);
        // All-out is not an MIS on a non-empty graph with edges.
        assert!(check_mis(&g, &run.outputs).is_err());
    }

    #[test]
    fn synthetic_rounds_respect_budget() {
        let g = gnp(60, 0.1, 1);
        let algo = SyntheticMis::panconesi_srinivasan(1 << 30, 2.0);
        let run = algo.execute(&g, &[(); 60], Some(5), 0);
        assert_eq!(run.rounds, 5);
        assert!(!run.completed);
        // Cut off before its declared time, so no correctness promise: output is garbage.
        assert!(run.outputs.iter().all(|&b| !b));
    }

    #[test]
    fn additive_synthetic_uses_both_parameters() {
        let g = gnp(80, 0.1, 2);
        let p = GraphParams::of(&g);
        let make = SyntheticMis::additive_delta_logstar(1, 3);
        let algo = make(p.max_degree, p.max_id);
        let run = algo.execute(&g, &[(); 80], None, 0);
        check_mis(&g, &run.outputs).unwrap();
        assert_eq!(run.rounds, p.max_degree + 3 * local_graphs::log_star(p.max_id as f64));
    }

    #[test]
    fn monte_carlo_synthetic_sometimes_fails() {
        let g = gnp(50, 0.1, 3);
        let algo = SyntheticMis::monte_carlo_log(50, 4, 0.5);
        let mut successes = 0;
        for seed in 0..40 {
            let run = algo.execute(&g, &[(); 50], None, seed);
            if check_mis(&g, &run.outputs).is_ok() {
                successes += 1;
            }
        }
        assert!(successes > 5, "success probability far below guarantee");
        assert!(successes < 40, "a ρ=0.5 Monte-Carlo black box must fail sometimes");
    }

    #[test]
    fn synthetic_matching_shape_and_correctness() {
        let g = gnp(70, 0.1, 5);
        let algo = SyntheticMatching { n_guess: 70, scale: 0.1 };
        let run = algo.execute(&g, &[(); 70], None, 0);
        check_maximal_matching(&g, &run.outputs).unwrap();
        let small = SyntheticMatching { n_guess: 256, scale: 1.0 }.declared_rounds();
        let large = SyntheticMatching { n_guess: 65536, scale: 1.0 }.declared_rounds();
        // log⁴: doubling the exponent multiplies the bound by 16.
        assert_eq!(large, small * 16);
    }

    #[test]
    fn central_greedy_matching_is_maximal() {
        for seed in 0..3 {
            let g = gnp(60, 0.1, seed);
            check_maximal_matching(&g, &central_greedy_matching(&g)).unwrap();
        }
    }
}
