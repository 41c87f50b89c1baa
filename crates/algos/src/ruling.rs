//! Ruling-set algorithms.
//!
//! A set `S` is `(α, β)`-ruling if set nodes are pairwise at distance at least `α` and every
//! node is within distance `β` of a set node. MIS is exactly the (2, 1)-ruling set problem.
//!
//! [`MisRulingSet`] — any MIS is a (2, β)-ruling set for every `β ≥ 1`; this wrapper runs a
//! budgeted Luby MIS and is the *weak Monte-Carlo* (2, β)-ruling set algorithm fed to the
//! Theorem 2 transformer for Table 1 row 9. Its declared round bound is `c · ⌈log₂ ñ⌉`
//! (non-uniform in `{n}`); within that budget the output is a correct ruling set with
//! probability well above 1/2 on the graph families we benchmark — exactly the weak
//! Monte-Carlo contract of Section 2 (the algorithm need not have terminated everywhere by its
//! declared running time, but when it has, the output is correct).
//!
//! The exact Schneider–Wattenhofer `O(2^c log^{1/c} n)` bound of Table 1 row 9 is exercised
//! through the synthetic black boxes (see `synthetic.rs` and DESIGN.md): the transformer never
//! looks inside the algorithm, only at its declared time bound and its output.

use crate::mis::LubyMis;
use local_runtime::{AlgoRun, GraphAlgorithm, GraphView, Session};

/// Budgeted-Luby (2, β)-ruling set: a weak Monte-Carlo algorithm, non-uniform in `{n}`.
#[derive(Debug, Clone)]
pub struct MisRulingSet {
    /// Guess for the number of nodes `n`.
    pub n_guess: u64,
    /// Multiplier on `⌈log₂ ñ⌉` defining the declared round bound.
    pub rounds_per_log: u64,
}

impl MisRulingSet {
    /// A reasonable default: 8 phases (16 rounds) per `log₂ ñ`.
    pub fn with_default_budget(n_guess: u64) -> Self {
        MisRulingSet { n_guess, rounds_per_log: 16 }
    }

    /// Declared upper bound on the number of rounds (a function of the guess only).
    pub fn round_bound(&self) -> u64 {
        let log = (self.n_guess.max(2) as f64).log2().ceil() as u64;
        self.rounds_per_log * log.max(1) + 2
    }
}

impl GraphAlgorithm for MisRulingSet {
    type Input = ();
    type Output = bool;

    fn execute_view(
        &self,
        view: &GraphView<'_>,
        inputs: &[()],
        budget: Option<u64>,
        seed: u64,
        session: &mut Session,
    ) -> AlgoRun<bool> {
        let own_bound = self.round_bound();
        let effective = budget.map_or(own_bound, |b| b.min(own_bound));
        LubyMis.execute_view(view, inputs, Some(effective), seed, session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::{check_independent_set, check_ruling_set};
    use local_graphs::{cycle, gnp, grid, path, GraphParams};
    use local_runtime::GraphAlgorithm;

    #[test]
    fn budgeted_luby_ruling_set_is_usually_a_mis() {
        for (i, g) in [path(40), cycle(30), grid(6, 6), gnp(100, 0.08, 4)].iter().enumerate() {
            let p = GraphParams::of(g);
            let algo = MisRulingSet::with_default_budget(p.n);
            let run = algo.execute(g, &vec![(); g.node_count()], None, i as u64);
            assert!(run.rounds <= algo.round_bound());
            // With the default budget the Luby run virtually always completes on these sizes,
            // in which case the output is an MIS and hence a (2, β)-ruling set for any β ≥ 1.
            if run.completed {
                check_ruling_set(g, &run.outputs, 2, 1).unwrap();
                check_ruling_set(g, &run.outputs, 2, 3).unwrap();
            } else {
                check_independent_set(g, &run.outputs).unwrap();
            }
        }
    }

    #[test]
    fn tiny_budget_still_yields_independent_partial_output() {
        let g = gnp(150, 0.05, 7);
        let algo = MisRulingSet { n_guess: 150, rounds_per_log: 1 };
        let run = algo.execute(&g, &[(); 150], None, 0);
        assert!(run.rounds <= algo.round_bound());
        check_independent_set(&g, &run.outputs).unwrap();
    }

    #[test]
    fn declared_bound_grows_logarithmically() {
        let small = MisRulingSet::with_default_budget(1 << 8).round_bound();
        let large = MisRulingSet::with_default_budget(1 << 32).round_bound();
        // Squaring n twice (2^8 → 2^32) only quadruples the declared bound.
        assert!(large <= 4 * small);
        assert!(large > small);
    }

    #[test]
    fn external_budget_overrides_internal_bound() {
        let g = gnp(80, 0.1, 0);
        let algo = MisRulingSet::with_default_budget(80);
        let run = algo.execute(&g, &[(); 80], Some(3), 0);
        assert!(run.rounds <= 3);
    }
}
