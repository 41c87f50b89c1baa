//! Set-sequences and sequence-number functions (Section 4.2).
//!
//! Given a non-decreasing running-time bound `f : Nℓ → R+`, a *set-sequence* `(S_f(i))_i`
//! provides, for every time budget `i`, a small set of guess vectors such that every guess
//! vector with `f(y) ≤ i` is dominated by some vector in `S_f(i)` and every vector in `S_f(i)`
//! satisfies `f(x) ≤ c·i` (a *bounded* set-sequence with bounding constant `c`). A
//! *sequence-number function* `s_f` bounds `|S_f(i)|` and must be moderately slow.
//!
//! The two constructions of Observation 4.1 are implemented:
//!
//! * **additive** bounds `f(x) = Σ f_k(x_k)` — one guess vector per budget (`s_f = ℓ… ≡ 1` up
//!   to the constant), bounding constant `ℓ`;
//! * **product** bounds `f(x₁, x₂) = f₁(x₁)·f₂(x₂)` — `⌈log i⌉ + 1` guess vectors, bounding
//!   constant 4 (the paper states 2 with a slightly different indexing; the constant is
//!   absorbed by the `O`).
//!
//! Arbitrary bounds can be supplied through [`TimeBound::custom`].
//!
//! The alternating drivers only ever ask for the doubling budgets `2^e`, so a bound memoises
//! `S_f(2^e)` ([`TimeBound::set_sequence_pow2`]): each schedule entry is computed once and
//! every clone of the bound shares the memo.

use crate::funcs::{largest_arg_at_most, MonotoneFn, ARGUMENT_CAP};
use std::sync::{Arc, OnceLock};

/// Evaluation function of a custom bound: `f` on a guess vector.
pub type BoundEval = Arc<dyn Fn(&[u64]) -> f64 + Send + Sync>;

/// Set-sequence generator of a custom bound: budget ↦ `S_f(i)`.
pub type SetSequenceFn = Arc<dyn Fn(u64) -> Vec<Vec<u64>> + Send + Sync>;

/// Largest memoised exponent: budgets are `2^e` with `e ≤ 62`.
const MAX_EXPONENT: u64 = 62;

/// A declared running-time bound together with its set-sequence construction.
#[derive(Clone)]
pub struct TimeBound {
    shape: Shape,
    /// `schedule[e]` holds `S_f(2^e)` once computed; shared by every clone.
    schedule: Arc<[OnceLock<Vec<Vec<u64>>>]>,
}

/// The bound's form, as built by [`TimeBound::additive`], [`TimeBound::product`] and
/// [`TimeBound::custom`].
#[derive(Clone)]
enum Shape {
    Additive(Vec<MonotoneFn>),
    Product(MonotoneFn, MonotoneFn),
    Custom { eval: BoundEval, sets: SetSequenceFn, bounding_constant: u64 },
}

impl std::fmt::Debug for TimeBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.shape {
            Shape::Additive(fs) => write!(f, "TimeBound::Additive(ℓ={})", fs.len()),
            Shape::Product(_, _) => write!(f, "TimeBound::Product"),
            Shape::Custom { bounding_constant, .. } => {
                write!(f, "TimeBound::Custom(c={bounding_constant})")
            }
        }
    }
}

impl TimeBound {
    fn new(shape: Shape) -> Self {
        let schedule = (0..=MAX_EXPONENT).map(|_| OnceLock::new()).collect();
        TimeBound { shape, schedule }
    }

    /// `f(x) = Σ_k f_k(x_k)`, each `f_k` non-decreasing and non-negative.
    pub fn additive(fs: Vec<MonotoneFn>) -> Self {
        Self::new(Shape::Additive(fs))
    }

    /// `f(x₁, x₂) = f₁(x₁) · f₂(x₂)`, both factors ascending and at least 1.
    pub fn product(f1: MonotoneFn, f2: MonotoneFn) -> Self {
        Self::new(Shape::Product(f1, f2))
    }

    /// A custom bound: `eval` evaluates `f` on a guess vector, `sets` produces `S_f(i)`, and
    /// `bounding_constant` is the `c` with `f(x) ≤ c·i` for every `x ∈ S_f(i)`.
    pub fn custom(eval: BoundEval, sets: SetSequenceFn, bounding_constant: u64) -> Self {
        Self::new(Shape::Custom { eval, sets, bounding_constant })
    }

    /// A single-parameter bound (a special case of the additive form).
    pub fn single(f: MonotoneFn) -> Self {
        Self::additive(vec![f])
    }

    /// The number of parameters (arity of the guess vectors).
    pub fn arity(&self) -> usize {
        match &self.shape {
            Shape::Additive(fs) => fs.len(),
            Shape::Product(_, _) => 2,
            Shape::Custom { sets, .. } => sets(1).first().map_or(1, |v| v.len()),
        }
    }

    /// Evaluates `f` on a guess vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match [`TimeBound::arity`] for the additive and
    /// product forms.
    pub fn eval(&self, guesses: &[u64]) -> f64 {
        match &self.shape {
            Shape::Additive(fs) => {
                assert_eq!(guesses.len(), fs.len());
                fs.iter().zip(guesses).map(|(f, &x)| f(x)).sum()
            }
            Shape::Product(f1, f2) => {
                assert_eq!(guesses.len(), 2);
                f1(guesses[0]) * f2(guesses[1])
            }
            Shape::Custom { eval, .. } => eval(guesses),
        }
    }

    /// The bounding constant `c` of the set-sequence.
    pub fn bounding_constant(&self) -> u64 {
        match &self.shape {
            Shape::Additive(fs) => fs.len().max(1) as u64,
            Shape::Product(_, _) => 4,
            Shape::Custom { bounding_constant, .. } => (*bounding_constant).max(1),
        }
    }

    /// The set `S_f(i)`: every guess vector `y` with `f(y) ≤ i` is dominated by some member,
    /// and every member `x` has `f(x) ≤ c·i`. Computed afresh on every call; the drivers use
    /// the memoised [`TimeBound::set_sequence_pow2`].
    pub fn set_sequence(&self, i: u64) -> Vec<Vec<u64>> {
        let budget = i.max(1) as f64;
        match &self.shape {
            Shape::Additive(fs) => {
                let mut vector = Vec::with_capacity(fs.len());
                for f in fs {
                    match largest_arg_at_most(f, budget, ARGUMENT_CAP) {
                        Some(x) => vector.push(x),
                        None => return Vec::new(),
                    }
                }
                vec![vector]
            }
            Shape::Product(f1, f2) => {
                let log_i = (i.max(1) as f64).log2().ceil() as i64;
                let mut sets = Vec::new();
                for j in 0..=log_i.max(0) {
                    let b1 = 2f64.powi(j as i32);
                    let b2 = 2f64.powi((log_i - j + 1) as i32);
                    let x1 = largest_arg_at_most(f1, b1, ARGUMENT_CAP);
                    let x2 = largest_arg_at_most(f2, b2, ARGUMENT_CAP);
                    if let (Some(x1), Some(x2)) = (x1, x2) {
                        sets.push(vec![x1, x2]);
                    }
                }
                sets
            }
            Shape::Custom { sets, .. } => sets(i),
        }
    }

    /// `S_f(2^e)` (with `e` clamped to 62), computed on the first call and served from the
    /// memo shared by every clone of this bound afterwards.
    pub fn set_sequence_pow2(&self, e: u64) -> &[Vec<u64>] {
        let e = e.min(MAX_EXPONENT);
        self.schedule[e as usize].get_or_init(|| self.set_sequence(1u64 << e))
    }

    /// An upper bound on `|S_f(i)|` (the sequence-number function `s_f(i)`).
    pub fn sequence_number(&self, i: u64) -> u64 {
        match &self.shape {
            Shape::Additive(_) => 1,
            Shape::Product(_, _) => (i.max(2) as f64).log2().ceil() as u64 + 1,
            Shape::Custom { sets, .. } => sets(i).len().max(1) as u64,
        }
    }
}

/// Verifies the two defining properties of a bounded set-sequence on a specific budget `i` for
/// a specific "true" parameter vector `y`: (1) if `f(y) ≤ i` then `y` is dominated by some
/// member of `S_f(i)`, and (2) every member `x` satisfies `f(x) ≤ c·i`. Used by property tests.
pub fn check_set_sequence_properties(bound: &TimeBound, i: u64, y: &[u64]) -> Result<(), String> {
    let sets = bound.set_sequence(i);
    let c = bound.bounding_constant();
    for x in &sets {
        let fx = bound.eval(x);
        if fx > (c * i) as f64 + 1e-6 {
            return Err(format!("member {x:?} has f = {fx} > c·i = {}", c * i));
        }
    }
    if bound.eval(y) <= i as f64 {
        let dominated = sets.iter().any(|x| x.iter().zip(y).all(|(&xi, &yi)| xi >= yi));
        if !dominated {
            return Err(format!("vector {y:?} with f ≤ {i} is not dominated by any of {sets:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcs::monotone;

    fn additive_example() -> TimeBound {
        // f(Δ, m) = Δ + 3·log* m  (shape of the Table 1 row 1 bound).
        TimeBound::additive(vec![
            monotone(|d| d as f64),
            monotone(|m| 3.0 * local_graphs::log_star(m as f64) as f64),
        ])
    }

    fn product_example() -> TimeBound {
        // f(a, n) = a · log₂ n  (shape of the Barenboim–Elkin arboricity bounds).
        TimeBound::product(
            monotone(|a| a.max(1) as f64),
            monotone(|n| (n.max(2) as f64).log2().max(1.0)),
        )
    }

    #[test]
    fn additive_set_sequence_is_single_vector() {
        let bound = additive_example();
        let sets = bound.set_sequence(64);
        assert_eq!(sets.len(), 1);
        assert_eq!(bound.sequence_number(64), 1);
        // The vector's entries are the largest values whose component cost is ≤ 64.
        assert_eq!(sets[0][0], 64);
        // Components are within the budget individually, so f(x) ≤ 2·64.
        assert!(bound.eval(&sets[0]) <= 128.0);
    }

    #[test]
    fn additive_set_sequence_respects_properties() {
        let bound = additive_example();
        for i in [1u64, 2, 8, 64, 1024] {
            for y in [[1u64, 1], [5, 100], [40, 1 << 20], [1000, 2]] {
                check_set_sequence_properties(&bound, i, &y).unwrap();
            }
        }
    }

    #[test]
    fn additive_empty_when_budget_too_small() {
        // f(x) = x + 10: no argument has cost ≤ 5.
        let bound = TimeBound::additive(vec![monotone(|x| x as f64 + 10.0)]);
        assert!(bound.set_sequence(5).is_empty());
        assert!(!bound.set_sequence(11).is_empty());
    }

    #[test]
    fn product_set_sequence_has_log_many_members() {
        let bound = product_example();
        let sets = bound.set_sequence(1024);
        assert!(!sets.is_empty());
        assert!(sets.len() as u64 <= bound.sequence_number(1024));
        assert!(bound.sequence_number(1024) <= 12);
    }

    #[test]
    fn product_set_sequence_respects_properties() {
        let bound = product_example();
        for i in [2u64, 16, 256, 4096] {
            for y in [[1u64, 2], [3, 1 << 10], [30, 64], [2, 1 << 30]] {
                check_set_sequence_properties(&bound, i, &y).unwrap();
            }
        }
    }

    #[test]
    fn custom_bound_round_trips() {
        let bound = TimeBound::custom(
            Arc::new(|g: &[u64]| g[0] as f64),
            Arc::new(|i: u64| vec![vec![i]]),
            1,
        );
        assert_eq!(bound.set_sequence(7), vec![vec![7]]);
        assert_eq!(bound.eval(&[7]), 7.0);
        assert_eq!(bound.arity(), 1);
        check_set_sequence_properties(&bound, 7, &[3]).unwrap();
    }

    #[test]
    fn single_constructor_is_additive() {
        let bound = TimeBound::single(monotone(|n| (n.max(2) as f64).log2()));
        assert_eq!(bound.arity(), 1);
        assert_eq!(bound.sequence_number(1 << 20), 1);
        let sets = bound.set_sequence(10);
        // log₂ y ≤ 10 → y ≤ 1024.
        assert_eq!(sets[0][0], 1024);
    }

    #[test]
    fn pow2_schedule_is_memoised_and_shared_by_clones() {
        for bound in [additive_example(), product_example()] {
            let clone = bound.clone();
            for e in [0u64, 1, 10, 40, 62, 70] {
                let memo = bound.set_sequence_pow2(e);
                assert_eq!(memo, bound.set_sequence(1 << e.min(62)));
                assert!(std::ptr::eq(memo, clone.set_sequence_pow2(e)), "clones share the memo");
            }
        }
    }

    #[test]
    fn debug_formatting() {
        assert!(format!("{:?}", additive_example()).contains("Additive"));
        assert!(format!("{:?}", product_example()).contains("Product"));
    }
}
