//! Problems in the sense of Section 2 of the paper.
//!
//! A problem `Π` is a collection of triplets `(G, x, y)` closed under disjoint union; an
//! instance is a pair `(G, x)` admitting a solution. In code a [`Problem`] bundles the input
//! and output types with a *validator* deciding whether `(G, x, y) ∈ Π` — the ground truth
//! against which pruning algorithms, transformers and benchmarks are checked.

use local_algos::checkers;
use local_runtime::{Graph, NodeId};

/// A distributed problem `Π = {(G, x, y)}` closed under disjoint union.
pub trait Problem: Clone + Send + Sync + 'static {
    /// Per-node input type `x(v)`.
    type Input: Clone + Send + Sync;
    /// Per-node output type `y(v)`.
    type Output: Clone + Send + Sync;

    /// Human-readable problem name (for reports).
    fn name(&self) -> &'static str;

    /// Returns `Ok(())` iff `(G, x, y) ∈ Π`.
    fn validate(
        &self,
        graph: &Graph,
        input: &[Self::Input],
        output: &[Self::Output],
    ) -> Result<(), String>;
}

/// Maximal Independent Set: output `true` iff the node is in the set; the set must be
/// independent and dominating. MIS is exactly the (2, 1)-ruling set problem.
#[derive(Debug, Clone, Copy, Default)]
pub struct MisProblem;

impl Problem for MisProblem {
    type Input = ();
    type Output = bool;

    fn name(&self) -> &'static str {
        "MIS"
    }

    fn validate(&self, graph: &Graph, _input: &[()], output: &[bool]) -> Result<(), String> {
        checkers::check_mis(graph, output).map_err(|v| format!("{v:?}"))
    }
}

/// The (α, β)-ruling set problem.
#[derive(Debug, Clone, Copy)]
pub struct RulingSetProblem {
    /// Minimum pairwise distance between set nodes.
    pub alpha: usize,
    /// Maximum distance from any node to the set.
    pub beta: usize,
}

impl RulingSetProblem {
    /// The (2, β)-ruling set problem, the family covered by the paper's pruning algorithm.
    pub fn two(beta: usize) -> Self {
        RulingSetProblem { alpha: 2, beta }
    }
}

impl Problem for RulingSetProblem {
    type Input = ();
    type Output = bool;

    fn name(&self) -> &'static str {
        "ruling-set"
    }

    fn validate(&self, graph: &Graph, _input: &[()], output: &[bool]) -> Result<(), String> {
        checkers::check_ruling_set(graph, output, self.alpha, self.beta)
            .map_err(|v| format!("{v:?}"))
    }
}

/// Maximal matching: the output of a node is the identity of its partner (or `None`); the
/// matching must be consistent, valid and maximal.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchingProblem;

impl Problem for MatchingProblem {
    type Input = ();
    type Output = Option<NodeId>;

    fn name(&self) -> &'static str {
        "maximal-matching"
    }

    fn validate(
        &self,
        graph: &Graph,
        _input: &[()],
        output: &[Option<NodeId>],
    ) -> Result<(), String> {
        checkers::check_maximal_matching(graph, output).map_err(|v| format!("{v:?}"))
    }
}

/// Proper vertex colouring (no palette restriction: palettes are checked separately by the
/// benchmarks because the allowed number of colours is a function of Δ, which a uniform
/// validator cannot know — exactly the difficulty the paper discusses in Section 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct ColoringProblem;

impl Problem for ColoringProblem {
    type Input = ();
    type Output = u64;

    fn name(&self) -> &'static str {
        "coloring"
    }

    fn validate(&self, graph: &Graph, _input: &[()], output: &[u64]) -> Result<(), String> {
        checkers::check_coloring(graph, output).map_err(|v| format!("{v:?}"))
    }
}

/// A colour of the strong list colouring problem: the pair `(k, j)` with `k ∈ [1, g(Δ̂)]` and
/// `j ∈ [1, Δ̂ + 1]` of Section 5.2.
pub type SlcColor = (u64, u64);

/// Input of the strong list colouring (SLC) problem at one node: the common degree bound `Δ̂`
/// and the node's list `L(v)` of allowed colours. The SLC invariant requires at least
/// `deg(v) + 1` copies `(k, j)` of every base colour `k ∈ [1, g(Δ̂)]`.
///
/// The list is kept implicitly as the rectangle `[1, base_colors] × [1, Δ̂ + 1]` minus a sorted
/// vector of removed colours. Theorem 5 starts every node on the full rectangle and the SLC
/// pruning only ever removes the colours of pruned neighbours, so `removed` holds
/// `r ≤ deg(v)` entries while the rectangle holds `(Δ̂ + 1)·base_colors` — a clone costs O(r)
/// instead of O(Δ̂²). Costs: [`contains`](Self::contains) and [`remove`](Self::remove) are
/// O(log r) plus, for `remove`, an O(r) shift; [`first_copy`](Self::first_copy) and
/// [`copies_of`](Self::copies_of) are O(log r + r_k) where `r_k` counts the removed copies of
/// `k`; [`base_colors`](Self::base_colors) and [`iter`](Self::iter) walk the whole rectangle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlcInput {
    /// The common upper bound `Δ̂ ≥ Δ(G)` contained in every node's input.
    pub delta_hat: u64,
    /// Number of base colours `K`: the rectangle's first coordinate ranges over `[1, K]`.
    base_colors: u64,
    /// Colours of the rectangle no longer in the list, sorted and without duplicates.
    removed: Vec<SlcColor>,
}

impl SlcInput {
    /// The full list `[1, num_base_colors] × [1, Δ̂ + 1]` (the layer-initial configuration of
    /// the Theorem 5 proof).
    pub fn full(delta_hat: u64, num_base_colors: u64) -> Self {
        SlcInput { delta_hat, base_colors: num_base_colors.max(1), removed: Vec::new() }
    }

    /// The empty list (the input left to a pruned node, which is never read again).
    pub(crate) fn empty(delta_hat: u64) -> Self {
        SlcInput { delta_hat, base_colors: 0, removed: Vec::new() }
    }

    fn in_rectangle(&self, (k, j): SlcColor) -> bool {
        (1..=self.base_colors).contains(&k) && (1..=self.delta_hat.saturating_add(1)).contains(&j)
    }

    /// The removed copies of base colour `k`, in increasing order of `j`.
    fn removed_of(&self, k: u64) -> &[SlcColor] {
        let lo = self.removed.partition_point(|&(kk, _)| kk < k);
        let hi = self.removed.partition_point(|&(kk, _)| kk <= k);
        &self.removed[lo..hi]
    }

    /// `true` iff `color ∈ L(v)`.
    pub fn contains(&self, color: SlcColor) -> bool {
        self.in_rectangle(color) && self.removed.binary_search(&color).is_err()
    }

    /// Removes `color` from the list; a no-op when it is not in the list.
    pub fn remove(&mut self, color: SlcColor) {
        if self.in_rectangle(color) {
            if let Err(at) = self.removed.binary_search(&color) {
                self.removed.insert(at, color);
            }
        }
    }

    /// The smallest `j` with `(k, j) ∈ L(v)`, if base colour `k` has a copy left.
    pub fn first_copy(&self, k: u64) -> Option<u64> {
        if !(1..=self.base_colors).contains(&k) {
            return None;
        }
        // The removed copies of `k` are sorted by `j` from 1 up: the first gap is the answer.
        let mut j = 1;
        for &(_, removed_j) in self.removed_of(k) {
            if removed_j != j {
                break;
            }
            j += 1;
        }
        (j <= self.delta_hat.saturating_add(1)).then_some(j)
    }

    /// Number of copies of base colour `k` still available.
    pub fn copies_of(&self, k: u64) -> usize {
        if !(1..=self.base_colors).contains(&k) {
            return 0;
        }
        (self.delta_hat.saturating_add(1) as usize) - self.removed_of(k).len()
    }

    /// The distinct base colours present in the list, in increasing order.
    pub fn base_colors(&self) -> impl Iterator<Item = u64> + '_ {
        (1..=self.base_colors).filter(|&k| self.copies_of(k) > 0)
    }

    /// Every colour of the list in increasing order (materialises the rectangle: tests only).
    pub fn iter(&self) -> impl Iterator<Item = SlcColor> + '_ {
        (1..=self.base_colors)
            .flat_map(move |k| (1..=self.delta_hat.saturating_add(1)).map(move |j| (k, j)))
            .filter(|&c| self.removed.binary_search(&c).is_err())
    }
}

/// The strong list colouring problem of Section 5.2: every node must output a colour from its
/// list such that adjacent nodes output different colours.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlcProblem;

impl Problem for SlcProblem {
    type Input = SlcInput;
    type Output = SlcColor;

    fn name(&self) -> &'static str {
        "strong-list-coloring"
    }

    fn validate(
        &self,
        graph: &Graph,
        input: &[SlcInput],
        output: &[SlcColor],
    ) -> Result<(), String> {
        for v in 0..graph.node_count() {
            if !input[v].contains(output[v]) {
                return Err(format!("node {v} chose a colour outside its list"));
            }
        }
        for (u, v) in graph.edges() {
            if output[u] == output[v] {
                return Err(format!("adjacent nodes {u} and {v} share colour {:?}", output[u]));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::{cycle, path};

    #[test]
    fn mis_problem_validates() {
        let g = path(4);
        assert!(MisProblem.validate(&g, &[(); 4], &[true, false, true, false]).is_ok());
        assert!(MisProblem.validate(&g, &[(); 4], &[true, true, false, false]).is_err());
        assert_eq!(MisProblem.name(), "MIS");
    }

    #[test]
    fn ruling_set_problem_validates() {
        let g = path(7);
        let p = RulingSetProblem::two(3);
        assert_eq!(p.alpha, 2);
        let set = [true, false, false, false, false, false, true];
        assert!(p.validate(&g, &[(); 7], &set).is_ok());
        let bad = [true, false, false, false, false, false, false];
        assert!(p.validate(&g, &[(); 7], &bad).is_err());
    }

    #[test]
    fn matching_problem_validates() {
        let g = path(4);
        assert!(MatchingProblem
            .validate(&g, &[(); 4], &[Some(1), Some(0), Some(3), Some(2)])
            .is_ok());
        assert!(MatchingProblem.validate(&g, &[(); 4], &[None, None, None, None]).is_err());
    }

    #[test]
    fn coloring_problem_validates() {
        let g = cycle(4);
        assert!(ColoringProblem.validate(&g, &[(); 4], &[0, 1, 0, 1]).is_ok());
        assert!(ColoringProblem.validate(&g, &[(); 4], &[0, 0, 1, 1]).is_err());
    }

    #[test]
    fn slc_input_full_has_enough_copies() {
        let input = SlcInput::full(3, 5);
        assert_eq!(input.base_colors().count(), 5);
        for k in 1..=5 {
            assert_eq!(input.copies_of(k), 4);
        }
        assert_eq!(input.copies_of(99), 0);
    }

    #[test]
    fn slc_problem_validates_membership_and_properness() {
        let g = path(3);
        let inputs = vec![SlcInput::full(2, 2); 3];
        // Proper and in-list.
        assert!(SlcProblem.validate(&g, &inputs, &[(1, 1), (2, 1), (1, 1)]).is_ok());
        // Out of list.
        assert!(SlcProblem.validate(&g, &inputs, &[(9, 9), (2, 1), (1, 1)]).is_err());
        // Improper.
        assert!(SlcProblem.validate(&g, &inputs, &[(1, 1), (1, 1), (2, 1)]).is_err());
    }
}
