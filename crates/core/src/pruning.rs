//! Pruning algorithms (Section 3) — the paper's central new tool.
//!
//! A pruning algorithm `P` takes a triplet `(G, x, ŷ)` — an instance plus a *tentative*
//! output vector — and selects a set `W` of nodes to prune (returning the induced configuration
//! on the rest, possibly with modified inputs). It must satisfy:
//!
//! * **solution detection** — if `(G, x, ŷ) ∈ Π` then `W = V(G)`;
//! * **gluing** — if `y'` solves the returned configuration, then `ŷ` on `W` combined with
//!   `y'` on the rest solves `(G, x)`.
//!
//! Three pruning algorithms from the paper are implemented: the (2, β)-ruling-set pruning
//! `P_(2,β)` (Observation 3.2; MIS is the case β = 1), the maximal-matching pruning `P_MM`
//! (Observation 3.3), and the strong-list-colouring pruning used inside Theorem 5
//! (Section 5.2). All three ignore the input (except SLC, which rewrites the colour lists) and
//! run in a constant number of rounds, hence are monotone with respect to every non-decreasing
//! parameter (Observation 3.1).
//!
//! Simulating one invocation costs time linear in the configuration, like the constant-round
//! LOCAL algorithm it stands for:
//!
//! * `P_(2,β)`: O(n + m) for every β — one scan of every arc finds the "good" set nodes, and
//!   one multi-source BFS from them, cut at depth β, visits each node and arc at most once;
//! * `P_MM`: O(n + m) — a claim is resolved by scanning the claimant's ports for the named
//!   identity, and [`PruningAlgorithm::normalize_and_prune`] computes the matched set once per
//!   attempt;
//! * SLC: O(n + m) plus the survivors' list copies. The SLC pruning only ever *removes*
//!   colours: a survivor loses the colours of its pruned neighbours, at most `deg(v)` over a
//!   whole alternation. [`SlcInput`] therefore stores a list as the full
//!   `[1, K] × [1, Δ̂ + 1]` rectangle minus a sorted vector of removed colours, and a survivor
//!   costs O(deg(v)·r) at worst, where `r ≤ deg(v)` counts the colours it has lost so far —
//!   never the `(Δ̂ + 1)·K` size of the list.

use crate::problem::{
    MatchingProblem, MisProblem, Problem, RulingSetProblem, SlcColor, SlcInput, SlcProblem,
};
use local_runtime::{GraphView, NodeId};

/// The outcome of one pruning invocation on a configuration with `n` nodes: which nodes are
/// pruned, and the (possibly rewritten) inputs of the surviving nodes.
#[derive(Debug, Clone)]
pub struct Pruned<I> {
    /// `pruned[v] == true` iff node `v` belongs to the pruned set `W`.
    pub pruned: Vec<bool>,
    /// New inputs `x'`; only the entries of non-pruned nodes are meaningful.
    pub new_inputs: Vec<I>,
}

impl<I> Pruned<I> {
    /// Number of pruned nodes.
    pub fn pruned_count(&self) -> usize {
        self.pruned.iter().filter(|&&p| p).count()
    }

    /// `true` when every node was pruned (the configuration returned is the empty one, which
    /// by solution detection certifies that the tentative output was a solution).
    pub fn all_pruned(&self) -> bool {
        self.pruned.iter().all(|&p| p)
    }
}

/// A pruning algorithm for problem `P` (a uniform LOCAL algorithm of constant running time).
///
/// The configuration is handed over as a live [`GraphView`] — the alternating drivers never
/// materialize the surviving subgraph, so the pruning rule reads the current configuration
/// through the view's (dense, subgraph-identical) live indices.
pub trait PruningAlgorithm<P: Problem>: Send + Sync {
    /// The constant number of rounds one invocation costs.
    fn rounds(&self) -> u64;

    /// Runs the pruning rule on `(G, x, ŷ)`.
    fn prune(
        &self,
        view: &GraphView<'_>,
        input: &[P::Input],
        tentative: &[P::Output],
    ) -> Pruned<P::Input>;

    /// Normalises a tentative output vector *in place*, then runs the pruning rule on it: the
    /// alternating drivers' one call per attempt, before they freeze the outputs of pruned
    /// nodes.
    ///
    /// The default normalisation is the identity (so the alternation hot path pays neither a
    /// copy nor an allocation per attempt). The matching pruning overrides it to clear
    /// dangling partner claims: in the paper's output encoding (`y(u) = y(v)` marks a matched
    /// pair) an unreciprocated value simply means "unmatched", but with the explicit partner
    /// encoding used here it must be cleared for the glued vector to be well-formed.
    fn normalize_and_prune(
        &self,
        view: &GraphView<'_>,
        input: &[P::Input],
        tentative: &mut [P::Output],
    ) -> Pruned<P::Input> {
        self.prune(view, input, tentative)
    }
}

/// The (2, β)-ruling-set pruning algorithm `P_(2,β)` of Observation 3.2.
///
/// A node `u` is pruned iff either (i) `ŷ(u) = 1` and no neighbour of `u` is in the set, or
/// (ii) `ŷ(u) = 0` and some node `v` within distance β of `u` has `ŷ(v) = 1` and no neighbour
/// of `v` in the set. Runs in `1 + β` rounds. With β = 1 this is the MIS pruning algorithm.
#[derive(Debug, Clone, Copy)]
pub struct RulingSetPruning {
    /// The domination radius β ≥ 1.
    pub beta: usize,
}

impl RulingSetPruning {
    /// The MIS pruning algorithm (β = 1).
    pub fn mis() -> Self {
        RulingSetPruning { beta: 1 }
    }

    fn prune_bools(&self, view: &GraphView<'_>, tentative: &[bool]) -> Vec<bool> {
        let n = view.node_count();
        // "Good" set nodes: in the set with no set neighbour.
        let good: Vec<bool> =
            (0..n).map(|v| tentative[v] && !view.neighbors(v).any(|w| tentative[w])).collect();
        // One multi-source BFS from the good nodes, cut at depth β: afterwards `near[u]` holds
        // iff some good node lies within distance β of `u`.
        let mut near = good.clone();
        let mut frontier: Vec<usize> = (0..n).filter(|&v| good[v]).collect();
        let mut next = Vec::new();
        for _ in 0..self.beta {
            if frontier.is_empty() {
                break;
            }
            for &u in &frontier {
                for w in view.neighbors(u) {
                    if !near[w] {
                        near[w] = true;
                        next.push(w);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        // A set node is pruned iff it is good itself, whatever lies around it.
        for (u, pruned) in near.iter_mut().enumerate() {
            if tentative[u] {
                *pruned = good[u];
            }
        }
        near
    }
}

impl PruningAlgorithm<RulingSetProblem> for RulingSetPruning {
    fn rounds(&self) -> u64 {
        1 + self.beta as u64
    }

    fn prune(&self, view: &GraphView<'_>, input: &[()], tentative: &[bool]) -> Pruned<()> {
        Pruned { pruned: self.prune_bools(view, tentative), new_inputs: input.to_vec() }
    }
}

impl PruningAlgorithm<MisProblem> for RulingSetPruning {
    fn rounds(&self) -> u64 {
        2
    }

    fn prune(&self, view: &GraphView<'_>, input: &[()], tentative: &[bool]) -> Pruned<()> {
        // MIS is the (2, 1)-ruling set problem.
        let rule = RulingSetPruning { beta: 1 };
        Pruned { pruned: rule.prune_bools(view, tentative), new_inputs: input.to_vec() }
    }
}

/// The maximal-matching pruning algorithm `P_MM` of Observation 3.3.
///
/// With the partner encoding, `u` and `v` are *matched* when they are neighbours and each
/// names the other. A node `u` is pruned iff it is matched, or every neighbour of `u` is
/// matched (to somebody else). Runs in 3 rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchingPruning;

impl MatchingPruning {
    /// `matched[u]` iff `u` claims a neighbour that claims `u` back: found by scanning `u`'s
    /// ports for the claimed identity.
    fn matched_nodes(view: &GraphView<'_>, tentative: &[Option<NodeId>]) -> Vec<bool> {
        (0..view.node_count())
            .map(|u| {
                tentative[u].is_some_and(|claim| {
                    let me = Some(view.id(u));
                    view.neighbors(u).any(|v| view.id(v) == claim && tentative[v] == me)
                })
            })
            .collect()
    }

    /// A node is pruned iff it is matched or all its neighbours are.
    fn pruned_nodes(view: &GraphView<'_>, matched: &[bool]) -> Vec<bool> {
        (0..view.node_count())
            .map(|u| matched[u] || view.neighbors(u).all(|v| matched[v]))
            .collect()
    }
}

impl PruningAlgorithm<MatchingProblem> for MatchingPruning {
    fn rounds(&self) -> u64 {
        3
    }

    fn prune(
        &self,
        view: &GraphView<'_>,
        input: &[()],
        tentative: &[Option<NodeId>],
    ) -> Pruned<()> {
        let matched = Self::matched_nodes(view, tentative);
        Pruned { pruned: Self::pruned_nodes(view, &matched), new_inputs: input.to_vec() }
    }

    /// Clears every claim outside a matched pair. That keeps every matched pair, so the
    /// matched set is the same before and after: it is computed once and serves both halves.
    fn normalize_and_prune(
        &self,
        view: &GraphView<'_>,
        input: &[()],
        tentative: &mut [Option<NodeId>],
    ) -> Pruned<()> {
        let matched = Self::matched_nodes(view, tentative);
        for (claim, &matched) in tentative.iter_mut().zip(&matched) {
            if !matched {
                *claim = None;
            }
        }
        Pruned { pruned: Self::pruned_nodes(view, &matched), new_inputs: input.to_vec() }
    }
}

/// The strong-list-colouring pruning algorithm of Section 5.2.
///
/// A node is pruned iff its tentative colour is in its list and differs from every neighbour's
/// tentative colour; surviving nodes have the colours of pruned neighbours removed from their
/// lists (which preserves the SLC invariant because their degree in the remaining graph drops
/// by the same amount). Runs in 1 round. A survivor's new list copies only its removed
/// colours (O(deg)), never the rectangle.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlcPruning;

impl PruningAlgorithm<SlcProblem> for SlcPruning {
    fn rounds(&self) -> u64 {
        1
    }

    fn prune(
        &self,
        view: &GraphView<'_>,
        input: &[SlcInput],
        tentative: &[SlcColor],
    ) -> Pruned<SlcInput> {
        let n = view.node_count();
        let pruned: Vec<bool> = (0..n)
            .map(|u| {
                input[u].contains(tentative[u])
                    && view.neighbors(u).all(|v| tentative[v] != tentative[u])
            })
            .collect();
        let new_inputs: Vec<SlcInput> = (0..n)
            .map(|u| {
                if pruned[u] {
                    // Meaningless for pruned nodes (see `Pruned::new_inputs`): no list copy.
                    SlcInput::empty(input[u].delta_hat)
                } else {
                    let mut list = input[u].clone();
                    for v in view.neighbors(u) {
                        if pruned[v] {
                            list.remove(tentative[v]);
                        }
                    }
                    list
                }
            })
            .collect();
        Pruned { pruned, new_inputs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use local_graphs::{cycle, gnp, path, star};
    use local_runtime::Graph;

    fn units(n: usize) -> Vec<()> {
        vec![(); n]
    }

    fn view(g: &Graph) -> GraphView<'_> {
        GraphView::full(g)
    }

    // ------------------------------------------------------------------ MIS / ruling set ----

    #[test]
    fn mis_pruning_detects_solutions() {
        let g = path(6);
        let solution = [true, false, true, false, true, false];
        assert!(MisProblem.validate(&g, &units(6), &solution).is_ok());
        let pruning = RulingSetPruning::mis();
        let result =
            PruningAlgorithm::<MisProblem>::prune(&pruning, &view(&g), &units(6), &solution);
        assert!(result.all_pruned(), "solution detection failed");
    }

    #[test]
    fn mis_pruning_keeps_uncovered_regions() {
        let g = path(6);
        // Only node 0 is in the set: nodes 0 and 1 are fine (pruned); the tail is not.
        let tentative = [true, false, false, false, false, false];
        let pruning = RulingSetPruning::mis();
        let result =
            PruningAlgorithm::<MisProblem>::prune(&pruning, &view(&g), &units(6), &tentative);
        assert!(result.pruned[0]);
        assert!(result.pruned[1]);
        assert!(!result.pruned[2], "node 2 has no good set node within distance 1");
        assert!(!result.pruned[5]);
        assert_eq!(result.pruned_count(), 2);
    }

    #[test]
    fn mis_pruning_ignores_clashing_set_nodes() {
        let g = path(3);
        // Adjacent set nodes are not "good": nothing can be pruned around them.
        let tentative = [true, true, false];
        let pruning = RulingSetPruning::mis();
        let result =
            PruningAlgorithm::<MisProblem>::prune(&pruning, &view(&g), &units(3), &tentative);
        assert!(!result.pruned[0]);
        assert!(!result.pruned[1]);
        assert!(!result.pruned[2]);
    }

    #[test]
    fn mis_pruning_gluing_property_holds() {
        // For random tentative outputs: prune, solve MIS on the rest centrally, and check that
        // the combination solves the whole graph.
        for seed in 0..10u64 {
            let g = gnp(40, 0.12, seed);
            let n = g.node_count();
            let tentative: Vec<bool> =
                (0..n).map(|v| (v as u64 * 7 + seed).is_multiple_of(3)).collect();
            let pruning = RulingSetPruning::mis();
            let result =
                PruningAlgorithm::<MisProblem>::prune(&pruning, &view(&g), &units(n), &tentative);
            let keep: Vec<bool> = result.pruned.iter().map(|&p| !p).collect();
            let (sub, back) = g.induced_subgraph(&keep);
            let sub_solution = local_algos::mis::central_greedy_mis(&sub);
            let mut combined = tentative.clone();
            for (i, &orig) in back.iter().enumerate() {
                combined[orig] = sub_solution[i];
            }
            MisProblem
                .validate(&g, &units(n), &combined)
                .unwrap_or_else(|e| panic!("gluing failed (seed {seed}): {e}"));
        }
    }

    #[test]
    fn ruling_set_pruning_uses_beta_ball() {
        let g = path(7);
        // Node 0 is a good set node; with β = 3 nodes 0..=3 are pruned, farther ones are not.
        let tentative = [true, false, false, false, false, false, false];
        let pruning = RulingSetPruning { beta: 3 };
        let result =
            PruningAlgorithm::<RulingSetProblem>::prune(&pruning, &view(&g), &units(7), &tentative);
        assert_eq!(result.pruned, vec![true, true, true, true, false, false, false]);
        assert_eq!(PruningAlgorithm::<RulingSetProblem>::rounds(&pruning), 4);
    }

    #[test]
    fn ruling_set_pruning_detects_solutions() {
        let g = path(7);
        let problem = RulingSetProblem::two(3);
        let solution = [true, false, false, false, false, false, true];
        assert!(problem.validate(&g, &units(7), &solution).is_ok());
        let pruning = RulingSetPruning { beta: 3 };
        let result =
            PruningAlgorithm::<RulingSetProblem>::prune(&pruning, &view(&g), &units(7), &solution);
        assert!(result.all_pruned());
    }

    #[test]
    fn ruling_set_gluing_property_holds() {
        for seed in 0..6u64 {
            let beta = 2usize;
            let g = gnp(35, 0.1, seed);
            let n = g.node_count();
            let tentative: Vec<bool> =
                (0..n).map(|v| (v as u64 + seed).is_multiple_of(4)).collect();
            let pruning = RulingSetPruning { beta };
            let result = PruningAlgorithm::<RulingSetProblem>::prune(
                &pruning,
                &view(&g),
                &units(n),
                &tentative,
            );
            let keep: Vec<bool> = result.pruned.iter().map(|&p| !p).collect();
            let (sub, back) = g.induced_subgraph(&keep);
            // Any MIS of the remainder is a (2, β)-ruling set of it.
            let sub_solution = local_algos::mis::central_greedy_mis(&sub);
            let mut combined = tentative.clone();
            for (i, &orig) in back.iter().enumerate() {
                combined[orig] = sub_solution[i];
            }
            RulingSetProblem::two(beta)
                .validate(&g, &units(n), &combined)
                .unwrap_or_else(|e| panic!("gluing failed (seed {seed}): {e}"));
        }
    }

    // ------------------------------------------------------------------ matching -------------

    #[test]
    fn matching_pruning_detects_solutions() {
        let g = path(4);
        let solution = [Some(1), Some(0), Some(3), Some(2)];
        let result = MatchingPruning.prune(&view(&g), &units(4), &solution);
        assert!(result.all_pruned());
        assert_eq!(PruningAlgorithm::<MatchingProblem>::rounds(&MatchingPruning), 3);
    }

    #[test]
    fn matching_pruning_prunes_matched_and_saturated_nodes() {
        let g = path(4);
        // Only the middle edge (1, 2) is matched: 1 and 2 are pruned (matched); 0 and 3 are
        // pruned too because their only neighbour is matched.
        let tentative = [None, Some(2), Some(1), None];
        let result = MatchingPruning.prune(&view(&g), &units(4), &tentative);
        assert!(result.all_pruned());
    }

    #[test]
    fn matching_pruning_keeps_augmentable_regions() {
        let g = path(5);
        // Edge (0,1) matched; nodes 2, 3, 4 form an augmentable path and must survive.
        let tentative = [Some(1), Some(0), None, None, None];
        let result = MatchingPruning.prune(&view(&g), &units(5), &tentative);
        assert!(result.pruned[0] && result.pruned[1]);
        assert!(!result.pruned[3] && !result.pruned[4]);
        // Node 2's neighbours: 1 (matched) and 3 (unmatched) → not saturated, stays.
        assert!(!result.pruned[2]);
    }

    #[test]
    fn matching_pruning_ignores_asymmetric_claims() {
        let g = path(3);
        // Node 0 claims node 1 but node 1 does not reciprocate: nobody is matched.
        let tentative = [Some(1), None, None];
        let result = MatchingPruning.prune(&view(&g), &units(3), &tentative);
        assert_eq!(result.pruned_count(), 0);
    }

    #[test]
    fn matching_gluing_property_holds() {
        for seed in 0..8u64 {
            let g = gnp(30, 0.15, seed);
            let n = g.node_count();
            // Random tentative partner claims: match node v to its first neighbour when both
            // indices have the same parity class mod 3 (arbitrary, often inconsistent).
            let tentative: Vec<Option<NodeId>> = (0..n)
                .map(|v| {
                    g.neighbors(v)
                        .iter()
                        .find(|&&w| (v + w) as u64 % 3 == seed % 3)
                        .map(|&w| g.id(w))
                })
                .collect();
            let result = MatchingPruning.prune(&view(&g), &units(n), &tentative);
            let keep: Vec<bool> = result.pruned.iter().map(|&p| !p).collect();
            let (sub, back) = g.induced_subgraph(&keep);
            let sub_solution = local_algos::synthetic::central_greedy_matching(&sub);
            let mut combined = tentative.clone();
            MatchingPruning.normalize_and_prune(&view(&g), &units(n), &mut combined);
            for (i, &orig) in back.iter().enumerate() {
                combined[orig] = sub_solution[i];
            }
            MatchingProblem
                .validate(&g, &units(n), &combined)
                .unwrap_or_else(|e| panic!("gluing failed (seed {seed}): {e}"));
        }
    }

    // ------------------------------------------------------------------ SLC ------------------

    #[test]
    fn slc_pruning_detects_solutions() {
        let g = cycle(4);
        let inputs = vec![SlcInput::full(2, 3); 4];
        let solution = [(1, 1), (2, 1), (1, 1), (2, 1)];
        assert!(SlcProblem.validate(&g, &inputs, &solution).is_ok());
        let result = SlcPruning.prune(&view(&g), &inputs, &solution);
        assert!(result.all_pruned());
        assert_eq!(PruningAlgorithm::<SlcProblem>::rounds(&SlcPruning), 1);
    }

    #[test]
    fn slc_pruning_removes_used_colors_from_survivors() {
        let g = path(3);
        let inputs = vec![SlcInput::full(2, 2); 3];
        // Node 1 clashes with node 0 (same colour) so 0 is kept?  No: node 0's colour equals
        // node 1's, so *neither* 0 nor 1 is pruned; node 2 has a distinct in-list colour and no
        // clash with node 1, so node 2 is pruned and its colour is removed from node 1's list.
        let tentative = [(1, 1), (1, 1), (2, 2)];
        let result = SlcPruning.prune(&view(&g), &inputs, &tentative);
        assert_eq!(result.pruned, vec![false, false, true]);
        assert!(!result.new_inputs[1].contains((2, 2)));
        assert!(result.new_inputs[0].contains((2, 2)), "node 0 keeps unaffected entries");
    }

    #[test]
    fn slc_pruning_preserves_the_copy_invariant() {
        // The SLC invariant: each surviving node keeps at least deg'(v) + 1 copies of every
        // base colour, where deg' is its degree in the surviving subgraph.
        let g = star(5);
        let inputs: Vec<SlcInput> = (0..5).map(|_| SlcInput::full(4, 2)).collect();
        // Leaves 1 and 2 pick valid distinct colours, centre clashes with leaf 3's colour.
        let tentative = [(1, 1), (1, 2), (2, 1), (1, 1), (2, 2)];
        let result = SlcPruning.prune(&view(&g), &inputs, &tentative);
        let keep: Vec<bool> = result.pruned.iter().map(|&p| !p).collect();
        let (sub, back) = g.induced_subgraph(&keep);
        for (sub_idx, &orig) in back.iter().enumerate() {
            let input = &result.new_inputs[orig];
            for k in input.base_colors() {
                assert!(
                    input.copies_of(k) > sub.degree(sub_idx),
                    "node {orig} has too few copies of colour {k}"
                );
            }
        }
    }

    #[test]
    fn slc_gluing_property_holds() {
        let g = cycle(6);
        let inputs = vec![SlcInput::full(2, 3); 6];
        // A tentative output where only some nodes are consistent.
        let tentative = [(1, 1), (1, 1), (2, 1), (3, 1), (9, 9), (2, 2)];
        let result = SlcPruning.prune(&view(&g), &inputs, &tentative);
        let keep: Vec<bool> = result.pruned.iter().map(|&p| !p).collect();
        let (sub, back) = g.induced_subgraph(&keep);
        // Solve the remaining SLC instance greedily (centralised reference).
        let mut sub_solution: Vec<SlcColor> = vec![(0, 0); sub.node_count()];
        for v in 0..sub.node_count() {
            let input = &result.new_inputs[back[v]];
            let used: std::collections::BTreeSet<SlcColor> =
                (0..v).filter(|&u| sub.has_edge(u, v)).map(|u| sub_solution[u]).collect();
            sub_solution[v] = input
                .iter()
                .find(|c| !used.contains(c))
                .expect("list large enough by the SLC invariant");
        }
        let mut combined: Vec<SlcColor> = tentative.to_vec();
        for (i, &orig) in back.iter().enumerate() {
            combined[orig] = sub_solution[i];
        }
        SlcProblem.validate(&g, &inputs, &combined).expect("glued SLC solution must be valid");
    }
}
