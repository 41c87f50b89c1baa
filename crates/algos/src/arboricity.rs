//! Arboricity-parameterised algorithms (Barenboim–Elkin style).
//!
//! The key tool is the *H-partition* (degree peeling): given guesses `ã ≥ a` and `ñ ≥ n`,
//! repeatedly peel every node whose remaining degree is at most `(2+ε)·ã`. A Nash-Williams
//! counting argument shows that each peeling round removes at least an `ε/(2+ε)` fraction of
//! the surviving nodes, so `ℓ(ñ) = ⌈log_{(2+ε)/2} ñ⌉ + 1` rounds empty the graph when the
//! guesses are good. Nodes that survive all `ℓ` rounds (possible only under bad guesses) are
//! dumped into the last layer.
//!
//! On top of the partition, [`ArboricityMis`] computes an MIS layer by layer, from the last
//! layer down to the first: within the subgraph induced by the still-undominated nodes of one
//! layer, every node has at most `(2+ε)·ã` neighbours in its own or higher layers, so the
//! non-uniform colouring MIS with degree guess `(2+ε)·ã` finishes each layer quickly.
//!
//! Substitution note (DESIGN.md): the paper cites the `O(log n / log log n)` MIS of
//! Barenboim–Elkin \[6\]; our layer-by-layer pipeline has the same parameter set `{a, n, m}` and
//! a bound of the form `ℓ(ñ) · (poly(ã) + log* m̃)`, which is what Theorem 3 consumes (`Γ =
//! {a, n}` weakly dominated by `Λ = {n}` because `a ≤ n` and `m` plays the role the paper
//! assigns to identities).

use crate::mis::ColoringMis;
use local_runtime::{
    Action, AlgoRun, Graph, GraphAlgorithm, GraphView, NodeInit, NodeProgram, ProgramSpec,
    RoundCtx, Session,
};

/// Number of peeling rounds used for a given guess of `n` (with ε = 1, i.e. threshold `3ã`).
pub fn h_partition_layers(n_guess: u64) -> u64 {
    // Each round removes at least 1/3 of the surviving nodes, so log_{3/2} n rounds suffice.
    let mut layers = 1u64;
    let mut remaining = n_guess.max(1) as f64;
    while remaining > 1.0 && layers < 200 {
        remaining *= 2.0 / 3.0;
        layers += 1;
    }
    layers
}

/// The H-partition / degree-peeling algorithm: outputs a layer index per node.
/// Non-uniform in `{a, n}`; runs in `ℓ(ñ) + 1` rounds.
#[derive(Debug, Clone)]
pub struct HPartition {
    /// Guess for the arboricity `a` (we use the degeneracy as its computable stand-in).
    pub arboricity_guess: u64,
    /// Guess for the number of nodes `n`.
    pub n_guess: u64,
}

impl HPartition {
    /// Peeling threshold `(2+ε)·ã` with ε = 1.
    pub fn threshold(&self) -> u64 {
        3 * self.arboricity_guess.max(1)
    }

    /// Number of layers (and peeling rounds).
    pub fn layers(&self) -> u64 {
        h_partition_layers(self.n_guess)
    }

    /// Upper bound on the number of rounds.
    pub fn round_bound(&self) -> u64 {
        self.layers() + 1
    }
}

/// Messages of [`HPartition`]: `true` = "I am leaving the active set this round".
pub type LeaveMsg = bool;

/// Node automaton for [`HPartition`].
#[derive(Debug)]
pub struct HPartitionProg {
    threshold: u64,
    layers: u64,
    active_neighbors: u64,
}

impl NodeProgram for HPartitionProg {
    type Msg = LeaveMsg;
    type Output = u64;

    fn round(&mut self, ctx: &mut RoundCtx<'_, LeaveMsg>) -> Action<u64> {
        for (_, &left) in ctx.messages() {
            if left {
                self.active_neighbors = self.active_neighbors.saturating_sub(1);
            }
        }
        let layer = ctx.round() + 1;
        if self.active_neighbors <= self.threshold || layer >= self.layers {
            // Peel myself into the current layer (forced into the last layer if the guesses
            // were too small to empty the graph).
            ctx.broadcast(true);
            return Action::Halt(layer.min(self.layers));
        }
        ctx.broadcast(false);
        Action::Continue
    }
}

impl ProgramSpec for HPartition {
    type Input = ();
    type Msg = LeaveMsg;
    type Output = u64;
    type Prog = HPartitionProg;

    fn build(&self, init: &NodeInit<()>) -> HPartitionProg {
        HPartitionProg {
            threshold: self.threshold(),
            layers: self.layers(),
            active_neighbors: init.degree as u64,
        }
    }

    fn default_output(&self, _init: &NodeInit<()>) -> u64 {
        self.layers()
    }
}

/// Checks that a layer assignment is a valid H-partition with the given threshold: every node
/// has at most `threshold` neighbours in its own or higher layers. (Centralised validator.)
pub fn check_h_partition(g: &Graph, layers: &[u64], threshold: u64) -> bool {
    (0..g.node_count()).all(|v| {
        let later = g.neighbors(v).iter().filter(|&&w| layers[w] >= layers[v]).count() as u64;
        later <= threshold
    })
}

/// MIS via H-partition + per-layer colouring MIS. Non-uniform in `{a, n, m}`.
#[derive(Debug, Clone)]
pub struct ArboricityMis {
    /// Guess for the arboricity `a`.
    pub arboricity_guess: u64,
    /// Guess for the number of nodes `n`.
    pub n_guess: u64,
    /// Guess for the largest identity `m`.
    pub id_bound_guess: u64,
}

impl ArboricityMis {
    fn partition(&self) -> HPartition {
        HPartition { arboricity_guess: self.arboricity_guess, n_guess: self.n_guess }
    }

    /// Upper bound on the number of rounds, as a function of the guesses:
    /// `ℓ(ñ) + 1` for the partition plus, per layer, the colouring-MIS bound with degree guess
    /// `3ã` plus two bookkeeping rounds.
    pub fn round_bound(&self) -> u64 {
        let partition = self.partition();
        let per_layer =
            ColoringMis { delta_guess: partition.threshold(), id_bound_guess: self.id_bound_guess }
                .round_bound()
                + 2;
        partition.round_bound() + partition.layers() * per_layer
    }
}

impl GraphAlgorithm for ArboricityMis {
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
        if view.is_empty() {
            return AlgoRun::empty();
        }
        debug_assert_eq!(inputs.len(), view.node_count());
        let n = view.node_count();
        let partition = self.partition();
        let part_run = partition.execute_view(view, inputs, budget, seed, session);
        let mut rounds = part_run.rounds;
        let mut messages = part_run.messages;
        let out_of_budget = |rounds: u64| budget.is_some_and(|b| rounds >= b);

        let layers = part_run.outputs;
        let max_layer = partition.layers();
        let mut in_mis = vec![false; n];
        let mut dominated = vec![false; n];
        let per_layer_algo =
            ColoringMis { delta_guess: partition.threshold(), id_bound_guess: self.id_bound_guess };

        // Process layers from the last (highest) to the first.
        let mut layer = max_layer;
        let mut completed = part_run.completed;
        while layer >= 1 {
            if out_of_budget(rounds) {
                completed = false;
                break;
            }
            let keep: Vec<bool> =
                (0..n).map(|v| layers[v] == layer && !dominated[v] && !in_mis[v]).collect();
            if keep.iter().any(|&k| k) {
                let mut layer_view = view.clone();
                layer_view.retain(&keep);
                let remaining = budget.map(|b| b.saturating_sub(rounds));
                let sub_run = per_layer_algo.execute_view(
                    &layer_view,
                    &vec![(); layer_view.node_count()],
                    remaining,
                    seed ^ layer,
                    session,
                );
                rounds += sub_run.rounds + 2; // +2: dominance notification to lower layers.
                messages += sub_run.messages;
                completed &= sub_run.completed;
                // Live indices of the layer view ascend with the view's own.
                let members = (0..n).filter(|&v| keep[v]);
                for (v, joined) in members.zip(sub_run.outputs) {
                    if joined {
                        in_mis[v] = true;
                        for w in view.neighbors(v) {
                            dominated[w] = true;
                        }
                    }
                }
            }
            layer -= 1;
        }
        if let Some(b) = budget {
            rounds = rounds.min(b);
        }
        AlgoRun { outputs: in_mis, rounds, messages, completed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::check_mis;
    use local_graphs::{binary_tree, forest_union, grid, path, random_tree, GraphParams};
    use local_runtime::GraphAlgorithm;

    #[test]
    fn h_partition_layer_counts_grow_logarithmically() {
        assert!(h_partition_layers(16) <= 12);
        assert!(h_partition_layers(1 << 20) <= 40);
        assert!(h_partition_layers(1 << 20) >= h_partition_layers(16));
    }

    #[test]
    fn h_partition_is_valid_on_low_arboricity_graphs() {
        for g in [random_tree(100, 1), forest_union(120, 3, 2), grid(8, 8), binary_tree(63)] {
            let p = GraphParams::of(&g);
            let hp = HPartition { arboricity_guess: p.degeneracy.max(1), n_guess: p.n };
            let run = hp.execute(&g, &vec![(); g.node_count()], None, 0);
            assert!(run.completed);
            assert!(
                check_h_partition(&g, &run.outputs, hp.threshold()),
                "invalid H-partition (threshold {})",
                hp.threshold()
            );
            assert!(run.rounds <= hp.round_bound());
        }
    }

    #[test]
    fn h_partition_respects_budget_with_bad_guesses() {
        let g = local_graphs::complete(30);
        let hp = HPartition { arboricity_guess: 1, n_guess: 4 };
        let run = hp.execute(&g, &[(); 30], None, 0);
        // Even with silly guesses the algorithm stops by itself within its round bound.
        assert!(run.rounds <= hp.round_bound());
    }

    #[test]
    fn arboricity_mis_is_correct_on_forests_and_grids() {
        for g in [random_tree(80, 3), forest_union(90, 2, 5), grid(7, 7), path(40)] {
            let p = GraphParams::of(&g);
            let algo = ArboricityMis {
                arboricity_guess: p.degeneracy.max(1),
                n_guess: p.n,
                id_bound_guess: p.max_id,
            };
            let run = algo.execute(&g, &vec![(); g.node_count()], None, 0);
            assert!(run.completed);
            check_mis(&g, &run.outputs).unwrap();
            assert!(run.rounds <= algo.round_bound());
        }
    }

    #[test]
    fn arboricity_mis_respects_budget() {
        let g = forest_union(100, 3, 1);
        let algo = ArboricityMis { arboricity_guess: 1, n_guess: 2, id_bound_guess: 2 };
        let run = algo.execute(&g, &[(); 100], Some(9), 0);
        assert!(run.rounds <= 9);
        assert_eq!(run.outputs.len(), 100);
    }

    #[test]
    fn empty_graph_runs() {
        let g = local_runtime::Graph::from_edges(0, &[]).unwrap();
        let algo = ArboricityMis { arboricity_guess: 1, n_guess: 1, id_bound_guess: 1 };
        assert!(algo.execute(&g, &[], None, 0).completed);
    }
}
