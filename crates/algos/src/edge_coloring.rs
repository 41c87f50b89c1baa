//! Edge-colouring algorithms.
//!
//! [`LineGraphEdgeColoring`] colours the edges of `G` by running the non-uniform vertex
//! colouring pipeline on the line graph `L(G)`: the maximum degree of `L(G)` is at most
//! `2(Δ−1)`, so a (Δ_L+1)-colouring of `L(G)` is a proper edge colouring of `G` with
//! `2Δ − 1` colours. This mirrors how Barenboim–Elkin obtain their edge-colouring algorithms
//! (the paper applies Theorem 5 to a vertex-colouring algorithm run on line graphs,
//! Section 5.2).
//!
//! **Round accounting.** One round of a LOCAL algorithm on `L(G)` is simulated in one round on
//! `G` by letting *both* endpoints of every edge run the edge's automaton: two edges adjacent
//! in `L(G)` share an endpoint, which can forward their messages within a single round of `G`.
//! The composite therefore charges the `L(G)` execution's rounds plus one.

use crate::coloring::ReducedColoring;
use local_runtime::line_graph::ID_PACK;
use local_runtime::{AlgoRun, GraphAlgorithm, GraphView, LineGraph, Session};

/// Proper edge colouring with `2Δ̃ − 1` colours via vertex-colouring the line graph.
/// Non-uniform in `{Δ, m}`.
#[derive(Debug, Clone)]
pub struct LineGraphEdgeColoring {
    /// Guess for the maximum degree `Δ` of the original graph.
    pub delta_guess: u64,
    /// Guess for the largest identity `m` of the original graph.
    pub id_bound_guess: u64,
}

impl LineGraphEdgeColoring {
    /// The degree guess used on the line graph: `Δ(L(G)) ≤ 2(Δ − 1)`.
    pub fn line_graph_delta_guess(&self) -> u64 {
        2 * self.delta_guess.saturating_sub(1).max(1)
    }

    /// The identity bound used on the line graph (edge identities are packed from the endpoint
    /// identities; see [`LineGraph::of`]).
    pub fn line_graph_id_bound(&self) -> u64 {
        self.id_bound_guess.saturating_mul(ID_PACK).saturating_add(self.id_bound_guess).max(1)
    }

    /// Number of colours used (the palette of the line-graph colouring): `2Δ̃ − 1`.
    pub fn palette(&self) -> u64 {
        self.line_graph_delta_guess() + 1
    }

    /// Upper bound on the number of rounds, as a function of the guesses.
    pub fn round_bound(&self) -> u64 {
        ReducedColoring::delta_plus_one(self.line_graph_delta_guess(), self.line_graph_id_bound())
            .round_bound()
            + 1
    }

    fn inner(&self) -> ReducedColoring {
        ReducedColoring::delta_plus_one(self.line_graph_delta_guess(), self.line_graph_id_bound())
    }
}

impl GraphAlgorithm for LineGraphEdgeColoring {
    type Input = ();
    type Output = Vec<u64>;

    fn execute_view(
        &self,
        view: &GraphView<'_>,
        inputs: &[()],
        budget: Option<u64>,
        seed: u64,
        _session: &mut Session,
    ) -> AlgoRun<Vec<u64>> {
        if view.is_empty() {
            return AlgoRun::empty();
        }
        debug_assert_eq!(inputs.len(), view.node_count());
        let lg = LineGraph::of(view);
        if lg.graph.is_empty() {
            // No edges: every node has an empty port-colour vector.
            return AlgoRun {
                outputs: vec![Vec::new(); view.node_count()],
                rounds: 0,
                messages: 0,
                completed: true,
            };
        }
        // A fresh session for L(G): its init slab (identities and routing columns per arc)
        // scales with Σ deg², and pooling it would keep that much memory alive in the
        // caller's session after this run.
        let lg_run =
            self.inner().execute(&lg.graph, &vec![(); lg.graph.node_count()], budget, seed);
        AlgoRun {
            outputs: port_colors(&lg, &lg_run.outputs),
            rounds: (lg_run.rounds + 1).min(budget.unwrap_or(u64::MAX)),
            messages: lg_run.messages,
            completed: lg_run.completed,
        }
    }
}

/// Maps a colouring of the line graph back to the ports of the view `lg` was built from:
/// `colors[i]` is the colour of line-graph node `i`, and the result holds, per node of the
/// view, the colour on each of its ports.
pub fn port_colors(lg: &LineGraph, colors: &[u64]) -> Vec<Vec<u64>> {
    lg.port_edge_rows().map(|row| row.iter().map(|&e| colors[e]).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::{check_edge_coloring, palette_size};
    use local_graphs::{cycle, gnp, grid, path, star, GraphParams};

    #[test]
    fn edge_coloring_is_proper_on_many_graphs() {
        for g in [path(20), cycle(15), grid(5, 5), star(10), gnp(50, 0.1, 2)] {
            let p = GraphParams::of(&g);
            let algo =
                LineGraphEdgeColoring { delta_guess: p.max_degree, id_bound_guess: p.max_id };
            let run = algo.execute(&g, &vec![(); g.node_count()], None, 0);
            assert!(run.completed);
            check_edge_coloring(&g, &run.outputs).expect("edge colouring must be proper");
            assert!(run.rounds <= algo.round_bound());
        }
    }

    #[test]
    fn edge_coloring_palette_is_at_most_2_delta_minus_1() {
        let g = gnp(60, 0.08, 7);
        let p = GraphParams::of(&g);
        let algo = LineGraphEdgeColoring { delta_guess: p.max_degree, id_bound_guess: p.max_id };
        let run = algo.execute(&g, &vec![(); g.node_count()], None, 0);
        let all_colors: Vec<u64> = run.outputs.iter().flatten().copied().collect();
        assert!(palette_size(&all_colors) as u64 <= algo.palette());
        assert!(all_colors.iter().all(|&c| c < algo.palette()));
    }

    #[test]
    fn star_needs_degree_many_colors() {
        let g = star(8);
        let algo = LineGraphEdgeColoring { delta_guess: 7, id_bound_guess: 7 };
        let run = algo.execute(&g, &[(); 8], None, 0);
        check_edge_coloring(&g, &run.outputs).unwrap();
        // All 7 edges share the centre, so 7 distinct colours are necessary.
        let center: std::collections::BTreeSet<u64> = run.outputs[0].iter().copied().collect();
        assert_eq!(center.len(), 7);
    }

    #[test]
    fn edgeless_graph_gets_empty_port_vectors() {
        let g = local_graphs::edgeless(5);
        let algo = LineGraphEdgeColoring { delta_guess: 1, id_bound_guess: 5 };
        let run = algo.execute(&g, &[(); 5], None, 0);
        assert!(run.completed);
        assert!(run.outputs.iter().all(|v| v.is_empty()));
    }

    #[test]
    fn budget_is_respected() {
        let g = gnp(40, 0.2, 1);
        let algo = LineGraphEdgeColoring { delta_guess: 30, id_bound_guess: 1 << 20 };
        let run = algo.execute(&g, &[(); 40], Some(3), 0);
        assert!(run.rounds <= 3);
    }
}
