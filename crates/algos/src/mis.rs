//! Maximal-independent-set algorithms.
//!
//! * [`LubyMis`] — Luby's randomized MIS. **Uniform** (no global knowledge), terminates with
//!   probability 1, `O(log n)` rounds with high probability (Table 1, last row). Restricted to
//!   a round budget it becomes the *weak Monte-Carlo* algorithm fed to the Theorem 2
//!   transformer.
//! * [`GreedyMis`] — greedy by identity: a node joins once it is the largest-identity
//!   undecided node in its neighbourhood. **Uniform**, deterministic and always correct, but
//!   its running time is only bounded by the length of a decreasing-identity path (Θ(n) in the
//!   worst case). Used as the correctness baseline and inside the synthetic black boxes.
//! * [`ColoringMis`] — the classical non-uniform pipeline: (Δ+1)-colouring followed by the
//!   colouring→MIS reduction; non-uniform in `{Δ, m}`, `O(Δ² + log* m)` rounds (our stand-in
//!   for the `O(Δ + log* n)` algorithms of Table 1 row 1, see DESIGN.md).

use crate::coloring::{MisFromColoring, ReducedColoring};
use local_runtime::{
    Action, AlgoRun, Graph, GraphAlgorithm, GraphView, NodeInit, NodeProgram, ProgramSpec,
    RoundCtx, Session,
};
use rand::Rng;

/// Luby's randomized MIS (uniform).
#[derive(Debug, Clone, Copy, Default)]
pub struct LubyMis;

/// Messages of [`LubyMis`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LubyMsg {
    /// The sender's random value for this phase (sent by undecided nodes).
    Value(u64),
    /// The sender joined the MIS.
    Joined,
    /// The sender terminated without joining (it is dominated).
    Retired,
}

/// Phase-internal state of the Luby automaton.
#[derive(Debug)]
pub struct LubyProg {
    /// Ports of neighbours that are still undecided.
    undecided_neighbors: Vec<bool>,
    /// My random value for the current phase.
    my_value: u64,
    /// Whether a neighbour joined the MIS (then I retire).
    dominated: bool,
}

impl LubyProg {
    fn all_neighbors_decided(&self) -> bool {
        self.undecided_neighbors.iter().all(|&u| !u)
    }
}

impl NodeProgram for LubyProg {
    type Msg = LubyMsg;
    type Output = bool;

    fn round(&mut self, ctx: &mut RoundCtx<'_, LubyMsg>) -> Action<bool> {
        // Phases of two rounds: even round = draw + broadcast value, odd round = compare and
        // possibly join, then announce.
        for (port, msg) in ctx.messages() {
            match *msg {
                LubyMsg::Joined => {
                    self.dominated = true;
                    self.undecided_neighbors[port] = false;
                }
                LubyMsg::Retired => {
                    self.undecided_neighbors[port] = false;
                }
                LubyMsg::Value(_) => {}
            }
        }
        if self.dominated {
            ctx.broadcast(LubyMsg::Retired);
            return Action::Halt(false);
        }
        if ctx.round() % 2 == 0 {
            // If every neighbour is decided (and none joined), I can safely join.
            if self.all_neighbors_decided() {
                ctx.broadcast(LubyMsg::Joined);
                return Action::Halt(true);
            }
            self.my_value = ctx.rng().gen();
            ctx.broadcast(LubyMsg::Value(self.my_value));
            Action::Continue
        } else {
            // Join if my value is a strict local maximum among undecided neighbours
            // (ties broken against joining keeps adjacent nodes from joining together).
            let mut is_max = true;
            for (port, msg) in ctx.messages() {
                if let LubyMsg::Value(v) = *msg {
                    if self.undecided_neighbors[port] && v >= self.my_value {
                        is_max = false;
                    }
                }
            }
            if is_max {
                ctx.broadcast(LubyMsg::Joined);
                return Action::Halt(true);
            }
            Action::Continue
        }
    }
}

impl ProgramSpec for LubyMis {
    type Input = ();
    type Msg = LubyMsg;
    type Output = bool;
    type Prog = LubyProg;

    fn build(&self, init: &NodeInit<()>) -> LubyProg {
        LubyProg { undecided_neighbors: vec![true; init.degree], my_value: 0, dominated: false }
    }

    fn default_output(&self, _init: &NodeInit<()>) -> bool {
        false
    }
}

/// Greedy-by-identity MIS (uniform, deterministic).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyMis;

/// Messages of [`GreedyMis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GreedyMsg {
    /// The sender joined the MIS.
    Joined,
    /// The sender retired (a neighbour of it joined).
    Retired,
}

/// Node automaton for [`GreedyMis`]. Neighbor identities are read per round from
/// [`RoundCtx::neighbor_ids`] (the runtime's cached init slab) instead of being copied into
/// the automaton, so building a node costs one `undecided` vector and nothing else.
#[derive(Debug)]
pub struct GreedyMisProg {
    my_id: u64,
    undecided_neighbors: Vec<bool>,
    dominated: bool,
}

impl NodeProgram for GreedyMisProg {
    type Msg = GreedyMsg;
    type Output = bool;

    fn round(&mut self, ctx: &mut RoundCtx<'_, GreedyMsg>) -> Action<bool> {
        for (port, msg) in ctx.messages() {
            match *msg {
                GreedyMsg::Joined => {
                    self.dominated = true;
                    self.undecided_neighbors[port] = false;
                }
                GreedyMsg::Retired => {
                    self.undecided_neighbors[port] = false;
                }
            }
        }
        if self.dominated {
            ctx.broadcast(GreedyMsg::Retired);
            return Action::Halt(false);
        }
        let neighbor_ids = ctx.neighbor_ids();
        let highest_undecided = (0..neighbor_ids.len())
            .filter(|&p| self.undecided_neighbors[p])
            .map(|p| neighbor_ids[p])
            .max();
        match highest_undecided {
            Some(h) if h > self.my_id => Action::Continue,
            _ => {
                // I am the largest-identity undecided node in my closed neighbourhood.
                ctx.broadcast(GreedyMsg::Joined);
                Action::Halt(true)
            }
        }
    }
}

impl ProgramSpec for GreedyMis {
    type Input = ();
    type Msg = GreedyMsg;
    type Output = bool;
    type Prog = GreedyMisProg;

    fn build(&self, init: &NodeInit<()>) -> GreedyMisProg {
        GreedyMisProg {
            my_id: init.id,
            undecided_neighbors: vec![true; init.degree],
            dominated: false,
        }
    }

    fn default_output(&self, _init: &NodeInit<()>) -> bool {
        false
    }
}

/// Computes an MIS centrally by greedy over decreasing identity. Used by the synthetic black
/// boxes and by tests as a reference solution; not charged any rounds.
pub fn central_greedy_mis(g: &Graph) -> Vec<bool> {
    central_greedy_mis_view(&GraphView::full(g))
}

/// [`central_greedy_mis`] over a live [`GraphView`] (live-indexed output).
pub fn central_greedy_mis_view(view: &GraphView<'_>) -> Vec<bool> {
    let n = view.node_count();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(view.id(v)));
    let mut in_set = vec![false; n];
    let mut blocked = vec![false; n];
    for v in order {
        if !blocked[v] {
            in_set[v] = true;
            for w in view.neighbors(v) {
                blocked[w] = true;
            }
        }
    }
    in_set
}

/// The non-uniform colouring-based MIS: (Δ+1)-colouring followed by [`MisFromColoring`].
///
/// Non-uniform in `{Δ, m}`; round bound `O(Δ̃² + log* m̃) + (Δ̃ + 1)`.
#[derive(Debug, Clone)]
pub struct ColoringMis {
    /// Guess for the maximum degree `Δ`.
    pub delta_guess: u64,
    /// Guess for the largest identity `m`.
    pub id_bound_guess: u64,
}

impl ColoringMis {
    /// Upper bound on the number of rounds, as a function of the guesses.
    pub fn round_bound(&self) -> u64 {
        let coloring = ReducedColoring::delta_plus_one(self.delta_guess, self.id_bound_guess);
        coloring.round_bound() + self.delta_guess + 2
    }
}

impl GraphAlgorithm for ColoringMis {
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
        // Both phases are node automata, so the whole pipeline runs on the live view with the
        // session's buffers — no subgraph is materialized on the alternation hot path.
        let coloring = ReducedColoring::delta_plus_one(self.delta_guess, self.id_bound_guess);
        let phase1 = coloring.execute_view(view, inputs, budget, seed, session);
        let remaining = budget.map(|b| b.saturating_sub(phase1.rounds));
        if remaining == Some(0) && budget.is_some() {
            return AlgoRun {
                outputs: vec![false; view.node_count()],
                rounds: budget.unwrap_or(phase1.rounds),
                messages: phase1.messages,
                completed: false,
            };
        }
        let phase2 =
            MisFromColoring.execute_view(view, &phase1.outputs, remaining, seed ^ 0x5eed, session);
        AlgoRun {
            outputs: phase2.outputs,
            rounds: phase1.rounds + phase2.rounds,
            messages: phase1.messages + phase2.messages,
            completed: phase1.completed && phase2.completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::{check_independent_set, check_mis};
    use local_graphs::{
        complete, cycle, forest_union, gnp, grid, path, scramble_ids, star, Family, GraphParams,
    };
    use local_runtime::GraphAlgorithm;

    #[test]
    fn luby_computes_mis_on_many_graphs() {
        for (i, g) in [
            path(30),
            cycle(25),
            grid(6, 6),
            star(20),
            complete(12),
            gnp(80, 0.1, 3),
            forest_union(60, 3, 4),
        ]
        .iter()
        .enumerate()
        {
            let run = LubyMis.execute(g, &vec![(); g.node_count()], None, i as u64);
            assert!(run.completed, "Luby did not terminate on graph {i}");
            check_mis(g, &run.outputs).unwrap_or_else(|e| panic!("graph {i}: {e:?}"));
        }
    }

    #[test]
    fn luby_round_count_scales_logarithmically() {
        let small = Family::SparseGnp.generate(64, 1);
        let large = Family::SparseGnp.generate(1024, 1);
        let r_small = LubyMis.execute(&small, &vec![(); small.node_count()], None, 0).rounds;
        let r_large = LubyMis.execute(&large, &vec![(); large.node_count()], None, 0).rounds;
        // 16× more nodes should cost far less than 16× more rounds.
        assert!(r_large <= r_small * 6 + 20, "Luby not logarithmic: {r_small} -> {r_large}");
    }

    #[test]
    fn luby_is_reproducible_per_seed() {
        let g = gnp(70, 0.1, 5);
        let a = LubyMis.execute(&g, &[(); 70], None, 9);
        let b = LubyMis.execute(&g, &[(); 70], None, 9);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn luby_restricted_budget_gives_partial_but_independent_output() {
        let g = gnp(200, 0.05, 2);
        let run = LubyMis.execute(&g, &[(); 200], Some(2), 0);
        assert!(run.rounds <= 2);
        // Whatever has been decided is independent (nodes only join when locally maximal).
        check_independent_set(&g, &run.outputs).unwrap();
    }

    #[test]
    fn greedy_mis_is_correct_and_deterministic() {
        for g in [path(50), cycle(33), grid(5, 8), gnp(60, 0.15, 1), star(15)] {
            let a = GreedyMis.execute(&g, &vec![(); g.node_count()], None, 0);
            let b = GreedyMis.execute(&g, &vec![(); g.node_count()], None, 99);
            assert!(a.completed);
            check_mis(&g, &a.outputs).unwrap();
            assert_eq!(a.outputs, b.outputs, "greedy MIS must not depend on the seed");
        }
    }

    #[test]
    fn greedy_mis_matches_central_greedy() {
        let g = scramble_ids(&gnp(40, 0.2, 7), 1 << 16, 3);
        let distributed = GreedyMis.execute(&g, &vec![(); g.node_count()], None, 0);
        let central = central_greedy_mis(&g);
        assert_eq!(distributed.outputs, central);
    }

    #[test]
    fn central_greedy_mis_is_a_mis() {
        for g in [gnp(90, 0.1, 0), forest_union(70, 2, 1), complete(9)] {
            check_mis(&g, &central_greedy_mis(&g)).unwrap();
        }
    }

    #[test]
    fn coloring_mis_with_correct_guesses_is_correct() {
        for g in [grid(7, 7), gnp(90, 0.07, 6), forest_union(60, 3, 8), cycle(41)] {
            let p = GraphParams::of(&g);
            let algo = ColoringMis { delta_guess: p.max_degree, id_bound_guess: p.max_id };
            let run = algo.execute(&g, &vec![(); g.node_count()], None, 0);
            assert!(run.completed);
            check_mis(&g, &run.outputs).unwrap();
            assert!(
                run.rounds <= algo.round_bound(),
                "rounds {} > bound {}",
                run.rounds,
                algo.round_bound()
            );
        }
    }

    #[test]
    fn coloring_mis_respects_budget_even_with_bad_guesses() {
        let g = gnp(80, 0.2, 3);
        let algo = ColoringMis { delta_guess: 1, id_bound_guess: 1 };
        let run = algo.execute(&g, &[(); 80], Some(7), 0);
        assert!(run.rounds <= 7);
        assert_eq!(run.outputs.len(), 80);
    }

    #[test]
    fn coloring_mis_on_empty_graph() {
        let g = local_runtime::Graph::from_edges(0, &[]).unwrap();
        let algo = ColoringMis { delta_guess: 5, id_bound_guess: 5 };
        let run = algo.execute(&g, &[], None, 0);
        assert!(run.completed);
        assert!(run.outputs.is_empty());
    }

    #[test]
    fn luby_on_single_node_and_edgeless_graphs() {
        let single = local_runtime::Graph::from_edges(1, &[]).unwrap();
        let run = LubyMis.execute(&single, &[(); 1], None, 0);
        assert_eq!(run.outputs, vec![true]);
        let edgeless = local_graphs::edgeless(10);
        let run = LubyMis.execute(&edgeless, &[(); 10], None, 0);
        assert!(run.outputs.iter().all(|&b| b));
    }
}
