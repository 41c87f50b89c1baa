//! Maximal-matching algorithms.
//!
//! * [`ProposalMatching`] — randomized proposer/acceptor matching (Israeli–Itai style).
//!   **Uniform**, always correct on termination (Las Vegas), `O(log n)` phases with high
//!   probability. Restricted to a budget it is the weak Monte-Carlo algorithm used with the
//!   Theorem 2 transformer.
//! * [`PointerMatching`] — deterministic greedy matching by identities: every unmatched node
//!   points at its smallest-identity unmatched neighbour, mutual pointers marry. **Uniform**
//!   and always correct; worst-case Θ(n) rounds (correctness baseline).
//! * [`MatchingFromEdgeColoring`] — the classical non-uniform pipeline: edge-colour the graph
//!   (via the line graph) and add colour classes greedily, one class per round. Non-uniform in
//!   `{Δ, m}`; our stand-in for the Hańćkowiak et al. `O(log⁴ n)` algorithm of Table 1 row 8
//!   (see DESIGN.md for the substitution argument).

use crate::edge_coloring::LineGraphEdgeColoring;
use local_runtime::{
    Action, AlgoRun, GraphAlgorithm, GraphView, NodeId, NodeInit, NodeProgram, ProgramSpec,
    RoundCtx, Session,
};
use rand::Rng;

/// Per-node matching output: the identity of the matched neighbour, or `None`.
pub type Partner = Option<NodeId>;

/// Randomized proposer/acceptor maximal matching (uniform).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProposalMatching;

/// Messages of [`ProposalMatching`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProposalMsg {
    /// "I propose to marry you."
    Propose,
    /// "I accept your proposal."
    Accept,
    /// "I am matched" (bookkeeping so neighbours can retire).
    Matched,
    /// "I am retired" (all my neighbours are matched, I can never be matched).
    Retired,
}

/// Node automaton for [`ProposalMatching`].
#[derive(Debug)]
pub struct ProposalProg {
    /// Neighbours that can still be matched to me.
    available: Vec<bool>,
    /// Port I proposed to in the current phase, if any.
    proposed_to: Option<usize>,
    /// Port I accepted in the current phase, if any.
    accepted: Option<usize>,
    partner: Partner,
}

impl ProposalProg {
    fn no_available_neighbor(&self) -> bool {
        self.available.iter().all(|&a| !a)
    }
}

impl NodeProgram for ProposalProg {
    type Msg = ProposalMsg;
    type Output = Partner;

    fn round(&mut self, ctx: &mut RoundCtx<'_, ProposalMsg>) -> Action<Partner> {
        // Bookkeeping valid in every round.
        let inbox: Vec<(usize, ProposalMsg)> =
            ctx.messages().map(|(port, &msg)| (port, msg)).collect();
        for &(port, msg) in &inbox {
            match msg {
                ProposalMsg::Matched | ProposalMsg::Retired => self.available[port] = false,
                _ => {}
            }
        }
        // Phase structure: 3 rounds per phase.
        match ctx.round() % 3 {
            0 => {
                // If I became matched last phase, announce and halt.
                if self.partner.is_some() {
                    ctx.broadcast(ProposalMsg::Matched);
                    return Action::Halt(self.partner);
                }
                if self.no_available_neighbor() {
                    ctx.broadcast(ProposalMsg::Retired);
                    return Action::Halt(None);
                }
                // Flip a coin: proposer or acceptor.
                self.proposed_to = None;
                self.accepted = None;
                if ctx.rng().gen_bool(0.5) {
                    let candidates: Vec<usize> =
                        (0..self.available.len()).filter(|&p| self.available[p]).collect();
                    let pick = candidates[ctx.rng().gen_range(0..candidates.len())];
                    self.proposed_to = Some(pick);
                    ctx.send(pick, ProposalMsg::Propose);
                }
                Action::Continue
            }
            1 => {
                // Acceptors: accept exactly one incoming proposal (smallest sender identity),
                // but only if we did not propose ourselves this phase.
                if self.proposed_to.is_none() && self.partner.is_none() {
                    let mut best: Option<usize> = None;
                    for &(port, msg) in &inbox {
                        if msg == ProposalMsg::Propose && self.available[port] {
                            let ids = ctx.neighbor_ids();
                            best = match best {
                                None => Some(port),
                                Some(b) if ids[port] < ids[b] => Some(port),
                                keep => keep,
                            };
                        }
                    }
                    if let Some(port) = best {
                        self.accepted = Some(port);
                        self.partner = Some(ctx.neighbor_ids()[port]);
                        ctx.send(port, ProposalMsg::Accept);
                    }
                }
                Action::Continue
            }
            _ => {
                // Proposers: if the node we proposed to accepted, we are matched.
                if let Some(port) = self.proposed_to {
                    let accepted_by_target =
                        inbox.iter().any(|&(p, msg)| p == port && msg == ProposalMsg::Accept);
                    if accepted_by_target {
                        self.partner = Some(ctx.neighbor_ids()[port]);
                    }
                }
                Action::Continue
            }
        }
    }
}

impl ProgramSpec for ProposalMatching {
    type Input = ();
    type Msg = ProposalMsg;
    type Output = Partner;
    type Prog = ProposalProg;

    fn build(&self, init: &NodeInit<()>) -> ProposalProg {
        ProposalProg {
            available: vec![true; init.degree],
            proposed_to: None,
            accepted: None,
            partner: None,
        }
    }

    fn default_output(&self, _init: &NodeInit<()>) -> Partner {
        None
    }
}

/// Deterministic pointer matching by identities (uniform).
#[derive(Debug, Clone, Copy, Default)]
pub struct PointerMatching;

/// Messages of [`PointerMatching`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointerMsg {
    /// "You are my preferred unmatched neighbour."
    PointAt,
    /// "I am matched."
    Matched,
    /// "I am retired."
    Retired,
}

/// Node automaton for [`PointerMatching`].
#[derive(Debug)]
pub struct PointerProg {
    available: Vec<bool>,
    pointed_at: Option<usize>,
    partner: Partner,
}

impl NodeProgram for PointerProg {
    type Msg = PointerMsg;
    type Output = Partner;

    fn round(&mut self, ctx: &mut RoundCtx<'_, PointerMsg>) -> Action<Partner> {
        let inbox: Vec<(usize, PointerMsg)> =
            ctx.messages().map(|(port, &msg)| (port, msg)).collect();
        for &(port, msg) in &inbox {
            match msg {
                PointerMsg::Matched | PointerMsg::Retired => self.available[port] = false,
                PointerMsg::PointAt => {}
            }
        }
        // Phase of 2 rounds: even = point, odd = marry mutual pointers.
        if ctx.round() % 2 == 0 {
            if self.partner.is_some() {
                ctx.broadcast(PointerMsg::Matched);
                return Action::Halt(self.partner);
            }
            if self.available.iter().all(|&a| !a) {
                ctx.broadcast(PointerMsg::Retired);
                return Action::Halt(None);
            }
            // Point at the smallest-identity available neighbour.
            let ids = ctx.neighbor_ids();
            let target = (0..self.available.len())
                .filter(|&p| self.available[p])
                .min_by_key(|&p| ids[p])
                .expect("an available neighbour exists");
            self.pointed_at = Some(target);
            ctx.send(target, PointerMsg::PointAt);
            Action::Continue
        } else {
            if let Some(target) = self.pointed_at {
                let mutual =
                    inbox.iter().any(|&(p, msg)| p == target && msg == PointerMsg::PointAt);
                if mutual {
                    self.partner = Some(ctx.neighbor_ids()[target]);
                }
            }
            Action::Continue
        }
    }
}

impl ProgramSpec for PointerMatching {
    type Input = ();
    type Msg = PointerMsg;
    type Output = Partner;
    type Prog = PointerProg;

    fn build(&self, init: &NodeInit<()>) -> PointerProg {
        PointerProg { available: vec![true; init.degree], pointed_at: None, partner: None }
    }

    fn default_output(&self, _init: &NodeInit<()>) -> Partner {
        None
    }
}

/// Adds colour classes of an edge colouring greedily, one class per round: if the edge on my
/// port `p` has colour `t−1` (processed in round `t`) and both endpoints are still unmatched,
/// they marry. Uniform given the edge colouring and the number of colours.
#[derive(Debug, Clone)]
pub struct GreedyClassMatching {
    /// Number of colour classes to process (derived from the guesses by the caller).
    pub num_colors: u64,
}

/// Input of [`GreedyClassMatching`]: colour of the edge on each port.
pub type PortColors = Vec<u64>;

/// Messages of [`GreedyClassMatching`]: `true` = "I am (now) matched".
pub type MatchedMsg = bool;

/// Node automaton for [`GreedyClassMatching`].
#[derive(Debug)]
pub struct GreedyClassProg {
    port_colors: Vec<u64>,
    neighbor_matched: Vec<bool>,
    partner: Partner,
    num_colors: u64,
}

impl NodeProgram for GreedyClassProg {
    type Msg = MatchedMsg;
    type Output = Partner;

    fn round(&mut self, ctx: &mut RoundCtx<'_, MatchedMsg>) -> Action<Partner> {
        for (port, &matched) in ctx.messages() {
            if matched {
                self.neighbor_matched[port] = true;
            }
        }
        let t = ctx.round();
        if t >= 1 && self.partner.is_none() {
            let class = t - 1;
            // At most one incident edge has this colour (properness).
            if let Some(port) = (0..self.port_colors.len())
                .find(|&p| self.port_colors[p] == class && !self.neighbor_matched[p])
            {
                // The neighbour sees the same colour on the shared edge and the same matched
                // statuses as of the previous round, so the decision is symmetric.
                self.partner = Some(ctx.neighbor_ids()[port]);
                ctx.broadcast(true);
            }
        }
        if t >= self.num_colors {
            return Action::Halt(self.partner);
        }
        Action::Continue
    }
}

impl ProgramSpec for GreedyClassMatching {
    type Input = PortColors;
    type Msg = MatchedMsg;
    type Output = Partner;
    type Prog = GreedyClassProg;

    fn build(&self, init: &NodeInit<PortColors>) -> GreedyClassProg {
        GreedyClassProg {
            port_colors: init.input.clone(),
            neighbor_matched: vec![false; init.degree],
            partner: None,
            num_colors: self.num_colors,
        }
    }

    fn default_output(&self, _init: &NodeInit<PortColors>) -> Partner {
        None
    }
}

/// The non-uniform deterministic maximal matching: edge-colour with `O(Δ̃)` colours via the
/// line graph, then add the colour classes greedily. Non-uniform in `{Δ, m}`.
#[derive(Debug, Clone)]
pub struct MatchingFromEdgeColoring {
    /// Guess for the maximum degree `Δ` of the original graph.
    pub delta_guess: u64,
    /// Guess for the largest identity `m` of the original graph.
    pub id_bound_guess: u64,
}

impl MatchingFromEdgeColoring {
    fn edge_coloring(&self) -> LineGraphEdgeColoring {
        LineGraphEdgeColoring { delta_guess: self.delta_guess, id_bound_guess: self.id_bound_guess }
    }

    /// Upper bound on the number of rounds, as a function of the guesses.
    pub fn round_bound(&self) -> u64 {
        let ec = self.edge_coloring();
        ec.round_bound() + ec.palette() + 2
    }
}

impl GraphAlgorithm for MatchingFromEdgeColoring {
    type Input = ();
    type Output = Partner;

    fn execute_view(
        &self,
        view: &GraphView<'_>,
        inputs: &[()],
        budget: Option<u64>,
        seed: u64,
        session: &mut Session,
    ) -> AlgoRun<Partner> {
        if view.is_empty() {
            return AlgoRun::empty();
        }
        debug_assert_eq!(inputs.len(), view.node_count());
        // Phase 1 builds the line graph of the view; the colour-class adder is a node
        // automaton and runs on the view itself.
        let ec = self.edge_coloring();
        let phase1 = ec.execute_view(view, inputs, budget, seed, session);
        let remaining = budget.map(|b| b.saturating_sub(phase1.rounds));
        if remaining == Some(0) && budget.is_some() {
            return AlgoRun {
                outputs: vec![None; view.node_count()],
                rounds: budget.unwrap_or(phase1.rounds),
                messages: phase1.messages,
                completed: false,
            };
        }
        let adder = GreedyClassMatching { num_colors: ec.palette() };
        let phase2 = adder.execute_view(view, &phase1.outputs, remaining, seed ^ 0xabcd, session);
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
    use crate::checkers::{check_matching, check_maximal_matching};
    use local_graphs::{complete, cycle, gnp, grid, path, star, GraphParams};
    use local_runtime::GraphAlgorithm;

    #[test]
    fn proposal_matching_is_maximal_on_many_graphs() {
        for (i, g) in [path(20), cycle(21), grid(5, 6), star(12), complete(9), gnp(70, 0.1, 4)]
            .iter()
            .enumerate()
        {
            let run = ProposalMatching.execute(g, &vec![(); g.node_count()], None, i as u64);
            assert!(run.completed, "proposal matching did not terminate on graph {i}");
            check_maximal_matching(g, &run.outputs).unwrap_or_else(|e| panic!("graph {i}: {e:?}"));
        }
    }

    #[test]
    fn proposal_matching_budgeted_is_a_matching() {
        let g = gnp(120, 0.05, 2);
        let run = ProposalMatching.execute(&g, &[(); 120], Some(6), 0);
        assert!(run.rounds <= 6);
        // Possibly not maximal, but whatever is matched must be consistent.
        check_matching(&g, &run.outputs).unwrap();
    }

    #[test]
    fn proposal_matching_round_count_scales_slowly() {
        let small = gnp(64, 8.0 / 64.0, 1);
        let large = gnp(1024, 8.0 / 1024.0, 1);
        let r_small =
            ProposalMatching.execute(&small, &vec![(); small.node_count()], None, 0).rounds;
        let r_large =
            ProposalMatching.execute(&large, &vec![(); large.node_count()], None, 0).rounds;
        assert!(r_large <= r_small * 8 + 30, "not logarithmic-ish: {r_small} -> {r_large}");
    }

    #[test]
    fn pointer_matching_is_maximal_and_deterministic() {
        for g in [path(25), cycle(16), grid(4, 7), gnp(50, 0.12, 9), star(10)] {
            let a = PointerMatching.execute(&g, &vec![(); g.node_count()], None, 0);
            let b = PointerMatching.execute(&g, &vec![(); g.node_count()], None, 5);
            assert!(a.completed);
            check_maximal_matching(&g, &a.outputs).unwrap();
            assert_eq!(a.outputs, b.outputs);
        }
    }

    #[test]
    fn matching_from_edge_coloring_is_maximal() {
        for g in [path(30), cycle(18), grid(6, 5), gnp(60, 0.08, 3), star(14)] {
            let p = GraphParams::of(&g);
            let algo =
                MatchingFromEdgeColoring { delta_guess: p.max_degree, id_bound_guess: p.max_id };
            let run = algo.execute(&g, &vec![(); g.node_count()], None, 0);
            assert!(run.completed);
            check_maximal_matching(&g, &run.outputs).unwrap();
            assert!(run.rounds <= algo.round_bound());
        }
    }

    #[test]
    fn matching_from_edge_coloring_respects_budget() {
        let g = gnp(60, 0.15, 1);
        let algo = MatchingFromEdgeColoring { delta_guess: 2, id_bound_guess: 2 };
        let run = algo.execute(&g, &[(); 60], Some(5), 0);
        assert!(run.rounds <= 5);
    }

    #[test]
    fn matching_on_single_edge() {
        let g = path(2);
        let run = PointerMatching.execute(&g, &[(); 2], None, 0);
        assert_eq!(run.outputs[0], Some(1));
        assert_eq!(run.outputs[1], Some(0));
        let run = ProposalMatching.execute(&g, &[(); 2], None, 0);
        check_maximal_matching(&g, &run.outputs).unwrap();
    }

    #[test]
    fn matching_on_edgeless_graph() {
        let g = local_graphs::edgeless(7);
        let run = PointerMatching.execute(&g, &[(); 7], None, 0);
        assert!(run.outputs.iter().all(|p| p.is_none()));
        assert!(run.completed);
    }
}
