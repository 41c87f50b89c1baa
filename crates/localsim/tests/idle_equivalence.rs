//! `Action::Idle` checked against its definition: a run must equal, field for field, the
//! run of the same spec wrapped in [`Eager`], which steps every node in every round and
//! has a sleeping node re-broadcast its last message until its wake-up round.
//!
//! Two workloads: a synthetic program whose nodes idle to pseudo-random rounds (with and
//! without a standing broadcast, with point-to-point sends alongside, past the round
//! budget), and the colouring pipelines whose elimination phase idles
//! (`ReducedColoring` with λ = 1 and λ = 4, `RefineColoring`) under correct, over- and
//! under-estimated guesses and every budget up to past `round_bound`. One `Session` is
//! reused across runs and across a `retain`-shrunk view, so stale standing stamps from an
//! earlier run must never leak into a later one.

use local_algos::coloring::{ReducedColoring, RefineColoring};
use local_graphs::{gnp, grid, GraphParams};
use local_runtime::{
    run, run_view, Action, Execution, Graph, GraphView, NodeInit, NodeProgram, ProgramSpec,
    RoundCtx, RunConfig, Session,
};
use proptest::prelude::*;
use std::fmt::Debug;

/// The reference semantics of `Idle`: turns `Idle(until)` into `Continue` and, until round
/// `until`, re-broadcasts the message queued in the idle round without stepping the wrapped
/// program.
struct Eager<S>(S);

struct EagerProg<P: NodeProgram> {
    inner: P,
    until: u64,
    standing: Option<P::Msg>,
}

impl<P: NodeProgram> NodeProgram for EagerProg<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn round(&mut self, ctx: &mut RoundCtx<'_, P::Msg>) -> Action<P::Output> {
        if ctx.round() < self.until {
            if let Some(msg) = &self.standing {
                ctx.broadcast(msg.clone());
            }
            return Action::Continue;
        }
        match self.inner.round(ctx) {
            Action::Idle(until) => {
                self.until = until;
                self.standing = ctx.queued_broadcast().cloned();
                Action::Continue
            }
            other => other,
        }
    }
}

impl<S: ProgramSpec> ProgramSpec for Eager<S> {
    type Input = S::Input;
    type Msg = S::Msg;
    type Output = S::Output;
    type Prog = EagerProg<S::Prog>;

    fn build(&self, init: &NodeInit<S::Input>) -> Self::Prog {
        EagerProg { inner: self.0.build(init), until: 0, standing: None }
    }

    fn default_output(&self, init: &NodeInit<S::Input>) -> S::Output {
        self.0.default_output(init)
    }
}

fn assert_same<O: PartialEq + Debug>(idle: &Execution<O>, eager: &Execution<O>, what: &str) {
    assert_eq!(idle.outputs, eager.outputs, "outputs: {what}");
    assert_eq!(idle.rounds, eager.rounds, "rounds: {what}");
    assert_eq!(idle.messages, eager.messages, "messages: {what}");
    assert_eq!(idle.termination, eager.termination, "termination: {what}");
    assert_eq!(idle.halted, eager.halted, "halted flags: {what}");
    assert_eq!(idle.completed, eager.completed, "completion: {what}");
    assert_eq!(idle.trace, eager.trace, "trace: {what}");
}

/// Runs `spec` on `view` through the shared `session` and checks it against `Eager(spec)`
/// run from scratch on the materialized subgraph.
fn check_view<S>(
    view: &GraphView<'_>,
    inputs: &[S::Input],
    spec: S,
    cfg: &RunConfig,
    s: &mut Session,
) where
    S: ProgramSpec,
    S::Output: PartialEq + Debug,
{
    let idle = run_view(view, inputs, &spec, cfg, s);
    let (sub, _) = view.materialize();
    let eager = run(&sub, inputs, &Eager(spec), cfg);
    assert_same(&idle, &eager, &format!("{} nodes, budget {:?}", sub.node_count(), cfg.max_rounds));
}

// ------------------------------------------------------------------ synthetic program ----

/// A node automaton driven by a per-node script: each time it is stepped it folds every
/// arrival into a digest, then — by a hash of its identity, salt and round — halts with the
/// digest, or broadcasts and/or sends to one port and continues or idles `0..7` rounds
/// ahead (`0` and `1` are plain `Continue`; the longest sleeps outlast small budgets).
struct Scripted;

struct ScriptedProg {
    id: u64,
    salt: u64,
    digest: u64,
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl NodeProgram for ScriptedProg {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, ctx: &mut RoundCtx<'_, u64>) -> Action<u64> {
        let round = ctx.round();
        let count = ctx.received_count() as u64;
        let arrivals = ctx
            .messages()
            .fold(count, |acc, (port, &msg)| mix(acc ^ mix(port as u64 ^ msg.rotate_left(17))));
        self.digest = mix(self.digest ^ arrivals ^ round);
        let roll = mix(self.id ^ self.salt.rotate_left(32) ^ round.wrapping_mul(0x9e37));
        if roll.is_multiple_of(11) {
            return Action::Halt(self.digest);
        }
        if !(roll >> 8).is_multiple_of(3) {
            ctx.broadcast(mix(self.id ^ round));
        }
        if ctx.degree() > 0 && (roll >> 16).is_multiple_of(4) {
            let port = ((roll >> 24) % ctx.degree() as u64) as usize;
            ctx.send(port, round ^ 0xff00);
        }
        match (roll >> 32) % 8 {
            7 => Action::Continue,
            ahead => Action::Idle(round + ahead),
        }
    }
}

impl ProgramSpec for Scripted {
    type Input = u64;
    type Msg = u64;
    type Output = u64;
    type Prog = ScriptedProg;

    fn build(&self, init: &NodeInit<u64>) -> ScriptedProg {
        ScriptedProg { id: init.id, salt: *init.input, digest: 0 }
    }

    fn default_output(&self, init: &NodeInit<u64>) -> u64 {
        init.id
    }
}

fn graph_from(n: usize, pairs: &[(usize, usize)]) -> Graph {
    let edges: Vec<(usize, usize)> =
        pairs.iter().map(|&(u, v)| (u % n, v % n)).filter(|&(u, v)| u != v).collect();
    Graph::from_edges(n, &edges).expect("self-loops dropped, duplicates merged")
}

proptest! {
    #[test]
    fn scripted_idle_matches_eager(
        (n, pairs, salt, budgets, keep) in (1usize..40).prop_flat_map(|n| (
            Just(n),
            prop::collection::vec((0..n, 0..n), 0..4 * n),
            any::<u64>(),
            prop::collection::vec(prop_oneof![Just(None), (0u64..40).prop_map(Some)], 1..4),
            prop::collection::vec(any::<bool>(), n),
        )),
    ) {
        let g = graph_from(n, &pairs);
        let mut session = Session::new();
        let mut view = GraphView::full(&g);
        for &budget in &budgets {
            let cfg = RunConfig { seed: salt, max_rounds: budget, ..RunConfig::default() }
                .with_trace();
            let inputs = vec![salt; view.node_count()];
            check_view(&view, &inputs, Scripted, &cfg, &mut session);
        }
        // The same session over a shrunk configuration: a new epoch and fewer arcs, with
        // the previous runs' standing stamps still in the arenas.
        view.retain(&keep);
        let cfg = RunConfig { seed: salt, max_rounds: budgets[0], ..RunConfig::default() }
            .with_trace();
        check_view(&view, &vec![salt ^ 1; view.node_count()], Scripted, &cfg, &mut session);
    }
}

// ------------------------------------------------------------------ colouring pipelines ----

/// Every budget from 0 to one past `round_bound` (strided when the bound is long), plus
/// the unbudgeted run, through one reused session.
fn budgets(round_bound: u64) -> impl Iterator<Item = Option<u64>> {
    let stride = (round_bound / 60).max(1);
    (0..=round_bound + 1).step_by(stride as usize).map(Some).chain([Some(round_bound), None])
}

fn check_reduced(g: &Graph, algo: &ReducedColoring, session: &mut Session) {
    let view = GraphView::full(g);
    let inputs = vec![(); g.node_count()];
    for budget in budgets(algo.round_bound()) {
        let cfg = RunConfig { seed: 3, max_rounds: budget, ..RunConfig::default() }.with_trace();
        check_view(&view, &inputs, algo.clone(), &cfg, session);
    }
}

fn check_refine(g: &Graph, algo: &RefineColoring, colors: &[u64], session: &mut Session) {
    let view = GraphView::full(g);
    for budget in budgets(algo.round_bound()) {
        let cfg = RunConfig { seed: 5, max_rounds: budget, ..RunConfig::default() }.with_trace();
        check_view(&view, colors, algo.clone(), &cfg, session);
    }
}

#[test]
fn reduced_coloring_idle_matches_eager() {
    let mut session = Session::new();
    for g in [gnp(40, 0.15, 1), grid(5, 6), gnp(30, 0.3, 2)] {
        let p = GraphParams::of(&g);
        let guesses = [
            (p.max_degree, p.max_id),
            (2 * p.max_degree + 3, 4 * p.max_id + 17),
            (p.max_degree / 2, p.max_id / 3),
            (1, 3),
        ];
        for (delta, m) in guesses {
            check_reduced(&g, &ReducedColoring::delta_plus_one(delta, m), &mut session);
            check_reduced(&g, &ReducedColoring::lambda(delta, m, 4), &mut session);
        }
    }
}

#[test]
fn refine_coloring_idle_matches_eager() {
    let mut session = Session::new();
    for g in [gnp(40, 0.15, 3), grid(6, 5)] {
        let p = GraphParams::of(&g);
        let colors: Vec<u64> = (0..g.node_count()).map(|v| 3 * g.id(v)).collect();
        let palette = 3 * p.max_id + 1;
        let guesses = [
            (p.max_degree, palette, p.max_degree + 1),
            (2 * p.max_degree + 1, 2 * palette, 3 * p.max_degree),
            (p.max_degree / 2, palette / 4, 2),
        ];
        for (delta, initial, target) in guesses {
            let algo = RefineColoring {
                delta_guess: delta,
                initial_palette_guess: initial,
                target_colors: target,
            };
            check_refine(&g, &algo, &colors, &mut session);
        }
    }
}

#[test]
fn plain_graph_run_matches_eager() {
    // `run` on a `Graph` (no view, a throwaway session) takes the same idle path.
    let g = grid(8, 8);
    let p = GraphParams::of(&g);
    let algo = ReducedColoring::delta_plus_one(p.max_degree, p.max_id);
    let cfg = RunConfig::seeded(0).with_trace();
    let idle = run(&g, &[(); 64], &algo, &cfg);
    let eager = run(&g, &[(); 64], &Eager(algo), &cfg);
    assert!(idle.completed);
    assert!(idle.rounds > 10, "the elimination phase must run for a while");
    assert_same(&idle, &eager, "8×8 grid");
}
