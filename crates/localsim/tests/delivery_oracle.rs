//! Message delivery checked against a naive reference simulator.
//!
//! The reference rebuilds every node's inbox from scratch each round as a
//! `Vec<(port, msg)>`, expands `Action::Idle` eagerly (a sleeping node re-sends its standing
//! broadcast on every port, every round), and keeps no stamps, slots or arenas. The runtime
//! must agree with it on every output, termination round, halted flag, round count, message
//! count and per-round trace record.
//!
//! The workload is a scripted program: each step a node folds every `(round, port, msg)` it
//! received into a digest, then — by a hash of its identity, the script's salt and the
//! round — broadcasts, sends to one or more ports (overriding the broadcast there, whichever
//! is queued first; a port may be sent to twice, and the later send wins), halts, continues,
//! or idles up to seven rounds ahead. A script may hold its first send back to a later round,
//! so the point-to-point cells appear mid-run. Budgets cut runs mid-sleep, and one `Session`
//! serves two message types and a `retain`-shrunk view. A second property lets nodes sleep
//! more than 2^16 rounds, past the wake queue's low buckets.

use local_runtime::{
    run, run_view, Action, Execution, Graph, GraphView, NodeInit, NodeProgram, ProgramSpec,
    RoundCtx, RoundTrace, RunConfig, Session,
};
use proptest::prelude::*;
use std::marker::PhantomData;

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A message type the script's `u64` payloads travel in. Two representations run through
/// one session, so each gets its own pooled cells.
trait Payload: Clone + Send + 'static {
    fn wrap(value: u64) -> Self;
    fn value(&self) -> u64;
}

impl Payload for u64 {
    fn wrap(value: u64) -> Self {
        value
    }
    fn value(&self) -> u64 {
        *self
    }
}

impl Payload for String {
    fn wrap(value: u64) -> Self {
        value.to_string()
    }
    fn value(&self) -> u64 {
        self.parse().expect("a wrapped u64")
    }
}

/// The per-run parameters every node's script shares.
#[derive(Debug, Clone, Copy)]
struct Script {
    salt: u64,
    /// The first round in which nodes may send point-to-point (`u64::MAX`: never).
    first_send: u64,
    /// If non-zero, about one idle step in four sleeps this many rounds or up to 63 more.
    long_sleep: u64,
}

/// A node's state: its identity and the digest of everything it received.
struct NodeState {
    id: u64,
    digest: u64,
}

/// What a node does in one step.
struct Step {
    broadcast: Option<u64>,
    sends: Vec<(usize, u64)>,
    /// Whether the sends are queued before the broadcast.
    sends_first: bool,
    action: Action<u64>,
}

impl Script {
    fn step(
        &self,
        node: &mut NodeState,
        round: u64,
        degree: usize,
        arrivals: &[(usize, u64)],
    ) -> Step {
        for &(port, msg) in arrivals {
            node.digest =
                mix(node.digest ^ mix(round ^ ((port as u64) << 40) ^ msg.rotate_left(17)));
        }
        node.digest = mix(node.digest ^ arrivals.len() as u64);
        let roll = mix(node.id ^ self.salt.rotate_left(32) ^ round.wrapping_mul(0x9e37_79b9));
        let broadcast = (!(roll >> 8).is_multiple_of(4)).then(|| mix(node.digest ^ 1));
        let mut sends = Vec::new();
        if degree > 0 && round >= self.first_send && (roll >> 16).is_multiple_of(3) {
            for k in 0..1 + (roll >> 20) % 3 {
                let port = (mix(roll ^ k) % degree as u64) as usize;
                sends.push((port, mix(node.digest ^ k ^ 2)));
            }
        }
        let action = if roll.is_multiple_of(13) {
            Action::Halt(node.digest)
        } else {
            match (roll >> 32) % 8 {
                7 => Action::Continue,
                _ if self.long_sleep > 0 && (roll >> 40).is_multiple_of(4) => {
                    Action::Idle(round + self.long_sleep + (roll >> 48) % 64)
                }
                ahead => Action::Idle(round + ahead),
            }
        };
        Step { broadcast, sends, sends_first: (roll >> 24).is_multiple_of(2), action }
    }
}

// ------------------------------------------------------------------ the runtime's side ----

struct Scripted<M> {
    script: Script,
    msg: PhantomData<fn() -> M>,
}

struct ScriptedProg<M> {
    script: Script,
    node: NodeState,
    msg: PhantomData<fn() -> M>,
}

impl<M: Payload> NodeProgram for ScriptedProg<M> {
    type Msg = M;
    type Output = u64;

    fn round(&mut self, ctx: &mut RoundCtx<'_, M>) -> Action<u64> {
        let arrivals: Vec<(usize, u64)> = ctx.messages().map(|(p, m)| (p, m.value())).collect();
        // Every read path serves the same arrivals.
        assert_eq!(ctx.received_count(), arrivals.len(), "received_count");
        let staged: Vec<(usize, u64)> =
            ctx.inbox().iter().map(|m| (m.port, m.msg.value())).collect();
        assert_eq!(staged, arrivals, "inbox");
        if let Some(&(port, msg)) = arrivals.last() {
            assert_eq!(ctx.received_on(port).map(Payload::value), Some(msg), "received_on");
        }
        let step = self.script.step(&mut self.node, ctx.round(), ctx.degree(), &arrivals);
        if step.sends_first {
            step.sends.iter().for_each(|&(port, msg)| ctx.send(port, M::wrap(msg)));
        }
        if let Some(msg) = step.broadcast {
            ctx.broadcast(M::wrap(msg));
        }
        if !step.sends_first {
            step.sends.iter().for_each(|&(port, msg)| ctx.send(port, M::wrap(msg)));
        }
        step.action
    }
}

impl<M: Payload> ProgramSpec for Scripted<M> {
    type Input = u64;
    type Msg = M;
    type Output = u64;
    type Prog = ScriptedProg<M>;

    fn build(&self, init: &NodeInit<u64>) -> ScriptedProg<M> {
        let node = NodeState { id: init.id, digest: *init.input };
        ScriptedProg { script: self.script, node, msg: PhantomData }
    }

    fn default_output(&self, init: &NodeInit<u64>) -> u64 {
        init.id
    }
}

// ------------------------------------------------------------------ the reference ----

/// Everything the comparison looks at.
#[derive(Debug, PartialEq)]
struct Outcome {
    outputs: Vec<u64>,
    termination: Vec<u64>,
    halted: Vec<bool>,
    rounds: u64,
    messages: u64,
    completed: bool,
    trace: Vec<RoundTrace>,
}

impl Outcome {
    fn of(exec: Execution<u64>) -> Outcome {
        Outcome {
            outputs: exec.outputs,
            termination: exec.termination,
            halted: exec.halted,
            rounds: exec.rounds,
            messages: exec.messages,
            completed: exec.completed,
            trace: exec.trace.expect("runs record a trace").rounds,
        }
    }
}

/// The naive simulator: fresh inboxes every round, sleeping nodes re-sending eagerly. A
/// node is charged one message per port that carries one, however many times it wrote
/// that port in the round.
fn reference(g: &Graph, inputs: &[u64], script: Script, cfg: &RunConfig) -> Outcome {
    let n = g.node_count();
    let limit = cfg.max_rounds.unwrap_or(cfg.hard_cap);
    let mut nodes: Vec<NodeState> =
        (0..n).map(|v| NodeState { id: g.id(v), digest: inputs[v] }).collect();
    let mut outputs: Vec<u64> = (0..n).map(|v| g.id(v)).collect();
    let mut halted = vec![false; n];
    let mut termination = vec![0; n];
    let mut asleep_until = vec![0u64; n];
    let mut standing: Vec<Option<u64>> = vec![None; n];
    let mut inboxes: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    let mut messages = 0;
    let mut trace = Vec::new();
    let mut round = 0;
    while halted.contains(&false) && round < limit {
        let mut next: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        let mut sent = 0;
        let mut stepped = false;
        for v in 0..n {
            if halted[v] {
                continue;
            }
            let degree = g.degree(v);
            let mut out: Vec<Option<u64>> = vec![None; degree];
            if round < asleep_until[v] {
                if let Some(msg) = standing[v] {
                    out.fill(Some(msg));
                }
            } else {
                stepped = true;
                let mut arrivals = std::mem::take(&mut inboxes[v]);
                arrivals.sort_unstable();
                let step = script.step(&mut nodes[v], round, degree, &arrivals);
                if let Some(msg) = step.broadcast {
                    out.fill(Some(msg));
                }
                for &(port, msg) in &step.sends {
                    out[port] = Some(msg);
                }
                match step.action {
                    Action::Halt(out) => {
                        outputs[v] = out;
                        halted[v] = true;
                        termination[v] = round;
                    }
                    Action::Idle(until) => {
                        asleep_until[v] = until;
                        standing[v] = step.broadcast;
                    }
                    Action::Continue => {}
                }
            }
            sent += out.iter().flatten().count() as u64;
            for (port, msg) in out.into_iter().enumerate() {
                if let Some(msg) = msg {
                    next[g.neighbor(v, port)].push((g.reverse_port(v, port), msg));
                }
            }
        }
        inboxes = next;
        messages += sent;
        let record = RoundTrace {
            round,
            active_nodes: halted.iter().filter(|&&h| !h).count(),
            messages: sent,
        };
        trace.push(record);
        round += 1;
        // A round in which every live node slept repeats until the first of them wakes:
        // the same standing broadcasts, the same inboxes. Copy it instead of simulating it.
        if !stepped {
            let wake = (0..n).filter(|&v| !halted[v]).map(|v| asleep_until[v]).min();
            while round < wake.unwrap_or(0).min(limit) {
                trace.push(RoundTrace { round, ..record });
                messages += sent;
                round += 1;
            }
        }
    }
    for v in (0..n).filter(|&v| !halted[v]) {
        termination[v] = round;
    }
    Outcome {
        rounds: termination.iter().copied().max().unwrap_or(0),
        completed: !halted.contains(&false),
        outputs,
        termination,
        halted,
        messages,
        trace,
    }
}

// ------------------------------------------------------------------ the comparison ----

/// Runs the script with message type `M` on `view` through the shared `session` and
/// compares it with the reference on the materialized subgraph.
fn check<M: Payload>(view: &GraphView<'_>, script: Script, cfg: &RunConfig, session: &mut Session) {
    let inputs: Vec<u64> = (0..view.node_count() as u64).map(|v| mix(script.salt ^ v)).collect();
    let spec = Scripted::<M> { script, msg: PhantomData };
    let runtime = Outcome::of(run_view(view, &inputs, &spec, cfg, session));
    let (sub, _) = view.materialize();
    let expected = reference(&sub, &inputs, script, cfg);
    assert_eq!(runtime, expected, "{script:?}, budget {:?}", cfg.max_rounds);
}

fn graph_from(n: usize, pairs: &[(usize, usize)]) -> Graph {
    let edges: Vec<(usize, usize)> =
        pairs.iter().map(|&(u, v)| (u % n, v % n)).filter(|&(u, v)| u != v).collect();
    Graph::from_edges(n, &edges).expect("self-loops dropped, duplicates merged")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn delivery_matches_reference(
        (n, pairs, salt, first_sends, budgets, keep) in (1usize..40).prop_flat_map(|n| (
            Just(n),
            prop::collection::vec((0..n, 0..n), 0..4 * n),
            any::<u64>(),
            // From the start, from a round mid-run, or never.
            prop::collection::vec(prop_oneof![Just(0u64), 1u64..12, Just(u64::MAX)], 3),
            prop::collection::vec(prop_oneof![Just(None), (0u64..40).prop_map(Some)], 1..4),
            prop::collection::vec(any::<bool>(), n),
        )),
    ) {
        let g = graph_from(n, &pairs);
        let mut session = Session::new();
        let mut view = GraphView::full(&g);
        for (i, &budget) in budgets.iter().enumerate() {
            let script =
                Script { salt: salt ^ i as u64, first_send: first_sends[i % 3], long_sleep: 0 };
            let cfg = RunConfig { seed: salt, max_rounds: budget, ..RunConfig::default() }
                .with_trace();
            check::<u64>(&view, script, &cfg, &mut session);
            check::<String>(&view, script, &cfg, &mut session);
        }
        // The same session over a shrunk configuration: a new epoch and fewer arcs, with
        // the previous runs' cells still pooled.
        view.retain(&keep);
        let cfg = RunConfig { seed: salt, max_rounds: budgets[0], ..RunConfig::default() }
            .with_trace();
        for (i, &first_send) in first_sends.iter().enumerate() {
            let script = Script { salt: !salt ^ i as u64, first_send, long_sleep: 0 };
            check::<String>(&view, script, &cfg, &mut session);
            check::<u64>(&view, script, &cfg, &mut session);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sleeps of more than 2^16 rounds, alone and alongside short ones, with budgets that
    /// cut runs before, inside and after the long sleeps.
    #[test]
    fn long_sleeps_match_reference(
        (n, pairs, salt, long_sleep, budgets) in (1usize..16).prop_flat_map(|n| (
            Just(n),
            prop::collection::vec((0..n, 0..n), 0..3 * n),
            any::<u64>(),
            (1u64 << 16)..(1 << 16) + 4096,
            prop::collection::vec(
                prop_oneof![0u64..200, (1u64 << 16) - 64..(1 << 16) + 4224, 0u64..(1 << 18)],
                2,
            ),
        )),
    ) {
        let g = graph_from(n, &pairs);
        let mut session = Session::new();
        let view = GraphView::full(&g);
        for (i, &budget) in budgets.iter().enumerate() {
            let script = Script { salt: salt ^ i as u64, first_send: 0, long_sleep };
            let cfg = RunConfig { seed: salt, max_rounds: Some(budget), ..RunConfig::default() }
                .with_trace();
            check::<u64>(&view, script, &cfg, &mut session);
        }
    }
}

#[test]
fn plain_graph_run_matches_reference() {
    // `run` on a `Graph` takes a throwaway session and an epoch-less init slab.
    let g = graph_from(30, &(0..90).map(|i| (i * 7 % 30, i * 11 % 29)).collect::<Vec<_>>());
    let inputs: Vec<u64> = (0..30).collect();
    for first_send in [0, 5, u64::MAX] {
        let script = Script { salt: 17, first_send, long_sleep: 0 };
        let cfg = RunConfig::seeded(1).with_budget(60).with_trace();
        let spec = Scripted::<u64> { script, msg: PhantomData };
        let runtime = Outcome::of(run(&g, &inputs, &spec, &cfg));
        assert_eq!(runtime, reference(&g, &inputs, script, &cfg), "first send {first_send}");
    }
}
