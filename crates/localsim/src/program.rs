//! Per-node automata: the programming interface for LOCAL-model algorithms.
//!
//! A LOCAL algorithm is described by a [`ProgramSpec`], a factory that, given the local
//! knowledge a node starts with ([`NodeInit`]), builds the node's automaton (a
//! [`NodeProgram`]). The runtime ([`crate::runner`]) drives all automata in lock-step
//! synchronous rounds, delivering every message sent in round `r` before round `r + 1`
//! (fault-free synchronous LOCAL model, unrestricted message size and local computation).
//!
//! Nodes signal termination by returning [`Action::Halt`] with their final output; the
//! paper's "restricted to `i` rounds" operation is realised by the runtime's round budget,
//! which forces undecided nodes to the spec's [`ProgramSpec::default_output`]. A node that
//! knows it will neither read nor change its message for a while returns [`Action::Idle`]:
//! the runtime keeps its broadcast standing and skips it until the declared wake-up round.

use crate::graph::{NodeId, NodeIndex};
use rand_chacha::ChaCha8Rng;

/// The knowledge available to a node *before* any communication.
///
/// This is deliberately minimal: node identity, degree, per-port neighbor identities (which a
/// node could learn in a single round anyway and which essentially every LOCAL algorithm
/// assumes), the node's problem input, and a private random stream. Uniform algorithms must
/// not receive any global parameter here; non-uniform algorithms receive their guesses through
/// their spec's constructor, mirroring the paper's "the code of `A` uses a value `p̃`".
///
/// All reference fields borrow from the runtime's per-session init slab (one flat arena of
/// neighbor identities for the whole graph, cached across attempts on an unchanged
/// configuration — see `crate::session`), so constructing the `n` inits of an execution
/// allocates nothing. Programs that need neighbor identities *during* rounds should prefer
/// [`RoundCtx::neighbor_ids`] over copying the slice out of the init.
#[derive(Debug, Clone)]
pub struct NodeInit<'a, I> {
    /// Index of the node in the executed graph (dense, `0..n`). This is a runtime handle,
    /// not knowledge available to the algorithm; programs should use [`NodeInit::id`] for
    /// symmetry breaking.
    pub index: NodeIndex,
    /// The unique identity `Id(v)`.
    pub id: NodeId,
    /// Degree of the node in the executed graph.
    pub degree: usize,
    /// Identity of the neighbor reachable through each port (`neighbor_ids[p]` is the
    /// identity of the node at the other end of port `p`).
    pub neighbor_ids: &'a [NodeId],
    /// Problem input `x(v)`.
    pub input: &'a I,
}

/// What a node decides to do at the end of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<O> {
    /// Keep running: the node participates in the next round.
    Continue,
    /// Terminate with the given final output. The node sends no further messages and its
    /// `round` method is never called again.
    Halt(O),
    /// Keep running, but sleep until round `until`: the node reads nothing, its broadcast
    /// of this round (if any) is repeated in every round before `until`, and its `round`
    /// method is called again at round `until`. Point-to-point sends made in this round
    /// are delivered once. Equivalent, message for message, to returning
    /// [`Action::Continue`] and re-broadcasting the same value in each intervening round
    /// without looking at the inbox — but the runtime charges the repeats without stepping
    /// the node. `until <= round + 1` is plain `Continue`; a round budget that expires
    /// before `until` cuts the sleeping node off like any other running node.
    Idle(u64),
}

/// A single node's automaton.
pub trait NodeProgram {
    /// Message type exchanged with neighbors. The LOCAL model does not restrict message size.
    type Msg: Clone;
    /// Final output type `y(v)`.
    type Output: Clone;

    /// Executes one synchronous round.
    ///
    /// On the first invocation (round 0) the inbox is empty; afterwards the inbox contains
    /// exactly the messages sent to this node in the previous round. Messages queued through
    /// [`RoundCtx::send`]/[`RoundCtx::broadcast`] are delivered to neighbors before their next
    /// round.
    fn round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) -> Action<Self::Output>;
}

/// Factory producing one [`NodeProgram`] per node, plus the forced output used when the
/// runtime cuts the execution short (the paper's *algorithm restricted to `i` rounds*).
///
/// Specs are `Send + Sync` and their inputs/outputs are `Send` so that batch schedulers can
/// run many executions of the same spec concurrently across experiment cells. The `'static`
/// bounds let a reusable [`crate::session::Session`] pool typed message buffers across runs.
pub trait ProgramSpec: Send + Sync {
    /// Problem input type `x(v)` handed to every node.
    type Input: Clone + Send + Sync + 'static;
    /// Message type of the node programs.
    type Msg: Clone + Send + 'static;
    /// Output type of the node programs.
    type Output: Clone + Send + 'static;
    /// The node automaton type (`'static` so the session can pool program buffers by type).
    type Prog: NodeProgram<Msg = Self::Msg, Output = Self::Output> + 'static;

    /// Builds the automaton for one node from its initial knowledge.
    fn build(&self, init: &NodeInit<Self::Input>) -> Self::Prog;

    /// Output assigned to a node that did not halt before the round budget expired.
    ///
    /// The paper lets this be arbitrary ("e.g. 0"); correctness of alternating algorithms never
    /// relies on it because the pruning algorithm filters invalid outputs.
    fn default_output(&self, init: &NodeInit<Self::Input>) -> Self::Output;
}

/// A message delivered to a node, tagged with the port it arrived on.
#[derive(Debug, Clone)]
pub struct Incoming<M> {
    /// Port of the *receiving* node on which the message arrived.
    pub port: usize,
    /// The payload.
    pub msg: M,
}

/// One message cell: a "valid through" tick stamp and the payload. A broadcast slot holds
/// a node's broadcast for all of its ports; a point-to-point cell holds one port's send.
pub(crate) type Cell<M> = (u64, Option<M>);

/// Where a node's arrivals of one round live: the broadcast slots of the read parity, and
/// its own point-to-point cells.
///
/// Port `p` carries a message if its point-to-point cell is fresh (stamped at or after the
/// read tick); otherwise it carries the neighbour's broadcast if that neighbour's slot is
/// fresh. A send therefore overrides a broadcast of the same round on its port.
pub(crate) struct Arrivals<'a, M> {
    /// Dense index of the neighbour behind each port.
    pub(crate) neighbors: &'a [u32],
    /// The read parity's broadcast slots, one per node.
    pub(crate) slots: &'a [Cell<M>],
    /// The node's point-to-point cells, one per port; empty while the run has made no
    /// point-to-point send.
    pub(crate) arcs: &'a [Cell<M>],
    /// Tick of the previous round: cells stamped at or after it hold this round's arrivals.
    pub(crate) read_tick: u64,
}

impl<M> Clone for Arrivals<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Arrivals<'_, M> {}

impl<'a, M> Arrivals<'a, M> {
    /// The message that arrived on `port`, if any.
    #[inline]
    fn on(self, port: usize) -> Option<&'a M> {
        let fresh =
            |(stamp, msg): &'a Cell<M>| if *stamp >= self.read_tick { msg.as_ref() } else { None };
        if let Some(msg) = self.arcs.get(port).and_then(fresh) {
            return Some(msg);
        }
        fresh(&self.slots[self.neighbors[port] as usize])
    }
}

/// The per-round view a node has of the world: its inbox, an outbox, its clock and its
/// private randomness.
///
/// The inbox is staged *lazily*: the runtime hands the context where the node's arrivals
/// live (its neighbours' broadcast slots and its own point-to-point cells), and the first
/// call to [`RoundCtx::inbox`] (or [`RoundCtx::received_on`]) reads them port by port and
/// clones out the messages. Nodes that skip their inbox in a round (e.g. a colour class
/// waiting its turn) pay nothing for the messages they ignore.
pub struct RoundCtx<'a, M> {
    pub(crate) round: u64,
    pub(crate) degree: usize,
    pub(crate) neighbor_ids: &'a [NodeId],
    /// Staging buffer for the inbox; valid only once `staged` is set.
    pub(crate) inbox: &'a mut Vec<Incoming<M>>,
    /// Whether `inbox` already reflects this node's arrivals for this round.
    pub(crate) staged: &'a mut bool,
    pub(crate) arrivals: Arrivals<'a, M>,
    pub(crate) outbox: &'a mut Vec<(usize, M)>,
    pub(crate) broadcast: &'a mut Option<M>,
    /// Lazily-drawn private random stream: the slot belongs to the run whose tick stamp
    /// matches `rng_key.0`; any other stamp is a stale stream from an earlier run and is
    /// re-derived on first use. Deterministic programs never touch the slot, so runs of
    /// them skip the per-node stream derivation entirely.
    pub(crate) rng_slot: &'a mut Option<(u64, ChaCha8Rng)>,
    /// `(run tick stamp, execution seed, node identity)` — the derivation key of the
    /// node's stream for this run.
    pub(crate) rng_key: (u64, u64, NodeId),
}

impl<'a, M: Clone> RoundCtx<'a, M> {
    /// The node's local round counter (0 on the first activation).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Degree of the node (number of ports).
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Identity of the neighbor behind each port (`neighbor_ids()[p]` sits across port `p`).
    ///
    /// Served from the runtime's cached init slab, so programs no longer need to copy the
    /// identities out of [`NodeInit`] into per-node vectors at build time.
    pub fn neighbor_ids(&self) -> &[NodeId] {
        self.neighbor_ids
    }

    /// Messages received this round, tagged with the arrival port (port-ascending).
    pub fn inbox(&mut self) -> &[Incoming<M>] {
        self.stage();
        self.inbox
    }

    /// Iterates `(port, message)` over this round's arrivals, port-ascending, **without
    /// staging**: one cell lookup per port, payloads borrowed in place — no clone, no
    /// buffer. Same arrivals in the same order as [`RoundCtx::inbox`] (the staged buffer is
    /// just a materialization of the same lookups, so mixing the two within a round
    /// agrees); prefer this in hot per-round loops.
    pub fn messages(&self) -> Messages<'_, M> {
        Messages { arrivals: self.arrivals, port: 0 }
    }

    /// Number of messages received this round — one lookup per port, no staging.
    pub fn received_count(&self) -> usize {
        self.messages().count()
    }

    /// Convenience: the message received on `port` this round, if any.
    pub fn received_on(&mut self, port: usize) -> Option<&M> {
        self.stage();
        self.inbox.iter().find(|m| m.port == port).map(|m| &m.msg)
    }

    /// Fills the staging buffer on first access: one clone per arrival.
    fn stage(&mut self) {
        if *self.staged {
            return;
        }
        *self.staged = true;
        // The arrivals borrow for 'a, independent of this borrow of self, so the lookups
        // and the staging pushes don't conflict.
        let arrivals = Messages { arrivals: self.arrivals, port: 0 };
        self.inbox.clear();
        self.inbox.extend(arrivals.map(|(port, msg)| Incoming { port, msg: msg.clone() }));
    }

    /// Queues a message to the neighbor on `port`, delivered before that neighbor's next round.
    ///
    /// At most one message is delivered per port per round; a later send to the same port
    /// within the round replaces the earlier one (the LOCAL model's unrestricted message
    /// size makes batching into one message equivalent). Messages are counted per port that
    /// carries one, so an overriding or repeated send is not counted again.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree()`.
    pub fn send(&mut self, port: usize, msg: M) {
        assert!(port < self.degree, "send on port {port} but degree is {}", self.degree);
        self.outbox.push((port, msg));
    }

    /// Queues the same message to every neighbor.
    ///
    /// Handled by the runtime as one write into the node's broadcast slot, which every
    /// neighbor reads, so a broadcast costs one write and no outbox traffic (messages are
    /// still counted per neighbor, once each). A node delivers at most
    /// one message per port per round: a later [`RoundCtx::send`] to a port overrides a
    /// broadcast queued in the same round, and a repeated broadcast replaces the previous
    /// one.
    pub fn broadcast(&mut self, msg: M) {
        *self.broadcast = Some(msg);
    }

    /// The message queued by [`RoundCtx::broadcast`] so far this round, if any — lets a
    /// wrapping program see what the automaton it drives is about to broadcast.
    pub fn queued_broadcast(&self) -> Option<&M> {
        self.broadcast.as_ref()
    }

    /// The node's private, reproducible random stream (independent across nodes).
    ///
    /// Derived on first use per run from the run's seed and the node identity — the stream
    /// (and its position) is exactly what an eager per-run initialization would serve, but
    /// runs that never ask pay nothing.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        let (stamp, seed, id) = self.rng_key;
        let fresh = !matches!(self.rng_slot, Some((s, _)) if *s == stamp);
        if fresh {
            *self.rng_slot = Some((stamp, crate::rng::node_rng(seed, id)));
        }
        &mut self.rng_slot.as_mut().expect("slot filled above").1
    }
}

/// Iterator over one round's arrivals, see [`RoundCtx::messages`].
pub struct Messages<'b, M> {
    arrivals: Arrivals<'b, M>,
    /// The next port to look at.
    port: usize,
}

impl<'b, M> Iterator for Messages<'b, M> {
    type Item = (usize, &'b M);

    #[inline]
    fn next(&mut self) -> Option<(usize, &'b M)> {
        while self.port < self.arrivals.neighbors.len() {
            let port = self.port;
            self.port += 1;
            if let Some(msg) = self.arrivals.on(port) {
                return Some((port, msg));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_ctx_send_and_broadcast() {
        // Ports 0, 1, 2 lead to dense nodes 2, 0, 1. Only node 0's broadcast slot is fresh
        // (node 2's is stale, node 1's was never written); port 2's point-to-point cell is
        // fresh, port 0's is stale.
        let slots: [Cell<u32>; 3] = [(5, Some(42)), (0, None), (3, Some(13))];
        let arcs: [Cell<u32>; 3] = [(3, Some(1)), (0, None), (5, Some(77))];
        let mut inbox: Vec<Incoming<u32>> = Vec::new();
        let mut staged = false;
        let mut outbox = Vec::new();
        let mut rng_slot = None;
        let neighbor_ids = [7u64, 8, 9];
        let mut bcast = None;
        let mut ctx = RoundCtx {
            round: 3,
            degree: 3,
            neighbor_ids: &neighbor_ids,
            inbox: &mut inbox,
            staged: &mut staged,
            arrivals: Arrivals { neighbors: &[2, 0, 1], slots: &slots, arcs: &arcs, read_tick: 5 },
            outbox: &mut outbox,
            broadcast: &mut bcast,
            rng_slot: &mut rng_slot,
            rng_key: (1, 0, 7),
        };
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.degree(), 3);
        assert_eq!(ctx.neighbor_ids(), &[7, 8, 9]);
        assert_eq!(ctx.received_count(), 2);
        assert_eq!(ctx.messages().collect::<Vec<_>>(), vec![(1, &42), (2, &77)]);
        assert_eq!(ctx.received_on(1), Some(&42));
        assert_eq!(ctx.received_on(0), None);
        assert_eq!(ctx.received_on(2), Some(&77));
        assert_eq!(ctx.inbox().len(), 2);
        ctx.send(2, 7);
        ctx.broadcast(9);
        {
            use rand::RngCore;
            // The lazily-drawn stream is exactly node_rng(seed, id), kept across calls.
            let first = ctx.rng().next_u64();
            let mut reference = crate::rng::node_rng(0, 7);
            assert_eq!(first, reference.next_u64());
            assert_eq!(ctx.rng().next_u64(), reference.next_u64());
        }
        assert_eq!(outbox, vec![(2, 7)]);
        assert_eq!(bcast, Some(9));
        assert!(staged, "first inbox access must mark the arrivals staged");
        assert!(rng_slot.is_some(), "rng access must fill the slot");
    }

    #[test]
    #[should_panic(expected = "send on port")]
    fn send_out_of_range_panics() {
        let mut inbox: Vec<Incoming<u32>> = Vec::new();
        let mut staged = false;
        let mut outbox = Vec::new();
        let mut rng_slot = None;
        let mut bcast = None;
        let mut ctx = RoundCtx {
            round: 0,
            degree: 1,
            neighbor_ids: &[4],
            inbox: &mut inbox,
            staged: &mut staged,
            arrivals: Arrivals { neighbors: &[0], slots: &[(0, None)], arcs: &[], read_tick: 1 },
            outbox: &mut outbox,
            broadcast: &mut bcast,
            rng_slot: &mut rng_slot,
            rng_key: (1, 0, 4),
        };
        ctx.send(1, 0);
    }
}
