//! Reusable execution sessions and the frontier-driven round loop.
//!
//! The alternating drivers of the paper run the same black box dozens of times with doubling
//! budgets; allocating programs, RNG streams, inboxes, and bookkeeping arrays from scratch for
//! every attempt dominates the cost of short attempts. A [`Session`] owns that per-node state
//! and is reset — not reallocated — between attempts; callers (the transformers, the engine's
//! worker threads) keep one session alive across a whole alternation run or grid shard.
//!
//! The round loop itself is frontier-driven: it iterates an *active worklist* of the nodes
//! that take a step this round — every non-halted node, except those sleeping through an
//! [`Action::Idle`] — instead of scanning all `n` nodes per round. Sleeping nodes wait in a
//! wake queue; their standing broadcasts stay valid in their broadcast slots and are charged
//! per round without stepping anyone, so a phase in which only a few nodes act per round
//! (colour elimination) costs time in proportion to those actions, not to rounds × arcs.
//! The queue is a monotone radix queue keyed by wake-up round over per-node links: a round in
//! which nobody wakes costs one comparison, a sleep of any length moves its node at most 64
//! times, and the queue's memory is three arrays of `n` entries.
//! Iteration order is ascending node index — identical to the dense scan — so executions are
//! byte-identical to the classic [`crate::runner::run`] loop.
//!
//! Messages live in one broadcast slot per node (see [`MsgBuffers`]): a broadcast is one
//! write, whatever the degree, and receivers read their neighbours' slots. Per-arc cells
//! exist only for point-to-point sends and are allocated on a run's first one, so the
//! simulation memory of programs that only broadcast grows with `n`, not with the arc count.

use crate::graph::{Graph, NodeId};
use crate::program::{
    Action, Arrivals, Cell, Incoming, NodeInit, NodeProgram, ProgramSpec, RoundCtx,
};

use crate::runner::{Execution, RunConfig};
use crate::trace::{ExecutionTrace, RoundTrace};
use crate::view::GraphView;
use crate::wake::WakeQueue;
use rand_chacha::ChaCha8Rng;
use std::any::{Any, TypeId};
use std::collections::HashMap;

/// Read access to a communication topology, as needed by the round loop.
///
/// The loop addresses nodes two ways: by dense *node index* (`0..node_count()`, what the
/// caller's input/output vectors use) and by *slot* — the index space message buffers live in.
/// For a [`Graph`] the two coincide; for a [`GraphView`] the slot is the node's base index,
/// which makes every adjacency access a flat segment read (no per-message translation back to
/// live indices). The loop is monomorphized per topology, so full-graph runs pay no view
/// overhead.
pub trait Topology {
    /// Number of (live) nodes.
    fn node_count(&self) -> usize;
    /// The slot of node `v` (identity for graphs, base index for views).
    fn slot(&self, v: usize) -> usize;
    /// The node index of the node in slot `s` (inverse of [`Topology::slot`]).
    fn slot_node(&self, s: usize) -> usize;
    /// Identity of node `v`.
    fn id(&self, v: usize) -> NodeId;
    /// Identity of the node in slot `s`.
    fn slot_id(&self, s: usize) -> NodeId;
    /// Degree of the node in slot `s`.
    fn slot_degree(&self, s: usize) -> usize;
    /// The slot of the `port`-th neighbor of the node in slot `s`.
    fn slot_neighbor(&self, s: usize, port: usize) -> usize;
    /// The port at which slot `s` appears in the neighbor list of its `port`-th neighbor.
    fn slot_reverse_port(&self, s: usize, port: usize) -> usize;
    /// A token identifying the topology's *content*, if it has one: equal tokens guarantee a
    /// structurally identical topology (same nodes, identities, ports). The session keys its
    /// frozen [`NodeInit`] slab on this, so repeated runs over an unchanged [`GraphView`]
    /// (whose epoch this is) skip the per-node init construction entirely. `None` means
    /// "uncacheable — rebuild the slab every run" (plain graphs carry no epoch).
    fn content_epoch(&self) -> Option<u64>;
}

impl Topology for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }
    fn slot(&self, v: usize) -> usize {
        v
    }
    fn slot_node(&self, s: usize) -> usize {
        s
    }
    fn id(&self, v: usize) -> NodeId {
        Graph::id(self, v)
    }
    fn slot_id(&self, s: usize) -> NodeId {
        Graph::id(self, s)
    }
    fn slot_degree(&self, s: usize) -> usize {
        Graph::degree(self, s)
    }
    fn slot_neighbor(&self, s: usize, port: usize) -> usize {
        Graph::neighbor(self, s, port)
    }
    fn slot_reverse_port(&self, s: usize, port: usize) -> usize {
        Graph::reverse_port(self, s, port)
    }
    fn content_epoch(&self) -> Option<u64> {
        None
    }
}

impl Topology for GraphView<'_> {
    fn node_count(&self) -> usize {
        GraphView::node_count(self)
    }
    fn slot(&self, v: usize) -> usize {
        self.base_index(v)
    }
    fn slot_node(&self, s: usize) -> usize {
        self.live_index_of(s)
    }
    fn id(&self, v: usize) -> NodeId {
        GraphView::id(self, v)
    }
    fn slot_id(&self, s: usize) -> NodeId {
        self.base().id(s)
    }
    fn slot_degree(&self, s: usize) -> usize {
        GraphView::slot_degree(self, s)
    }
    fn slot_neighbor(&self, s: usize, port: usize) -> usize {
        GraphView::slot_neighbor(self, s, port)
    }
    fn slot_reverse_port(&self, s: usize, port: usize) -> usize {
        GraphView::slot_reverse_port(self, s, port)
    }
    fn content_epoch(&self) -> Option<u64> {
        Some(self.epoch())
    }
}

/// Frozen per-node init data of one topology content: identities, degrees, one flat arena
/// of neighbor identities, and the precomputed message-routing columns
/// (`offsets[v]..offsets[v + 1]` is node `v`'s port-ordered *dense arc* segment). Built once
/// per `(session, content epoch)`; repeated attempts on an unchanged [`GraphView`] hand out
/// `NodeInit`s that *borrow* these slabs instead of allocating one `neighbor_ids` vector per
/// node per attempt, and the round loop routes every message through `neighbor_index` and
/// `arrival_arc` without touching the topology at all. `arrival_arc` serves only
/// point-to-point sends, so it is filled on the first run over this content that sends.
#[derive(Debug, Default)]
struct InitSlab {
    /// The content epoch the slab was built from; `None` marks an epoch-less build that is
    /// never reused (see [`Topology::content_epoch`]).
    key: Option<u64>,
    ids: Vec<NodeId>,
    /// Dense arc offsets: node `v`'s ports occupy arcs `offsets[v]..offsets[v + 1]`; the
    /// degree is the segment width, so no separate degree array is kept. Stored as `u32`
    /// (rebuild asserts the arc count fits), halving the slab's routing footprint.
    offsets: Vec<u32>,
    neighbor_ids: Vec<NodeId>,
    /// Per arc `offsets[v] + p`: the dense index of the neighbor behind `v`'s port `p` —
    /// the broadcast slot `v` reads on that port.
    neighbor_index: Vec<u32>,
    /// Per arc `offsets[v] + p`: the point-to-point cell a message sent by `v` on port `p`
    /// lands in (the receiver's segment base plus the arrival port) — a send becomes one
    /// contiguous read and one indexed write. Empty until [`InitSlab::route_sends`].
    arrival_arc: Vec<u32>,
}

impl InitSlab {
    /// Refills the slab from `topo`, reusing the buffers' capacity.
    fn rebuild<T: Topology>(&mut self, topo: &T) {
        self.key = topo.content_epoch();
        self.ids.clear();
        self.offsets.clear();
        self.neighbor_ids.clear();
        self.neighbor_index.clear();
        self.arrival_arc.clear();
        self.offsets.push(0);
        // `neighbor_index` stores node indices as `u32`.
        u32::try_from(topo.node_count()).expect("node count exceeds the u32 slab limit");
        for v in 0..topo.node_count() {
            let s = topo.slot(v);
            let degree = topo.slot_degree(s);
            self.ids.push(topo.id(v));
            for port in 0..degree {
                let neighbor = topo.slot_neighbor(s, port);
                self.neighbor_ids.push(topo.slot_id(neighbor));
                self.neighbor_index.push(topo.slot_node(neighbor) as u32);
            }
            let arcs = u32::try_from(self.neighbor_ids.len())
                .expect("arc count exceeds the u32 arena limit");
            self.offsets.push(arcs);
        }
    }

    /// Fills the send routing column `arrival_arc` for `topo` (the content the slab was
    /// built from) unless it is already filled.
    fn route_sends<T: Topology>(&mut self, topo: &T) {
        if self.arrival_arc.len() == self.arc_count() {
            return;
        }
        for v in 0..topo.node_count() {
            let s = topo.slot(v);
            for port in 0..self.degree(v) {
                let w = self.neighbor_index[self.offsets[v] as usize + port] as usize;
                self.arrival_arc.push(self.offsets[w] + topo.slot_reverse_port(s, port) as u32);
            }
        }
    }

    /// Total number of (live) arcs — the point-to-point arenas' length.
    fn arc_count(&self) -> usize {
        *self.offsets.last().unwrap_or(&0) as usize
    }

    /// Degree of node `v` (its dense-arc segment width).
    fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Port-ordered neighbor identities of node `v`.
    fn neighbors(&self, v: usize) -> &[NodeId] {
        &self.neighbor_ids[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// The tick-stamped message cells for one message type, pooled across runs by [`Session`].
///
/// Each node owns one *broadcast slot* per round parity: a broadcast by `v` in round `r`
/// writes `(tick(r), msg)` into `v`'s slot of the round's write parity, once, whatever the
/// degree. Point-to-point sends get a cell per *arc*: a send to slot `w`'s port `p` writes
/// cell `arc_base(w) + p` of the write parity's arc arena. The arc arenas are grown on the
/// first send of a run, so programs that only broadcast never allocate them. In round
/// `r + 1` a receiver reads port `p` from its own arc cell if that cell is stamped
/// `>= tick(r)`, and otherwise from the slot of the neighbour behind `p` if that slot is —
/// so a send overrides a broadcast of the same round on its port. The two parities
/// alternate so that a write never clobbers a cell a receiver has not read yet (a cell is
/// rewritten at the earliest two rounds after it was written, strictly after its read
/// round). Ticks grow monotonically across rounds *and runs* (with a gap between runs), so
/// stale cells never match and nothing is ever cleared or swapped.
///
/// A stamp means "valid through". A node that broadcasts and then sleeps until round `u`
/// ([`Action::Idle`]) stamps its slot `tick(u - 1)`, so every read up to round `u` accepts
/// it. The round's write parity gets the slot at once; the other parity's slot is being read
/// in that same round, so it is copied over when the round ends ([`Session::standing`]). A
/// point-to-point send made alongside stamps its arc cell `tick(r)` and so overrides the
/// standing broadcast on its port for one round only. Standing stamps never pass the run's
/// last round, so the next run's ticks stay above them.
struct MsgBuffers<M> {
    /// One broadcast slot per node and parity; stamp 0 marks a never-written cell (every
    /// read tick is at least 1).
    slots: [Vec<Cell<M>>; 2],
    /// One point-to-point cell per arc and parity; empty until a run sends.
    arcs: [Vec<Cell<M>>; 2],
    /// The inbox staging buffer served to the running node (port-ascending).
    inbox: Vec<Incoming<M>>,
    /// The outbox staging buffer handed to the running node.
    outbox: Vec<(usize, M)>,
}

/// Grows `cells` to `len` never-written cells (never shrinks — capacities stay warm).
/// Stale cells need no reset: their stamps can never match a fresh tick.
fn grow<M>(cells: &mut [Vec<Cell<M>>; 2], len: usize) {
    for parity in cells {
        if parity.len() < len {
            parity.resize_with(len, || (0, None));
        }
    }
}

impl<M> MsgBuffers<M> {
    fn new() -> Self {
        MsgBuffers {
            slots: [Vec::new(), Vec::new()],
            arcs: [Vec::new(), Vec::new()],
            inbox: Vec::new(),
            outbox: Vec::new(),
        }
    }
}

/// Reusable per-node execution state: RNG streams, halt/termination bookkeeping, the active
/// worklist, typed message/program/output buffer pools, and the epoch-keyed [`NodeInit`]
/// slab.
///
/// A session is cheap to create but pays off when reused: every buffer is reset in place
/// between runs, so consecutive attempts of an alternation (or consecutive cells of a sweep
/// shard) allocate almost nothing. On an *unchanged* [`GraphView`] (same content epoch) a
/// run through [`run_view`] is fully allocation-free at the runtime level, provided the
/// caller hands finished [`Execution`]s back through [`Session::recycle_execution`] (the
/// alternating drivers of `local-uniform` do).
#[derive(Default)]
pub struct Session {
    /// Per-node lazily-drawn RNG slots, stamped with the tick base of the run that filled
    /// them (see [`RoundCtx::rng`]); a stale stamp means "not drawn this run", so nothing
    /// is cleared between runs and deterministic programs never pay a stream derivation.
    rngs: Vec<Option<(u64, ChaCha8Rng)>>,
    halted: Vec<bool>,
    termination: Vec<u64>,
    /// The nodes stepped this round, in ascending index order.
    active: Vec<usize>,
    /// Sleeping nodes keyed by wake-up round, with the arcs their standing broadcasts
    /// cover: a radix queue over per-node links (see [`WakeQueue`]), so it holds O(n)
    /// memory, allocates nothing once warm, and a round in which nobody wakes costs one
    /// comparison.
    wake: WakeQueue,
    /// The nodes that began a standing broadcast this round: their slot is copied into the
    /// other parity once every read of the round is done (see [`MsgBuffers`]).
    standing: Vec<usize>,
    /// Monotone round-tick source shared by every run of this session; the message cells'
    /// stamps are drawn from it, which is what lets stale cells persist unswept.
    next_tick: u64,
    /// Message cells + staging buffers per message type (boxed once, reused forever).
    msg_pool: HashMap<TypeId, Box<dyn Any>>,
    /// Spare `Vec<S::Prog>` stacks per program type.
    program_pool: HashMap<TypeId, Box<dyn Any>>,
    /// Spare `Vec<S::Output>` stacks per output type, refilled by the recycle methods.
    output_pool: HashMap<TypeId, Box<dyn Any>>,
    /// Spare buffers for the per-run termination / halted result vectors.
    spare_termination: Option<Vec<u64>>,
    spare_halted: Option<Vec<bool>>,
    /// The frozen init slab (ids, degrees, flat neighbor-identity arena), keyed by the
    /// topology's content epoch.
    slab: InitSlab,
}

impl Session {
    /// A fresh session with empty buffers.
    pub fn new() -> Self {
        Session::default()
    }

    /// The content epoch the cached init slab was built from, if any — a diagnostics hook
    /// for tests asserting that [`GraphView::retain`] invalidates the cache.
    pub fn cached_init_epoch(&self) -> Option<u64> {
        self.slab.key
    }

    /// Returns a finished execution's buffers (outputs, termination, halted) to the
    /// session's pools so the next run of the same output type allocates nothing.
    ///
    /// Purely an optimization — executions that are kept alive (or dropped) instead are
    /// merely re-allocated on the next run.
    pub fn recycle_execution<O: Send + 'static>(&mut self, exec: Execution<O>) {
        let Execution { outputs, termination, halted, .. } = exec;
        self.recycle_outputs(outputs);
        self.recycle_flags(termination, halted);
    }

    /// Returns an output vector (e.g. [`crate::algorithm::AlgoRun::outputs`]) to the
    /// session's per-type pool; see [`Session::recycle_execution`].
    pub fn recycle_outputs<O: Send + 'static>(&mut self, mut outputs: Vec<O>) {
        outputs.clear();
        let stack = self
            .output_pool
            .entry(TypeId::of::<Vec<O>>())
            .or_insert_with(|| Box::new(Vec::<Vec<O>>::new()));
        if let Some(stack) = stack.downcast_mut::<Vec<Vec<O>>>() {
            stack.push(outputs);
        }
    }

    /// Returns a run's termination/halted vectors to the spare slots; see
    /// [`Session::recycle_execution`].
    pub fn recycle_flags(&mut self, termination: Vec<u64>, halted: Vec<bool>) {
        self.spare_termination = Some(termination);
        self.spare_halted = Some(halted);
    }

    fn take_output_buf<O: Send + 'static>(&mut self) -> Vec<O> {
        self.output_pool
            .get_mut(&TypeId::of::<Vec<O>>())
            .and_then(|b| b.downcast_mut::<Vec<Vec<O>>>())
            .and_then(Vec::pop)
            .unwrap_or_default()
    }

    fn take_program_buf<P: 'static>(&mut self) -> Vec<P> {
        self.program_pool
            .get_mut(&TypeId::of::<Vec<P>>())
            .and_then(|b| b.downcast_mut::<Vec<Vec<P>>>())
            .and_then(Vec::pop)
            .unwrap_or_default()
    }

    fn put_program_buf<P: 'static>(&mut self, mut buf: Vec<P>) {
        buf.clear();
        let stack = self
            .program_pool
            .entry(TypeId::of::<Vec<P>>())
            .or_insert_with(|| Box::new(Vec::<Vec<P>>::new()));
        if let Some(stack) = stack.downcast_mut::<Vec<Vec<P>>>() {
            stack.push(buf);
        }
    }

    fn take_msgs<M: 'static>(&mut self, n: usize) -> Box<MsgBuffers<M>> {
        let mut buffers = self
            .msg_pool
            .remove(&TypeId::of::<M>())
            .and_then(|b| b.downcast::<MsgBuffers<M>>().ok())
            .unwrap_or_else(|| Box::new(MsgBuffers::new()));
        grow(&mut buffers.slots, n);
        buffers
    }

    fn put_msgs<M: 'static>(&mut self, buffers: Box<MsgBuffers<M>>) {
        self.msg_pool.insert(TypeId::of::<M>(), buffers);
    }
}

/// Runs `spec` over `view` with the session's reusable buffers.
///
/// For the same alive set, seed, and spec this is byte-identical to materializing the view
/// with [`GraphView::materialize`] and calling [`crate::runner::run`] on the result: node
/// indexing, port numbering, message order, and the identity-derived RNG streams all agree.
///
/// # Panics
///
/// Panics if `inputs.len() != view.node_count()`.
pub fn run_view<S: ProgramSpec>(
    view: &GraphView<'_>,
    inputs: &[S::Input],
    spec: &S,
    cfg: &RunConfig,
    session: &mut Session,
) -> Execution<S::Output> {
    run_core(view, inputs, spec, cfg, session)
}

/// The shared round loop; monomorphized over the topology (graph or view).
pub(crate) fn run_core<T: Topology, S: ProgramSpec>(
    topo: &T,
    inputs: &[S::Input],
    spec: &S,
    cfg: &RunConfig,
    session: &mut Session,
) -> Execution<S::Output> {
    let n = topo.node_count();
    assert_eq!(inputs.len(), n, "one input per node is required");

    // Freeze (or reuse) the init slab: on an unchanged view the epoch matches and nothing is
    // rebuilt; otherwise the slab's buffers are refilled in place.
    let mut slab = std::mem::take(&mut session.slab);
    if slab.key.is_none() || slab.key != topo.content_epoch() {
        slab.rebuild(topo);
    }

    // Pooled per-type buffers. Outputs are prefilled with the spec's forced default (the
    // paper's arbitrary output for cut-off nodes) and overwritten when a node halts by
    // itself — same values as deciding after the run, without the `Option` layer.
    let mut programs: Vec<S::Prog> = session.take_program_buf();
    let mut outputs: Vec<S::Output> = session.take_output_buf();
    for (v, input) in inputs.iter().enumerate() {
        let init = NodeInit {
            index: v,
            id: slab.ids[v],
            degree: slab.degree(v),
            neighbor_ids: slab.neighbors(v),
            input,
        };
        outputs.push(spec.default_output(&init));
        programs.push(spec.build(&init));
    }

    if session.rngs.len() < n {
        session.rngs.resize_with(n, || None);
    }
    session.halted.clear();
    session.halted.resize(n, false);
    session.termination.clear();
    session.termination.resize(n, 0);
    session.active.clear();
    session.active.extend(0..n);
    // Tick base of this run. Round 0 accepts stamps `>= tick_base - 1 = next_tick + 1`: above
    // every stamp of the previous runs (at most `next_tick - 1`) and above the never-written
    // stamp 0, so a fresh session's round 0 counts no phantom arrivals either.
    let tick_base = session.next_tick + 2;
    let mut msgs = session.take_msgs::<S::Msg>(n);
    let mut outbox: Vec<(usize, S::Msg)> = std::mem::take(&mut msgs.outbox);
    let mut inbox: Vec<Incoming<S::Msg>> = std::mem::take(&mut msgs.inbox);
    let mut bcast: Option<S::Msg>;
    // Whether this run has made a point-to-point send, i.e. whether the arc arenas are
    // grown and worth reading.
    let mut sends = false;

    let mut messages: u64 = 0;
    let mut trace = cfg.record_trace.then(ExecutionTrace::default);

    // Observability (one relaxed load; everything below is skipped when disabled). The
    // per-round calls are allocation-free: counters are atomics, the value event lands in
    // a preallocated fixed-capacity buffer.
    let obs_on = local_obs::is_enabled();

    // An explicit budget is honoured as given; the hard cap only bounds unbudgeted runs.
    let limit = cfg.max_rounds.unwrap_or(cfg.hard_cap);
    let mut rounds_executed = 0u64;
    let mut active_count = n;

    // Sleeping nodes: the wake queue holds them off the worklist, and the arcs their
    // standing broadcasts cover are charged every round they sleep.
    session.wake.reset(n);
    session.standing.clear();
    let mut sticky_arcs = 0u64;

    let mut round: u64 = 0;
    while active_count > 0 && round < limit {
        let send_tick = tick_base + round;
        let read_tick = send_tick - 1;
        // Wake the sleepers due this round. A batch pushed in one round arrives in node
        // order; one gathered from several rounds is sorted, and the worklist is re-sorted
        // only when the batch interleaves with nodes already on it.
        let awake = session.active.len();
        sticky_arcs -= session.wake.pop_due(round, &mut session.active);
        let batch = &mut session.active[awake..];
        if !batch.is_sorted() {
            batch.sort_unstable();
        }
        if awake > 0
            && session.active.len() > awake
            && session.active[awake - 1] > session.active[awake]
        {
            session.active.sort_unstable();
        }
        let read = (read_tick % 2) as usize;
        let write = 1 - read;
        let mut delivered_this_round = sticky_arcs;
        // Nodes that keep running are compacted to the front of the worklist in place.
        let mut kept = 0;
        for idx in 0..session.active.len() {
            let v = session.active[idx];
            let base = slab.offsets[v] as usize;
            let degree = slab.degree(v);
            outbox.clear();
            bcast = None;
            // The inbox is staged lazily: the context gets where the node's arrivals live
            // and materializes the port-ascending inbox only if the program asks.
            let mut staged = false;
            let action = {
                let mut ctx = RoundCtx {
                    round,
                    degree,
                    neighbor_ids: slab.neighbors(v),
                    inbox: &mut inbox,
                    staged: &mut staged,
                    arrivals: Arrivals {
                        neighbors: &slab.neighbor_index[base..base + degree],
                        slots: &msgs.slots[read],
                        arcs: if sends { &msgs.arcs[read][base..base + degree] } else { &[] },
                        read_tick,
                    },
                    outbox: &mut outbox,
                    broadcast: &mut bcast,
                    rng_slot: &mut session.rngs[v],
                    rng_key: (tick_base, cfg.seed, slab.ids[v]),
                };
                programs[v].round(&mut ctx)
            };
            // A sleep that ends by the next round is plain `Continue`; one that outlasts the
            // run ends with it, so no standing stamp passes the run's last round.
            let until = match action {
                Action::Idle(until) => until.min(limit),
                _ => 0,
            };
            let sleeps = until > round + 1;
            let mut standing_arcs = 0u32;
            // Deliver: a broadcast is one slot write; each send is one arc cell, found
            // through `arrival_arc` without touching the topology. One message is charged
            // per port that carries one: a broadcast covers every port, so sends alongside it
            // add nothing, and a repeat send finds its cell already stamped this round.
            let broadcasts = bcast.is_some();
            if let Some(msg) = bcast.take() {
                let stamp = if sleeps { tick_base + until - 1 } else { send_tick };
                msgs.slots[write][v] = (stamp, Some(msg));
                delivered_this_round += degree as u64;
                if sleeps {
                    standing_arcs = degree as u32;
                    session.standing.push(v);
                }
            }
            if !outbox.is_empty() && !sends {
                sends = true;
                slab.route_sends(topo);
                grow(&mut msgs.arcs, slab.arc_count());
                if obs_on {
                    local_obs::gauge_max(local_obs::metrics::ARENA_ARCS, slab.arc_count() as u64);
                }
            }
            for (port, msg) in outbox.drain(..) {
                let cell = &mut msgs.arcs[write][slab.arrival_arc[base + port] as usize];
                if !broadcasts && cell.0 != send_tick {
                    delivered_this_round += 1;
                }
                *cell = (send_tick, Some(msg));
            }
            match action {
                Action::Halt(out) => {
                    outputs[v] = out;
                    // Halting during round r means the node used r communication rounds.
                    session.termination[v] = round;
                    session.halted[v] = true;
                    active_count -= 1;
                }
                _ if sleeps => {
                    session.wake.push(v, until, standing_arcs);
                    sticky_arcs += u64::from(standing_arcs);
                }
                _ => {
                    session.active[kept] = v;
                    kept += 1;
                }
            }
        }
        session.active.truncate(kept);
        // Every read of this round is done: the standing broadcasts take their slots in the
        // parity this round read from, which the next round writes to and the one after
        // reads.
        let [even, odd] = &mut msgs.slots;
        let (copy, written) = if read == 0 { (even, odd) } else { (odd, even) };
        for v in session.standing.drain(..) {
            copy[v] = written[v].clone();
        }
        messages += delivered_this_round;
        round += 1;
        rounds_executed = round;
        if obs_on {
            local_obs::counter_add(local_obs::metrics::ROUNDS, 1);
            local_obs::counter_add(local_obs::metrics::MESSAGES_SENT, delivered_this_round);
            local_obs::record(
                local_obs::metrics::ACTIVE_NODES,
                local_obs::LabelId::NONE,
                active_count as u64,
            );
        }
        if let Some(t) = trace.as_mut() {
            t.rounds.push(RoundTrace {
                round: round - 1,
                active_nodes: active_count,
                messages: delivered_this_round,
            });
        }
    }
    session.put_program_buf(programs);

    let completed = active_count == 0;
    // Nodes that never halted keep their prefilled default output and are charged the full
    // execution length.
    let cut_off_at = rounds_executed;
    let mut termination = session.spare_termination.take().unwrap_or_default();
    termination.clear();
    termination.extend(session.termination.iter().zip(session.halted.iter()).map(|(&t, &h)| {
        if h {
            t
        } else {
            cut_off_at
        }
    }));
    let mut halted = session.spare_halted.take().unwrap_or_default();
    halted.clear();
    halted.extend_from_slice(&session.halted);
    let rounds = termination.iter().copied().max().unwrap_or(0);

    session.next_tick = tick_base + rounds_executed;
    msgs.outbox = outbox;
    msgs.inbox = inbox;
    session.put_msgs(msgs);
    session.slab = slab;

    Execution { outputs, rounds, termination, halted, messages, completed, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;

    /// Gossip spec: flood identities, output the max seen after `radius` rounds.
    struct MaxIdSpec {
        radius: u64,
    }
    struct MaxIdProg {
        radius: u64,
        best: u64,
    }
    impl NodeProgram for MaxIdProg {
        type Msg = u64;
        type Output = u64;
        fn round(&mut self, ctx: &mut RoundCtx<'_, u64>) -> Action<u64> {
            for m in ctx.inbox() {
                self.best = self.best.max(m.msg);
            }
            if ctx.round() == self.radius {
                return Action::Halt(self.best);
            }
            ctx.broadcast(self.best);
            Action::Continue
        }
    }
    impl ProgramSpec for MaxIdSpec {
        type Input = ();
        type Msg = u64;
        type Output = u64;
        type Prog = MaxIdProg;
        fn build(&self, init: &NodeInit<()>) -> MaxIdProg {
            MaxIdProg { radius: self.radius, best: init.id }
        }
        fn default_output(&self, _init: &NodeInit<()>) -> u64 {
            0
        }
    }

    /// Every node outputs how many arrivals it counted in round 0 (always none).
    struct RoundZeroCount;
    struct RoundZeroProg;
    impl NodeProgram for RoundZeroProg {
        type Msg = u64;
        type Output = usize;
        fn round(&mut self, ctx: &mut RoundCtx<'_, u64>) -> Action<usize> {
            Action::Halt(ctx.received_count() + ctx.messages().count())
        }
    }
    impl ProgramSpec for RoundZeroCount {
        type Input = ();
        type Msg = u64;
        type Output = usize;
        type Prog = RoundZeroProg;
        fn build(&self, _init: &NodeInit<()>) -> RoundZeroProg {
            RoundZeroProg
        }
        fn default_output(&self, _init: &NodeInit<()>) -> usize {
            usize::MAX
        }
    }

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn view_run_matches_graph_run_on_full_view() {
        let g = path(8);
        let cfg = RunConfig::seeded(3).with_trace();
        let reference = run(&g, &[(); 8], &MaxIdSpec { radius: 3 }, &cfg);
        let view = GraphView::full(&g);
        let mut session = Session::new();
        let via_view = run_view(&view, &[(); 8], &MaxIdSpec { radius: 3 }, &cfg, &mut session);
        assert_eq!(via_view.outputs, reference.outputs);
        assert_eq!(via_view.rounds, reference.rounds);
        assert_eq!(via_view.messages, reference.messages);
        assert_eq!(via_view.termination, reference.termination);
        assert_eq!(via_view.trace.unwrap().rounds.len(), reference.trace.unwrap().rounds.len());
    }

    #[test]
    fn view_run_matches_materialized_subgraph_run() {
        let g = path(10);
        let keep: Vec<bool> = (0..10).map(|v| v != 3 && v != 7).collect();
        let (sub, _back) = g.induced_subgraph(&keep);
        let cfg = RunConfig::seeded(11);
        let reference = run(&sub, &vec![(); sub.node_count()], &MaxIdSpec { radius: 4 }, &cfg);
        let view = GraphView::with_mask(&g, &keep);
        let mut session = Session::new();
        let via_view = run_view(
            &view,
            &vec![(); view.node_count()],
            &MaxIdSpec { radius: 4 },
            &cfg,
            &mut session,
        );
        assert_eq!(via_view.outputs, reference.outputs);
        assert_eq!(via_view.rounds, reference.rounds);
        assert_eq!(via_view.messages, reference.messages);
    }

    #[test]
    fn session_reuse_across_runs_is_clean() {
        let g = path(6);
        let view = GraphView::full(&g);
        let mut session = Session::new();
        let cfg = RunConfig::seeded(0);
        let first = run_view(&view, &[(); 6], &MaxIdSpec { radius: 2 }, &cfg, &mut session);
        let second = run_view(&view, &[(); 6], &MaxIdSpec { radius: 2 }, &cfg, &mut session);
        assert_eq!(first.outputs, second.outputs);
        assert_eq!(first.messages, second.messages);
        // A run over a shrunken view after a big one must not see stale state.
        let mut small = GraphView::full(&g);
        small.retain(&[true, true, true, false, false, false]);
        let shrunk = run_view(&small, &[(); 3], &MaxIdSpec { radius: 2 }, &cfg, &mut session);
        assert_eq!(shrunk.outputs.len(), 3);
        assert_eq!(shrunk.outputs, vec![2, 2, 2]);
    }

    #[test]
    fn round_zero_inbox_is_empty_in_fresh_and_reused_sessions() {
        // Never-written cells carry stamp 0; the first run's round 0 must not count them.
        let g = path(5);
        let view = GraphView::full(&g);
        let mut session = Session::new();
        for _ in 0..2 {
            let exec =
                run_view(&view, &[(); 5], &RoundZeroCount, &RunConfig::default(), &mut session);
            assert_eq!(exec.outputs, vec![0; 5]);
        }
        let via_run = run(&g, &[(); 5], &RoundZeroCount, &RunConfig::default());
        assert_eq!(via_run.outputs, vec![0; 5]);
    }
}
