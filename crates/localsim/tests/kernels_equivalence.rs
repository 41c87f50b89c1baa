//! The runtime's flat-buffer scans, checked through the public API against plain reference
//! models: the per-node inbox reads (`RoundCtx::messages`, `RoundCtx::received_count`, the
//! staged `RoundCtx::inbox`) and the live-list compaction of `GraphView::retain`.
//!
//! Shapes covered: empty inputs, single elements, all-dead and all-live masks, rows of 63 to
//! 65 and 127 to 129 arcs, max-degree rows where every arc carries a message, stale stamps
//! left in the same point-to-point cells two rounds earlier, and proptest-generated
//! arbitrary inputs.

use local_runtime::{
    run, Action, Graph, GraphView, NodeInit, NodeProgram, ProgramSpec, RoundCtx, RunConfig,
};
use proptest::prelude::*;

/// What the centre of a star saw in one round: `(port, sender id)` pairs from the
/// streaming iterator and from the staged inbox, plus the stamp count.
type Seen = (Vec<(usize, u64)>, Vec<(usize, u64)>, usize);

/// Leaves send their identity to the centre in round 0 and/or round 2 (input bits 0 and
/// 1); the centre records its arrivals in rounds 1 and 3. Round 2's writes land in the
/// same arena as round 0's, so round 3 must ignore the stale round-0 stamps.
struct StarProbe;

struct StarProbeProg {
    id: u64,
    send: u8,
    seen: Vec<Seen>,
}

impl NodeProgram for StarProbeProg {
    type Msg = u64;
    type Output = Vec<Seen>;

    fn round(&mut self, ctx: &mut RoundCtx<'_, u64>) -> Action<Vec<Seen>> {
        let round = ctx.round();
        if round == 1 || round == 3 {
            let streamed: Vec<(usize, u64)> = ctx.messages().map(|(p, &m)| (p, m)).collect();
            let count = ctx.received_count();
            let staged: Vec<(usize, u64)> = ctx.inbox().iter().map(|m| (m.port, m.msg)).collect();
            self.seen.push((streamed, staged, count));
        }
        if round == 3 {
            return Action::Halt(self.seen.clone());
        }
        let bit = match round {
            0 => 1,
            2 => 2,
            _ => 0,
        };
        if self.send & bit != 0 {
            ctx.send(0, self.id);
        }
        Action::Continue
    }
}

impl ProgramSpec for StarProbe {
    type Input = u8;
    type Msg = u64;
    type Output = Vec<Seen>;
    type Prog = StarProbeProg;

    fn build(&self, init: &NodeInit<u8>) -> StarProbeProg {
        StarProbeProg { id: init.id, send: *init.input, seen: Vec::new() }
    }

    fn default_output(&self, _init: &NodeInit<u8>) -> Vec<Seen> {
        Vec::new()
    }
}

/// Runs the probe on a star whose leaf `i` (node `i + 1`) has send bits `sends[i]`, and
/// checks the centre's observations against the ports the reference model expects.
fn check_star(sends: &[u8]) {
    let edges: Vec<(usize, usize)> = (1..=sends.len()).map(|leaf| (0, leaf)).collect();
    let g = Graph::from_edges(sends.len() + 1, &edges).expect("a star is a simple graph");
    let mut inputs = vec![0u8];
    inputs.extend_from_slice(sends);
    let exec = run(&g, &inputs, &StarProbe, &RunConfig::default());
    assert!(exec.completed);
    let centre = &exec.outputs[0];
    if sends.is_empty() {
        // An isolated node still runs its rounds, with nothing to read.
        assert!(centre.iter().all(|(s, i, c)| s.is_empty() && i.is_empty() && *c == 0));
        return;
    }
    for (slot, bit) in [(0usize, 1u8), (1, 2)] {
        let expected: Vec<(usize, u64)> = (0..g.degree(0))
            .filter_map(|p| {
                let leaf = g.neighbor(0, p);
                (sends[leaf - 1] & bit != 0).then(|| (p, g.id(leaf)))
            })
            .collect();
        let (streamed, staged, count) = &centre[slot];
        assert_eq!(streamed, &expected, "messages() in round {}", 2 * slot + 1);
        assert_eq!(staged, &expected, "inbox() in round {}", 2 * slot + 1);
        assert_eq!(*count, expected.len(), "received_count() in round {}", 2 * slot + 1);
    }
}

/// Checks `GraphView::retain` against `Graph::induced_subgraph` on a path over `len`
/// nodes (a long row of live-list entries with one edge segment edit per removal).
fn check_retain(keep: &[bool]) {
    let len = keep.len();
    let edges: Vec<(usize, usize)> = (1..len).map(|v| (v - 1, v)).collect();
    let g = Graph::from_edges(len, &edges).expect("a path is a simple graph");
    let (sub, back) = g.induced_subgraph(keep);
    let mut view = GraphView::full(&g);
    let epoch = view.epoch();
    view.retain(keep);
    assert_eq!(view.live_nodes(), back.as_slice(), "survivors in base order");
    assert_eq!(view.materialize(), (sub, back));
    let all_live = keep.iter().all(|&k| k);
    assert_eq!(view.epoch() == epoch, all_live, "only a no-op retain keeps the epoch");
}

#[test]
fn empty_inputs() {
    check_star(&[]);
    check_retain(&[]);
}

#[test]
fn single_elements() {
    check_star(&[0]);
    check_star(&[1]);
    check_star(&[3]);
    check_retain(&[true]);
    check_retain(&[false]);
}

#[test]
fn all_dead_and_all_live_masks() {
    for len in [1usize, 63, 64, 65, 200] {
        check_retain(&vec![false; len]);
        check_retain(&vec![true; len]);
    }
}

#[test]
fn chunk_boundaries_and_max_degree_rows() {
    // Rows just below, at, and above the 64-arc chunk boundary, with stale round-0 stamps
    // interleaved with fresh round-2 ones; then max-degree rows where every arc matches.
    for len in [63usize, 64, 65, 127, 128, 129] {
        let sends: Vec<u8> = (0..len).map(|i| [1, 2, 3][i % 3]).collect();
        check_star(&sends);
        check_star(&vec![3; len]);
        check_star(&vec![0; len]);
    }
}

proptest! {
    #[test]
    fn stamps_match_scalar(sends in prop::collection::vec(0u8..4, 0..300)) {
        check_star(&sends);
    }

    #[test]
    fn masks_match_scalar(keep in prop::collection::vec(any::<bool>(), 0..300)) {
        check_retain(&keep);
    }

    #[test]
    fn compaction_matches_scalar(
        (first, second) in (1usize..200).prop_flat_map(|len| (
            prop::collection::vec(any::<bool>(), len),
            prop::collection::vec(any::<bool>(), len),
        )),
    ) {
        // Two pruning waves: the second mask is live-indexed over the first's survivors,
        // so the compaction must keep the live list in base order across both.
        let len = first.len();
        let edges: Vec<(usize, usize)> = (1..len).map(|v| (v - 1, v)).collect();
        let g = Graph::from_edges(len, &edges).expect("a path is a simple graph");
        let mut view = GraphView::full(&g);
        view.retain(&first);
        let second = &second[..view.node_count()];
        let mut keep = vec![false; len];
        for (l, &b) in view.live_nodes().iter().enumerate() {
            keep[b] = second[l];
        }
        view.retain(second);
        let (sub, back) = g.induced_subgraph(&keep);
        prop_assert_eq!(view.live_nodes(), back.as_slice());
        prop_assert_eq!(view.materialize(), (sub, back));
    }
}
