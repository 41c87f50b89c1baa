//! The `arena-arcs` gauge counts point-to-point cells that exist: a run that only
//! broadcasts allocates no per-arc cells and leaves it at 0, and the first run that sends
//! raises it to the arc count. The observability state is process-global, so this file is
//! its own test binary with a single test.

use local_obs::metrics::ARENA_ARCS;
use local_runtime::{
    run_view, Action, Graph, GraphView, NodeInit, NodeProgram, ProgramSpec, RoundCtx, RunConfig,
    Session,
};

/// Floods the maximum identity for three rounds, by broadcast or (with `sends`) by one
/// point-to-point send per port.
struct Flood {
    sends: bool,
}

struct FloodProg {
    sends: bool,
    best: u64,
}

impl NodeProgram for FloodProg {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, ctx: &mut RoundCtx<'_, u64>) -> Action<u64> {
        self.best = ctx.messages().fold(self.best, |best, (_, &m)| best.max(m));
        if ctx.round() == 3 {
            return Action::Halt(self.best);
        }
        if self.sends {
            for port in 0..ctx.degree() {
                ctx.send(port, self.best);
            }
        } else {
            ctx.broadcast(self.best);
        }
        Action::Continue
    }
}

impl ProgramSpec for Flood {
    type Input = ();
    type Msg = u64;
    type Output = u64;
    type Prog = FloodProg;

    fn build(&self, init: &NodeInit<()>) -> FloodProg {
        FloodProg { sends: self.sends, best: init.id }
    }

    fn default_output(&self, _init: &NodeInit<()>) -> u64 {
        0
    }
}

fn cycle(n: usize) -> Graph {
    let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    Graph::from_edges(n, &edges).expect("a cycle is a simple graph")
}

#[test]
fn gauge_counts_only_point_to_point_arcs() {
    local_obs::enable();
    local_obs::reset();
    let mut session = Session::new();
    let cfg = RunConfig::default();

    let small = cycle(8);
    let view = GraphView::full(&small);
    let flooded = run_view(&view, &[(); 8], &Flood { sends: false }, &cfg, &mut session);
    assert_eq!(local_obs::counter_value(ARENA_ARCS), 0, "a broadcast-only run allocates no arcs");

    let sent = run_view(&view, &[(); 8], &Flood { sends: true }, &cfg, &mut session);
    assert_eq!(sent.outputs, flooded.outputs);
    assert_eq!(sent.messages, flooded.messages);
    assert_eq!(local_obs::counter_value(ARENA_ARCS), 16, "a sending run grows one cell per arc");

    // A larger broadcast-only run on the same session grows no arc cells either.
    let large = cycle(40);
    let view = GraphView::full(&large);
    run_view(&view, &[(); 40], &Flood { sends: false }, &cfg, &mut session);
    assert_eq!(local_obs::counter_value(ARENA_ARCS), 16);
    local_obs::disable();
}
