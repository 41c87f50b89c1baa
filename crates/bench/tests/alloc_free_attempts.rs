//! The allocation-free steady state of black-box attempts.
//!
//! A counting global allocator asserts that repeated attempts (`execute_view` runs) on an
//! unchanged configuration, with their outputs recycled into the session, perform *zero* heap
//! allocations: the init slab, program/output buffers, message cells, and RNG tables are all
//! served from the session's caches. Three attempt shapes are covered — a gossip spec that
//! steps every node every round, once by broadcast and once by point-to-point sends (so the
//! per-arc cells grown on a run's first send must be pooled), and the (Δ+1)-colouring whose
//! elimination phase sleeps nodes with `Action::Idle` (so the wake queue and the
//! standing-broadcast list must be pooled too) — once with the observability layer off and
//! once with it armed.

use local_algos::coloring::ReducedColoring;
use local_graphs::GraphParams;
use local_runtime::{
    Action, GraphAlgorithm, GraphView, NodeInit, NodeProgram, ProgramSpec, RoundCtx, Session,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A pass-through allocator that counts the allocation events of the thread that armed it.
/// Deallocations are not counted (returning pooled memory is fine); `alloc`, `realloc`, and
/// `alloc_zeroed` all are — any of them in the steady state means a cache failed to do its job.
struct CountingAllocator;

thread_local! {
    // Const-initialised and free of destructors, so reading them from inside the allocator
    // never allocates; being per-thread, they ignore the test harness's other threads.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn record_allocation() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    }
}

// SAFETY: delegates verbatim to `System`; the counter is a thread-local side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, passed on unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract, passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_allocation();
        // SAFETY: `ptr` came from this allocator, which is `System` underneath, and the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System` underneath, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Counts this thread's allocation events inside `f`.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.with(|count| count.set(0));
    ARMED.with(|armed| armed.set(true));
    let result = f();
    ARMED.with(|armed| armed.set(false));
    (ALLOCATIONS.with(Cell::get), result)
}

/// A heap-free gossip spec standing in for a budgeted black-box attempt: flood the maximum
/// identity for `radius` rounds (every node broadcasts every round — the message-heavy shape
/// of the colouring attempts — or, with `sends`, sends it on every port), then halt with it.
struct MaxIdAttempt {
    radius: u64,
    sends: bool,
}

struct MaxIdProg {
    radius: u64,
    sends: bool,
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

impl ProgramSpec for MaxIdAttempt {
    type Input = ();
    type Msg = u64;
    type Output = u64;
    type Prog = MaxIdProg;
    fn build(&self, init: &NodeInit<()>) -> MaxIdProg {
        MaxIdProg { radius: self.radius, sends: self.sends, best: init.id }
    }
    fn default_output(&self, init: &NodeInit<()>) -> u64 {
        init.id
    }
}

/// Asserts that 32 attempts of `spec` on an unchanged view allocate nothing once a session
/// has been warmed up by two attempts.
fn assert_steady_state_allocation_free<S: ProgramSpec<Input = ()>>(
    spec: &S,
    view: &GraphView<'_>,
    budget: Option<u64>,
    label: &str,
) {
    let inputs = vec![(); view.node_count()];
    let mut session = Session::new();
    // Warm-up: the first attempt builds the init slab, the message cells, and the pooled
    // program/output buffers (and, with obs armed, registers this thread's track);
    // recycling hands the output vector back.
    for _ in 0..2 {
        let run = spec.execute_view(view, &inputs, budget, 7, &mut session);
        session.recycle_outputs(run.outputs);
    }
    let (allocations, messages) = count_allocations(|| {
        let mut messages = 0;
        for attempt in 0..32u64 {
            let run = spec.execute_view(view, &inputs, budget, 7 ^ attempt, &mut session);
            messages += run.messages;
            session.recycle_outputs(run.outputs);
        }
        messages
    });
    assert!(messages > 0, "{label}: the steady-state attempts must actually simulate messages");
    assert_eq!(
        allocations, 0,
        "{label}: steady-state attempts on an unchanged configuration must be allocation-free \
         ({allocations} allocations observed over 32 attempts)"
    );
}

/// All attempt shapes: the broadcasting and the sending gossip spec under a budget, and the
/// idling (Δ+1)-colouring run to completion.
fn assert_attempts_allocation_free(view: &GraphView<'_>, label: &str) {
    let params = GraphParams::of(view.base());
    let coloring = ReducedColoring::delta_plus_one(params.max_degree, params.max_id);
    for sends in [false, true] {
        let gossip = MaxIdAttempt { radius: 8, sends };
        assert_steady_state_allocation_free(&gossip, view, Some(16), label);
    }
    assert_steady_state_allocation_free(&coloring, view, None, label);
}

/// One test for both observability modes: `local_obs::enable` is process-wide, so the
/// obs-off half must not overlap with the obs-on half.
#[test]
fn steady_state_attempts_are_allocation_free_with_obs_off_and_on() {
    let g = local_graphs::Family::SparseGnp.generate(2000, 1);
    let view = GraphView::full(&g);
    assert_attempts_allocation_free(&view, "obs off");

    // Armed, counters hit pre-registered atomics and events land in the pre-sized
    // thread-local buffer (capacity-guarded push, drop-on-overflow), so recording must not
    // reintroduce steady-state allocations.
    local_obs::enable();
    assert_attempts_allocation_free(&view, "obs on");
    local_obs::disable();
}
