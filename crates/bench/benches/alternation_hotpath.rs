//! The zero-rebuild alternation hot path: the live-view/session driver versus the
//! pre-refactor execution strategy (rebuild-per-prune driver + the seed's ball-based pruning)
//! on doubling-budget uniform MIS runs at n = 10 000.
//!
//! Two black boxes bracket the workload space:
//!
//! * `ps_mis` — the synthetic `2^{O(√log n)}` box (Table 1 row 2). Its attempts charge rounds
//!   without simulating messages, so the measurement isolates the alternation driver itself
//!   (attempt dispatch, pruning, configuration shrinking) — the cost the refactor removes.
//! * `coloring_mis` — the real `O(Δ² + log* m)` colouring pipeline. Attempts simulate every
//!   message, which both paths share, so the gap narrows to the session/runtime savings
//!   (frozen init slabs, arc-arena message routing, pooled buffers).
//!
//! All paths produce byte-identical `UniformRun`s (enforced by `local-core`'s rebuild and
//! property tests) — the comparison is pure throughput.
//!
//! The allocation-free steady state of repeated attempts is asserted by the
//! `alloc_free_attempts` integration test of this crate, not here.
//! End-to-end throughput lives in `perfbench/`, not here.

use criterion::{criterion_group, criterion_main, Criterion};
use local_uniform::rebuild::SeedRulingSetPruning;
use local_uniform::transform::UniformTransformer;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("alternation_hotpath");
    group.sample_size(10).measurement_time(Duration::from_secs(5));

    let g = local_graphs::Family::SparseGnp.generate(10_000, 1);
    let inputs = vec![(); g.node_count()];

    // ---- Driver-dominated workload: the synthetic PS box. ----
    let ps = local_uniform::catalog::uniform_ps_mis();
    let ps_reference = UniformTransformer::new(
        local_uniform::catalog::panconesi_srinivasan_mis_black_box(),
        SeedRulingSetPruning { beta: 1 },
        false,
    );
    let fast = ps.solve(&g, &inputs, 7);
    let reference = ps_reference.solve_rebuild(&g, &inputs, 7);
    assert!(fast.solved);
    assert_eq!(fast.outputs, reference.outputs);
    assert_eq!(fast.rounds, reference.rounds);

    group.bench_function("view_session_ps_mis_n10000", |b| {
        let mut session = local_runtime::Session::new();
        b.iter(|| {
            let run = ps.solve_in(&g, &inputs, 7, &mut session);
            assert!(run.solved);
            run.rounds
        })
    });
    group.bench_function("rebuild_reference_ps_mis_n10000", |b| {
        b.iter(|| {
            let run = ps_reference.solve_rebuild(&g, &inputs, 7);
            assert!(run.solved);
            run.rounds
        })
    });

    // ---- Simulation-dominated workload: the colouring-based MIS box. ----
    let coloring = local_uniform::catalog::uniform_coloring_mis();
    let coloring_reference = UniformTransformer::new(
        local_uniform::catalog::coloring_mis_black_box(),
        SeedRulingSetPruning { beta: 1 },
        false,
    );
    let fast = coloring.solve(&g, &inputs, 7);
    let reference = coloring_reference.solve_rebuild(&g, &inputs, 7);
    assert!(fast.solved);
    assert_eq!(fast.outputs, reference.outputs);
    assert_eq!(fast.rounds, reference.rounds);

    group.bench_function("view_session_coloring_mis_n10000", |b| {
        let mut session = local_runtime::Session::new();
        b.iter(|| {
            let run = coloring.solve_in(&g, &inputs, 7, &mut session);
            assert!(run.solved);
            run.rounds
        })
    });
    group.bench_function("rebuild_reference_coloring_mis_n10000", |b| {
        b.iter(|| {
            let run = coloring_reference.solve_rebuild(&g, &inputs, 7);
            assert!(run.solved);
            run.rounds
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
