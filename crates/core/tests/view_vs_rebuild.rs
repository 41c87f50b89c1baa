//! Property test: the zero-rebuild alternation path (live `GraphView` + reusable `Session`)
//! produces byte-identical `UniformRun`s — outputs, rounds, messages, iteration counts, and
//! full sub-iteration traces — to the rebuild-per-prune reference path, across a scenario
//! grid of problems, graph families, sizes, and seeds. Also re-checks that session reuse
//! across consecutive solves does not leak state between runs.

use local_uniform::catalog;
use local_uniform::problem::{MatchingProblem, MisProblem, Problem, RulingSetProblem};
use local_uniform::UniformRun;
use proptest::prelude::*;

fn units(n: usize) -> Vec<()> {
    vec![(); n]
}

/// Field-by-field equality of two runs, ignoring only the wall-clock profiling micros.
fn assert_identical<O: PartialEq + std::fmt::Debug>(
    fast: &UniformRun<O>,
    reference: &UniformRun<O>,
    label: &str,
) {
    assert_eq!(fast.outputs, reference.outputs, "{label}: outputs diverge");
    assert_eq!(fast.rounds, reference.rounds, "{label}: rounds diverge");
    assert_eq!(fast.messages, reference.messages, "{label}: messages diverge");
    assert_eq!(fast.iterations, reference.iterations, "{label}: iterations diverge");
    assert_eq!(fast.subiterations, reference.subiterations, "{label}: subiterations diverge");
    assert_eq!(fast.solved, reference.solved, "{label}: solved flags diverge");
    assert_eq!(fast.trace, reference.trace, "{label}: traces diverge");
}

/// The small scenario grid the equivalence is checked over.
const FAMILIES: [local_graphs::Family; 4] = [
    local_graphs::Family::Path,
    local_graphs::Family::Grid,
    local_graphs::Family::SparseGnp,
    local_graphs::Family::Forest3,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mis_alternation_is_byte_identical_across_paths(
        family in 0usize..FAMILIES.len(),
        n in 24usize..80,
        seed in 0u64..1000,
    ) {
        let g = FAMILIES[family].generate(n, seed);
        let n = g.node_count();
        let transformer = catalog::uniform_coloring_mis();
        let mut session = local_runtime::Session::new();
        let fast = transformer.solve_in(&g, &units(n), seed, &mut session);
        let reference = transformer.solve_rebuild(&g, &units(n), seed);
        assert_identical(&fast, &reference, "mis");
        prop_assert!(fast.solved);
        prop_assert!(MisProblem.validate(&g, &units(n), &fast.outputs).is_ok());
        // Session reuse: a second solve through the same session stays identical.
        let again = transformer.solve_in(&g, &units(n), seed, &mut session);
        assert_identical(&again, &reference, "mis (reused session)");
    }

    #[test]
    fn arboricity_alternation_is_byte_identical_across_paths(
        n in 40usize..96,
        seed in 0u64..1000,
    ) {
        // Unit-disk instances of this size usually survive the first attempt of the
        // arboricity box in part, so later attempts run ArboricityMis on a retained view —
        // where its per-layer colouring MIS runs on a retained copy of that view.
        let g = local_graphs::Family::UnitDisk.generate(n, seed);
        let n = g.node_count();
        let transformer = catalog::uniform_arboricity_mis();
        let mut session = local_runtime::Session::new();
        let fast = transformer.solve_in(&g, &units(n), seed, &mut session);
        let reference = transformer.solve_rebuild(&g, &units(n), seed);
        assert_identical(&fast, &reference, "arboricity-mis");
        prop_assert!(fast.solved);
        prop_assert!(MisProblem.validate(&g, &units(n), &fast.outputs).is_ok());
        // Session reuse: a second solve through the same session stays identical.
        let again = transformer.solve_in(&g, &units(n), seed, &mut session);
        assert_identical(&again, &reference, "arboricity-mis (reused session)");
    }

    #[test]
    fn matching_alternation_is_byte_identical_across_paths(
        family in 0usize..FAMILIES.len(),
        n in 24usize..64,
        seed in 0u64..1000,
    ) {
        let g = FAMILIES[family].generate(n, seed);
        let n = g.node_count();
        let transformer = catalog::uniform_matching();
        let fast = transformer.solve(&g, &units(n), seed);
        let reference = transformer.solve_rebuild(&g, &units(n), seed);
        assert_identical(&fast, &reference, "matching");
        prop_assert!(MatchingProblem.validate(&g, &units(n), &fast.outputs).is_ok());
    }

    #[test]
    fn las_vegas_ruling_set_is_byte_identical_across_paths(
        n in 24usize..64,
        seed in 0u64..1000,
    ) {
        let g = local_graphs::Family::SparseGnp.generate(n, seed);
        let n = g.node_count();
        let transformer = catalog::uniform_ruling_set(2);
        let fast = transformer.solve(&g, &units(n), seed);
        let reference = transformer.solve_rebuild(&g, &units(n), seed);
        assert_identical(&fast, &reference, "ruling-set");
        prop_assert!(RulingSetProblem::two(2).validate(&g, &units(n), &fast.outputs).is_ok());
    }

    #[test]
    fn retain_refreshes_cached_inits_and_outputs_stay_byte_identical(
        n in 24usize..96,
        seed in 0u64..1000,
        drop_stride in 2usize..5,
    ) {
        // The session caches frozen NodeInit slabs per view epoch. Mutating the view through
        // retain() must refresh the cache (stale ids/ports would silently corrupt runs), and
        // every run on the live view must stay byte-identical to executing on the
        // materialized subgraph — the rebuild path.
        use local_algos::mis::GreedyMis;
        use local_runtime::{GraphAlgorithm, GraphView, Session};

        let g = local_graphs::Family::SparseGnp.generate(n, seed);
        let n = g.node_count();
        let mut view = GraphView::full(&g);
        let mut session = Session::new();

        let first = GreedyMis.execute_view(&view, &units(n), None, seed, &mut session);
        let cached = session.cached_init_epoch();
        prop_assert_eq!(cached, Some(view.epoch()), "slab must be keyed by the view epoch");

        // A second run on the unchanged view reuses the cached slab (same epoch) and agrees.
        let again = GreedyMis.execute_view(&view, &units(n), None, seed, &mut session);
        prop_assert_eq!(session.cached_init_epoch(), cached);
        prop_assert_eq!(&first.outputs, &again.outputs);

        // Mutate the configuration: drop every `drop_stride`-th live node.
        let keep: Vec<bool> = (0..n).map(|v| !v.is_multiple_of(drop_stride)).collect();
        view.retain(&keep);
        let live = view.node_count();
        let shrunk = GreedyMis.execute_view(&view, &units(live), None, seed, &mut session);
        prop_assert_ne!(session.cached_init_epoch(), cached, "retain() must refresh the slab");
        prop_assert_eq!(session.cached_init_epoch(), Some(view.epoch()));

        // Byte-identical to the rebuild path: materialize the view and execute on the copy.
        let (sub, _back) = view.materialize();
        let reference = GreedyMis.execute(&sub, &units(live), None, seed);
        prop_assert_eq!(shrunk.outputs, reference.outputs, "outputs diverge from rebuild");
        prop_assert_eq!(shrunk.rounds, reference.rounds, "rounds diverge from rebuild");
        prop_assert_eq!(shrunk.messages, reference.messages, "messages diverge from rebuild");
    }

    #[test]
    fn synthetic_black_box_alternation_is_byte_identical_across_paths(
        n in 24usize..96,
        seed in 0u64..1000,
    ) {
        // The synthetic black box evaluates graph parameters on the live configuration and
        // computes its reference solution centrally — exercises the view-native parameter
        // evaluation (`Parameter::eval_view`) and `central_greedy_mis_view`.
        let g = local_graphs::Family::UnitDisk.generate(n, seed);
        let n = g.node_count();
        let transformer = catalog::uniform_ps_mis();
        let fast = transformer.solve(&g, &units(n), seed);
        let reference = transformer.solve_rebuild(&g, &units(n), seed);
        assert_identical(&fast, &reference, "synthetic");
        prop_assert!(MisProblem.validate(&g, &units(n), &fast.outputs).is_ok());
    }
}
