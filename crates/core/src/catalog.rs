//! A catalog of ready-made black boxes and transformed uniform algorithms.
//!
//! Each entry wires one baseline algorithm of [`local_algos`] (or a synthetic stand-in, see
//! DESIGN.md) to its declared time bound and parameter set, reproducing the rows of the
//! paper's Table 1. The benchmark harness and the examples consume these entries instead of
//! re-deriving the bounds.

use crate::funcs::{largest_arg_at_most, monotone, ARGUMENT_CAP};
use crate::nonuniform::NonUniformAlgorithm;
use crate::problem::{MatchingProblem, MisProblem, RulingSetProblem};
use crate::pruning::{MatchingPruning, RulingSetPruning};
use crate::seqnum::TimeBound;
use crate::theorem5::{ColoringTransformer, NonUniformColoringBox};
use crate::transform::{FastestOfTransformer, UniformComponent, UniformTransformer};
use local_algos::arboricity::ArboricityMis;
use local_algos::coloring::{ColoringTarget, ReducedColoring};
use local_algos::matching::MatchingFromEdgeColoring;
use local_algos::mis::{ColoringMis, GreedyMis, LubyMis};
use local_algos::ruling::MisRulingSet;
use local_algos::synthetic::{SyntheticMatching, SyntheticMis};
use local_graphs::{log_star, Parameter};
use local_runtime::{AlgoRun, DynAlgorithm, GraphAlgorithm, GraphView, NodeId, Session};
use std::sync::Arc;

// --------------------------------------------------------------------------- MIS rows -------

/// Table 1 row 1 — the colouring-based deterministic MIS, non-uniform in `{Δ, m}`, with an
/// additive time bound (our stand-in for the `O(Δ + log* n)` algorithms; see DESIGN.md).
pub fn coloring_mis_black_box() -> NonUniformAlgorithm<MisProblem> {
    NonUniformAlgorithm::deterministic(
        "det-MIS (Δ, m)",
        vec![Parameter::MaxDegree, Parameter::MaxId],
        TimeBound::Additive(vec![
            monotone(|d| {
                let d = d as f64;
                // Bertrand: the Linial palette is at most (2(Δ̃+2))²; elimination + the
                // colour-class MIS pass add O(Δ̃) more.
                4.0 * (d + 2.0) * (d + 2.0) + d + 8.0
            }),
            monotone(|m| log_star(m as f64) as f64 + 8.0),
        ]),
        Arc::new(|g: &[u64]| {
            Box::new(ColoringMis { delta_guess: g[0], id_bound_guess: g[1] })
                as DynAlgorithm<(), bool>
        }),
    )
}

/// Table 1 row 2 — the `2^{O(√log n)}` deterministic MIS (Panconesi–Srinivasan shape),
/// non-uniform in `{n}`; a synthetic black box (see DESIGN.md).
pub fn panconesi_srinivasan_mis_black_box() -> NonUniformAlgorithm<MisProblem> {
    NonUniformAlgorithm::deterministic(
        "det-MIS 2^O(√log n) (synthetic)",
        vec![Parameter::N],
        TimeBound::single(monotone(|n| (2f64).powf(1.5 * (n.max(2) as f64).log2().sqrt()).ceil())),
        Arc::new(|g: &[u64]| {
            Box::new(SyntheticMis::panconesi_srinivasan(g[0], 1.5)) as DynAlgorithm<(), bool>
        }),
    )
}

/// The running-time bound declared for [`arboricity_mis_black_box`]:
/// `ℓ(ñ) · (50·(ã+1)² + log* m̃ + 10)` with `ℓ(ñ)` the number of peeling layers.
pub fn arboricity_mis_bound(a: u64, n: u64, m: u64) -> f64 {
    let layers = local_algos::arboricity::h_partition_layers(n) as f64;
    layers * (50.0 * ((a + 1) as f64).powi(2) + log_star(m as f64) as f64 + 10.0)
}

/// Table 1 rows 3–4 — the arboricity-parameterised deterministic MIS (H-partition +
/// per-layer colouring), non-uniform in `{a, n, m}` with a product-shaped bound.
///
/// The set-sequence is the product construction of Observation 4.1 applied to
/// `f₁(a, m) = 50(a+1)² + log* m + 10` (additive, single inverse per budget) and
/// `f₂(n) = ℓ(n)`; the bounding constant is 8.
pub fn arboricity_mis_black_box() -> NonUniformAlgorithm<MisProblem> {
    let f_a = monotone(|a: u64| 50.0 * ((a + 1) as f64).powi(2) + 10.0);
    let f_m = monotone(|m: u64| log_star(m as f64) as f64);
    let f_n = monotone(|n: u64| local_algos::arboricity::h_partition_layers(n) as f64);
    let (fa, fm, fn_) = (f_a.clone(), f_m.clone(), f_n.clone());
    let sets = move |i: u64| -> Vec<Vec<u64>> {
        let log_i = (i.max(2) as f64).log2().ceil() as i64;
        let mut out = Vec::new();
        for j in 0..=log_i {
            let inner_budget = 2f64.powi(j as i32);
            let outer_budget = 2f64.powi((log_i - j + 1) as i32);
            let a = largest_arg_at_most(&fa, inner_budget, ARGUMENT_CAP);
            let m = largest_arg_at_most(&fm, inner_budget, ARGUMENT_CAP);
            let n = largest_arg_at_most(&fn_, outer_budget, ARGUMENT_CAP);
            if let (Some(a), Some(n), Some(m)) = (a, n, m) {
                out.push(vec![a, n, m]);
            }
        }
        out
    };
    let (ea, em, en) = (f_a, f_m, f_n);
    NonUniformAlgorithm::deterministic(
        "det-MIS arboricity (a, n, m)",
        vec![Parameter::Degeneracy, Parameter::N, Parameter::MaxId],
        TimeBound::Custom {
            eval: Arc::new(move |g: &[u64]| (ea(g[0]) + em(g[2])) * en(g[1])),
            sets: Arc::new(sets),
            bounding_constant: 8,
        },
        Arc::new(|g: &[u64]| {
            Box::new(ArboricityMis { arboricity_guess: g[0], n_guess: g[1], id_bound_guess: g[2] })
                as DynAlgorithm<(), bool>
        }),
    )
}

/// A uniform deterministic MIS algorithm (Theorem 1 applied to [`coloring_mis_black_box`]).
pub fn uniform_coloring_mis() -> UniformTransformer<MisProblem, RulingSetPruning> {
    UniformTransformer::new(coloring_mis_black_box(), RulingSetPruning::mis(), false)
}

/// A uniform deterministic MIS algorithm from the synthetic Panconesi–Srinivasan bound.
pub fn uniform_ps_mis() -> UniformTransformer<MisProblem, RulingSetPruning> {
    UniformTransformer::new(panconesi_srinivasan_mis_black_box(), RulingSetPruning::mis(), false)
}

/// A uniform deterministic MIS algorithm from the arboricity black box (Theorem 1 + the
/// product set-sequence).
pub fn uniform_arboricity_mis() -> UniformTransformer<MisProblem, RulingSetPruning> {
    UniformTransformer::new(arboricity_mis_black_box(), RulingSetPruning::mis(), false)
}

/// Wraps a transformed uniform algorithm as a plain [`GraphAlgorithm`] so it can serve as a
/// component of the Theorem 4 combinator (Corollary 1(i)).
pub struct TransformedMis {
    inner: Arc<UniformTransformer<MisProblem, RulingSetPruning>>,
}

impl GraphAlgorithm for TransformedMis {
    type Input = ();
    type Output = bool;

    fn execute_view(
        &self,
        view: &GraphView<'_>,
        _inputs: &[()],
        budget: Option<u64>,
        seed: u64,
        session: &mut Session,
    ) -> AlgoRun<bool> {
        let n = view.node_count();
        let run = self.inner.solve_view(view.clone(), &vec![(); n], seed, session);
        Self::budgeted(run, budget, n)
    }
}

impl TransformedMis {
    fn budgeted(
        run: crate::transform::UniformRun<bool>,
        budget: Option<u64>,
        n: usize,
    ) -> AlgoRun<bool> {
        match budget {
            Some(b) if run.rounds > b => AlgoRun {
                // Cut off before completion: no correctness promise, emit placeholders.
                outputs: vec![false; n],
                rounds: b,
                messages: run.messages,
                completed: false,
            },
            _ => AlgoRun {
                outputs: run.outputs,
                rounds: run.rounds,
                messages: run.messages,
                completed: run.solved,
            },
        }
    }
}

/// Corollary 1(i): a uniform deterministic MIS running as fast as the fastest of the three
/// regimes (general graphs via the Δ-based algorithm, dense graphs via the `2^{O(√log n)}`
/// bound, sparse graphs via the arboricity algorithm), combined by Theorem 4. Luby's uniform
/// randomized MIS (Table 1 last row) is *not* included — the corollary is deterministic.
pub fn corollary1_mis() -> FastestOfTransformer<MisProblem, RulingSetPruning> {
    let components = vec![
        UniformComponent::<MisProblem> {
            name: "uniform Δ-based MIS".into(),
            algorithm: Arc::new(TransformedMis { inner: Arc::new(uniform_coloring_mis()) }),
        },
        UniformComponent::<MisProblem> {
            name: "uniform 2^O(√log n) MIS".into(),
            algorithm: Arc::new(TransformedMis { inner: Arc::new(uniform_ps_mis()) }),
        },
        UniformComponent::<MisProblem> {
            name: "uniform arboricity MIS".into(),
            algorithm: Arc::new(TransformedMis { inner: Arc::new(uniform_arboricity_mis()) }),
        },
        UniformComponent::<MisProblem> {
            name: "greedy-by-identity MIS".into(),
            algorithm: Arc::new(GreedyMis),
        },
    ];
    FastestOfTransformer::new(components, RulingSetPruning::mis(), false)
}

/// The uniform randomized MIS of Table 1's last row (already uniform, no transformation).
pub fn uniform_randomized_mis() -> LubyMis {
    LubyMis
}

// --------------------------------------------------------------------- matching rows --------

/// Table 1 row 8 — deterministic maximal matching from edge colouring, non-uniform in
/// `{Δ, m}` (our stand-in for Hańćkowiak et al.; see DESIGN.md).
pub fn matching_black_box() -> NonUniformAlgorithm<MatchingProblem> {
    NonUniformAlgorithm::deterministic(
        "det-MM (Δ, m)",
        vec![Parameter::MaxDegree, Parameter::MaxId],
        TimeBound::Additive(vec![
            monotone(|d| {
                let d = d as f64;
                4.0 * (2.0 * d + 4.0) * (2.0 * d + 4.0) + 2.0 * d + 10.0
            }),
            monotone(|m| log_star((m as f64) * 1_000_004.0) as f64 + 8.0),
        ]),
        Arc::new(|g: &[u64]| {
            Box::new(MatchingFromEdgeColoring { delta_guess: g[0], id_bound_guess: g[1] })
                as DynAlgorithm<(), Option<NodeId>>
        }),
    )
}

/// Table 1 row 8, exact time shape — a synthetic `O(log⁴ ñ)` maximal-matching black box.
pub fn synthetic_log4_matching_black_box() -> NonUniformAlgorithm<MatchingProblem> {
    NonUniformAlgorithm::deterministic(
        "det-MM O(log⁴ n) (synthetic)",
        vec![Parameter::N],
        TimeBound::single(monotone(|n| {
            let l = (n.max(2) as f64).log2();
            0.5 * l.powi(4) + 1.0
        })),
        Arc::new(|g: &[u64]| {
            Box::new(SyntheticMatching { n_guess: g[0], scale: 0.5 })
                as DynAlgorithm<(), Option<NodeId>>
        }),
    )
}

/// A uniform deterministic maximal matching (Theorem 1 + `P_MM`), Corollary 1(vi).
pub fn uniform_matching() -> UniformTransformer<MatchingProblem, MatchingPruning> {
    UniformTransformer::new(matching_black_box(), MatchingPruning, None)
}

/// A uniform maximal matching with the paper's exact `O(log⁴ n)` time shape (synthetic box).
pub fn uniform_log4_matching() -> UniformTransformer<MatchingProblem, MatchingPruning> {
    UniformTransformer::new(synthetic_log4_matching_black_box(), MatchingPruning, None)
}

// --------------------------------------------------------------------- ruling set row -------

/// Table 1 row 9 — the weak Monte-Carlo (2, β)-ruling set black box (budgeted Luby,
/// non-uniform in `{n}`); the Schneider–Wattenhofer `O(2^c log^{1/c} n)` time shape is covered
/// by [`synthetic_ruling_set_black_box`].
pub fn ruling_set_black_box() -> NonUniformAlgorithm<RulingSetProblem> {
    NonUniformAlgorithm::monte_carlo(
        "rand (2,β)-ruling set (n)",
        vec![Parameter::N],
        TimeBound::single(monotone(|n| MisRulingSet::with_default_budget(n).round_bound() as f64)),
        Arc::new(|g: &[u64]| {
            Box::new(MisRulingSet::with_default_budget(g[0])) as DynAlgorithm<(), bool>
        }),
    )
}

/// The Schneider–Wattenhofer time shape `O(2^c · log^{1/c} ñ)` as a synthetic weak Monte-Carlo
/// MIS black box (any MIS is a (2, β)-ruling set).
pub fn synthetic_ruling_set_black_box(c: u32) -> NonUniformAlgorithm<MisProblem> {
    let c = c.max(1);
    NonUniformAlgorithm::monte_carlo(
        "rand ruling set 2^c·log^(1/c) n (synthetic)",
        vec![Parameter::N],
        TimeBound::single(monotone(move |n| {
            (2f64).powi(c as i32) * (n.max(2) as f64).log2().powf(1.0 / c as f64) + 1.0
        })),
        Arc::new(move |g: &[u64]| {
            Box::new(SyntheticMis {
                parameters: vec![Parameter::N],
                guesses: vec![g[0]],
                time: Arc::new(move |guess: &[u64]| {
                    ((2f64).powi(c as i32) * (guess[0].max(2) as f64).log2().powf(1.0 / c as f64))
                        .ceil() as u64
                        + 1
                }),
                success_probability: 0.75,
            }) as DynAlgorithm<(), bool>
        }),
    )
}

/// A uniform Las Vegas (2, β)-ruling set algorithm (Theorem 2 + `P_(2,β)`), Corollary 1(vii).
pub fn uniform_ruling_set(beta: usize) -> UniformTransformer<RulingSetProblem, RulingSetPruning> {
    UniformTransformer::new(ruling_set_black_box(), RulingSetPruning { beta }, false)
}

// --------------------------------------------------------------------- colouring rows -------

/// The non-uniform λ(Δ̃+1)-colouring black box (λ = 1 is the (Δ+1)-colouring of Table 1 row 1;
/// larger λ is row 5).
pub fn lambda_coloring_box(lambda: u64) -> NonUniformColoringBox {
    let lambda = lambda.max(1);
    NonUniformColoringBox {
        name: format!("{lambda}(Δ+1)-coloring"),
        build: Arc::new(move |delta, m| {
            Box::new(ReducedColoring {
                delta_guess: delta,
                id_bound_guess: m,
                target: ColoringTarget::LambdaDeltaPlusOne(lambda),
            }) as DynAlgorithm<(), u64>
        }),
        palette: Arc::new(move |delta| lambda * (delta + 1)),
        time: Arc::new(move |delta, m| {
            ReducedColoring {
                delta_guess: delta,
                id_bound_guess: m,
                target: ColoringTarget::LambdaDeltaPlusOne(lambda),
            }
            .round_bound() as f64
        }),
    }
}

/// A uniform `O(λ(Δ+1))`-colouring algorithm (Theorem 5), Corollary 1(iii).
pub fn uniform_lambda_coloring(lambda: u64) -> ColoringTransformer {
    ColoringTransformer::new(lambda_coloring_box(lambda))
}

/// The non-uniform `O(Δ̃)`-edge-colouring black box run on the line graph; Theorem 5 applied to
/// it gives the uniform edge colouring of Corollary 1(v). Palette `2Δ̃ − 1`, viewed as a
/// vertex-colouring box for line graphs (degree parameter = the line graph's degree).
pub fn line_graph_coloring_box() -> NonUniformColoringBox {
    lambda_coloring_box(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use local_graphs::{forest_union, gnp, Family, GraphParams};

    fn units(n: usize) -> Vec<()> {
        vec![(); n]
    }

    #[test]
    fn catalog_black_box_bounds_really_upper_bound_measured_rounds() {
        // The transformers' correctness rests on f being a genuine upper bound of the black
        // box's running time at good guesses; verify it empirically for the concrete boxes.
        for seed in 0..3u64 {
            let g = Family::SparseGnp.generate(100, seed);
            let p = GraphParams::of(&g);

            let mis_box = coloring_mis_black_box();
            let algo = (mis_box.build)(&[p.max_degree, p.max_id]);
            let run = algo.execute(&g, &units(g.node_count()), None, seed);
            assert!(run.completed);
            assert!(
                (run.rounds as f64) <= mis_box.time_bound.eval(&[p.max_degree, p.max_id]),
                "MIS box exceeded its declared bound"
            );

            let mm_box = matching_black_box();
            let algo = (mm_box.build)(&[p.max_degree, p.max_id]);
            let run = algo.execute(&g, &units(g.node_count()), None, seed);
            assert!(run.completed);
            assert!(
                (run.rounds as f64) <= mm_box.time_bound.eval(&[p.max_degree, p.max_id]),
                "MM box exceeded its declared bound"
            );
        }
    }

    #[test]
    fn arboricity_box_bound_holds_on_sparse_graphs() {
        let g = forest_union(120, 3, 7);
        let p = GraphParams::of(&g);
        let abox = arboricity_mis_black_box();
        let guesses = [p.degeneracy.max(1), p.n, p.max_id];
        let algo = (abox.build)(&guesses);
        let run = algo.execute(&g, &units(g.node_count()), None, 0);
        assert!(run.completed);
        assert!(
            (run.rounds as f64) <= abox.time_bound.eval(&guesses),
            "arboricity box exceeded its declared bound: {} > {}",
            run.rounds,
            abox.time_bound.eval(&guesses)
        );
        assert!(
            (abox.time_bound.eval(&guesses) - arboricity_mis_bound(guesses[0], p.n, p.max_id))
                .abs()
                < 1e-6
        );
    }

    #[test]
    fn uniform_catalog_entries_solve_their_problems() {
        let g = gnp(60, 0.1, 2);
        let run = uniform_coloring_mis().solve(&g, &units(60), 0);
        assert!(run.solved);
        MisProblem.validate(&g, &units(60), &run.outputs).unwrap();

        let run = uniform_matching().solve(&g, &units(60), 0);
        assert!(run.solved);
        MatchingProblem.validate(&g, &units(60), &run.outputs).unwrap();

        let run = uniform_ruling_set(2).solve(&g, &units(60), 0);
        assert!(run.solved);
        RulingSetProblem::two(2).validate(&g, &units(60), &run.outputs).unwrap();
    }

    #[test]
    fn uniform_arboricity_mis_solves_sparse_graphs() {
        let g = forest_union(80, 2, 3);
        let run = uniform_arboricity_mis().solve(&g, &units(g.node_count()), 1);
        assert!(run.solved);
        MisProblem.validate(&g, &units(g.node_count()), &run.outputs).unwrap();
    }

    #[test]
    fn uniform_log4_matching_and_ps_mis_solve() {
        let g = gnp(50, 0.1, 4);
        let run = uniform_log4_matching().solve(&g, &units(50), 0);
        assert!(run.solved);
        MatchingProblem.validate(&g, &units(50), &run.outputs).unwrap();

        let run = uniform_ps_mis().solve(&g, &units(50), 0);
        assert!(run.solved);
        MisProblem.validate(&g, &units(50), &run.outputs).unwrap();
    }

    #[test]
    fn corollary1_combination_solves_everything_it_sees() {
        let combiner = corollary1_mis();
        for (i, g) in
            [Family::Forest3.generate(80, 1), Family::Regular6.generate(80, 2), gnp(80, 0.2, 3)]
                .iter()
                .enumerate()
        {
            let run = combiner.solve(g, &units(g.node_count()), i as u64);
            assert!(run.solved, "graph {i} unsolved");
            MisProblem.validate(g, &units(g.node_count()), &run.outputs).unwrap();
        }
    }

    #[test]
    fn synthetic_ruling_set_box_time_shape() {
        let bx = synthetic_ruling_set_black_box(2);
        let t_small = bx.time_bound.eval(&[1 << 8]);
        let t_large = bx.time_bound.eval(&[1 << 32]);
        // log^(1/2): quadrupling the exponent doubles the bound.
        assert!(t_large <= 2.5 * t_small);
    }

    #[test]
    fn lambda_boxes_have_growing_palettes() {
        assert_eq!((lambda_coloring_box(1).palette)(10), 11);
        assert_eq!((lambda_coloring_box(4).palette)(10), 44);
        assert_eq!((line_graph_coloring_box().palette)(10), 11);
    }
}
