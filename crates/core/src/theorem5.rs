//! Theorem 5: the colouring transformer.
//!
//! Colouring does not admit a pruning algorithm directly (a node cannot locally check that its
//! colour is within the `O(g(Δ))` range without knowing Δ, and a pruned colour constrains its
//! surviving neighbours). Theorem 5 circumvents both obstacles:
//!
//! 1. **Degree layering.** Thresholds `D_1 = 1`, `D_{i+1} = min{ℓ : g(ℓ) ≥ 2·g(D_i)}` split the
//!    nodes by degree into layers; a node knows its layer from its own degree alone, and the
//!    degree bound `Δ̂_i = D_{i+1}` is common knowledge inside layer `i`.
//! 2. **Strong list colouring (SLC).** Within a layer, the unknown parameter is only the
//!    maximum identity `m`. The SLC problem *does* admit a pruning algorithm
//!    ([`crate::pruning::SlcPruning`]), so the Theorem 1/2 machinery applies: the layer is
//!    coloured uniformly by iterating the budgeted black box `B` (the given non-uniform
//!    colouring algorithm `A` wrapped to pick an available copy `(c, j)` from the node's list)
//!    against the SLC pruning.
//! 3. **Palette compression.** A second phase re-colours each layer from the phase-1 palette
//!    down to `Δ̂_i + 1 ≤ g(Δ̂_i)` colours, treating the phase-1 colours as identities — the
//!    paper's observation that the underlying colouring algorithms only need the initial
//!    identities to form a proper colouring. Layer `i`'s final colours are shifted into
//!    `[g(D_{i+1}), 2·g(D_{i+1}))`; since `g(D_{i+1}) ≥ 2·g(D_i)` these ranges are pairwise
//!    disjoint, and the total number of colours is `O(g(Δ))`.
//!
//! Layers run in parallel, so the charged running time is the *maximum* over layers, as in the
//! paper's proof.

use crate::funcs::monotone;
use crate::nonuniform::NonUniformAlgorithm;
use crate::problem::{SlcColor, SlcInput, SlcProblem};
use crate::pruning::SlcPruning;
use crate::seqnum::TimeBound;
use crate::transform::UniformTransformer;
use local_algos::coloring::RefineColoring;
use local_graphs::Parameter;
use local_runtime::{AlgoRun, DynAlgorithm, Graph, GraphAlgorithm, GraphView, Session};
use std::sync::Arc;

/// The non-uniform `g(Δ̃)`-colouring black box handed to the Theorem 5 transformer.
#[derive(Clone)]
pub struct NonUniformColoringBox {
    /// Name used in reports.
    pub name: String,
    /// Builds the algorithm from `(Δ̃, m̃)` guesses; its output colours must lie in
    /// `[0, palette(Δ̃))` whenever the guesses are good.
    pub build: Arc<dyn Fn(u64, u64) -> DynAlgorithm<(), u64> + Send + Sync>,
    /// The number of colours `g(Δ̃)` the black box uses (must be moderately fast, in particular
    /// `g(Δ̃) ≥ Δ̃ + 1`).
    pub palette: Arc<dyn Fn(u64) -> u64 + Send + Sync>,
    /// Non-decreasing running-time bound `f(Δ̃, m̃)`.
    pub time: Arc<dyn Fn(u64, u64) -> f64 + Send + Sync>,
}

impl std::fmt::Debug for NonUniformColoringBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NonUniformColoringBox").field("name", &self.name).finish()
    }
}

/// Adapter `B` of the Theorem 5 proof: run `A` with the common degree bound `Δ̂` and a guess
/// `m̃`, then output the pair `(c + 1, min{j : (c + 1, j) ∈ L(v)})`.
struct SlcFromColoring {
    inner: DynAlgorithm<(), u64>,
    palette: u64,
}

impl GraphAlgorithm for SlcFromColoring {
    type Input = SlcInput;
    type Output = SlcColor;

    fn execute_view(
        &self,
        view: &GraphView<'_>,
        inputs: &[SlcInput],
        budget: Option<u64>,
        seed: u64,
        session: &mut Session,
    ) -> AlgoRun<SlcColor> {
        let unit_inputs = vec![(); view.node_count()];
        let run = self.inner.execute_view(view, &unit_inputs, budget, seed, session);
        let lifted = self.lift(&run, inputs);
        // The wrapped colouring's u64 outputs are done with: back to the session pool, so
        // the next attempt's colouring phase reuses the buffer.
        session.recycle_outputs(run.outputs);
        lifted
    }
}

impl SlcFromColoring {
    /// Maps the wrapped colouring's outputs into the nodes' SLC lists.
    fn lift(&self, run: &AlgoRun<u64>, inputs: &[SlcInput]) -> AlgoRun<SlcColor> {
        let outputs: Vec<SlcColor> = run
            .outputs
            .iter()
            .zip(inputs)
            .map(|(&c, input)| {
                let base = (c + 1).min(self.palette.max(1));
                // Empty base-colour bucket can only happen under bad guesses; emit an
                // arbitrary (out-of-list) value, which the pruning will reject.
                (base, input.first_copy(base).unwrap_or(0))
            })
            .collect();
        AlgoRun { outputs, rounds: run.rounds, messages: run.messages, completed: run.completed }
    }
}

/// The outcome of the uniform colouring algorithm produced by Theorem 5.
#[derive(Debug, Clone)]
pub struct ColoringRun {
    /// Final colours, one per node.
    pub colors: Vec<u64>,
    /// Rounds charged: the maximum over layers (they run in parallel) of the two phases.
    pub rounds: u64,
    /// Total messages delivered, summed over all layers and phases.
    pub messages: u64,
    /// Number of non-empty degree layers.
    pub layers: usize,
    /// `true` when every layer's SLC instance was solved before the safety cap.
    pub solved: bool,
    /// Wall-clock time spent inside black-box attempts, summed over layers, in microseconds
    /// (profiling aid; non-deterministic).
    pub attempt_micros: u64,
    /// Wall-clock time spent in pruning, summed over layers, in microseconds (profiling aid;
    /// non-deterministic).
    pub prune_micros: u64,
}

/// The Theorem 5 transformer: a uniform `O(g(Δ))`-colouring algorithm built from a non-uniform
/// `g(Δ̃)`-colouring black box.
pub struct ColoringTransformer {
    /// The black box `A_Γ` with `Γ ⊆ {Δ, m}`.
    pub black_box: NonUniformColoringBox,
    /// Safety cap on the doubling iterations of the per-layer SLC transformer.
    pub max_iterations: u64,
}

impl ColoringTransformer {
    /// Creates the transformer with the default iteration cap.
    pub fn new(black_box: NonUniformColoringBox) -> Self {
        ColoringTransformer { black_box, max_iterations: 40 }
    }

    /// The degree thresholds `D_1 < D_2 < …` up to (and one past) `max_degree`.
    pub fn thresholds(&self, max_degree: u64) -> Vec<u64> {
        let g = &self.black_box.palette;
        let mut thresholds = vec![1u64];
        while *thresholds.last().expect("non-empty") <= max_degree {
            let current = *thresholds.last().expect("non-empty");
            let target = 2 * g(current).max(1);
            let mut next = current + 1;
            while g(next) < target && next < current.saturating_mul(4) + 64 {
                next += 1;
            }
            thresholds.push(next);
        }
        thresholds
    }

    /// The palette bound `2·g(D_{i_max + 1}) = O(g(Δ))` claimed by Theorem 5 for a graph of
    /// maximum degree `max_degree`.
    pub fn palette_bound(&self, max_degree: u64) -> u64 {
        let thresholds = self.thresholds(max_degree);
        let top = *thresholds.last().expect("non-empty");
        2 * (self.black_box.palette)(top)
    }

    /// Runs the uniform colouring algorithm with a throwaway [`Session`].
    pub fn solve(&self, graph: &Graph, seed: u64) -> ColoringRun {
        self.solve_in(graph, seed, &mut Session::new())
    }

    /// Like [`ColoringTransformer::solve`], but reuses the caller's [`Session`] buffers
    /// across layers and phases.
    pub fn solve_in(&self, graph: &Graph, seed: u64, session: &mut Session) -> ColoringRun {
        let n = graph.node_count();
        if n == 0 {
            return ColoringRun {
                colors: Vec::new(),
                rounds: 0,
                messages: 0,
                layers: 0,
                solved: true,
                attempt_micros: 0,
                prune_micros: 0,
            };
        }
        let max_degree = graph.max_degree() as u64;
        let thresholds = self.thresholds(max_degree);
        // Layer of a node: the unique i with D_i <= deg < D_{i+1} (degree-0 nodes in layer 1).
        let layer_of = |deg: u64| -> usize {
            let mut layer = 1usize;
            for (i, window) in thresholds.windows(2).enumerate() {
                if deg >= window[0] && deg < window[1] {
                    layer = i + 1;
                }
            }
            if deg == 0 {
                1
            } else {
                layer
            }
        };
        let layers: Vec<usize> = (0..n).map(|v| layer_of(graph.degree(v) as u64)).collect();
        let num_layers = thresholds.len() - 1;

        let mut colors = vec![0u64; n];
        let mut max_rounds = 0u64;
        let mut messages = 0u64;
        let mut solved = true;
        let mut nonempty_layers = 0usize;
        let mut attempt_micros = 0u64;
        let mut prune_micros = 0u64;

        // `delta_hat` is `thresholds[layer]`, i.e. D_{layer+1} in 1-based threshold indexing.
        for (layer, &delta_hat) in thresholds.iter().enumerate().take(num_layers + 1).skip(1) {
            let keep: Vec<bool> = (0..n).map(|v| layers[v] == layer).collect();
            if !keep.iter().any(|&k| k) {
                continue;
            }
            nonempty_layers += 1;
            // The layer is a live view over the base graph — never materialized; the SLC
            // alternation below shrinks its own clone of the view in place.
            let layer_view = GraphView::with_mask(graph, &keep);
            let base_palette = (self.black_box.palette)(delta_hat).max(delta_hat + 1);

            // ---- Phase 1: uniform SLC via the Theorem 1 transformer over the m̃ guess. ----
            let slc_inputs: Vec<SlcInput> = (0..layer_view.node_count())
                .map(|_| SlcInput::full(delta_hat, base_palette))
                .collect();
            let build = self.black_box.build.clone();
            let time = self.black_box.time.clone();
            let palette_for_adapter = base_palette;
            let slc_black_box: NonUniformAlgorithm<SlcProblem> = NonUniformAlgorithm::deterministic(
                format!("{}@layer{layer}", self.black_box.name),
                vec![Parameter::MaxId],
                TimeBound::single(monotone(move |m| time(delta_hat, m) + 2.0)),
                Arc::new(move |guesses: &[u64]| {
                    Box::new(SlcFromColoring {
                        inner: build(delta_hat, guesses[0]),
                        palette: palette_for_adapter,
                    }) as DynAlgorithm<SlcInput, SlcColor>
                }),
            );
            let mut transformer = UniformTransformer::new(slc_black_box, SlcPruning, (1, 1));
            transformer.max_iterations = self.max_iterations;
            let phase1 = transformer.solve_view(
                layer_view.clone(),
                &slc_inputs,
                seed ^ ((layer as u64) << 8),
                session,
            );
            solved &= phase1.solved;
            attempt_micros += phase1.attempt_micros;
            prune_micros += phase1.prune_micros;

            // Map SLC pairs to integers in [0, base_palette·(Δ̂+1)).
            let phase1_colors: Vec<u64> = phase1
                .outputs
                .iter()
                .map(|&(k, j)| (k.saturating_sub(1)) * (delta_hat + 1) + j.saturating_sub(1))
                .collect();
            let phase1_palette = base_palette * (delta_hat + 1);

            // ---- Phase 2: compress the layer palette to Δ̂ + 1 ≤ g(Δ̂) colours. ----
            let refine = RefineColoring {
                delta_guess: delta_hat,
                initial_palette_guess: phase1_palette,
                target_colors: delta_hat + 1,
            };
            let phase2 =
                refine.execute_view(&layer_view, &phase1_colors, None, seed ^ 0x77, session);
            solved &= phase2.completed;

            // ---- Final colours: shift into the layer's private range. ----
            let offset = (self.black_box.palette)(delta_hat);
            for (sub_idx, &orig) in layer_view.live_nodes().iter().enumerate() {
                colors[orig] = offset + phase2.outputs[sub_idx];
            }
            max_rounds = max_rounds.max(phase1.rounds + phase2.rounds);
            messages += phase1.messages + phase2.messages;
        }

        ColoringRun {
            colors,
            rounds: max_rounds,
            messages,
            layers: nonempty_layers,
            solved,
            attempt_micros,
            prune_micros,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_algos::checkers::{check_coloring, palette_size};
    use local_algos::coloring::{linial_final_palette, ReducedColoring};
    use local_graphs::{forest_union, gnp, grid, path, star, Family, GraphParams};

    /// The (Δ̃+1)-colouring black box (g(Δ) = Δ + 1): the Corollary 1(iii)-style instantiation
    /// with λ = 1 — the palette is linear in Δ, so Theorem 5 gives a uniform O(Δ)-colouring.
    fn delta_plus_one_box() -> NonUniformColoringBox {
        NonUniformColoringBox {
            name: "(Δ+1)-coloring".into(),
            build: Arc::new(|delta, m| {
                Box::new(ReducedColoring::delta_plus_one(delta, m)) as DynAlgorithm<(), u64>
            }),
            palette: Arc::new(|delta| delta + 1),
            time: Arc::new(|delta, m| {
                ReducedColoring::delta_plus_one(delta, m).round_bound() as f64
            }),
        }
    }

    /// An `O(Δ̃²)`-colouring black box (g(Δ) ≈ Linial's palette): the λ(Δ+1) extreme. The
    /// output palette is clamped to the declared `g(Δ̃)` so that the Theorem 5 adapter's
    /// base-colour range is always respected.
    fn quadratic_box() -> NonUniformColoringBox {
        let declared_palette = |delta: u64| linial_final_palette(1 << 40, delta).max(delta + 1);
        NonUniformColoringBox {
            name: "O(Δ²)-coloring".into(),
            build: Arc::new(move |delta, m| {
                Box::new(ReducedColoring {
                    delta_guess: delta,
                    id_bound_guess: m,
                    target: local_algos::coloring::ColoringTarget::Fixed(declared_palette(delta)),
                }) as DynAlgorithm<(), u64>
            }),
            palette: Arc::new(declared_palette),
            time: Arc::new(move |delta, m| {
                ReducedColoring {
                    delta_guess: delta,
                    id_bound_guess: m,
                    target: local_algos::coloring::ColoringTarget::Fixed(declared_palette(delta)),
                }
                .round_bound() as f64
            }),
        }
    }

    #[test]
    fn thresholds_double_roughly_for_linear_palettes() {
        let transformer = ColoringTransformer::new(delta_plus_one_box());
        let t = transformer.thresholds(100);
        assert_eq!(t[0], 1);
        assert!(t.windows(2).all(|w| w[1] > w[0]));
        assert!(*t.last().unwrap() > 100);
        assert!(t.len() <= 12, "O(log Δ) layers expected, got {}", t.len());
    }

    #[test]
    fn uniform_coloring_is_proper_with_bounded_palette() {
        let transformer = ColoringTransformer::new(delta_plus_one_box());
        for (i, g) in [path(40), grid(6, 7), gnp(70, 0.08, 3), star(20), forest_union(50, 2, 1)]
            .iter()
            .enumerate()
        {
            let run = transformer.solve(g, i as u64);
            assert!(run.solved, "graph {i} not solved");
            check_coloring(g, &run.colors).unwrap_or_else(|e| panic!("graph {i}: {e:?}"));
            let bound = transformer.palette_bound(g.max_degree() as u64);
            assert!(
                run.colors.iter().all(|&c| c < 2 * bound),
                "graph {i}: colour exceeds twice the palette bound"
            );
            assert!(
                (palette_size(&run.colors) as u64) <= bound,
                "graph {i}: {} colours used but bound is {bound}",
                palette_size(&run.colors)
            );
        }
    }

    #[test]
    fn palette_bound_is_linear_in_delta_for_delta_plus_one_box() {
        let transformer = ColoringTransformer::new(delta_plus_one_box());
        let small = transformer.palette_bound(8);
        let large = transformer.palette_bound(64);
        // O(g(Δ)) = O(Δ): growing Δ by 8× grows the bound by at most ~16× (one extra doubling).
        assert!(large <= 20 * small, "palette bound not linear: {small} -> {large}");
    }

    #[test]
    fn uniform_coloring_with_quadratic_palette_black_box() {
        let transformer = ColoringTransformer::new(quadratic_box());
        let g = gnp(60, 0.1, 5);
        let run = transformer.solve(&g, 0);
        assert!(run.solved);
        check_coloring(&g, &run.colors).unwrap();
    }

    #[test]
    fn layers_are_disjoint_color_ranges() {
        let transformer = ColoringTransformer::new(delta_plus_one_box());
        // A star has two very different degrees (1 and n−1), hence two layers.
        let g = star(30);
        let run = transformer.solve(&g, 0);
        assert!(run.solved);
        assert!(run.layers >= 2, "expected at least two non-empty layers");
        check_coloring(&g, &run.colors).unwrap();
        // The centre (high layer) must use a colour outside the leaves' range.
        let leaf_colors: std::collections::BTreeSet<u64> = (1..30).map(|v| run.colors[v]).collect();
        assert!(!leaf_colors.contains(&run.colors[0]));
    }

    #[test]
    fn rounds_are_max_over_layers_not_sum() {
        // On a family with a single layer the rounds equal that layer's cost; a trivial graph
        // (one cheap layer) must not cost more than a dense one.
        let transformer = ColoringTransformer::new(delta_plus_one_box());
        let dense = Family::DenseGnp.generate(128, 1);
        let run_dense = transformer.solve(&dense, 0);
        assert!(run_dense.solved);
        assert!(run_dense.rounds > 0);
        let trivial = path(16);
        let run_trivial = transformer.solve(&trivial, 0);
        assert!(run_trivial.rounds <= run_dense.rounds);
    }

    #[test]
    fn empty_graph() {
        let transformer = ColoringTransformer::new(delta_plus_one_box());
        let g = Graph::from_edges(0, &[]).unwrap();
        let run = transformer.solve(&g, 0);
        assert!(run.solved);
        assert!(run.colors.is_empty());
    }

    #[test]
    fn reproducible_given_seed() {
        let transformer = ColoringTransformer::new(delta_plus_one_box());
        let g = gnp(50, 0.12, 9);
        let a = transformer.solve(&g, 4);
        let b = transformer.solve(&g, 4);
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn uniform_coloring_scaling_matches_nonuniform_shape() {
        // The headline Theorem 5 claim: rounds of the uniform algorithm stay within a constant
        // factor of the non-uniform bound f(Δ, m) evaluated at the true parameters.
        let box_ = delta_plus_one_box();
        let transformer = ColoringTransformer::new(box_.clone());
        for n in [64usize, 256] {
            let g = Family::SparseGnp.generate(n, 5);
            let p = GraphParams::of(&g);
            let f_star = (box_.time)(p.max_degree, p.max_id);
            let run = transformer.solve(&g, 0);
            assert!(run.solved);
            assert!(
                (run.rounds as f64) <= 24.0 * f_star + 300.0,
                "n={n}: rounds {} too large versus f* = {f_star}",
                run.rounds
            );
        }
    }
}
