//! The colouring workloads: Theorem 5's λ(Δ+1)-colouring and the line-graph edge
//! colouring built on it.

use super::{units, MeasuredRun, Workload, WorkloadSpec};
use crate::scheduler::Instance;
use local_algos::checkers;
use local_algos::edge_coloring::{port_colors, LineGraphEdgeColoring};
use local_runtime::{GraphAlgorithm, GraphView, LineGraph, Session};
use local_uniform::catalog;

/// `coloring` / `lambda<λ>-coloring` — the Theorem 5 uniform `λ(Δ+1)`-colouring (`λ = 1`
/// is Table 1 row 1's colouring output; larger `λ` is row 5).
pub struct LambdaColoring {
    /// The palette multiplier λ.
    pub lambda: u64,
}

impl Workload for LambdaColoring {
    fn name(&self) -> String {
        if self.lambda == 1 {
            "coloring".into()
        } else {
            format!("lambda{}-coloring", self.lambda)
        }
    }

    fn tag(&self) -> u64 {
        0x1_0000 + self.lambda
    }

    fn cost_shape(&self) -> (f64, f64) {
        // Theorem 5 runs a full per-layer SLC alternation.
        (4.0, 1.3)
    }

    fn describe(&self) -> String {
        format!(
            "Theorem 5 uniform {}(Δ+1)-colouring (Table 1 row {})",
            self.lambda,
            if self.lambda == 1 { 1 } else { 5 }
        )
    }

    fn run(&self, instance: &Instance, seed: u64, session: &mut Session) -> MeasuredRun {
        let graph = &instance.graph;
        let params = &instance.params;
        let baseline = catalog::lambda_coloring_box(self.lambda);
        let nu = (baseline.build)(params.max_degree, params.max_id).execute_view(
            &GraphView::full(graph),
            &units(graph.node_count()),
            None,
            seed,
            session,
        );
        let transformer = catalog::uniform_lambda_coloring(self.lambda);
        let uni = transformer.solve_in(graph, seed, session);
        let nu_valid = checkers::check_coloring_with_palette(
            graph,
            &nu.outputs,
            (baseline.palette)(params.max_degree),
        )
        .is_ok();
        let uni_valid = checkers::check_coloring(graph, &uni.colors).is_ok()
            && (checkers::palette_size(&uni.colors) as u64)
                <= transformer.palette_bound(params.max_degree);
        MeasuredRun {
            uniform_rounds: uni.rounds,
            uniform_messages: uni.messages,
            nonuniform_rounds: nu.rounds,
            nonuniform_messages: nu.messages,
            subiterations: 0,
            solved: uni.solved,
            valid: nu_valid && uni_valid,
            attempt_micros: uni.attempt_micros,
            prune_micros: uni.prune_micros,
        }
    }
}

/// `edge-coloring` — `O(Δ)`-edge colouring via the line graph + Theorem 5 (Table 1
/// rows 6–7): a vertex colouring of `L(G)` is an edge colouring of `G`, plus one round to
/// exchange the chosen colours over the edges.
pub struct EdgeColoring;

impl Workload for EdgeColoring {
    fn name(&self) -> String {
        "edge-coloring".into()
    }

    fn tag(&self) -> u64 {
        8
    }

    fn cost_shape(&self) -> (f64, f64) {
        // The line graph squares the edge count before Theorem 5 even starts.
        (8.0, 1.45)
    }

    fn describe(&self) -> String {
        "O(Δ)-edge colouring via the line graph + Theorem 5 (Table 1 rows 6–7)".into()
    }

    fn run(&self, instance: &Instance, seed: u64, session: &mut Session) -> MeasuredRun {
        let graph = &instance.graph;
        let params = &instance.params;
        let baseline =
            LineGraphEdgeColoring { delta_guess: params.max_degree, id_bound_guess: params.max_id };
        let full = GraphView::full(graph);
        let nu = baseline.execute_view(&full, &units(graph.node_count()), None, seed, session);
        let nu_valid = checkers::check_edge_coloring(graph, &nu.outputs).is_ok();

        let lg = LineGraph::of(&full);
        let transformer = catalog::uniform_lambda_coloring(1);
        let uni = transformer.solve_in(&lg.graph, seed, session);
        let uni_colors = port_colors(&lg, &uni.colors);
        let uni_valid = checkers::check_edge_coloring(graph, &uni_colors).is_ok();

        MeasuredRun {
            uniform_rounds: uni.rounds + 1,
            uniform_messages: uni.messages,
            nonuniform_rounds: nu.rounds,
            nonuniform_messages: nu.messages,
            subiterations: 0,
            solved: uni.solved,
            valid: nu_valid && uni_valid,
            attempt_micros: uni.attempt_micros,
            prune_micros: uni.prune_micros,
        }
    }
}

pub(crate) fn parse_lambda_coloring(name: &str) -> Option<WorkloadSpec> {
    if name == "coloring" {
        return Some(WorkloadSpec::new(LambdaColoring { lambda: 1 }));
    }
    let lambda: u64 = name.strip_prefix("lambda")?.strip_suffix("-coloring")?.parse().ok()?;
    Some(WorkloadSpec::new(LambdaColoring { lambda }))
}

pub(crate) fn parse_edge_coloring(name: &str) -> Option<WorkloadSpec> {
    (name == "edge-coloring").then(|| WorkloadSpec::new(EdgeColoring))
}
