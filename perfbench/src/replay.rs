//! The traced replay: re-executes one cell the way its workload does, but through each
//! layer's public entry points with a timer around every call — the non-uniform baseline
//! (catalog `build` plus `GraphAlgorithm::execute`), the uniform driver (`solve_in`), and
//! validation (`Problem::validate` and `local_algos::checkers`). Whatever else the workload
//! does (line graph, port maps) is timed as glue. The replayed counts must equal the cell's
//! own `CellResult`; the caller checks that.

use local_algos::checkers;
use local_algos::edge_coloring::LineGraphEdgeColoring;
use local_algos::mis::LubyMis;
use local_engine::{Instance, MeasuredRun};
use local_runtime::{DynAlgorithm, Graph, GraphAlgorithm, Session};
use local_uniform::catalog;
use local_uniform::problem::{MatchingProblem, MisProblem, Problem, RulingSetProblem};
use local_uniform::UniformRun;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Time spent in each layer while replaying cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub baseline: Duration,
    pub solve: Duration,
    pub attempt_us: u64,
    pub prune_us: u64,
    pub validate: Duration,
    pub checks: u64,
    pub glue: Duration,
}

impl Layers {
    pub fn add(&mut self, other: &Layers) {
        self.baseline += other.baseline;
        self.solve += other.solve;
        self.attempt_us += other.attempt_us;
        self.prune_us += other.prune_us;
        self.validate += other.validate;
        self.checks += other.checks;
        self.glue += other.glue;
    }
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *slot += started.elapsed();
    out
}

/// Replays the cell of workload `problem` on `instance`; `None` for a workload this harness
/// does not know.
pub fn replay(
    problem: &str,
    instance: &Instance,
    seed: u64,
    session: &mut Session,
) -> Option<(MeasuredRun, Layers)> {
    let graph = &instance.graph;
    let p = &instance.params;
    let mis = MisProblem;
    let out = match problem {
        "mis" => transformed(
            &mis,
            graph,
            || (catalog::coloring_mis_black_box().build)(&[p.max_degree, p.max_id]),
            seed,
            |g, s| catalog::uniform_coloring_mis().solve_in(g, &units(g), s, session),
        ),
        "cor1-mis" => transformed(
            &mis,
            graph,
            || (catalog::coloring_mis_black_box().build)(&[p.max_degree, p.max_id]),
            seed,
            |g, s| catalog::corollary1_mis().solve_in(g, &units(g), s, session),
        ),
        "arboricity-mis" => transformed(
            &mis,
            graph,
            || (catalog::arboricity_mis_black_box().build)(&[p.degeneracy.max(1), p.n, p.max_id]),
            seed,
            |g, s| catalog::uniform_arboricity_mis().solve_in(g, &units(g), s, session),
        ),
        "matching" => transformed(
            &MatchingProblem,
            graph,
            || (catalog::matching_black_box().build)(&[p.max_degree, p.max_id]),
            seed,
            |g, s| catalog::uniform_matching().solve_in(g, &units(g), s, session),
        ),
        "log4-matching" => transformed(
            &MatchingProblem,
            graph,
            || (catalog::synthetic_log4_matching_black_box().build)(&[p.n]),
            seed,
            |g, s| catalog::uniform_log4_matching().solve_in(g, &units(g), s, session),
        ),
        "luby-mis" => luby(graph, seed),
        "coloring" => coloring(instance, 1, seed, session),
        "edge-coloring" => edge_coloring(instance, seed, session),
        name => {
            if let Some(lambda) =
                name.strip_prefix("lambda").and_then(|s| s.strip_suffix("-coloring"))
            {
                coloring(instance, lambda.parse().ok()?, seed, session)
            } else {
                let beta: usize = name.strip_prefix("ruling-set-b")?.parse().ok()?;
                ruling_set(instance, beta, seed, session)
            }
        }
    };
    Some(out)
}

fn units(graph: &Graph) -> Vec<()> {
    vec![(); graph.node_count()]
}

fn transformed<P: Problem<Input = ()>>(
    problem: &P,
    graph: &Graph,
    build: impl FnOnce() -> DynAlgorithm<(), P::Output>,
    seed: u64,
    uniform: impl FnOnce(&Graph, u64) -> UniformRun<P::Output>,
) -> (MeasuredRun, Layers) {
    let mut layers = Layers::default();
    let inputs = units(graph);
    let nu = timed(&mut layers.baseline, || build().execute(graph, &inputs, None, seed));
    let uni = timed(&mut layers.solve, || uniform(graph, seed));
    let started = Instant::now();
    layers.checks = 1;
    let valid = problem.validate(graph, &inputs, &nu.outputs).is_ok() && {
        layers.checks += 1;
        problem.validate(graph, &inputs, &uni.outputs).is_ok()
    };
    layers.validate += started.elapsed();
    layers.attempt_us = uni.attempt_micros;
    layers.prune_us = uni.prune_micros;
    let run = MeasuredRun {
        uniform_rounds: uni.rounds,
        uniform_messages: uni.messages,
        nonuniform_rounds: nu.rounds,
        nonuniform_messages: nu.messages,
        subiterations: uni.subiterations,
        solved: uni.solved,
        valid,
        attempt_micros: uni.attempt_micros,
        prune_micros: uni.prune_micros,
    };
    (run, layers)
}

/// Luby's MIS is already uniform: one execution is both the baseline and the uniform run.
fn luby(graph: &Graph, seed: u64) -> (MeasuredRun, Layers) {
    let mut layers = Layers::default();
    let inputs = units(graph);
    let run = timed(&mut layers.baseline, || LubyMis.execute(graph, &inputs, None, seed));
    layers.checks = 1;
    let valid =
        timed(&mut layers.validate, || MisProblem.validate(graph, &inputs, &run.outputs)).is_ok();
    let measured = MeasuredRun {
        uniform_rounds: run.rounds,
        uniform_messages: run.messages,
        nonuniform_rounds: run.rounds,
        nonuniform_messages: run.messages,
        solved: run.completed,
        valid,
        ..MeasuredRun::default()
    };
    (measured, layers)
}

fn ruling_set(
    instance: &Instance,
    beta: usize,
    seed: u64,
    session: &mut Session,
) -> (MeasuredRun, Layers) {
    let graph = &instance.graph;
    let mut layers = Layers::default();
    let inputs = units(graph);
    let nu = timed(&mut layers.baseline, || {
        (catalog::ruling_set_black_box().build)(&[instance.params.n])
            .execute(graph, &inputs, None, seed)
    });
    let uni = timed(&mut layers.solve, || {
        catalog::uniform_ruling_set(beta).solve_in(graph, &inputs, seed, session)
    });
    // The Monte-Carlo baseline may fail; only the uniform output is validated.
    layers.checks = 1;
    let valid = timed(&mut layers.validate, || {
        RulingSetProblem::two(beta).validate(graph, &inputs, &uni.outputs)
    })
    .is_ok();
    layers.attempt_us = uni.attempt_micros;
    layers.prune_us = uni.prune_micros;
    let run = MeasuredRun {
        uniform_rounds: uni.rounds,
        uniform_messages: uni.messages,
        nonuniform_rounds: nu.rounds,
        nonuniform_messages: nu.messages,
        subiterations: uni.subiterations,
        solved: uni.solved,
        valid,
        attempt_micros: uni.attempt_micros,
        prune_micros: uni.prune_micros,
    };
    (run, layers)
}

fn coloring(
    instance: &Instance,
    lambda: u64,
    seed: u64,
    session: &mut Session,
) -> (MeasuredRun, Layers) {
    let graph = &instance.graph;
    let p = &instance.params;
    let mut layers = Layers::default();
    let inputs = units(graph);
    let baseline = catalog::lambda_coloring_box(lambda);
    let nu = timed(&mut layers.baseline, || {
        (baseline.build)(p.max_degree, p.max_id).execute(graph, &inputs, None, seed)
    });
    let transformer = catalog::uniform_lambda_coloring(lambda);
    let uni = timed(&mut layers.solve, || transformer.solve_in(graph, seed, session));
    layers.checks = 2;
    let valid = timed(&mut layers.validate, || {
        let nu_valid = checkers::check_coloring_with_palette(
            graph,
            &nu.outputs,
            (baseline.palette)(p.max_degree),
        )
        .is_ok();
        let uni_valid = checkers::check_coloring(graph, &uni.colors).is_ok()
            && (checkers::palette_size(&uni.colors) as u64)
                <= transformer.palette_bound(p.max_degree);
        nu_valid && uni_valid
    });
    layers.attempt_us = uni.attempt_micros;
    layers.prune_us = uni.prune_micros;
    let run = MeasuredRun {
        uniform_rounds: uni.rounds,
        uniform_messages: uni.messages,
        nonuniform_rounds: nu.rounds,
        nonuniform_messages: nu.messages,
        subiterations: 0,
        solved: uni.solved,
        valid,
        attempt_micros: uni.attempt_micros,
        prune_micros: uni.prune_micros,
    };
    (run, layers)
}

fn edge_coloring(instance: &Instance, seed: u64, session: &mut Session) -> (MeasuredRun, Layers) {
    let graph = &instance.graph;
    let p = &instance.params;
    let mut layers = Layers::default();
    let inputs = units(graph);
    let nu = timed(&mut layers.baseline, || {
        LineGraphEdgeColoring { delta_guess: p.max_degree, id_bound_guess: p.max_id }
            .execute(graph, &inputs, None, seed)
    });
    let nu_valid =
        timed(&mut layers.validate, || checkers::check_edge_coloring(graph, &nu.outputs)).is_ok();
    let (lg, edges) = timed(&mut layers.glue, || graph.line_graph());
    let transformer = catalog::uniform_lambda_coloring(1);
    let uni = timed(&mut layers.solve, || transformer.solve_in(&lg, seed, session));
    let port_colors: Vec<Vec<u64>> = timed(&mut layers.glue, || {
        let mut edge_color = HashMap::new();
        for (i, &(u, v)) in edges.iter().enumerate() {
            edge_color.insert((u.min(v), u.max(v)), uni.colors[i]);
        }
        (0..graph.node_count())
            .map(|v| {
                graph.neighbors(v).iter().map(|&w| edge_color[&(v.min(w), v.max(w))]).collect()
            })
            .collect()
    });
    let uni_valid =
        timed(&mut layers.validate, || checkers::check_edge_coloring(graph, &port_colors)).is_ok();
    layers.checks = 2;
    layers.attempt_us = uni.attempt_micros;
    layers.prune_us = uni.prune_micros;
    let run = MeasuredRun {
        uniform_rounds: uni.rounds + 1,
        uniform_messages: uni.messages,
        nonuniform_rounds: nu.rounds,
        nonuniform_messages: nu.messages,
        subiterations: 0,
        solved: uni.solved,
        valid: nu_valid && uni_valid,
        attempt_micros: uni.attempt_micros,
        prune_micros: uni.prune_micros,
    };
    (run, layers)
}
