//! [`LineGraph::of`] checked against the edge-list line-graph construction it replaced: a
//! `HashMap` edge index, line edges pushed through `Graph::from_edges_with_ids`, and a
//! `BTreeSet` identity-collision check, run on the materialised subgraph of a view.
//!
//! Random graphs, random identity sets (including sets built to make packed identities
//! collide) and random chains of `retain` masks; the builder on the view must equal the
//! oracle on `view.materialize()` in graph (port order, reverse arcs, identities) and edge
//! list, and `LineGraphEdgeColoring` on the view must equal its run on the materialised
//! subgraph.

use local_algos::edge_coloring::LineGraphEdgeColoring;
use local_runtime::line_graph::ID_PACK;
use local_runtime::{Graph, GraphAlgorithm, GraphView, LineGraph, NodeId, NodeIndex, Session};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// The edge-list construction of `L(g)`.
fn oracle_line_graph(g: &Graph) -> (Graph, Vec<(NodeIndex, NodeIndex)>) {
    let edges: Vec<(NodeIndex, NodeIndex)> = g.edges().collect();
    let mut edge_index = HashMap::new();
    for (i, &e) in edges.iter().enumerate() {
        edge_index.insert(e, i);
    }
    let mut line_edges = Vec::new();
    for v in 0..g.node_count() {
        let nbrs = g.neighbors(v);
        for a in 0..nbrs.len() {
            for b in (a + 1)..nbrs.len() {
                let e1 = (v.min(nbrs[a]), v.max(nbrs[a]));
                let e2 = (v.min(nbrs[b]), v.max(nbrs[b]));
                line_edges.push((edge_index[&e1], edge_index[&e2]));
            }
        }
    }
    let ids: Vec<NodeId> = edges
        .iter()
        .map(|&(u, v)| {
            let (a, b) = (g.id(u).min(g.id(v)), g.id(u).max(g.id(v)));
            a.wrapping_mul(1_000_003).wrapping_add(b)
        })
        .collect();
    let unique: BTreeSet<_> = ids.iter().collect();
    let ids = if unique.len() == ids.len() { ids } else { (0..edges.len() as u64).collect() };
    let lg = Graph::from_edges_with_ids(edges.len(), &line_edges, &ids)
        .expect("line graph of a valid graph is valid");
    (lg, edges)
}

/// SplitMix64 step: the test's own deterministic stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Distinct identities for `n` nodes. Mode 0: a permutation of `0..n`. Mode 1: random 64-bit
/// values (wrapping packing). Mode 2: values `i · ID_PACK + j` with small `i, j`, whose packed
/// pairs collide often, so the index fallback is exercised.
fn identities(n: usize, mode: u64, rng: &mut u64) -> Vec<NodeId> {
    let pool: Vec<NodeId> = match mode {
        0 => (0..n as u64).collect(),
        1 => (0..n).map(|_| next(rng)).collect(),
        _ => (0..8u64).flat_map(|i| (0..8u64).map(move |j| i * ID_PACK + j)).collect(),
    };
    let mut keyed: Vec<(u64, NodeId)> = pool.into_iter().map(|id| (next(rng), id)).collect();
    keyed.sort_unstable();
    let mut ids: Vec<NodeId> = keyed.into_iter().map(|(_, id)| id).take(n).collect();
    let distinct: BTreeSet<_> = ids.iter().collect();
    if distinct.len() != n {
        ids = (0..n as u64).collect();
    }
    ids
}

fn check(n: usize, density: u64, id_mode: u64, seed: u64, waves: usize) {
    let mut rng = seed;
    let edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .filter(|_| next(&mut rng) % 16 < density)
        .collect();
    let ids = identities(n, id_mode, &mut rng);
    let g = Graph::from_edges_with_ids(n, &edges, &ids).expect("simple graph, distinct ids");
    assert_eq!(g.line_graph(), oracle_line_graph(&g), "full graph");

    let mut view = GraphView::full(&g);
    for wave in 0..=waves {
        if wave > 0 {
            let keep: Vec<bool> =
                (0..view.node_count()).map(|_| !next(&mut rng).is_multiple_of(4)).collect();
            view.retain(&keep);
        }
        let (sub, _) = view.materialize();
        let lg = LineGraph::of(&view);
        let (oracle, oracle_edges) = oracle_line_graph(&sub);
        // `Graph` equality covers offsets, port order, reverse arcs and identities.
        assert_eq!(lg.graph, oracle, "graph, wave {wave}");
        assert_eq!(lg.edges, oracle_edges, "edge list, wave {wave}");
        let rows: Vec<&[usize]> = lg.port_edge_rows().collect();
        assert_eq!(rows.len(), view.node_count());
        for (v, row) in rows.iter().enumerate() {
            let on_ports: Vec<(usize, usize)> =
                view.neighbors(v).map(|w| (v.min(w), v.max(w))).collect();
            let named: Vec<(usize, usize)> = row.iter().map(|&e| lg.edges[e]).collect();
            assert_eq!(named, on_ports, "port row of node {v}, wave {wave}");
        }

        let algo = LineGraphEdgeColoring {
            delta_guess: view.max_degree() as u64,
            id_bound_guess: view.max_id(),
        };
        let inputs = vec![(); view.node_count()];
        let on_view = algo.execute_view(&view, &inputs, None, seed, &mut Session::new());
        let on_copy = algo.execute(&sub, &inputs, None, seed);
        assert_eq!(on_view.outputs, on_copy.outputs, "edge colours, wave {wave}");
        assert_eq!(on_view.rounds, on_copy.rounds, "rounds, wave {wave}");
        assert_eq!(on_view.messages, on_copy.messages, "messages, wave {wave}");
        assert_eq!(on_view.completed, on_copy.completed, "completion, wave {wave}");
    }
}

#[test]
fn small_shapes_match_the_oracle() {
    for n in 0..6 {
        for density in [0, 8, 16] {
            for id_mode in 0..3 {
                check(n, density, id_mode, 7 + n as u64, 2);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn line_graph_of_a_view_matches_the_oracle(
        (n, density, id_mode, seed, waves) in
            (0usize..36, 0u64..17, 0u64..3, any::<u64>(), 0usize..4),
    ) {
        check(n, density, id_mode, seed, waves);
    }
}
