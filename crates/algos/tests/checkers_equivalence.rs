//! The linear-time checkers must return exactly what the straightforward ones they replaced
//! returned: the same verdict *and* the same first `Violation`. Sweep reports carry the
//! violation text, so a different first violation would change report bytes.
//!
//! The references below are the former implementations, kept here only as oracles:
//! all-pairs BFS for ruling sets (O(n·(n + m))), an identity → index `HashMap` for
//! matchings, and a `BTreeSet` per node for edge colourings and palette counts.
//!
//! Graphs are random (sparse to dense), split into components, sprinkled with isolated nodes,
//! or plain paths, on 0 to 31 nodes with identities that differ from the node indices. Set,
//! partner and colour vectors are mostly invalid; a greedy valid solution with a few
//! perturbations covers the accepting side. Ruling sets are checked for every α, β in 0..=4.

use std::collections::{BTreeSet, HashMap};

use local_algos::checkers::{
    check_edge_coloring, check_matching, check_maximal_matching, check_ruling_set, palette_size,
    Violation,
};
use local_runtime::{Graph, NodeId};
use proptest::prelude::*;

fn reference_ruling_set(
    g: &Graph,
    in_set: &[bool],
    alpha: usize,
    beta: usize,
) -> Result<(), Violation> {
    let n = g.node_count();
    for v in 0..n {
        if !in_set[v] {
            continue;
        }
        let dist = g.bfs_distances(v);
        for u in 0..n {
            if u != v && in_set[u] && dist[u] != usize::MAX && dist[u] < alpha {
                return Err(Violation::TooClose(v, u));
            }
        }
    }
    for v in 0..n {
        if in_set[v] {
            continue;
        }
        let dist = g.bfs_distances(v);
        let ruled = (0..n).any(|u| in_set[u] && dist[u] != usize::MAX && dist[u] <= beta);
        if !ruled {
            return Err(Violation::NotRuled(v));
        }
    }
    Ok(())
}

fn reference_matching(g: &Graph, partner: &[Option<NodeId>]) -> Result<(), Violation> {
    let n = g.node_count();
    let mut id_to_index = HashMap::new();
    for v in 0..n {
        id_to_index.insert(g.id(v), v);
    }
    for v in 0..n {
        if let Some(pid) = partner[v] {
            let Some(&p) = id_to_index.get(&pid) else {
                return Err(Violation::BadPartner(v));
            };
            if !g.has_edge(v, p) {
                return Err(Violation::BadPartner(v));
            }
            if partner[p] != Some(g.id(v)) {
                return Err(Violation::NotAMatching(v));
            }
        }
    }
    Ok(())
}

fn reference_maximal_matching(g: &Graph, partner: &[Option<NodeId>]) -> Result<(), Violation> {
    reference_matching(g, partner)?;
    for (u, v) in g.edges() {
        if partner[u].is_none() && partner[v].is_none() {
            return Err(Violation::AugmentableEdge(u, v));
        }
    }
    Ok(())
}

fn reference_edge_coloring(g: &Graph, port_colors: &[Vec<u64>]) -> Result<(), Violation> {
    for v in 0..g.node_count() {
        if port_colors[v].len() != g.degree(v) {
            return Err(Violation::BadEdgeColor(v, v));
        }
        let mut seen = BTreeSet::new();
        for &c in &port_colors[v] {
            if !seen.insert(c) {
                return Err(Violation::BadEdgeColor(v, v));
            }
        }
        for port in 0..g.degree(v) {
            let w = g.neighbor(v, port);
            let back = g.reverse_port(v, port);
            if port_colors[w][back] != port_colors[v][port] {
                return Err(Violation::BadEdgeColor(v, w));
            }
        }
    }
    Ok(())
}

fn reference_palette_size(colors: &[u64]) -> usize {
    colors.iter().collect::<BTreeSet<_>>().len()
}

/// Most node counts a strategy draws from; per-node vectors are drawn at this length and
/// truncated to the graph's size.
const MAX_N: usize = 32;

/// Builds one test graph. `shape` 0 is a path; 1 keeps only edges inside `blocks` residue
/// classes (disconnected for `blocks > 1`); 2 additionally isolates the nodes whose bit is set
/// in `isolated`; 3 uses every drawn pair (dense for long pair lists). Identities are unique
/// but run opposite to the node indices, so an identity is never mistaken for an index.
fn build_graph(
    n: usize,
    shape: u8,
    pairs: &[(u16, u16)],
    blocks: usize,
    isolated: u64,
    salt: u64,
) -> Graph {
    let edges: Vec<(usize, usize)> = if shape == 0 {
        (1..n).map(|v| (v - 1, v)).collect()
    } else if n == 0 {
        Vec::new()
    } else {
        pairs
            .iter()
            .map(|&(u, v)| (usize::from(u) % n, usize::from(v) % n))
            .filter(|&(u, v)| u != v)
            .filter(|&(u, v)| shape == 3 || u % blocks == v % blocks)
            .filter(|&(u, v)| shape != 2 || (isolated >> u) & 1 == 0 && (isolated >> v) & 1 == 0)
            .collect()
    };
    let ids: Vec<NodeId> = (0..n).map(|v| 3 * (n - v) as u64 + salt % 5).collect();
    Graph::from_edges_with_ids(n, &edges, &ids).expect("self-loops dropped, ids unique")
}

fn graphs() -> impl Strategy<Value = Graph> {
    (
        0usize..MAX_N,
        0u8..4,
        prop::collection::vec((any::<u16>(), any::<u16>()), 0..160),
        1usize..4,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(n, shape, pairs, blocks, isolated, salt)| {
            build_graph(n, shape, &pairs, blocks, isolated, salt)
        })
}

/// A greedy maximal independent set: a valid (2, 1)-ruling set.
fn greedy_mis(g: &Graph) -> Vec<bool> {
    let mut in_set = vec![false; g.node_count()];
    for v in 0..g.node_count() {
        in_set[v] = !g.neighbors(v).iter().any(|&w| in_set[w]);
    }
    in_set
}

/// A greedy maximal matching, as partner identities.
fn greedy_matching(g: &Graph) -> Vec<Option<NodeId>> {
    let mut partner = vec![None; g.node_count()];
    for (u, v) in g.edges() {
        if partner[u].is_none() && partner[v].is_none() {
            partner[u] = Some(g.id(v));
            partner[v] = Some(g.id(u));
        }
    }
    partner
}

/// A proper edge colouring: each edge takes the smallest colour free at both endpoints.
fn greedy_edge_coloring(g: &Graph) -> Vec<Vec<u64>> {
    let mut colors: Vec<Vec<u64>> =
        (0..g.node_count()).map(|v| vec![u64::MAX; g.degree(v)]).collect();
    for v in 0..g.node_count() {
        for port in 0..g.degree(v) {
            let w = g.neighbor(v, port);
            if w < v {
                continue;
            }
            let back = g.reverse_port(v, port);
            let c = (0..)
                .find(|c| !colors[v].contains(c) && !colors[w].contains(c))
                .expect("a free colour");
            colors[v][port] = c;
            colors[w][back] = c;
        }
    }
    colors
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn ruling_set_matches_all_pairs_bfs(
        g in graphs(),
        marks in prop::collection::vec(0u8..16, MAX_N),
        mode in 0u8..4,
    ) {
        let n = g.node_count();
        let in_set: Vec<bool> = match mode {
            0 => marks[..n].iter().map(|&r| r < 2).collect(),
            1 => marks[..n].iter().map(|&r| r < 8).collect(),
            2 => marks[..n].iter().map(|&r| r < 14).collect(),
            // A valid (2, 1)-ruling set with roughly one node in sixteen flipped.
            _ => greedy_mis(&g).iter().zip(&marks).map(|(&s, &r)| s != (r == 0)).collect(),
        };
        for alpha in 0..=4 {
            for beta in 0..=4 {
                prop_assert_eq!(
                    check_ruling_set(&g, &in_set, alpha, beta),
                    reference_ruling_set(&g, &in_set, alpha, beta),
                    "alpha={} beta={} set={:?} edges={:?}",
                    alpha,
                    beta,
                    in_set,
                    g.edges().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn matching_matches_hashmap_lookup(
        g in graphs(),
        picks in prop::collection::vec((0u8..16, any::<u16>()), MAX_N),
        keep_greedy in any::<bool>(),
    ) {
        let n = g.node_count();
        let mut partner = greedy_matching(&g);
        if !keep_greedy {
            for v in 0..n {
                let (kind, pick) = picks[v];
                let pick = usize::from(pick);
                partner[v] = match kind {
                    0..=3 => None,
                    4..=6 if g.degree(v) > 0 => Some(g.id(g.neighbor(v, pick % g.degree(v)))),
                    7..=8 => Some(g.id(pick % n)),
                    9 => Some(u64::MAX - pick as u64),
                    _ => partner[v],
                };
            }
        }
        prop_assert_eq!(check_matching(&g, &partner), reference_matching(&g, &partner));
        prop_assert_eq!(
            check_maximal_matching(&g, &partner),
            reference_maximal_matching(&g, &partner)
        );
    }

    #[test]
    fn edge_coloring_matches_btreeset(
        g in graphs(),
        noise in prop::collection::vec((0u8..32, 0u64..4), 4 * MAX_N),
        keep_greedy in any::<bool>(),
    ) {
        let mut colors = greedy_edge_coloring(&g);
        if !keep_greedy {
            let mut draws = noise.iter().cycle();
            for ports in &mut colors {
                for c in ports.iter_mut() {
                    let &(kind, value) = draws.next().expect("cycled");
                    if kind < 3 {
                        *c = value;
                    }
                }
                // A surplus port colour; never a missing one, which both checkers would
                // index past when a lower-numbered neighbour reads it.
                let &(kind, value) = draws.next().expect("cycled");
                if kind == 0 {
                    ports.push(value);
                }
            }
        }
        prop_assert_eq!(check_edge_coloring(&g, &colors), reference_edge_coloring(&g, &colors));
        let flat: Vec<u64> = colors.concat();
        prop_assert_eq!(palette_size(&flat), reference_palette_size(&flat));
    }
}
