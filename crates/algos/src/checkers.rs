//! Centralized validators for the classical LOCAL problems.
//!
//! These are the ground-truth checkers used by the test suite, the pruning-algorithm tests and
//! the benchmark harness. They are *centralized* (they see the whole graph), in contrast to the
//! paper's *local checking* and *pruning* procedures, which are distributed; the unit tests of
//! the pruning algorithms cross-validate the two.
//!
//! Every checker runs in O(n + m) time on a graph with n nodes and m edges — the ruling-set
//! checker included, for every α and β — except for a log factor where colours are sorted
//! (`check_edge_coloring`, `palette_size`). Each reports the *first* violation in a fixed
//! scan order, so its result is a deterministic function of the input.

use local_runtime::{Graph, NodeId};

/// A violation discovered by a validator, pointing at the offending nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two adjacent nodes are both in the independent set.
    AdjacentInSet(usize, usize),
    /// A node outside the set has no neighbor in the set (MIS maximality violation).
    NotDominated(usize),
    /// A node outside the set has no set node within the required distance.
    NotRuled(usize),
    /// Two set nodes are closer than the required distance.
    TooClose(usize, usize),
    /// Two adjacent nodes share a colour.
    SameColor(usize, usize),
    /// A colour exceeds the allowed palette.
    ColorOutOfRange(usize),
    /// A node claims a partner that is not a neighbor, or the partner disagrees.
    BadPartner(usize),
    /// Two edges of the matching share an endpoint.
    NotAMatching(usize),
    /// An edge could still be added to the matching (maximality violation).
    AugmentableEdge(usize, usize),
    /// Two incident edges share a colour, or endpoints disagree on an edge colour.
    BadEdgeColor(usize, usize),
}

/// Checks that `in_set` is an independent set of `g`. O(n + m).
pub fn check_independent_set(g: &Graph, in_set: &[bool]) -> Result<(), Violation> {
    for (u, v) in g.edges() {
        if in_set[u] && in_set[v] {
            return Err(Violation::AdjacentInSet(u, v));
        }
    }
    Ok(())
}

/// Checks that `in_set` is a *maximal* independent set of `g`. O(n + m).
pub fn check_mis(g: &Graph, in_set: &[bool]) -> Result<(), Violation> {
    check_independent_set(g, in_set)?;
    for v in 0..g.node_count() {
        if !in_set[v] && !g.neighbors(v).iter().any(|&w| in_set[w]) {
            return Err(Violation::NotDominated(v));
        }
    }
    Ok(())
}

/// Checks that `in_set` is an (α, β)-ruling set of `g`: set nodes pairwise at distance ≥ α,
/// and every node within distance β of a set node.
///
/// Reports `TooClose(v, u)` for the smallest set node `v` that has another set node within
/// distance α − 1, with `u` the smallest such node; otherwise `NotRuled(v)` for the smallest
/// node with no set node within distance β. Cost O(n + m) for every α and β: separation is
/// one depth-(α − 1) BFS from all set nodes in which each node carries at most two source
/// labels, plus one bounded BFS from the violating node; domination is one multi-source BFS
/// of depth β.
pub fn check_ruling_set(
    g: &Graph,
    in_set: &[bool],
    alpha: usize,
    beta: usize,
) -> Result<(), Violation> {
    let n = g.node_count();
    if let Some(v) = first_crowded_set_node(g, in_set, alpha) {
        let near = within_distance(g, &[v], alpha - 1);
        let u = (0..n).find(|&u| u != v && in_set[u] && near[u]).expect("a close set node");
        return Err(Violation::TooClose(v, u));
    }
    let set: Vec<usize> = (0..n).filter(|&v| in_set[v]).collect();
    let ruled = within_distance(g, &set, beta);
    match (0..n).find(|&v| !ruled[v]) {
        Some(v) => Err(Violation::NotRuled(v)),
        None => Ok(()),
    }
}

/// Marks every node within distance `depth` of some node of `sources`. O(n + m).
fn within_distance(g: &Graph, sources: &[usize], depth: usize) -> Vec<bool> {
    let mut seen = vec![false; g.node_count()];
    let mut level = sources.to_vec();
    for &s in &level {
        seen[s] = true;
    }
    let mut next = Vec::new();
    for _ in 0..depth {
        for &x in &level {
            for &y in g.neighbors(x) {
                if !seen[y] {
                    seen[y] = true;
                    next.push(y);
                }
            }
        }
        std::mem::swap(&mut level, &mut next);
        next.clear();
        if level.is_empty() {
            break;
        }
    }
    seen
}

/// The smallest set node with another set node within distance `alpha - 1`, if any.
///
/// One BFS from all set nodes at once, in which a node keeps the first two *distinct*
/// sources that reach it and refuses all later ones: by induction on the level, a node gets
/// its first label at its distance to the nearest source and its second at its distance to
/// the second-nearest. A set node's second label is thus the nearest *other* set node. Each
/// node enters the frontier at most twice, so the cost is O(n + m). (A bounded BFS from each
/// set node in turn is linear only for α ≤ 3; for larger α the balls it explores overlap.)
fn first_crowded_set_node(g: &Graph, in_set: &[bool], alpha: usize) -> Option<usize> {
    if alpha < 2 {
        return None;
    }
    let n = g.node_count();
    let mut nearest = vec![usize::MAX; n];
    let mut second = vec![false; n];
    let mut level: Vec<(usize, usize)> = (0..n).filter(|&v| in_set[v]).map(|v| (v, v)).collect();
    for &(v, _) in &level {
        nearest[v] = v;
    }
    let mut next = Vec::new();
    for _ in 1..alpha {
        for &(x, source) in &level {
            for &y in g.neighbors(x) {
                if nearest[y] == usize::MAX {
                    nearest[y] = source;
                } else if nearest[y] != source && !second[y] {
                    second[y] = true;
                } else {
                    continue;
                }
                next.push((y, source));
            }
        }
        std::mem::swap(&mut level, &mut next);
        next.clear();
        if level.is_empty() {
            break;
        }
    }
    (0..n).find(|&v| in_set[v] && second[v])
}

/// Checks that `colors` is a proper vertex colouring of `g`. O(n + m).
pub fn check_coloring(g: &Graph, colors: &[u64]) -> Result<(), Violation> {
    for (u, v) in g.edges() {
        if colors[u] == colors[v] {
            return Err(Violation::SameColor(u, v));
        }
    }
    Ok(())
}

/// Checks that `colors` is a proper colouring using at most `palette` distinct colour values,
/// all smaller than `palette`. O(n + m).
pub fn check_coloring_with_palette(
    g: &Graph,
    colors: &[u64],
    palette: u64,
) -> Result<(), Violation> {
    check_coloring(g, colors)?;
    for (v, &c) in colors.iter().enumerate() {
        if c >= palette {
            return Err(Violation::ColorOutOfRange(v));
        }
    }
    Ok(())
}

/// Checks that `partner` (per-node identity of the matched neighbor, `None` if unmatched)
/// encodes a *maximal* matching of `g`. O(n + m).
pub fn check_maximal_matching(g: &Graph, partner: &[Option<NodeId>]) -> Result<(), Violation> {
    check_matching(g, partner)?;
    // Maximality: no edge with both endpoints unmatched.
    for (u, v) in g.edges() {
        if partner[u].is_none() && partner[v].is_none() {
            return Err(Violation::AugmentableEdge(u, v));
        }
    }
    Ok(())
}

/// Checks that `partner` encodes a (not necessarily maximal) matching: partners are neighbors
/// and the relation is symmetric. Cost O(n + m): a claimed partner is looked up among the
/// claimant's own neighbours (identities are unique), with no allocation.
pub fn check_matching(g: &Graph, partner: &[Option<NodeId>]) -> Result<(), Violation> {
    for v in 0..g.node_count() {
        if let Some(pid) = partner[v] {
            let Some(&p) = g.neighbors(v).iter().find(|&&w| g.id(w) == pid) else {
                return Err(Violation::BadPartner(v));
            };
            if partner[p] != Some(g.id(v)) {
                return Err(Violation::NotAMatching(v));
            }
        }
    }
    Ok(())
}

/// Checks a proper edge colouring given, for every node, the colour of each of its incident
/// edges indexed by port: endpoints must agree on every edge's colour and no two edges
/// incident to the same node may share a colour. Cost O(n + m log Δ): one scratch vector,
/// sorted per node, finds repeated colours.
pub fn check_edge_coloring(g: &Graph, port_colors: &[Vec<u64>]) -> Result<(), Violation> {
    let mut sorted = Vec::new();
    for v in 0..g.node_count() {
        if port_colors[v].len() != g.degree(v) {
            return Err(Violation::BadEdgeColor(v, v));
        }
        // No two incident edges share a colour.
        sorted.clear();
        sorted.extend_from_slice(&port_colors[v]);
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(Violation::BadEdgeColor(v, v));
        }
        // Endpoints agree.
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

/// Number of distinct colours used. O(n log n).
pub fn palette_size(colors: &[u64]) -> usize {
    let mut sorted = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::{cycle, path, star};

    #[test]
    fn mis_checker_accepts_and_rejects() {
        let g = path(4); // 0-1-2-3
        assert!(check_mis(&g, &[true, false, true, false]).is_ok());
        assert!(check_mis(&g, &[true, false, false, true]).is_ok());
        assert_eq!(check_mis(&g, &[true, true, false, true]), Err(Violation::AdjacentInSet(0, 1)));
        assert_eq!(check_mis(&g, &[true, false, false, false]), Err(Violation::NotDominated(2)));
    }

    #[test]
    fn independent_but_not_maximal() {
        let g = path(5);
        let set = [true, false, false, false, true];
        assert!(check_independent_set(&g, &set).is_ok());
        assert!(check_mis(&g, &set).is_err());
    }

    #[test]
    fn ruling_set_checker() {
        let g = path(7);
        // {0, 6}: distance 6 ≥ 2, every node within distance 3 of one of them.
        assert!(
            check_ruling_set(&g, &[true, false, false, false, false, false, true], 2, 3).is_ok()
        );
        // Not within β = 2: node 3 is at distance 3 from both.
        assert_eq!(
            check_ruling_set(&g, &[true, false, false, false, false, false, true], 2, 2),
            Err(Violation::NotRuled(3))
        );
        // Too close for α = 3.
        assert_eq!(
            check_ruling_set(&g, &[true, false, true, false, false, false, true], 3, 3),
            Err(Violation::TooClose(0, 2))
        );
        // The smallest crowded set node is reported with its smallest close partner: in
        // {1, 3, 4}, node 1 is at distance 2 from node 3, and nodes 3 and 4 are adjacent.
        let set = [false, true, false, true, true, false, false];
        assert_eq!(check_ruling_set(&g, &set, 3, 1), Err(Violation::TooClose(1, 3)));
        assert_eq!(check_ruling_set(&g, &set, 2, 1), Err(Violation::TooClose(3, 4)));
        assert_eq!(check_ruling_set(&g, &set, 1, 1), Err(Violation::NotRuled(6)));
        assert!(check_ruling_set(&g, &set, 1, 2).is_ok());
        // The empty graph is ruled; an isolated node outside the set never is.
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(check_ruling_set(&empty, &[], 4, 0).is_ok());
        let lone = Graph::from_edges(2, &[]).unwrap();
        assert_eq!(check_ruling_set(&lone, &[true, false], 4, 4), Err(Violation::NotRuled(1)));
    }

    #[test]
    fn mis_is_a_2_1_ruling_set() {
        let g = cycle(9);
        let mis = [true, false, false, true, false, false, true, false, false];
        assert!(check_mis(&g, &mis).is_ok());
        assert!(check_ruling_set(&g, &mis, 2, 1).is_ok());
    }

    #[test]
    fn coloring_checker() {
        let g = cycle(4);
        assert!(check_coloring(&g, &[0, 1, 0, 1]).is_ok());
        // The violating edge reported first in iteration order is (0, 3).
        assert_eq!(check_coloring(&g, &[0, 1, 1, 0]), Err(Violation::SameColor(0, 3)));
        assert!(check_coloring_with_palette(&g, &[0, 1, 0, 1], 2).is_ok());
        assert_eq!(
            check_coloring_with_palette(&g, &[0, 5, 0, 1], 3),
            Err(Violation::ColorOutOfRange(1))
        );
    }

    #[test]
    fn matching_checker() {
        let g = path(4);
        // 0-1 matched, 2-3 matched.
        let ok = [Some(1), Some(0), Some(3), Some(2)];
        assert!(check_maximal_matching(&g, &ok).is_ok());
        // 1-2 matched only: maximal (0 and 3 have no unmatched neighbor... 0's neighbor 1 is matched).
        let mid = [None, Some(2), Some(1), None];
        assert!(check_maximal_matching(&g, &mid).is_ok());
        // Empty matching is not maximal.
        let empty = [None, None, None, None];
        assert!(matches!(
            check_maximal_matching(&g, &empty),
            Err(Violation::AugmentableEdge(_, _))
        ));
        // Asymmetric partner claims.
        let bad = [Some(1), None, None, None];
        assert!(matches!(check_maximal_matching(&g, &bad), Err(Violation::NotAMatching(0))));
        // Partner is not a neighbor.
        let far = [Some(3), None, None, Some(0)];
        assert!(matches!(check_matching(&g, &far), Err(Violation::BadPartner(0))));
    }

    #[test]
    fn edge_coloring_checker() {
        let g = star(4); // center 0 with leaves 1, 2, 3
                         // Center's ports must all differ; leaves have a single port each and must agree.
        let ok = vec![vec![0, 1, 2], vec![0], vec![1], vec![2]];
        assert!(check_edge_coloring(&g, &ok).is_ok());
        let clash = vec![vec![0, 0, 2], vec![0], vec![0], vec![2]];
        assert!(check_edge_coloring(&g, &clash).is_err());
        let disagree = vec![vec![0, 1, 2], vec![1], vec![1], vec![2]];
        assert!(check_edge_coloring(&g, &disagree).is_err());
    }

    #[test]
    fn palette_size_counts_distinct() {
        assert_eq!(palette_size(&[3, 3, 1, 7]), 3);
        assert_eq!(palette_size(&[]), 0);
    }
}
