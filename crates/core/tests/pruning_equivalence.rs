//! Property test: the linear-time pruning rules decide exactly as the rules they replaced.
//!
//! The oracles below are those former rules, kept verbatim in behaviour: the (2, β)-ruling-set
//! rule that grew one BFS ball per node (a `HashMap` of distances, a `VecDeque` and a sorted
//! `Vec` each), and the matching rule that resolved partner claims through an identity
//! `HashMap` plus `has_edge`. They run on random graphs, on random `retain`ed views (so live
//! indices differ from base indices), and on random tentative outputs — including claims of
//! non-neighbours, identities that are not in the view, and one-sided claims — and must agree
//! with the production rules on every `pruned` vector and every normalised output.

use local_graphs::{gnp, Family};
use local_runtime::{Graph, GraphView, NodeId};
use local_uniform::problem::{MatchingProblem, MisProblem, RulingSetProblem};
use local_uniform::pruning::{MatchingPruning, PruningAlgorithm, RulingSetPruning};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

// ------------------------------------------------------------------------- oracles ---------

/// The live nodes at distance at most `r` from live node `l`, including `l`, as sorted live
/// indices (the former `GraphView::ball`).
fn oracle_ball(view: &GraphView<'_>, l: usize, r: usize) -> Vec<usize> {
    let mut dist = HashMap::new();
    let mut queue = VecDeque::new();
    let mut out = vec![l];
    dist.insert(l, 0usize);
    queue.push_back(l);
    while let Some(u) = queue.pop_front() {
        let du = dist[&u];
        if du == r {
            continue;
        }
        for w in view.neighbors(u) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(du + 1);
                out.push(w);
                queue.push_back(w);
            }
        }
    }
    out.sort_unstable();
    out
}

/// The former `P_(2,β)` decision: a set node is pruned iff it is good (no set neighbour); a
/// non-set node iff its radius-β ball holds a good node.
fn oracle_ruling_set(view: &GraphView<'_>, beta: usize, tentative: &[bool]) -> Vec<bool> {
    let n = view.node_count();
    let good: Vec<bool> =
        (0..n).map(|v| tentative[v] && !view.neighbors(v).any(|w| tentative[w])).collect();
    (0..n)
        .map(|u| {
            if tentative[u] {
                good[u]
            } else {
                oracle_ball(view, u, beta).iter().any(|&v| good[v])
            }
        })
        .collect()
}

fn oracle_is_matched_pair(
    view: &GraphView<'_>,
    partner: &[Option<NodeId>],
    u: usize,
    v: usize,
) -> bool {
    view.has_edge(u, v) && partner[u] == Some(view.id(v)) && partner[v] == Some(view.id(u))
}

/// The former matched set: claims resolved through an identity → live index `HashMap`.
fn oracle_matched(view: &GraphView<'_>, tentative: &[Option<NodeId>]) -> Vec<bool> {
    let n = view.node_count();
    let mut id_to_index = HashMap::new();
    for v in 0..n {
        id_to_index.insert(view.id(v), v);
    }
    (0..n)
        .map(|u| {
            tentative[u]
                .and_then(|pid| id_to_index.get(&pid).copied())
                .is_some_and(|p| oracle_is_matched_pair(view, tentative, u, p))
        })
        .collect()
}

fn oracle_matching_pruned(view: &GraphView<'_>, tentative: &[Option<NodeId>]) -> Vec<bool> {
    let matched = oracle_matched(view, tentative);
    (0..view.node_count()).map(|u| matched[u] || view.neighbors(u).all(|v| matched[v])).collect()
}

fn oracle_normalized(view: &GraphView<'_>, tentative: &[Option<NodeId>]) -> Vec<Option<NodeId>> {
    let matched = oracle_matched(view, tentative);
    tentative.iter().zip(matched).map(|(&claim, m)| if m { claim } else { None }).collect()
}

// ------------------------------------------------------------------------- inputs ----------

/// SplitMix64, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: u64) -> u64 {
        self.next() % span.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const FAMILIES: [Family; 5] =
    [Family::Path, Family::Grid, Family::SparseGnp, Family::Forest3, Family::Regular6];

fn random_graph(kind: usize, n: usize, seed: u64) -> Graph {
    match FAMILIES.get(kind) {
        Some(family) => family.generate(n, seed),
        None => gnp(n, 0.02 + (seed % 7) as f64 * 0.03, seed),
    }
}

/// The full view after 0–3 random `retain` waves (each keeps about 80 % of the live nodes).
fn random_view<'g>(g: &'g Graph, rng: &mut Rng) -> GraphView<'g> {
    let mut view = GraphView::full(g);
    for _ in 0..rng.below(4) {
        let keep: Vec<bool> = (0..view.node_count()).map(|_| rng.chance(80)).collect();
        view.retain(&keep);
    }
    view
}

/// Random partner claims on `view`: reciprocated pairs, one-sided claims of neighbours,
/// claims of non-neighbours, identities of nodes outside the view, unused identities, and
/// no claim at all.
fn random_claims(view: &GraphView<'_>, rng: &mut Rng) -> Vec<Option<NodeId>> {
    let n = view.node_count();
    let base = view.base();
    let mut claims: Vec<Option<NodeId>> = (0..n)
        .map(|u| match rng.below(6) {
            0 | 1 if view.degree(u) > 0 => {
                Some(view.id(view.neighbor(u, rng.below(view.degree(u) as u64) as usize)))
            }
            2 => Some(view.id(rng.below(n as u64) as usize)),
            3 => Some(base.id(rng.below(base.node_count() as u64) as usize)),
            4 => Some(view.max_id() + 1 + rng.below(5)),
            _ => None,
        })
        .collect();
    // Reciprocate some neighbour claims, so matched pairs (and conflicts between them) occur.
    for u in 0..n {
        if rng.chance(50) {
            if let Some(v) = view.neighbors(u).find(|&v| claims[u] == Some(view.id(v))) {
                claims[v] = Some(view.id(u));
            }
        }
    }
    claims
}

// ------------------------------------------------------------------------- properties ------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ruling_set_pruning_matches_the_per_node_ball_rule(
        kind in 0usize..FAMILIES.len() + 1,
        n in 8usize..120,
        seed in 0u64..1_000_000,
        density in 1u64..70,
    ) {
        let g = random_graph(kind, n, seed);
        let mut rng = Rng(seed ^ 0xB5);
        let view = random_view(&g, &mut rng);
        let live = view.node_count();
        let tentative: Vec<bool> = (0..live).map(|_| rng.chance(density)).collect();
        let inputs = vec![(); live];
        for beta in [0usize, 1, 2, 3, 5] {
            let rule = RulingSetPruning { beta };
            let fast = PruningAlgorithm::<RulingSetProblem>::prune(&rule, &view, &inputs, &tentative);
            prop_assert_eq!(
                &fast.pruned,
                &oracle_ruling_set(&view, beta, &tentative),
                "β = {}, {} of {} nodes live", beta, live, g.node_count()
            );
            let mut normalized = tentative.clone();
            let both = PruningAlgorithm::<RulingSetProblem>::normalize_and_prune(
                &rule, &view, &inputs, &mut normalized,
            );
            prop_assert_eq!(&both.pruned, &fast.pruned);
            prop_assert_eq!(&normalized, &tentative, "the ruling-set rule normalises nothing");
        }
        let mis = PruningAlgorithm::<MisProblem>::prune(&RulingSetPruning::mis(), &view, &inputs, &tentative);
        prop_assert_eq!(mis.pruned, oracle_ruling_set(&view, 1, &tentative));
    }

    #[test]
    fn matching_pruning_matches_the_hashmap_rule(
        kind in 0usize..FAMILIES.len() + 1,
        n in 8usize..120,
        seed in 0u64..1_000_000,
    ) {
        let g = random_graph(kind, n, seed);
        let mut rng = Rng(seed ^ 0x3A7C);
        let view = random_view(&g, &mut rng);
        let claims = random_claims(&view, &mut rng);
        let inputs = vec![(); view.node_count()];
        let expected_pruned = oracle_matching_pruned(&view, &claims);
        let expected_normalized = oracle_normalized(&view, &claims);

        let raw = PruningAlgorithm::<MatchingProblem>::prune(&MatchingPruning, &view, &inputs, &claims);
        prop_assert_eq!(&raw.pruned, &expected_pruned, "prune on raw claims");

        let mut normalized = claims.clone();
        let both = MatchingPruning.normalize_and_prune(&view, &inputs, &mut normalized);
        prop_assert_eq!(&normalized, &expected_normalized, "normalised outputs");
        prop_assert_eq!(&both.pruned, &expected_pruned, "normalize_and_prune's pruned set");
        let after = MatchingPruning.prune(&view, &inputs, &normalized);
        prop_assert_eq!(&after.pruned, &expected_pruned, "prune of the normalised outputs");
    }
}

/// The oracle's balls on a retained view speak live indices and stop at the view's edge.
#[test]
fn oracle_ball_stays_inside_the_view() {
    // 0-1-2-3-4 path plus chord 0-2; dropping node 2 leaves the components 0-1 and 3-4.
    let g = Graph::from_edges_with_ids(
        5,
        &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)],
        &[10, 20, 30, 40, 50],
    )
    .unwrap();
    let mut view = GraphView::full(&g);
    assert_eq!(oracle_ball(&view, 2, 1), vec![0, 1, 2, 3]);
    view.retain(&[true, true, false, true, true]);
    // Live indices: 0 -> 0, 1 -> 1, 3 -> 2, 4 -> 3.
    assert_eq!(oracle_ball(&view, 0, 2), vec![0, 1]);
    assert_eq!(oracle_ball(&view, 2, 1), vec![2, 3]);
    assert_eq!(oracle_ball(&view, 3, 0), vec![3]);
}
