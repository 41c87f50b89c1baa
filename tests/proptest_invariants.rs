//! Property-based tests (proptest) over the core data structures and the paper's invariants:
//! graph construction, induced subgraphs, parameter monotonicity, set-sequence properties and
//! the pruning algorithms' solution-detection / gluing properties on arbitrary inputs.

use localkit::graphs::{gnp, Parameter};
use localkit::runtime::Graph;
use localkit::uniform::funcs::monotone;
use localkit::uniform::problem::{MisProblem, Problem};
use localkit::uniform::pruning::{MatchingPruning, PruningAlgorithm, RulingSetPruning};
use localkit::uniform::seqnum::{check_set_sequence_properties, TimeBound};
use proptest::prelude::*;

fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (2usize..40, 0.0f64..0.4, 0u64..1000).prop_map(|(n, p, seed)| gnp(n, p, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn induced_subgraph_preserves_ids_and_monotone_parameters(
        g in arbitrary_graph(),
        mask_seed in 0u64..u64::MAX,
    ) {
        let n = g.node_count();
        let keep: Vec<bool> = (0..n).map(|v| (mask_seed >> (v % 64)) & 1 == 1).collect();
        let (sub, back) = g.induced_subgraph(&keep);
        prop_assert_eq!(sub.node_count(), keep.iter().filter(|&&k| k).count());
        for (new, &old) in back.iter().enumerate() {
            prop_assert_eq!(sub.id(new), g.id(old));
        }
        for p in [Parameter::N, Parameter::MaxDegree, Parameter::Degeneracy, Parameter::MaxId] {
            prop_assert!(p.eval(&sub) <= p.eval(&g), "{} not monotone", p.name());
        }
    }

    #[test]
    fn reverse_ports_always_consistent(g in arbitrary_graph()) {
        for v in 0..g.node_count() {
            for port in 0..g.degree(v) {
                let w = g.neighbor(v, port);
                prop_assert_eq!(g.neighbor(w, g.reverse_port(v, port)), v);
            }
        }
    }

    #[test]
    fn additive_set_sequences_satisfy_their_contract(
        budget in 1u64..4096,
        y0 in 1u64..10_000,
        y1 in 1u64..10_000,
    ) {
        let bound = TimeBound::additive(vec![
            monotone(|x| (x as f64).sqrt()),
            monotone(|x| (x.max(2) as f64).log2()),
        ]);
        prop_assert!(check_set_sequence_properties(&bound, budget, &[y0, y1]).is_ok());
    }

    #[test]
    fn product_set_sequences_satisfy_their_contract(
        budget in 2u64..4096,
        y0 in 1u64..500,
        y1 in 2u64..100_000,
    ) {
        let bound = TimeBound::product(
            monotone(|x| x.max(1) as f64),
            monotone(|x| (x.max(2) as f64).log2().max(1.0)),
        );
        prop_assert!(check_set_sequence_properties(&bound, budget, &[y0, y1]).is_ok());
    }

    #[test]
    fn mis_pruning_gluing_holds_for_arbitrary_tentative_outputs(
        g in arbitrary_graph(),
        bits in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let n = g.node_count();
        let tentative: Vec<bool> = (0..n).map(|v| bits[v % bits.len()]).collect();
        let pruning = RulingSetPruning::mis();
        let result = PruningAlgorithm::<MisProblem>::prune(&pruning, &localkit::runtime::GraphView::full(&g), &vec![(); n], &tentative);
        // Solution detection (contrapositive direction via gluing): solve the remainder and glue.
        let keep: Vec<bool> = result.pruned.iter().map(|&p| !p).collect();
        let (sub, back) = g.induced_subgraph(&keep);
        let sub_solution = localkit::algos::mis::central_greedy_mis(&sub);
        let mut combined = tentative.clone();
        for (i, &orig) in back.iter().enumerate() {
            combined[orig] = sub_solution[i];
        }
        prop_assert!(MisProblem.validate(&g, &vec![(); n], &combined).is_ok());
        // Solution detection (direct direction): a correct solution is fully pruned.
        let correct = localkit::algos::mis::central_greedy_mis(&g);
        let detect = PruningAlgorithm::<MisProblem>::prune(&pruning, &localkit::runtime::GraphView::full(&g), &vec![(); n], &correct);
        prop_assert!(detect.all_pruned());
    }

    #[test]
    fn matching_pruning_gluing_holds_for_arbitrary_claims(
        g in arbitrary_graph(),
        choices in proptest::collection::vec(0usize..8, 40),
    ) {
        let n = g.node_count();
        // Arbitrary (often inconsistent) partner claims.
        let tentative: Vec<Option<u64>> = (0..n)
            .map(|v| {
                let nbrs = g.neighbors(v);
                if nbrs.is_empty() {
                    None
                } else {
                    let pick = choices[v % choices.len()];
                    if pick < nbrs.len() { Some(g.id(nbrs[pick])) } else { None }
                }
            })
            .collect();
        let result = MatchingPruning.prune(&localkit::runtime::GraphView::full(&g), &vec![(); n], &tentative);
        let keep: Vec<bool> = result.pruned.iter().map(|&p| !p).collect();
        let (sub, back) = g.induced_subgraph(&keep);
        let sub_solution = localkit::algos::synthetic::central_greedy_matching(&sub);
        let mut combined = tentative.clone();
        MatchingPruning.normalize_and_prune(&localkit::runtime::GraphView::full(&g), &vec![(); n], &mut combined);
        for (i, &orig) in back.iter().enumerate() {
            combined[orig] = sub_solution[i];
        }
        prop_assert!(
            localkit::uniform::problem::MatchingProblem.validate(&g, &vec![(); n], &combined).is_ok()
        );
    }

    #[test]
    fn luby_mis_is_always_correct_when_it_completes(
        g in arbitrary_graph(),
        seed in 0u64..1000,
    ) {
        use localkit::runtime::GraphAlgorithm;
        let n = g.node_count();
        let run = localkit::algos::mis::LubyMis.execute(&g, &vec![(); n], None, seed);
        prop_assert!(run.completed);
        prop_assert!(MisProblem.validate(&g, &vec![(); n], &run.outputs).is_ok());
    }
}
