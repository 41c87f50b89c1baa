//! The implicit SLC lists must behave exactly like the materialised ones they replaced.
//!
//! [`SlcInput`] keeps a node's list as the rectangle `[1, K] × [1, Δ̂ + 1]` minus a sorted
//! vector of removed colours. The oracles below are the former implementation, kept here
//! only for comparison: a `BTreeSet` holding every colour of the list, the SLC pruning that
//! clones that set for every survivor, the `range((k, 0)..)` first-copy query of the
//! Theorem 5 adapter, and the validator's `BTreeSet::contains` membership test.
//!
//! Each case runs a multi-step prune → retain alternation on a random graph with
//! Δ̂ ∈ 0..8 and K ∈ 0..10 (`full` clamps K = 0 to 1). Tentative colours mix the adapter's
//! first-copy choice (with its `(k, 0)` fallback), neighbours' colours (clashes) and raw
//! pairs with `k = 0`, `j = 0`, `k > K` or `j > Δ̂ + 1`. After every step the pruned masks,
//! the survivors' lists, `contains`, `first_copy`, `copies_of`, `base_colors` and the
//! validator's verdict must all agree.

use std::collections::BTreeSet;

use local_runtime::{Graph, GraphView};
use local_uniform::problem::{Problem, SlcColor, SlcInput, SlcProblem};
use local_uniform::pruning::{PruningAlgorithm, SlcPruning};
use proptest::prelude::*;

/// The former `SlcInput`: the list materialised as a set.
#[derive(Debug, Clone)]
struct OracleList {
    delta_hat: u64,
    list: BTreeSet<SlcColor>,
}

impl OracleList {
    fn full(delta_hat: u64, num_base_colors: u64) -> Self {
        let mut list = BTreeSet::new();
        for k in 1..=num_base_colors.max(1) {
            for j in 1..=delta_hat + 1 {
                list.insert((k, j));
            }
        }
        OracleList { delta_hat, list }
    }

    /// The former adapter query: the smallest copy of `k`, if any.
    fn first_copy(&self, k: u64) -> Option<u64> {
        self.list.range((k, 0)..).next().filter(|&&(kk, _)| kk == k).map(|&(_, j)| j)
    }

    fn copies_of(&self, k: u64) -> usize {
        self.list.iter().filter(|&&(kk, _)| kk == k).count()
    }

    fn base_colors(&self) -> BTreeSet<u64> {
        self.list.iter().map(|&(k, _)| k).collect()
    }
}

/// The former `SlcPruning::prune`.
fn oracle_prune(
    view: &GraphView<'_>,
    input: &[OracleList],
    tentative: &[SlcColor],
) -> (Vec<bool>, Vec<OracleList>) {
    let n = view.node_count();
    let pruned: Vec<bool> = (0..n)
        .map(|u| {
            input[u].list.contains(&tentative[u])
                && view.neighbors(u).all(|v| tentative[v] != tentative[u])
        })
        .collect();
    let new_inputs = (0..n)
        .map(|u| {
            if pruned[u] {
                OracleList { delta_hat: input[u].delta_hat, list: BTreeSet::new() }
            } else {
                let mut list = input[u].list.clone();
                for v in view.neighbors(u) {
                    if pruned[v] {
                        list.remove(&tentative[v]);
                    }
                }
                OracleList { delta_hat: input[u].delta_hat, list }
            }
        })
        .collect();
    (pruned, new_inputs)
}

/// The former `SlcProblem::validate`.
fn oracle_validate(g: &Graph, input: &[OracleList], output: &[SlcColor]) -> Result<(), String> {
    for v in 0..g.node_count() {
        if !input[v].list.contains(&output[v]) {
            return Err(format!("node {v} chose a colour outside its list"));
        }
    }
    for (u, v) in g.edges() {
        if output[u] == output[v] {
            return Err(format!("adjacent nodes {u} and {v} share colour {:?}", output[u]));
        }
    }
    Ok(())
}

/// splitmix64: a tiny deterministic stream for the per-step tentative colours.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The entries of `items` whose node survives, in order (the driver's compaction).
fn survivors<T>(items: Vec<T>, keep: &[bool]) -> Vec<T> {
    items.into_iter().zip(keep).filter(|&(_, &k)| k).map(|(x, _)| x).collect()
}

/// Asserts that the implicit list answers every query like the materialised one, probing
/// every colour of the rectangle grown by one step on each side.
fn assert_same_list(fast: &SlcInput, oracle: &OracleList, k_max: u64, label: &str) {
    let j_max = oracle.delta_hat + 2;
    prop_assert_eq!(fast.delta_hat, oracle.delta_hat, "{}: delta_hat", label);
    prop_assert_eq!(
        fast.iter().collect::<Vec<_>>(),
        oracle.list.iter().copied().collect::<Vec<_>>(),
        "{}: lists",
        label
    );
    prop_assert_eq!(
        fast.base_colors().collect::<BTreeSet<_>>(),
        oracle.base_colors(),
        "{}: base colours",
        label
    );
    for k in 0..=k_max + 1 {
        prop_assert_eq!(fast.first_copy(k), oracle.first_copy(k), "{}: first_copy({})", label, k);
        prop_assert_eq!(fast.copies_of(k), oracle.copies_of(k), "{}: copies_of({})", label, k);
        for j in 0..=j_max {
            prop_assert_eq!(
                fast.contains((k, j)),
                oracle.list.contains(&(k, j)),
                "{}: contains({:?})",
                label,
                (k, j)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pruning_alternation_matches_materialised_lists(
        n in 0usize..28,
        p in 0.02f64..0.6,
        graph_seed in any::<u64>(),
        delta_hat in 0u64..8,
        palette in 0u64..10,
        steps in 1usize..7,
        stream in any::<u64>(),
    ) {
        let g = local_graphs::gnp(n, p, graph_seed);
        let k_max = palette.max(1);
        let mut view = GraphView::full(&g);
        let mut fast: Vec<SlcInput> = vec![SlcInput::full(delta_hat, palette); n];
        let mut oracle: Vec<OracleList> = vec![OracleList::full(delta_hat, palette); n];
        let mut state = stream;
        for step in 0..steps {
            let alive = view.node_count();
            // Tentative colours: the adapter's choice (the `(k, 0)` fallback included), raw
            // pairs that may fall outside the rectangle, or a neighbour's choice (a clash).
            let mut tentative: Vec<SlcColor> = Vec::with_capacity(alive);
            for (v, list) in oracle.iter().enumerate() {
                let r = next(&mut state);
                let k = (r >> 8) % (k_max + 2);
                let adapter_choice = (k, list.first_copy(k).unwrap_or(0));
                let color = match r % 8 {
                    0..=3 => adapter_choice,
                    4 | 5 => (k, (r >> 16) % (delta_hat + 3)),
                    _ => view.neighbors(v).find(|&w| w < v).map_or(adapter_choice, |w| tentative[w]),
                };
                tentative.push(color);
            }

            let (sub, _) = view.materialize();
            prop_assert_eq!(
                SlcProblem.validate(&sub, &fast, &tentative),
                oracle_validate(&sub, &oracle, &tentative),
                "step {}: validator verdicts",
                step
            );

            let pruned = SlcPruning.prune(&view, &fast, &tentative);
            let (oracle_pruned, oracle_inputs) = oracle_prune(&view, &oracle, &tentative);
            prop_assert_eq!(&pruned.pruned, &oracle_pruned, "step {}: pruned masks", step);
            for v in (0..alive).filter(|&v| !oracle_pruned[v]) {
                assert_same_list(
                    &pruned.new_inputs[v],
                    &oracle_inputs[v],
                    k_max,
                    &format!("step {step}, node {v}"),
                );
            }

            let keep: Vec<bool> = oracle_pruned.iter().map(|&p| !p).collect();
            fast = survivors(pruned.new_inputs, &keep);
            oracle = survivors(oracle_inputs, &keep);
            view.retain(&keep);
        }
    }

    #[test]
    fn removals_match_btreeset_remove(
        delta_hat in 0u64..8,
        palette in 0u64..10,
        removals in prop::collection::vec((0u64..12, 0u64..11), 0..64),
    ) {
        let mut fast = SlcInput::full(delta_hat, palette);
        let mut oracle = OracleList::full(delta_hat, palette);
        for (i, &color) in removals.iter().enumerate() {
            fast.remove(color);
            oracle.list.remove(&color);
            assert_same_list(&fast, &oracle, palette.max(1), &format!("after removal {i}"));
        }
    }
}
