//! The cost model behind work-aware scheduling: predict how expensive each cell is and run
//! the slowest cells first.
//!
//! The pool's workers pull jobs off a shared cursor, so the *order* of the work queue decides
//! the makespan: launching a multi-second cell last leaves every other worker idle while it
//! finishes alone (the classical LPT — longest processing time first — argument gives a
//! 4/3-optimal makespan for slowest-first versus unbounded degradation for an adversarial
//! order). Predictions come from two sources:
//!
//! 1. a **static shape** per problem — a power law `w · n^e` whose weight/exponent encode
//!    how the uniform transformer's attempt cascade scales (line-graph blow-ups, alternation
//!    depth, message simulation), with a family factor for denser-than-sparse instances;
//! 2. **observed wall-times fed back** from the store hits of the sweep's own probe —
//!    cached results of a previous sweep calibrate each `(problem, family)` group by the
//!    ratio of observed to predicted micros, so the second sweep of a grid orders with real
//!    measurements rather than the prior.
//!
//! Predictions only ever decide *order*, never results: a wildly wrong model costs wall
//! clock, not correctness.

use crate::scenario::Scenario;
use crate::workloads::WorkloadSpec;
use local_graphs::FamilySpec;
use std::collections::HashMap;

/// Per family name: summed observed and predicted micros of calibration cells.
type FamilyCalibration = HashMap<Box<str>, (f64, f64)>;

/// Predicts per-cell work and orders work queues slowest-first.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    /// Calibration per problem, then per family: nested by name, so that a lookup borrows
    /// the names instead of building a key.
    observed: HashMap<Box<str>, FamilyCalibration>,
}

impl CostModel {
    /// A fresh, uncalibrated model (static shapes only).
    pub fn new() -> Self {
        CostModel::default()
    }

    /// The static (uncalibrated) cost estimate of one cell, in arbitrary micro-ish units:
    /// the workload's power-law shape ([`WorkloadSpec::cost_shape`]) scaled by the family's
    /// density factor ([`FamilySpec::cost_factor`]) — both read from the registry rows, so a
    /// newly registered workload or family brings its own prior with it.
    pub fn base_cost(problem: &WorkloadSpec, family: &FamilySpec, n: usize) -> f64 {
        let (weight, exponent) = problem.cost_shape();
        weight * (n.max(2) as f64).powf(exponent) * family.cost_factor()
    }

    /// Feeds one observed cell back by its scenario and wall time: a store hit of the
    /// sweep's probe. The scenario carries canonical specs, so the observation keys the
    /// same group [`CostModel::predict`] reads.
    pub fn observe(&mut self, cell: &Scenario, wall_micros: u64) {
        let predicted = CostModel::base_cost(&cell.problem, &cell.family, cell.n);
        let slot = slot(slot(&mut self.observed, cell.problem.name()), cell.family.name());
        slot.0 += wall_micros.max(1) as f64;
        slot.1 += predicted;
    }

    /// The model's current prediction for `cell`: the static shape, rescaled by the
    /// observed-over-predicted ratio of its `(problem, family)` group when calibration data
    /// exists (clamped so one outlier cannot invert the ordering wholesale).
    pub fn predict(&self, cell: &Scenario) -> f64 {
        let base = CostModel::base_cost(&cell.problem, &cell.family, cell.n);
        let group = self.observed.get(cell.problem.name()).and_then(|f| f.get(cell.family.name()));
        match group {
            Some(&(observed, predicted)) if predicted > 0.0 => {
                base * (observed / predicted).clamp(0.05, 50.0)
            }
            _ => base,
        }
    }

    /// Orders `indices` (into `cells`) slowest-first under the model, with index order as
    /// the deterministic tie-break. Each cell is predicted once. The returned permutation is
    /// what the scheduler feeds the pool; results are still scattered back to canonical
    /// positions.
    pub fn order_slowest_first(&self, cells: &[Scenario], indices: Vec<usize>) -> Vec<usize> {
        let mut keyed: Vec<(f64, usize)> =
            indices.into_iter().map(|i| (self.predict(&cells[i]), i)).collect();
        keyed.sort_by(|&(cost_a, a), &(cost_b, b)| {
            cost_b.partial_cmp(&cost_a).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        keyed.into_iter().map(|(_, i)| i).collect()
    }
}

/// The value under `name`, inserted as the default on first sight; only then is the key
/// allocated.
fn slot<'a, V: Default>(map: &'a mut HashMap<Box<str>, V>, name: &str) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.into(), V::default());
    }
    map.get_mut(name).expect("inserted above")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::workload;
    use local_graphs::{family, parse_family, Family};

    fn cell(problem: &str, family_name: &str, n: usize) -> Scenario {
        Scenario {
            problem: workload(problem),
            family: parse_family(family_name).expect("test family parses"),
            n,
            replicate: 0,
        }
    }

    #[test]
    fn bigger_cells_cost_more() {
        let spec = workload("mis");
        let fam = Family::SparseGnp.into();
        let small = CostModel::base_cost(&spec, &fam, 100);
        let large = CostModel::base_cost(&spec, &fam, 1000);
        assert!(large > 10.0 * small, "power law must dominate: {small} vs {large}");
    }

    #[test]
    fn parameterized_families_scale_the_density_factor() {
        let spec = workload("mis");
        let sparse = CostModel::base_cost(&spec, &family("gnp-d4"), 256);
        let dense = CostModel::base_cost(&spec, &family("gnp-d32"), 256);
        assert!(dense > 4.0 * sparse, "denser parameterizations must predict more work");
    }

    #[test]
    fn slowest_first_puts_big_expensive_cells_up_front() {
        let cells = vec![
            cell("luby-mis", "gnp-avg8", 64),
            cell("edge-coloring", "gnp-sqrt-n", 512),
            cell("mis", "gnp-avg8", 256),
        ];
        let order = CostModel::new().order_slowest_first(&cells, vec![0, 1, 2]);
        assert_eq!(order[0], 1, "the line-graph colouring at n=512 is the straggler");
        assert_eq!(order[2], 0, "the small uniform baseline goes last");
    }

    /// The order of a random grid, half its groups calibrated, matches the comparator that
    /// predicted both cells on every comparison.
    #[test]
    fn ordering_matches_the_per_comparison_predictions_on_a_random_grid() {
        let problems = ["mis", "luby-mis", "matching", "coloring", "ruling-set-b2"];
        let families = ["gnp-avg8", "grid", "gnp-d16", "tree"];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state = local_runtime::mix_seed(state, 1);
            state % bound
        };
        let cells: Vec<Scenario> = (0..400)
            .map(|_| {
                let problem = problems[next(5) as usize];
                let family = families[next(4) as usize];
                cell(problem, family, [32, 64, 64, 128][next(4) as usize])
            })
            .collect();
        let mut model = CostModel::new();
        for scenario in cells.iter().filter(|c| c.family.name() != "grid").step_by(7) {
            model.observe(scenario, next(10_000));
        }
        let indices: Vec<usize> = (0..cells.len()).rev().collect();
        let mut reference = indices.clone();
        reference.sort_by(|&a, &b| {
            model
                .predict(&cells[b])
                .partial_cmp(&model.predict(&cells[a]))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        assert_eq!(model.order_slowest_first(&cells, indices), reference);
    }

    #[test]
    fn ordering_is_deterministic_under_ties() {
        let cells = vec![
            cell("mis", "gnp-avg8", 128),
            cell("mis", "gnp-avg8", 128),
            cell("mis", "gnp-avg8", 128),
        ];
        let order = CostModel::new().order_slowest_first(&cells, vec![0, 1, 2]);
        assert_eq!(order, vec![0, 1, 2], "ties break by canonical index");
    }

    /// The wall time of a cell that ran `factor` times as long as its static shape claims.
    fn wall(scenario: &Scenario, factor: f64) -> u64 {
        (CostModel::base_cost(&scenario.problem, &scenario.family, scenario.n) * factor) as u64
    }

    #[test]
    fn observations_recalibrate_predictions() {
        let mut model = CostModel::new();
        let scenario = cell("mis", "gnp-avg8", 128);
        let before = model.predict(&scenario);
        // Observe the group running 10x slower than the static shape claims.
        model.observe(&scenario, wall(&scenario, 10.0));
        let after = model.predict(&scenario);
        assert!(
            (after / before - 10.0).abs() < 0.5,
            "calibration must track the observed ratio: {before} -> {after}"
        );
    }

    #[test]
    fn observations_calibrate_parameterized_groups_independently() {
        let mut model = CostModel::new();
        let d16 = cell("mis", "gnp-d16", 128);
        let d4 = cell("mis", "gnp-d4", 128);
        let before = model.predict(&d4);
        model.observe(&d16, wall(&d16, 8.0));
        // Only the observed parameterization recalibrates.
        assert!(
            (model.predict(&d16) / CostModel::base_cost(&d16.problem, &d16.family, 128) - 8.0)
                .abs()
                < 0.5
        );
        assert_eq!(model.predict(&d4), before);
    }
}
