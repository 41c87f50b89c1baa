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
//! 2. **observed wall-times fed back** from earlier cells — cached results of a previous
//!    sweep (or earlier cells of this one) calibrate each `(problem, family)` group by the
//!    ratio of observed to predicted micros, so the second sweep of a grid orders with real
//!    measurements rather than the prior.
//!
//! Predictions only ever decide *order*, never results: a wildly wrong model costs wall
//! clock, not correctness.

use crate::registry::parse_workload;
use crate::report::CellResult;
use crate::scenario::Scenario;
use crate::workloads::WorkloadSpec;
use local_graphs::{parse_family, FamilySpec};
use std::collections::HashMap;

/// Predicts per-cell work and orders work queues slowest-first.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    /// Per `(problem, family)`: summed observed and predicted micros of calibration cells.
    observed: HashMap<(String, String), (f64, f64)>,
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

    /// Feeds one observed cell back into the model (typically a cache hit from a previous
    /// sweep, or a finished cell of this one).
    pub fn observe(&mut self, cell: &CellResult) {
        let (Some(family), Some(problem)) =
            (parse_family(&cell.family), parse_workload(&cell.problem))
        else {
            return;
        };
        let predicted = CostModel::base_cost(&problem, &family, cell.requested_n);
        // Key by the *canonical* names so observations match predictions even when the
        // observed result spells a family by an alias.
        self.observe_group(
            problem.name(),
            family.name(),
            cell.wall_micros.max(1) as f64,
            predicted,
        );
    }

    /// Feeds one observed cell back by its scenario and wall time alone — the columnar
    /// twin of [`CostModel::observe`] for store scans that never materialize a
    /// [`CellResult`]. The scenario carries canonical specs already, so this is numerically
    /// identical to `observe` on the result the scenario produced.
    pub fn observe_scenario(&mut self, cell: &Scenario, wall_micros: u64) {
        let predicted = CostModel::base_cost(&cell.problem, &cell.family, cell.n);
        self.observe_group(
            cell.problem.name(),
            cell.family.name(),
            wall_micros.max(1) as f64,
            predicted,
        );
    }

    /// Feeds one pre-summed calibration group back into the model. This is the merge
    /// primitive of distributed calibration: a worker process sums its own observations per
    /// `(problem, family)` and ships the sums home, where [`CostModel::merge`] folds them in
    /// as if every cell had been observed locally.
    pub fn observe_group(&mut self, problem: &str, family: &str, observed: f64, predicted: f64) {
        let slot =
            self.observed.entry((problem.to_string(), family.to_string())).or_insert((0.0, 0.0));
        slot.0 += observed;
        slot.1 += predicted;
    }

    /// Merges another model's calibration into this one. Observation sums are additive, so
    /// merging per-worker models is exactly equivalent to observing every worker's cells in
    /// one model — the property that lets a multi-process sweep calibrate centrally from
    /// per-worker observations.
    pub fn merge(&mut self, other: &CostModel) {
        for ((problem, family), &(observed, predicted)) in &other.observed {
            self.observe_group(problem, family, observed, predicted);
        }
    }

    /// A deterministic snapshot of the calibration state: per `(problem, family)`, the
    /// summed observed and predicted micros, sorted by key (this is what a worker ships
    /// home over the shard protocol).
    pub fn observations(&self) -> Vec<(String, String, f64, f64)> {
        let mut out: Vec<_> = self
            .observed
            .iter()
            .map(|((p, f), &(observed, predicted))| (p.clone(), f.clone(), observed, predicted))
            .collect();
        out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        out
    }

    /// The model's current prediction for `cell`: the static shape, rescaled by the
    /// observed-over-predicted ratio of its `(problem, family)` group when calibration data
    /// exists (clamped so one outlier cannot invert the ordering wholesale).
    pub fn predict(&self, cell: &Scenario) -> f64 {
        let base = CostModel::base_cost(&cell.problem, &cell.family, cell.n);
        let key = (cell.problem.name().to_string(), cell.family.name().to_string());
        match self.observed.get(&key) {
            Some(&(observed, predicted)) if predicted > 0.0 => {
                base * (observed / predicted).clamp(0.05, 50.0)
            }
            _ => base,
        }
    }

    /// Orders `indices` (into `cells`) slowest-first under the model, with index order as
    /// the deterministic tie-break. The returned permutation is what the scheduler feeds the
    /// pool; results are still scattered back to canonical positions.
    pub fn order_slowest_first(&self, cells: &[Scenario], mut indices: Vec<usize>) -> Vec<usize> {
        indices.sort_by(|&a, &b| {
            self.predict(&cells[b])
                .partial_cmp(&self.predict(&cells[a]))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::workload;
    use local_graphs::{family, Family};

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

    fn sample(scenario: &Scenario, factor: f64) -> CellResult {
        CellResult {
            problem: scenario.problem.name().to_string(),
            family: scenario.family.name().to_string(),
            requested_n: scenario.n,
            n: scenario.n,
            edges: 0,
            replicate: 0,
            seed: 0,
            uniform_rounds: 1,
            uniform_messages: 0,
            nonuniform_rounds: 1,
            nonuniform_messages: 0,
            overhead_ratio: 1.0,
            subiterations: 0,
            solved: true,
            valid: true,
            wall_micros: (CostModel::base_cost(&scenario.problem, &scenario.family, scenario.n)
                * factor) as u64,
            attempt_micros: 0,
            prune_micros: 0,
            instance_micros: 0,
        }
    }

    #[test]
    fn observations_recalibrate_predictions() {
        let mut model = CostModel::new();
        let scenario = cell("mis", "gnp-avg8", 128);
        let before = model.predict(&scenario);
        // Observe the group running 10x slower than the static shape claims.
        model.observe(&sample(&scenario, 10.0));
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
        model.observe(&sample(&d16, 8.0));
        // Only the observed parameterization recalibrates.
        assert!(
            (model.predict(&d16) / CostModel::base_cost(&d16.problem, &d16.family, 128) - 8.0)
                .abs()
                < 0.5
        );
        assert_eq!(model.predict(&d4), before);
    }

    #[test]
    fn observe_scenario_is_numerically_identical_to_observe() {
        let scenario = cell("mis", "gnp-avg8", 128);
        let result = sample(&scenario, 4.0);
        let mut by_result = CostModel::new();
        by_result.observe(&result);
        let mut by_scenario = CostModel::new();
        by_scenario.observe_scenario(&scenario, result.wall_micros);
        assert_eq!(by_result.observations(), by_scenario.observations());
        assert_eq!(by_result.predict(&scenario), by_scenario.predict(&scenario));
    }

    #[test]
    fn merging_worker_models_equals_observing_locally() {
        // Two "workers" each observe one group; the merged model must predict exactly like
        // a single model that observed both groups itself.
        let mis = cell("mis", "gnp-avg8", 128);
        let matching = cell("matching", "grid", 96);

        let mut worker_a = CostModel::new();
        worker_a.observe(&sample(&mis, 3.0));
        let mut worker_b = CostModel::new();
        worker_b.observe(&sample(&matching, 0.5));

        let mut merged = CostModel::new();
        merged.merge(&worker_a);
        merged.merge(&worker_b);

        let mut local = CostModel::new();
        local.observe(&sample(&mis, 3.0));
        local.observe(&sample(&matching, 0.5));

        assert_eq!(merged.predict(&mis), local.predict(&mis));
        assert_eq!(merged.predict(&matching), local.predict(&matching));
        assert_eq!(merged.observations(), local.observations());
    }

    #[test]
    fn observation_snapshots_round_trip_through_observe_group() {
        let mut model = CostModel::new();
        model.observe_group("mis", "grid", 1000.0, 500.0);
        model.observe_group("mis", "grid", 200.0, 100.0);
        let mut rebuilt = CostModel::new();
        for (problem, family, observed, predicted) in model.observations() {
            rebuilt.observe_group(&problem, &family, observed, predicted);
        }
        assert_eq!(model.observations(), vec![("mis".into(), "grid".into(), 1200.0, 600.0)]);
        assert_eq!(rebuilt.observations(), model.observations());
    }
}
