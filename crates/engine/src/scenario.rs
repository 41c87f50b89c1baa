//! The scenario model: what one experiment cell is, and how grids of cells are built.
//!
//! A [`Scenario`] is one point of an experiment design: a workload (resolved through
//! [`crate::registry`]), a graph family ([`local_graphs::FamilySpec`]), a target size, and
//! a replicate index. A [`ScenarioGrid`] is the cross product of the four axes, the unit
//! of work the scheduler executes. Cells are enumerated in a fixed deterministic order and
//! carry their own seeds (derived with [`local_runtime::mix_seed`] from the workload's and
//! family's stable tags), so a grid means the same set of executions regardless of how it
//! is later sharded over threads — or which registry entry the specs came from.

use crate::registry::parse_workload;
use crate::workloads::WorkloadSpec;
use local_graphs::{parse_family, FamilySpec, InstanceKey};
use local_runtime::mix_seed;
use serde::{Deserialize, Serialize, Value, Writer};

/// Salt separating graph-generation seeds from execution seeds.
const GRAPH_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One experiment cell: `(workload, family, n, replicate)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// The workload to run.
    pub problem: WorkloadSpec,
    /// The graph family the instance is drawn from.
    pub family: FamilySpec,
    /// Requested instance size.
    pub n: usize,
    /// Replicate index (`0..replicates`); distinct replicates get distinct instances.
    pub replicate: u64,
}

impl Scenario {
    /// The key of the graph instance this cell runs on. Cells that differ only in the
    /// workload share the key — and therefore, under the scheduler's cache, the instance.
    ///
    /// The family's stable [`FamilySpec::tag`] is mixed into the generation seed, so
    /// distinct families — including distinct *parameterizations* of one generator —
    /// always draw distinct instances. (This used to rank families by their position in
    /// the closed catalog, which silently mapped any family outside it to rank 0.)
    pub fn instance_key(&self, base_seed: u64) -> InstanceKey {
        let shape = mix_seed(self.family.tag(), ((self.n as u64) << 20) ^ self.replicate);
        InstanceKey::new(self.family.clone(), self.n, mix_seed(base_seed ^ GRAPH_SEED_SALT, shape))
    }

    /// The execution seed of this cell: a deterministic function of the cell's identity
    /// (never of scheduling order), so parallel and sequential sweeps agree byte-for-byte.
    pub fn cell_seed(&self, base_seed: u64) -> u64 {
        mix_seed(self.instance_key(base_seed).seed, self.problem.tag())
    }

    /// A short human-readable label.
    pub fn label(&self) -> String {
        format!("{}/{}/n{}/r{}", self.problem.name(), self.family.name(), self.n, self.replicate)
    }
}

// The wire representation of a cell (the shard protocol and the cache index) spells the
// workload and family by their stable names, so the wire is readable, survives registry
// reordering, and stays byte-identical to the representation the closed enums produced.
impl Serialize for Scenario {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_map();
        out.field("problem", self.problem.name());
        out.field("family", self.family.name());
        out.field("n", &self.n);
        out.field("replicate", &self.replicate);
        out.end_map();
    }
}

impl Deserialize for Scenario {
    fn from_value(value: &Value) -> Result<Self, String> {
        let field =
            |key: &str| value.get(key).ok_or_else(|| format!("scenario is missing field {key:?}"));
        let name = |key: &str| -> Result<String, String> {
            let v = field(key)?;
            v.as_str().map(str::to_string).ok_or_else(|| format!("expected {key} name, got {v:?}"))
        };
        let problem_name = name("problem")?;
        let family_name = name("family")?;
        Ok(Scenario {
            problem: parse_workload(&problem_name)
                .ok_or_else(|| format!("unknown problem: {problem_name:?}"))?,
            family: parse_family(&family_name)
                .ok_or_else(|| format!("unknown family: {family_name:?}"))?,
            n: usize::from_value(field("n")?)?,
            replicate: u64::from_value(field("replicate")?)?,
        })
    }
}

/// A cross-product experiment design.
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    /// Workloads to run (axis 1).
    pub problems: Vec<WorkloadSpec>,
    /// Graph families (axis 2).
    pub families: Vec<FamilySpec>,
    /// Instance sizes (axis 3).
    pub sizes: Vec<usize>,
    /// Number of replicates per `(problem, family, size)` (axis 4).
    pub replicates: u64,
    /// Base seed every instance/cell seed is derived from.
    pub base_seed: u64,
}

impl Default for ScenarioGrid {
    fn default() -> Self {
        ScenarioGrid {
            problems: vec![crate::registry::workload("mis")],
            families: vec![local_graphs::Family::SparseGnp.into()],
            sizes: vec![128],
            replicates: 1,
            base_seed: 0,
        }
    }
}

impl ScenarioGrid {
    /// The default single-cell-per-axis grid (MIS on sparse G(n,p) at n = 128, one
    /// replicate), meant to be overridden axis-by-axis with the builder methods below.
    pub fn new() -> Self {
        ScenarioGrid::default()
    }

    /// Sets the problem axis (anything convertible to a [`WorkloadSpec`]).
    pub fn problems<I>(mut self, problems: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<WorkloadSpec>,
    {
        self.problems = problems.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the family axis (anything convertible to a [`FamilySpec`], including the
    /// builtin [`local_graphs::Family`] variants).
    pub fn families<I>(mut self, families: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<FamilySpec>,
    {
        self.families = families.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the size axis.
    pub fn sizes(mut self, sizes: impl Into<Vec<usize>>) -> Self {
        self.sizes = sizes.into();
        self
    }

    /// Sets the size axis to a doubling ladder `lo, 2·lo, 4·lo, …` up to (and including the
    /// first value ≥) `hi`.
    pub fn size_ladder(mut self, lo: usize, hi: usize) -> Self {
        self.sizes = expand_ladder(lo, hi);
        self
    }

    /// Sets the number of replicates (seeds) per cell.
    pub fn replicates(mut self, replicates: u64) -> Self {
        self.replicates = replicates.max(1);
        self
    }

    /// Sets the base seed.
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Number of cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.problems.len() * self.families.len() * self.sizes.len() * self.replicates as usize
    }

    /// Enumerates every cell in the grid's canonical order
    /// (problem-major, then family, size, replicate).
    pub fn cells(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.cell_count());
        for problem in &self.problems {
            for family in &self.families {
                for &n in &self.sizes {
                    for replicate in 0..self.replicates {
                        out.push(Scenario {
                            problem: problem.clone(),
                            family: family.clone(),
                            n,
                            replicate,
                        });
                    }
                }
            }
        }
        out
    }
}

// The wire representation of a grid (the coordinator's job protocol) spells workloads and
// families by stable name, exactly like [`Scenario`]'s: a submitted grid means the same
// cells — in the same canonical order — on whichever build re-expands it.
impl Serialize for ScenarioGrid {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_map();
        out.key("problems");
        out.seq(self.problems.iter().map(WorkloadSpec::name));
        out.key("families");
        out.seq(self.families.iter().map(FamilySpec::name));
        out.field("sizes", &self.sizes);
        out.field("replicates", &self.replicates);
        out.field("base_seed", &self.base_seed);
        out.end_map();
    }
}

impl Deserialize for ScenarioGrid {
    fn from_value(value: &Value) -> Result<Self, String> {
        let field =
            |key: &str| value.get(key).ok_or_else(|| format!("grid is missing field {key:?}"));
        let names = |key: &str| -> Result<Vec<String>, String> {
            let seq =
                field(key)?.as_seq().ok_or_else(|| format!("expected a list of {key} names"))?;
            seq.iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("expected a {key} name, got {v:?}"))
                })
                .collect()
        };
        let problems = names("problems")?
            .iter()
            .map(|name| parse_workload(name).ok_or_else(|| format!("unknown problem: {name:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        let families = names("families")?
            .iter()
            .map(|name| parse_family(name).ok_or_else(|| format!("unknown family: {name:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        if problems.is_empty() || families.is_empty() {
            return Err("grid with an empty problem or family axis".into());
        }
        let grid = ScenarioGrid {
            problems,
            families,
            sizes: Vec::<usize>::from_value(field("sizes")?)?,
            replicates: u64::from_value(field("replicates")?)?.max(1),
            base_seed: u64::from_value(field("base_seed")?)?,
        };
        // A grid line is a few dozen bytes, but its receiver expands it cell by cell: bound
        // the expansion like a shard line's size bounds a shard.
        let cells = usize::try_from(grid.replicates).ok().and_then(|replicates| {
            [grid.families.len(), grid.sizes.len(), replicates]
                .into_iter()
                .try_fold(grid.problems.len(), usize::checked_mul)
        });
        match cells {
            Some(cells) if cells <= MAX_WIRE_GRID_CELLS => Ok(grid),
            _ => Err(format!("grid expands to more than {MAX_WIRE_GRID_CELLS} cells")),
        }
    }
}

/// The most cells a grid decoded from the wire may expand to — about as many as the
/// longest request line a server reads can carry as a shard
/// ([`crate::backend::MAX_REQUEST_BYTES`], at ~50 bytes per cell).
pub const MAX_WIRE_GRID_CELLS: usize = 1 << 20;

fn expand_ladder(lo: usize, hi: usize) -> Vec<usize> {
    // Honour the requested start exactly (generators themselves round tiny sizes up);
    // only guard against a zero start, which could never double.
    let lo = lo.max(1);
    let hi = hi.max(lo);
    let mut sizes = Vec::new();
    let mut n = lo;
    loop {
        sizes.push(n);
        if n >= hi {
            break;
        }
        n = n.saturating_mul(2).min(hi.max(n + 1));
    }
    sizes
}

/// Parses a size axis: either a comma list (`200,400`) or a doubling ladder (`100..10000`).
pub fn parse_sizes(text: &str) -> Result<Vec<usize>, String> {
    if let Some((lo, hi)) = text.split_once("..") {
        let lo: usize = lo.trim().parse().map_err(|_| format!("bad ladder start: {lo:?}"))?;
        let hi: usize = hi.trim().parse().map_err(|_| format!("bad ladder end: {hi:?}"))?;
        if hi < lo {
            return Err(format!("ladder end {hi} below start {lo}"));
        }
        return Ok(expand_ladder(lo, hi));
    }
    let sizes: Result<Vec<usize>, _> = text.split(',').map(|s| s.trim().parse::<usize>()).collect();
    let sizes = sizes.map_err(|_| format!("bad size list: {text:?}"))?;
    if sizes.is_empty() {
        return Err("empty size list".into());
    }
    Ok(sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::workload;
    use local_graphs::{family, Family};

    #[test]
    fn grid_cross_product_has_expected_shape() {
        let grid = ScenarioGrid::new()
            .problems([workload("mis"), workload("matching")])
            .families([Family::SparseGnp, Family::Grid, Family::Path])
            .sizes([64usize, 128])
            .replicates(4);
        assert_eq!(grid.cell_count(), 2 * 3 * 2 * 4);
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.cell_count());
        // Canonical order: first cell is the first coordinate of every axis.
        assert_eq!(cells[0].problem, workload("mis"));
        assert_eq!(cells[0].family, Family::SparseGnp.into());
        assert_eq!(cells[0].n, 64);
        assert_eq!(cells[0].replicate, 0);
    }

    #[test]
    fn grids_mix_builtin_and_parameterized_families() {
        let grid = ScenarioGrid::new()
            .problems([workload("luby-mis")])
            .families([Family::Grid.into(), family("gnp-d16"), family("regular-4")])
            .sizes([48usize]);
        let cells = grid.cells();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[1].family.name(), "gnp-d16");
        assert_eq!(cells[2].family.name(), "regular-4");
    }

    #[test]
    fn same_instance_across_problems_distinct_across_replicates() {
        let a =
            Scenario { problem: workload("mis"), family: Family::Grid.into(), n: 64, replicate: 0 };
        let b = Scenario { problem: workload("matching"), ..a.clone() };
        let c = Scenario { problem: workload("mis"), replicate: 1, ..a.clone() };
        assert_eq!(a.instance_key(7), b.instance_key(7));
        assert_ne!(a.instance_key(7), c.instance_key(7));
        // Execution seeds differ per problem even on the shared instance.
        assert_ne!(a.cell_seed(7), b.cell_seed(7));
    }

    #[test]
    fn distinct_parameterized_families_draw_distinct_instances() {
        // The historical bug: families outside the closed catalog all ranked 0, so two
        // different parameterizations would have drawn identically-seeded instances. The
        // family tag in the seed mix makes every parameterization its own instance stream.
        let cell = |family_name: &str| Scenario {
            problem: workload("mis"),
            family: family(family_name),
            n: 96,
            replicate: 0,
        };
        let pairs = [("gnp-d8", "gnp-d16"), ("regular-4", "regular-8"), ("forest-2", "forest-4")];
        for (a, b) in pairs {
            let (ka, kb) = (cell(a).instance_key(7), cell(b).instance_key(7));
            assert_ne!(ka, kb, "{a} vs {b} must be distinct keys");
            assert_ne!(ka.seed, kb.seed, "{a} vs {b} must draw from distinct seed streams");
        }
        // And a parameterized family never shadows a builtin's stream either.
        assert_ne!(
            cell("gnp-d8").instance_key(7).seed,
            Scenario { family: Family::SparseGnp.into(), ..cell("gnp-d8") }.instance_key(7).seed
        );
    }

    #[test]
    fn ladder_doubles_and_caps() {
        assert_eq!(parse_sizes("100..1000").unwrap(), vec![100, 200, 400, 800, 1000]);
        assert_eq!(parse_sizes("200,400").unwrap(), vec![200, 400]);
        assert_eq!(parse_sizes("64").unwrap(), vec![64]);
        // A small ladder start is honoured, not silently rewritten.
        assert_eq!(parse_sizes("2..8").unwrap(), vec![2, 4, 8]);
        assert!(parse_sizes("..").is_err());
        assert!(parse_sizes("a,b").is_err());
    }

    #[test]
    fn grids_round_trip_the_wire_with_cells_in_canonical_order() {
        let grid = ScenarioGrid::new()
            .problems([workload("mis"), workload("luby-mis")])
            .families([Family::Grid.into(), family("gnp-d16")])
            .sizes([48usize, 64])
            .replicates(2)
            .base_seed(9);
        let wire = serde_json::to_string(&grid).unwrap();
        let back = ScenarioGrid::from_value(&serde_json::from_str(&wire).unwrap()).unwrap();
        assert_eq!(back.cell_count(), grid.cell_count());
        assert_eq!(back.cells(), grid.cells());
        assert_eq!(back.base_seed, grid.base_seed);
    }

    #[test]
    fn malformed_grids_are_rejected() {
        for bad in [
            r#"{"problems":["mis"],"families":[],"sizes":[48],"replicates":1,"base_seed":0}"#,
            r#"{"problems":["no-such"],"families":["grid"],"sizes":[48],"replicates":1,"base_seed":0}"#,
            r#"{"families":["grid"],"sizes":[48],"replicates":1,"base_seed":0}"#,
            r#"{"problems":["mis"],"families":["grid"],"sizes":[48,64],"replicates":18446744073709551615,"base_seed":0}"#,
        ] {
            let value = serde_json::from_str(bad).unwrap();
            assert!(ScenarioGrid::from_value(&value).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn cell_seeds_do_not_depend_on_grid_order() {
        let cell = Scenario {
            problem: workload("ruling-set-b2"),
            family: Family::UnitDisk.into(),
            n: 96,
            replicate: 3,
        };
        // The seed is a pure function of the cell + base seed.
        assert_eq!(cell.cell_seed(11), cell.cell_seed(11));
        assert_ne!(cell.cell_seed(11), cell.cell_seed(12));
    }
}
