//! The open family model: the [`GraphFamily`] trait, the name-keyed [`FamilySpec`] handle,
//! the parameterized generator families, and the family registry.
//!
//! The benchmark harness historically swept over the closed [`Family`] enum; every new
//! graph class meant editing the enum, its name/parse tables, and the engine's cost
//! factors in lock step. This module opens that catalog: a family is anything implementing
//! [`GraphFamily`], a [`FamilySpec`] is a cheap clonable handle identified by its stable
//! name, and [`parse_family`] resolves names (including *parameterized* ones like
//! `gnp-d16` or `forest-5`) through one registry table — the single place a new family is
//! wired up.
//!
//! Parameterized families make degree/arboricity regimes sweepable axes instead of
//! hardcoded constants: `gnp-d<d>` fixes the expected average degree, `regular-<d>` the
//! exact degree, `forest-<k>` the arboricity bound, `pa-<m>` the attachment count, and
//! `unit-disk-r<milli>` the geometric radius (in thousandths).

use crate::families::{Family, FAMILY_SUMMARIES};
use crate::random::{forest_union, gnp_avg_degree_fast, preferential_attachment, unit_disk};
use local_runtime::Graph;
use std::sync::Arc;

/// An open-ended graph family: a named, seeded, deterministic generator.
///
/// Implementations must keep `name()` **stable** — it is the wire representation of the
/// family in serialized `Scenario`s and the sweep cache — and `tag()` **distinct** from
/// every other registered family, because the tag is mixed into instance-generation seeds
/// (two families sharing a tag would draw identically-seeded instances).
pub trait GraphFamily: Send + Sync {
    /// The stable canonical name (what [`parse_family`] accepts and reports print).
    fn name(&self) -> String;

    /// A small stable integer distinguishing families, mixed into instance seeds.
    fn tag(&self) -> u64;

    /// A one-line human description for CLI listings.
    fn describe(&self) -> String;

    /// Relative instance-density cost factor for the engine's cost model (1.0 = the sparse
    /// default). Only ever affects scheduling *order*, never results.
    fn cost_factor(&self) -> f64 {
        1.0
    }

    /// Generates a member of the family with (approximately) `n` nodes, deterministically
    /// in `seed`.
    fn generate(&self, n: usize, seed: u64) -> Graph;
}

/// A cheap clonable handle on a registered graph family.
///
/// Identity (equality, ordering, hashing) is the family's stable *name*, so specs key
/// instance caches and sort into stable report order exactly like the old enum did; the
/// generator itself is shared behind an `Arc`.
#[derive(Clone)]
pub struct FamilySpec {
    name: Arc<str>,
    family: Arc<dyn GraphFamily>,
}

impl FamilySpec {
    /// Wraps a [`GraphFamily`] implementation, capturing its canonical name.
    pub fn new(family: impl GraphFamily + 'static) -> Self {
        FamilySpec { name: family.name().into(), family: Arc::new(family) }
    }

    /// The family's stable canonical name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The family's stable tag (see [`GraphFamily::tag`]).
    pub fn tag(&self) -> u64 {
        self.family.tag()
    }

    /// One-line description for CLI listings.
    pub fn describe(&self) -> String {
        self.family.describe()
    }

    /// Relative density cost factor (see [`GraphFamily::cost_factor`]).
    pub fn cost_factor(&self) -> f64 {
        self.family.cost_factor()
    }

    /// Generates a member of the family (see [`GraphFamily::generate`]).
    pub fn generate(&self, n: usize, seed: u64) -> Graph {
        self.family.generate(n, seed)
    }

    /// Generates a member together with its computed global parameters.
    pub fn generate_with_params(&self, n: usize, seed: u64) -> (Graph, crate::GraphParams) {
        let g = self.generate(n, seed);
        let p = crate::GraphParams::of(&g);
        (g, p)
    }
}

impl From<Family> for FamilySpec {
    fn from(family: Family) -> Self {
        FamilySpec::new(family)
    }
}

impl PartialEq for FamilySpec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for FamilySpec {}

impl PartialOrd for FamilySpec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FamilySpec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name.cmp(&other.name)
    }
}

impl std::hash::Hash for FamilySpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

impl std::fmt::Debug for FamilySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FamilySpec({})", self.name)
    }
}

impl std::fmt::Display for FamilySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

// The builtin enum behind the trait. Tags are the variant's historical rank in
// `Family::ALL` — the exact integer the engine used to mix into instance seeds — so every
// pre-existing family keeps drawing byte-identical instances.
impl GraphFamily for Family {
    fn name(&self) -> String {
        Family::name(self).to_string()
    }

    fn tag(&self) -> u64 {
        Family::ALL.iter().position(|f| f == self).expect("builtin family is in ALL") as u64
    }

    fn describe(&self) -> String {
        FAMILY_SUMMARIES[GraphFamily::tag(self) as usize].1.to_string()
    }

    fn cost_factor(&self) -> f64 {
        match self {
            Family::DenseGnp => 4.0,
            Family::Regular6 => 1.5,
            Family::UnitDisk => 2.0,
            Family::Grid | Family::Path | Family::Cycle => 0.7,
            _ => 1.0,
        }
    }

    fn generate(&self, n: usize, seed: u64) -> Graph {
        Family::generate(self, n, seed)
    }
}

// Tag namespaces of the parameterized families: one block of `1 << 20` per family shape,
// far above the builtin ranks 0..=10 and wide enough for any sane parameter.
const TAG_GNP_DEGREE: u64 = 1 << 20;
const TAG_REGULAR: u64 = 2 << 20;
const TAG_FOREST: u64 = 3 << 20;
const TAG_PREF_ATTACH: u64 = 4 << 20;
const TAG_UNIT_DISK: u64 = 5 << 20;

/// `gnp-d<d>` — Erdős–Rényi `G(n, d/n)` with expected average degree `d`, generated by the
/// O(n + m) skip-sampling generator so large sparse instances stay cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnpDegree {
    /// Expected average degree.
    pub avg_degree: u64,
}

impl GraphFamily for GnpDegree {
    fn name(&self) -> String {
        format!("gnp-d{}", self.avg_degree)
    }

    fn tag(&self) -> u64 {
        TAG_GNP_DEGREE + self.avg_degree
    }

    fn describe(&self) -> String {
        format!("Erdős–Rényi G(n, p) with expected average degree {}", self.avg_degree)
    }

    fn cost_factor(&self) -> f64 {
        (self.avg_degree as f64 / 8.0).clamp(0.25, 16.0)
    }

    fn generate(&self, n: usize, seed: u64) -> Graph {
        gnp_avg_degree_fast(n.max(4), self.avg_degree as f64, seed)
    }
}

/// `regular-<d>` — random `d`-regular-ish graphs via the configuration model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegularDegree {
    /// Target degree.
    pub degree: usize,
}

impl GraphFamily for RegularDegree {
    fn name(&self) -> String {
        format!("regular-{}", self.degree)
    }

    fn tag(&self) -> u64 {
        TAG_REGULAR + self.degree as u64
    }

    fn describe(&self) -> String {
        format!("random {}-regular graphs (configuration model, constant Δ)", self.degree)
    }

    fn cost_factor(&self) -> f64 {
        (self.degree as f64 / 4.0).clamp(0.5, 16.0)
    }

    fn generate(&self, n: usize, seed: u64) -> Graph {
        // The configuration model needs d < n and an even number of stubs.
        let n = n.max(4).max(self.degree + 1);
        let n = if (n * self.degree) % 2 == 1 { n + 1 } else { n };
        crate::random::random_regular(n, self.degree, seed)
    }
}

/// `forest-<k>` — the union of `k` independent random forests (arboricity ≤ `k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestUnion {
    /// Number of forests, an upper bound on the arboricity.
    pub forests: usize,
}

impl GraphFamily for ForestUnion {
    fn name(&self) -> String {
        format!("forest-{}", self.forests)
    }

    fn tag(&self) -> u64 {
        TAG_FOREST + self.forests as u64
    }

    fn describe(&self) -> String {
        format!("unions of {} random forests (arboricity ≤ {})", self.forests, self.forests)
    }

    fn cost_factor(&self) -> f64 {
        (self.forests as f64 / 3.0).clamp(0.5, 8.0)
    }

    fn generate(&self, n: usize, seed: u64) -> Graph {
        forest_union(n.max(4), self.forests, seed)
    }
}

/// `pa-<m>` — Barabási–Albert preferential attachment with `m` edges per arriving node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefAttach {
    /// Edges each arriving node attaches with.
    pub edges_per_node: usize,
}

impl GraphFamily for PrefAttach {
    fn name(&self) -> String {
        format!("pa-{}", self.edges_per_node)
    }

    fn tag(&self) -> u64 {
        TAG_PREF_ATTACH + self.edges_per_node as u64
    }

    fn describe(&self) -> String {
        format!(
            "preferential attachment with m = {} (skewed degrees, small arboricity)",
            self.edges_per_node
        )
    }

    fn cost_factor(&self) -> f64 {
        (self.edges_per_node as f64 / 3.0).clamp(0.5, 8.0)
    }

    fn generate(&self, n: usize, seed: u64) -> Graph {
        preferential_attachment(n.max(4), self.edges_per_node, seed)
    }
}

/// `unit-disk-r<milli>` — random geometric graphs with connection radius `milli / 1000`
/// (points uniform in the unit square; bounded independence at any fixed radius).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitDiskRadius {
    /// Connection radius in thousandths (`50` = radius 0.050).
    pub milli_radius: u64,
}

impl GraphFamily for UnitDiskRadius {
    fn name(&self) -> String {
        format!("unit-disk-r{}", self.milli_radius)
    }

    fn tag(&self) -> u64 {
        TAG_UNIT_DISK + self.milli_radius
    }

    fn describe(&self) -> String {
        format!("unit-disk graphs with fixed radius {:.3}", self.milli_radius as f64 / 1000.0)
    }

    fn cost_factor(&self) -> f64 {
        2.0
    }

    fn generate(&self, n: usize, seed: u64) -> Graph {
        unit_disk(n.max(4), self.milli_radius as f64 / 1000.0, seed)
    }
}

/// One row of the family registry: a name pattern, a one-line summary for CLI listings,
/// a parser from names to specs, and the representative specs `--families all` expands to
/// (empty for parameterized families — they are opt-in axes, not part of the default
/// catalog, so pre-existing sweeps keep their exact shape).
pub struct FamilyEntry {
    /// The name or name pattern this entry parses (`grid`, `gnp-d<d>`).
    pub pattern: &'static str,
    /// One-line description for `sweep --list`.
    pub summary: &'static str,
    /// Parses a concrete family name into a spec (`None` when the name is not this
    /// entry's).
    pub parse: fn(&str) -> Option<FamilySpec>,
    /// The specs this entry contributes to the default (`all`) catalog.
    pub defaults: fn() -> Vec<FamilySpec>,
}

fn parse_builtin(name: &str) -> Option<FamilySpec> {
    Family::from_name(name).map(FamilySpec::from)
}

fn no_defaults() -> Vec<FamilySpec> {
    Vec::new()
}

/// Parameterized-family parameters must fit inside their `1 << 20`-wide tag namespace,
/// or tags of different family shapes could collide (the registry-wide distinctness
/// contract of [`GraphFamily::tag`]).
const PARAM_LIMIT: u64 = 1 << 20;

/// Parses a family parameter, rejecting values that would escape the tag namespace.
fn parse_param(text: &str) -> Option<u64> {
    let value: u64 = text.parse().ok()?;
    (value < PARAM_LIMIT).then_some(value)
}

fn parse_gnp_degree(name: &str) -> Option<FamilySpec> {
    let avg_degree = parse_param(name.strip_prefix("gnp-d")?)?;
    Some(FamilySpec::new(GnpDegree { avg_degree }))
}

// Parameterizations that coincide with a builtin family delegate to it (same generator,
// same parameters ⇒ same spec), so the registry's name → generator map stays
// single-valued: `regular-6`, `forest-3`, and `pa-3` resolve to the builtin specs with
// their historical tags, and results stay comparable/cache-shared with old sweeps.

fn parse_regular(name: &str) -> Option<FamilySpec> {
    let degree = parse_param(name.strip_prefix("regular-")?)?;
    match degree {
        0 => None,
        6 => Some(Family::Regular6.into()),
        _ => Some(FamilySpec::new(RegularDegree { degree: degree as usize })),
    }
}

fn parse_forest(name: &str) -> Option<FamilySpec> {
    let forests = parse_param(name.strip_prefix("forest-")?)?;
    match forests {
        0 => None,
        3 => Some(Family::Forest3.into()),
        _ => Some(FamilySpec::new(ForestUnion { forests: forests as usize })),
    }
}

fn parse_pref_attach(name: &str) -> Option<FamilySpec> {
    let edges_per_node = parse_param(name.strip_prefix("pa-")?)?;
    match edges_per_node {
        0 => None,
        3 => Some(Family::PowerLaw.into()),
        _ => Some(FamilySpec::new(PrefAttach { edges_per_node: edges_per_node as usize })),
    }
}

fn parse_unit_disk_radius(name: &str) -> Option<FamilySpec> {
    let milli_radius = parse_param(name.strip_prefix("unit-disk-r")?)?;
    Some(FamilySpec::new(UnitDiskRadius { milli_radius }))
}

fn builtin_defaults() -> Vec<FamilySpec> {
    Family::ALL.iter().map(|&f| FamilySpec::from(f)).collect()
}

/// The family registry: one entry per family (or family pattern), in listing order.
/// Adding a family is one `GraphFamily` impl plus one line here.
pub static FAMILY_ENTRIES: &[FamilyEntry] = &[
    FamilyEntry {
        pattern: "<builtin>",
        summary: "the fixed benchmark catalog below (accepts aliases like sparse-gnp, tree)",
        parse: parse_builtin,
        defaults: builtin_defaults,
    },
    FamilyEntry {
        pattern: "gnp-d<d>",
        summary: "Erdős–Rényi G(n, d/n): expected average degree d (skip-sampled, O(n+m))",
        parse: parse_gnp_degree,
        defaults: no_defaults,
    },
    FamilyEntry {
        pattern: "regular-<d>",
        summary: "random d-regular graphs via the configuration model (constant Δ = d)",
        parse: parse_regular,
        defaults: no_defaults,
    },
    FamilyEntry {
        pattern: "forest-<k>",
        summary: "union of k independent random forests (arboricity ≤ k, unbounded Δ)",
        parse: parse_forest,
        defaults: no_defaults,
    },
    FamilyEntry {
        pattern: "pa-<m>",
        summary: "preferential attachment, m edges per arriving node (skewed degrees)",
        parse: parse_pref_attach,
        defaults: no_defaults,
    },
    FamilyEntry {
        pattern: "unit-disk-r<milli>",
        summary: "random geometric graph with radius milli/1000 (bounded independence)",
        parse: parse_unit_disk_radius,
        defaults: no_defaults,
    },
];

/// Resolves a family name (canonical, alias, or parameterized) through the registry.
pub fn parse_family(name: &str) -> Option<FamilySpec> {
    FAMILY_ENTRIES.iter().find_map(|entry| (entry.parse)(name))
}

/// Resolves a comma list of family names, or `all` for [`builtin_families`] — the
/// `--families` value of the CLIs.
pub fn parse_families(list: &str) -> Result<Vec<FamilySpec>, String> {
    if list == "all" {
        return Ok(builtin_families());
    }
    list.split(',')
        .map(|name| {
            parse_family(name.trim())
                .ok_or_else(|| format!("unknown family: {name:?} (see sweep --list)"))
        })
        .collect()
}

/// The default family catalog (`--families all`): every builtin family, in stable order.
pub fn builtin_families() -> Vec<FamilySpec> {
    FAMILY_ENTRIES.iter().flat_map(|entry| (entry.defaults)()).collect()
}

/// Resolves a family name, panicking on unknown names — the concise constructor for
/// presets and tests (`family("gnp-d16")`).
///
/// # Panics
///
/// Panics when the name is not registered.
pub fn family(name: &str) -> FamilySpec {
    parse_family(name).unwrap_or_else(|| panic!("unknown graph family: {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_tags_match_their_historical_ranks() {
        // The engine used to mix `Family::ALL.position()` into instance seeds; tags must
        // reproduce those exact integers or every pre-existing instance changes.
        for (rank, fam) in Family::ALL.iter().enumerate() {
            assert_eq!(GraphFamily::tag(fam), rank as u64, "{}", Family::name(fam));
        }
    }

    #[test]
    fn every_builtin_name_and_alias_resolves() {
        for fam in Family::ALL {
            let spec = parse_family(Family::name(&fam)).expect("canonical name parses");
            assert_eq!(spec, FamilySpec::from(fam));
        }
        assert_eq!(parse_family("sparse-gnp"), Some(Family::SparseGnp.into()));
        assert_eq!(parse_family("tree"), Some(Family::BinaryTree.into()));
        assert_eq!(parse_family("regular"), Some(Family::Regular6.into()));
        assert!(parse_family("no-such-family").is_none());
    }

    #[test]
    fn parameterized_names_round_trip() {
        for name in
            ["gnp-d16", "gnp-d2", "regular-4", "regular-12", "forest-5", "pa-2", "unit-disk-r75"]
        {
            let spec = parse_family(name).unwrap_or_else(|| panic!("{name} must parse"));
            assert_eq!(spec.name(), name, "canonical name must round-trip");
        }
        assert!(parse_family("gnp-d").is_none());
        assert!(parse_family("forest-x").is_none());
    }

    #[test]
    fn parameterizations_coinciding_with_builtins_delegate_to_them() {
        // Same generator + same parameters must resolve to the same spec (historical name
        // and tag), so results stay comparable and cache-shared with old sweeps — the
        // registry's name → generator map is single-valued. The tag assertions also pin
        // the delegation independent of registry entry order (the builtin entry parses
        // "regular-6" first today, but these must hold even if ordering changes).
        assert_eq!(parse_family("regular-6"), Some(Family::Regular6.into()));
        assert_eq!(parse_family("regular-6").unwrap().tag(), 7);
        assert_eq!(parse_family("forest-3"), Some(Family::Forest3.into()));
        assert_eq!(parse_family("forest-3").unwrap().name(), "forest-union-3");
        assert_eq!(parse_family("pa-3"), Some(Family::PowerLaw.into()));
        assert_eq!(parse_family("pa-3").unwrap().tag(), 10);
    }

    #[test]
    fn degenerate_and_out_of_range_parameters_are_rejected_at_parse() {
        // 0 forests/edges/degree would silently run a different distribution than the
        // name claims (or panic inside the generator); parameters at or above the tag
        // namespace width would let tags of different family shapes collide.
        for name in ["regular-0", "forest-0", "pa-0"] {
            assert!(parse_family(name).is_none(), "{name} must be rejected");
        }
        let limit = 1u64 << 20;
        for pattern in ["gnp-d", "regular-", "forest-", "pa-", "unit-disk-r"] {
            assert!(
                parse_family(&format!("{pattern}{limit}")).is_none(),
                "{pattern}{limit} escapes its tag namespace"
            );
            assert!(parse_family(&format!("{pattern}{}", u64::MAX)).is_none());
        }
        // The largest in-range parameter still parses and stays inside its namespace.
        let spec = parse_family(&format!("gnp-d{}", limit - 1)).expect("in-range parses");
        assert!(spec.tag() < 2 << 20);
    }

    #[test]
    fn parameterized_families_generate_their_regimes() {
        let sparse = family("gnp-d4").generate(600, 3);
        let dense = family("gnp-d24").generate(600, 3);
        let avg = |g: &Graph| 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!(avg(&sparse) < avg(&dense), "degree axis must be monotone");
        assert!((2.0..7.0).contains(&avg(&sparse)), "gnp-d4 average degree {}", avg(&sparse));

        assert!(family("regular-4").generate(100, 1).max_degree() <= 4);
        assert!(family("regular-9").generate(100, 1).max_degree() <= 9);

        let (_, p) = family("forest-2").generate_with_params(200, 7);
        assert!(p.degeneracy <= 4, "forest-2 degeneracy {}", p.degeneracy);

        let pa = family("pa-2").generate(150, 5);
        assert!(pa.edge_count() >= 140);

        let tight = family("unit-disk-r50").generate(200, 9);
        let loose = family("unit-disk-r300").generate(200, 9);
        assert!(tight.edge_count() < loose.edge_count());
    }

    #[test]
    fn parameterized_generation_is_reproducible() {
        for name in ["gnp-d16", "regular-8", "forest-4", "pa-2", "unit-disk-r100"] {
            let spec = family(name);
            assert_eq!(spec.generate(80, 33), spec.generate(80, 33), "{name} not reproducible");
        }
    }

    #[test]
    fn registry_tags_are_distinct_across_entries_and_parameters() {
        let mut specs = builtin_families();
        for name in [
            "gnp-d8",
            "gnp-d16",
            "regular-4",
            "regular-8",
            "forest-2",
            "forest-5",
            "pa-2",
            "pa-4",
            "unit-disk-r50",
            "unit-disk-r100",
        ] {
            specs.push(family(name));
        }
        let mut tags: Vec<u64> = specs.iter().map(FamilySpec::tag).collect();
        let count = tags.len();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), count, "family tags must be pairwise distinct");
    }

    #[test]
    fn specs_key_and_order_by_name() {
        let a = family("gnp-d16");
        let b = parse_family("gnp-d16").unwrap();
        let c = family("gnp-d8");
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = std::collections::BTreeSet::new();
        set.insert(a.clone());
        set.insert(b);
        set.insert(c);
        assert_eq!(set.len(), 2);
        let mut hashed = std::collections::HashSet::new();
        hashed.insert(a);
        assert!(hashed.contains(&family("gnp-d16")));
    }
}
