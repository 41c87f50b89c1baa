//! The family registry: the name-keyed [`FamilySpec`] handle and one table row per graph
//! family, holding every fact about it.
//!
//! The builtin row serves the closed [`Family`] catalog (and its aliases); the other rows
//! are *parameterized* families that make degree/arboricity regimes sweepable axes instead
//! of hardcoded constants: `gnp-d<d>` fixes the expected average degree, `regular-<d>` the
//! exact degree, `forest-<k>` the arboricity bound, `pa-<m>` the attachment count, and
//! `unit-disk-r<milli>` the geometric radius (in thousandths). [`parse_family`] resolves
//! every name through [`FAMILY_ENTRIES`], the single place a new family is wired up.

use crate::families::Family;
use crate::random::{
    forest_union, gnp_avg_degree_fast, preferential_attachment, random_regular, unit_disk,
};
use local_runtime::Graph;
use std::sync::Arc;

/// A cheap clonable handle on one registered graph family: a registry row and its
/// parameter.
///
/// Identity (equality, ordering, hashing) is the family's stable *name*, so specs key
/// instance caches and sort into a stable report order.
#[derive(Clone)]
pub struct FamilySpec {
    name: Arc<str>,
    row: &'static FamilyEntry,
    param: u64,
}

impl FamilySpec {
    /// The spec of `row` at `param`, under its canonical `name`.
    fn new(row: &'static FamilyEntry, name: String, param: u64) -> Self {
        FamilySpec { name: name.into(), row, param }
    }

    /// The family's stable canonical name: the wire representation of the family in
    /// serialized scenarios and the result store, and what [`parse_family`] accepts.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The family's stable tag, `tag_base + param`, mixed into instance-generation seeds.
    /// Distinct for every registered family, or two families would draw identically-seeded
    /// instances.
    pub fn tag(&self) -> u64 {
        self.row.tag_base + self.param
    }

    /// Relative instance-density cost factor for the engine's cost model (1.0 = the sparse
    /// default). Only ever affects scheduling *order*, never results.
    pub fn cost_factor(&self) -> f64 {
        (self.row.cost_factor)(self.param)
    }

    /// Generates a member of the family with (approximately) `n` nodes, deterministically
    /// in `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> Graph {
        (self.row.generate)(self.param, n, seed)
    }

    /// Generates a member together with its computed global parameters.
    pub fn generate_with_params(&self, n: usize, seed: u64) -> (Graph, crate::GraphParams) {
        let g = self.generate(n, seed);
        let p = crate::GraphParams::of(&g);
        (g, p)
    }
}

impl From<Family> for FamilySpec {
    /// The builtin row at the variant's rank in [`Family::ALL`], the exact integer every
    /// pre-existing instance seed was drawn with.
    fn from(family: Family) -> Self {
        FamilySpec::new(&FAMILY_ENTRIES[0], family.name().to_string(), family as u64)
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

/// One row of the family registry: the builtin catalog, or a family of generators indexed
/// by one parameter (`gnp-d<d>`).
pub struct FamilyEntry {
    /// The name or name pattern this row parses (`<builtin>`, `gnp-d<d>`).
    pub pattern: &'static str,
    /// One-line description for `sweep --list`.
    pub summary: &'static str,
    /// The tag at parameter 0: a spec's tag is `tag_base + param`. Each parameterized row
    /// owns a range of `1 << 20` tags, far above the builtin ranks 0..=10.
    pub tag_base: u64,
    /// The density cost factor at a parameter (see [`FamilySpec::cost_factor`]).
    pub cost_factor: fn(u64) -> f64,
    /// Parses a concrete family name into a spec of this row, or of the builtin row when
    /// the name coincides with a builtin family (`None` when the name is not this row's).
    pub parse: fn(&'static FamilyEntry, &str) -> Option<FamilySpec>,
    /// The specs this row contributes to the default (`all`) catalog. Parameterized
    /// families are opt-in axes, so pre-existing sweeps keep their exact shape.
    pub defaults: fn() -> Vec<FamilySpec>,
    /// Generates a member at `(param, n, seed)`.
    pub generate: fn(u64, usize, u64) -> Graph,
}

/// Parameterized-family parameters must fit inside their `1 << 20`-wide tag range, or tags
/// of different family shapes could collide.
const PARAM_LIMIT: u64 = 1 << 20;

/// Parses `{prefix}{param}` with `param` in `min..PARAM_LIMIT` into a spec of `row`. A
/// parameterization that coincides with a builtin family resolves to that family (same
/// generator, same parameters ⇒ same spec), so the registry's name → generator map stays
/// single-valued: `regular-6`, `forest-3` and `pa-3` keep their historical names and tags,
/// and share results with old sweeps.
fn numbered(
    row: &'static FamilyEntry,
    name: &str,
    prefix: &str,
    min: u64,
    builtin: Option<(u64, Family)>,
) -> Option<FamilySpec> {
    let value: u64 = name.strip_prefix(prefix)?.parse().ok()?;
    if !(min..PARAM_LIMIT).contains(&value) {
        return None;
    }
    Some(match builtin {
        Some((at, family)) if at == value => family.into(),
        _ => FamilySpec::new(row, format!("{prefix}{value}"), value),
    })
}

fn builtin_cost_factor(rank: u64) -> f64 {
    match Family::ALL[rank as usize] {
        Family::DenseGnp => 4.0,
        Family::Regular6 => 1.5,
        Family::UnitDisk => 2.0,
        Family::Grid | Family::Path | Family::Cycle => 0.7,
        _ => 1.0,
    }
}

fn generate_regular(degree: u64, n: usize, seed: u64) -> Graph {
    // The configuration model needs d < n and an even number of stubs.
    let degree = degree as usize;
    let n = n.max(4).max(degree + 1);
    let n = if (n * degree) % 2 == 1 { n + 1 } else { n };
    random_regular(n, degree, seed)
}

/// The family registry: one row per family (or family pattern), in listing order.
pub static FAMILY_ENTRIES: &[FamilyEntry] = &[
    FamilyEntry {
        pattern: "<builtin>",
        summary: "the fixed benchmark catalog below (accepts aliases like sparse-gnp, tree)",
        tag_base: 0,
        cost_factor: builtin_cost_factor,
        parse: |_, name| Family::from_name(name).map(FamilySpec::from),
        defaults: || Family::ALL.map(FamilySpec::from).to_vec(),
        generate: |rank, n, seed| Family::ALL[rank as usize].generate(n, seed),
    },
    FamilyEntry {
        pattern: "gnp-d<d>",
        summary: "Erdős–Rényi G(n, d/n): expected average degree d (skip-sampled, O(n+m))",
        tag_base: 1 << 20,
        cost_factor: |d| (d as f64 / 8.0).clamp(0.25, 16.0),
        parse: |row, name| numbered(row, name, "gnp-d", 0, None),
        defaults: Vec::new,
        generate: |d, n, seed| gnp_avg_degree_fast(n.max(4), d as f64, seed),
    },
    FamilyEntry {
        pattern: "regular-<d>",
        summary: "random d-regular graphs via the configuration model (constant Δ = d)",
        tag_base: 2 << 20,
        cost_factor: |d| (d as f64 / 4.0).clamp(0.5, 16.0),
        parse: |row, name| numbered(row, name, "regular-", 1, Some((6, Family::Regular6))),
        defaults: Vec::new,
        generate: generate_regular,
    },
    FamilyEntry {
        pattern: "forest-<k>",
        summary: "union of k independent random forests (arboricity ≤ k, unbounded Δ)",
        tag_base: 3 << 20,
        cost_factor: |k| (k as f64 / 3.0).clamp(0.5, 8.0),
        parse: |row, name| numbered(row, name, "forest-", 1, Some((3, Family::Forest3))),
        defaults: Vec::new,
        generate: |k, n, seed| forest_union(n.max(4), k as usize, seed),
    },
    FamilyEntry {
        pattern: "pa-<m>",
        summary: "preferential attachment, m edges per arriving node (skewed degrees)",
        tag_base: 4 << 20,
        cost_factor: |m| (m as f64 / 3.0).clamp(0.5, 8.0),
        parse: |row, name| numbered(row, name, "pa-", 1, Some((3, Family::PowerLaw))),
        defaults: Vec::new,
        generate: |m, n, seed| preferential_attachment(n.max(4), m as usize, seed),
    },
    FamilyEntry {
        pattern: "unit-disk-r<milli>",
        summary: "random geometric graph with radius milli/1000 (bounded independence)",
        tag_base: 5 << 20,
        cost_factor: |_| 2.0,
        parse: |row, name| numbered(row, name, "unit-disk-r", 0, None),
        defaults: Vec::new,
        generate: |milli, n, seed| unit_disk(n.max(4), milli as f64 / 1000.0, seed),
    },
];

/// Resolves a family name (canonical, alias, or parameterized) through the registry.
pub fn parse_family(name: &str) -> Option<FamilySpec> {
    FAMILY_ENTRIES.iter().find_map(|row| (row.parse)(row, name))
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
            assert_eq!(FamilySpec::from(*fam).tag(), rank as u64, "{}", fam.name());
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
