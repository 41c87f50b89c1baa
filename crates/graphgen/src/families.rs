//! Named benchmark families.
//!
//! The benchmark harness sweeps over graph *families* rather than individual graphs: each
//! family fixes how Δ and the arboricity scale with `n`, matching the regimes the paper's
//! Table 1 distinguishes (general graphs, bounded degree, bounded arboricity,
//! bounded independence).

use crate::params::GraphParams;
use crate::random::{
    forest_union, gnp_avg_degree, preferential_attachment, random_regular, unit_disk,
};
use crate::spec::FamilySpec;
use crate::structured::{binary_tree, cycle, grid, path, triangulated_grid};
use local_runtime::Graph;

/// The name and one-line summary of each builtin family, indexed by the variant's rank in
/// [`Family::ALL`].
const NAMES_AND_SUMMARIES: [(&str, &str); 11] = [
    ("path", "path graphs (Δ = 2, arboricity 1)"),
    ("cycle", "cycles (Δ = 2, arboricity ≤ 2)"),
    ("binary-tree", "complete binary trees (Δ = 3, arboricity 1)"),
    ("grid", "square grids (Δ = 4, arboricity 2)"),
    ("triangulated-grid", "triangulated grids (Δ ≤ 8, planar, arboricity ≤ 3)"),
    ("gnp-avg8", "Erdős–Rényi G(n, p) with expected average degree 8"),
    ("gnp-sqrt-n", "Erdős–Rényi G(n, p) with expected average degree √n (large Δ)"),
    ("regular-6", "random 6-regular graphs (constant Δ)"),
    ("forest-union-3", "unions of 3 random forests (arboricity ≤ 3, unbounded Δ)"),
    ("unit-disk", "unit-disk graphs with radius chosen for expected degree ≈ 10"),
    ("power-law", "preferential attachment with m = 3 (skewed degrees, small arboricity)"),
];

/// A named graph family with a scaling rule.
///
/// `Hash`/`Ord` are derived so a family can be sorted into stable report order. A variant's
/// discriminant is its rank in [`Family::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    /// Path graphs (Δ = 2, a = 1).
    Path,
    /// Cycles (Δ = 2, a ≤ 2).
    Cycle,
    /// Complete binary trees (Δ = 3, a = 1).
    BinaryTree,
    /// Square grids (Δ = 4, a = 2).
    Grid,
    /// Triangulated grids (Δ ≤ 8, planar, a ≤ 3).
    TriangulatedGrid,
    /// Erdős–Rényi graphs with expected average degree 8.
    SparseGnp,
    /// Erdős–Rényi graphs with expected average degree `sqrt(n)` (dense-ish, large Δ).
    DenseGnp,
    /// Random 6-regular graphs (constant Δ).
    Regular6,
    /// Unions of 3 random forests (arboricity ≤ 3, unbounded Δ).
    Forest3,
    /// Unit-disk graphs with radius chosen for expected degree ~10 (bounded independence).
    UnitDisk,
    /// Preferential attachment with m = 3 (skewed degrees, small arboricity).
    PowerLaw,
}

impl Family {
    /// All families, in a stable order.
    pub const ALL: [Family; 11] = [
        Family::Path,
        Family::Cycle,
        Family::BinaryTree,
        Family::Grid,
        Family::TriangulatedGrid,
        Family::SparseGnp,
        Family::DenseGnp,
        Family::Regular6,
        Family::Forest3,
        Family::UnitDisk,
        Family::PowerLaw,
    ];

    /// Human-readable name used in benchmark reports.
    pub fn name(&self) -> &'static str {
        NAMES_AND_SUMMARIES[*self as usize].0
    }

    /// One-line description for CLI listings.
    pub fn summary(&self) -> &'static str {
        NAMES_AND_SUMMARIES[*self as usize].1
    }

    /// Generates a member of the family with (approximately) `n` nodes.
    pub fn generate(&self, n: usize, seed: u64) -> Graph {
        let n = n.max(4);
        match self {
            Family::Path => path(n),
            Family::Cycle => cycle(n),
            Family::BinaryTree => binary_tree(n),
            Family::Grid => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                grid(side, side)
            }
            Family::TriangulatedGrid => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                triangulated_grid(side, side)
            }
            Family::SparseGnp => gnp_avg_degree(n, 8.0, seed),
            Family::DenseGnp => gnp_avg_degree(n, (n as f64).sqrt(), seed),
            Family::Regular6 => {
                let n = if n % 2 == 1 { n + 1 } else { n };
                random_regular(n, 6, seed)
            }
            Family::Forest3 => forest_union(n, 3, seed),
            Family::UnitDisk => {
                // Expected degree ≈ n·π·r² = 10  ⇒  r = sqrt(10 / (π n)).
                let r = (10.0 / (std::f64::consts::PI * n as f64)).sqrt();
                unit_disk(n, r, seed)
            }
            Family::PowerLaw => preferential_attachment(n, 3, seed),
        }
    }

    /// Generates a member together with its computed parameters.
    pub fn generate_with_params(&self, n: usize, seed: u64) -> (Graph, GraphParams) {
        let g = self.generate(n, seed);
        let p = GraphParams::of(&g);
        (g, p)
    }

    /// Parses a family from its [`Family::name`] or a common alias (as accepted by the
    /// `sweep` CLI): `sparse-gnp`, `dense-gnp`, `gnp`, `tree`, `forest`, `regular`,
    /// `power-law`/`pa`.
    pub fn from_name(name: &str) -> Option<Family> {
        let canonical = Family::ALL.iter().find(|f| f.name() == name).copied();
        canonical.or(match name {
            "sparse-gnp" | "gnp" => Some(Family::SparseGnp),
            "dense-gnp" => Some(Family::DenseGnp),
            "tree" => Some(Family::BinaryTree),
            "forest" => Some(Family::Forest3),
            "regular" => Some(Family::Regular6),
            "pa" => Some(Family::PowerLaw),
            _ => None,
        })
    }
}

/// The identity of one generated graph instance: `(family, n, seed)` fully determines the
/// graph ([`FamilySpec::generate`] is deterministic), so batch runners can
/// use this key to generate each instance once and share it across every algorithm that
/// runs on it. The family is an open [`FamilySpec`], so parameterized families key
/// instance caches exactly like the builtin catalog does.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceKey {
    /// The graph family.
    pub family: FamilySpec,
    /// Requested number of nodes (the generated graph may deviate slightly; families round
    /// the size to fit their structure).
    pub n: usize,
    /// Generation seed.
    pub seed: u64,
}

impl InstanceKey {
    /// Creates a key.
    pub fn new(family: impl Into<FamilySpec>, n: usize, seed: u64) -> Self {
        InstanceKey { family: family.into(), n, seed }
    }

    /// Generates the graph this key names, together with its global parameters.
    pub fn realize(&self) -> (Graph, GraphParams) {
        self.family.generate_with_params(self.n, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_generates_requested_size_roughly() {
        for fam in Family::ALL {
            let g = fam.generate(64, 1);
            assert!(
                g.node_count() >= 32 && g.node_count() <= 130,
                "{} produced {} nodes",
                fam.name(),
                g.node_count()
            );
        }
    }

    #[test]
    fn family_names_are_unique() {
        let mut names: Vec<_> = Family::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Family::ALL.len());
    }

    #[test]
    fn bounded_degree_families_have_bounded_degree() {
        assert!(Family::Path.generate(100, 0).max_degree() <= 2);
        assert!(Family::Cycle.generate(100, 0).max_degree() <= 2);
        assert!(Family::BinaryTree.generate(100, 0).max_degree() <= 3);
        assert!(Family::Grid.generate(100, 0).max_degree() <= 4);
        assert!(Family::Regular6.generate(100, 0).max_degree() <= 6);
    }

    #[test]
    fn forest_family_has_small_degeneracy() {
        let (_, p) = Family::Forest3.generate_with_params(200, 7);
        assert!(p.degeneracy <= 5, "degeneracy {} too large for forest union", p.degeneracy);
    }

    #[test]
    fn dense_family_has_large_degree() {
        let (_, p) = Family::DenseGnp.generate_with_params(256, 7);
        assert!(p.max_degree >= 10);
    }

    #[test]
    fn generation_is_reproducible() {
        for fam in Family::ALL {
            let a = fam.generate(50, 33);
            let b = fam.generate(50, 33);
            assert_eq!(a, b, "{} not reproducible", fam.name());
        }
    }

    #[test]
    fn from_name_accepts_canonical_names_and_aliases() {
        for fam in Family::ALL {
            assert_eq!(Family::from_name(fam.name()), Some(fam), "{}", fam.name());
        }
        assert_eq!(Family::from_name("sparse-gnp"), Some(Family::SparseGnp));
        assert_eq!(Family::from_name("dense-gnp"), Some(Family::DenseGnp));
        assert_eq!(Family::from_name("tree"), Some(Family::BinaryTree));
        assert_eq!(Family::from_name("forest"), Some(Family::Forest3));
        assert_eq!(Family::from_name("no-such-family"), None);
    }

    #[test]
    fn instance_keys_realize_reproducibly_and_order_stably() {
        let key = InstanceKey::new(Family::Grid, 81, 5);
        let (g1, p1) = key.realize();
        let (g2, p2) = key.realize();
        assert_eq!(g1, g2);
        assert_eq!(p1.max_degree, p2.max_degree);
        // Keys are usable in ordered and hashed containers.
        let mut set = std::collections::BTreeSet::new();
        set.insert(key);
        set.insert(InstanceKey::new(Family::Grid, 81, 5));
        set.insert(InstanceKey::new(Family::Grid, 81, 6));
        assert_eq!(set.len(), 2);
    }
}
