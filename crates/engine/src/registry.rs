//! The workload registry: the single table mapping stable names to workload
//! constructors — and, re-exported from `local_graphs`, the family registry beside it.
//!
//! Everything that used to be spread over the `ProblemKind` enum goes through here: CLI
//! parsing ([`parse_workload`]), the `all` catalog ([`default_workloads`]), the
//! self-documenting `sweep --list` output ([`render_listing`]), and — via the specs the
//! registry hands out — names, seed tags, and cost shapes. Adding a workload is one
//! implementation module under [`crate::workloads`] plus one [`WorkloadEntry`] line in
//! [`WORKLOAD_ENTRIES`]; adding a graph family is the same two steps on
//! [`local_graphs::FAMILY_ENTRIES`].

use crate::workloads::{self, WorkloadSpec};
use local_graphs::FAMILY_ENTRIES;

/// One row of the workload registry: a name pattern, a one-line summary for CLI listings,
/// a parser from names to specs, and the representative specs `--problems all` expands to.
pub struct WorkloadEntry {
    /// The name or name pattern this entry parses (`mis`, `ruling-set-b<beta>`).
    pub pattern: &'static str,
    /// One-line description for `sweep --list`.
    pub summary: &'static str,
    /// Parses a concrete workload name into a spec (`None` when the name is not this
    /// entry's).
    pub parse: fn(&str) -> Option<WorkloadSpec>,
    /// The default parameterization this entry contributes to the `all` catalog.
    pub default: fn() -> WorkloadSpec,
}

fn default_mis() -> WorkloadSpec {
    WorkloadSpec::new(workloads::ColoringMis)
}

fn default_ps_mis() -> WorkloadSpec {
    WorkloadSpec::new(workloads::PsMis)
}

fn default_arboricity_mis() -> WorkloadSpec {
    WorkloadSpec::new(workloads::ArboricityMis)
}

fn default_cor1_mis() -> WorkloadSpec {
    WorkloadSpec::new(workloads::Corollary1Mis)
}

fn default_luby_mis() -> WorkloadSpec {
    WorkloadSpec::new(workloads::LubyMisWorkload)
}

fn default_matching() -> WorkloadSpec {
    WorkloadSpec::new(workloads::Matching)
}

fn default_log4_matching() -> WorkloadSpec {
    WorkloadSpec::new(workloads::Log4Matching)
}

fn default_ruling_set() -> WorkloadSpec {
    WorkloadSpec::new(workloads::RulingSet { beta: 2 })
}

fn default_coloring() -> WorkloadSpec {
    WorkloadSpec::new(workloads::LambdaColoring { lambda: 1 })
}

fn default_edge_coloring() -> WorkloadSpec {
    WorkloadSpec::new(workloads::EdgeColoring)
}

/// The workload registry, in report order (the historical `ProblemKind::ALL` order, which
/// `--problems all` and every pre-existing report preserve byte-for-byte).
pub static WORKLOAD_ENTRIES: &[WorkloadEntry] = &[
    WorkloadEntry {
        pattern: "mis",
        summary: "deterministic MIS via (Δ+1)-colouring + Theorem 1 (Table 1 row 1)",
        parse: workloads::parse_mis,
        default: default_mis,
    },
    WorkloadEntry {
        pattern: "ps-mis",
        summary: "deterministic MIS, synthetic 2^O(√log n) black box (row 2)",
        parse: workloads::parse_ps_mis,
        default: default_ps_mis,
    },
    WorkloadEntry {
        pattern: "arboricity-mis",
        summary: "deterministic MIS parameterised by arboricity (rows 3–4)",
        parse: workloads::parse_arboricity_mis,
        default: default_arboricity_mis,
    },
    WorkloadEntry {
        pattern: "cor1-mis",
        summary: "Corollary 1(i) fastest-of-the-breeds MIS combinator (Theorem 4)",
        parse: workloads::parse_cor1_mis,
        default: default_cor1_mis,
    },
    WorkloadEntry {
        pattern: "luby-mis",
        summary: "Luby's uniform randomized MIS, the already-uniform baseline (row 10)",
        parse: workloads::parse_luby_mis,
        default: default_luby_mis,
    },
    WorkloadEntry {
        pattern: "matching",
        summary: "deterministic maximal matching from edge colouring (row 8)",
        parse: workloads::parse_matching,
        default: default_matching,
    },
    WorkloadEntry {
        pattern: "log4-matching",
        summary: "maximal matching, synthetic O(log⁴ n) black box (row 8 time shape)",
        parse: workloads::parse_log4_matching,
        default: default_log4_matching,
    },
    WorkloadEntry {
        pattern: "ruling-set[-b<beta>]",
        summary: "Las Vegas (2, β)-ruling set of Theorem 2 (row 9; default β = 2)",
        parse: workloads::parse_ruling_set,
        default: default_ruling_set,
    },
    WorkloadEntry {
        pattern: "coloring | lambda<λ>-coloring",
        summary: "Theorem 5 uniform λ(Δ+1)-colouring (rows 1 and 5; default λ = 1)",
        parse: workloads::parse_lambda_coloring,
        default: default_coloring,
    },
    WorkloadEntry {
        pattern: "edge-coloring",
        summary: "O(Δ)-edge colouring via the line graph + Theorem 5 (rows 6–7)",
        parse: workloads::parse_edge_coloring,
        default: default_edge_coloring,
    },
];

/// Resolves a workload name through the registry.
pub fn parse_workload(name: &str) -> Option<WorkloadSpec> {
    WORKLOAD_ENTRIES.iter().find_map(|entry| (entry.parse)(name))
}

/// Resolves a comma list of workload names, or `all` for [`default_workloads`] — the
/// `--problems` value of the CLIs.
pub fn parse_workloads(list: &str) -> Result<Vec<WorkloadSpec>, String> {
    if list == "all" {
        return Ok(default_workloads());
    }
    list.split(',')
        .map(|name| {
            parse_workload(name.trim())
                .ok_or_else(|| format!("unknown problem: {name:?} (see sweep --list)"))
        })
        .collect()
}

/// The default workload catalog (`--problems all`): one representative per entry, in
/// report order.
pub fn default_workloads() -> Vec<WorkloadSpec> {
    WORKLOAD_ENTRIES.iter().map(|entry| (entry.default)()).collect()
}

/// Resolves a workload name, panicking on unknown names — the concise constructor for
/// presets and tests (`workload("mis")`).
///
/// # Panics
///
/// Panics when the name is not registered.
pub fn workload(name: &str) -> WorkloadSpec {
    parse_workload(name).unwrap_or_else(|| panic!("unknown workload: {name:?}"))
}

/// Renders the full registry — every workload and family with its pattern and one-line
/// description — as the `sweep --list` output.
pub fn render_listing() -> String {
    let mut out = String::from("workloads (--problems):\n");
    for entry in WORKLOAD_ENTRIES {
        out.push_str(&format!("  {:<28} {}\n", entry.pattern, entry.summary));
    }
    out.push_str("\nfamilies (--families):\n");
    for family in local_graphs::builtin_families() {
        out.push_str(&format!("  {:<28} {}\n", family.name(), family.describe()));
    }
    for entry in FAMILY_ENTRIES.iter().filter(|e| e.pattern != "<builtin>") {
        out.push_str(&format!("  {:<28} {}\n", entry.pattern, entry.summary));
    }
    out.push('\n');
    out.push_str(&crate::backend::render_backend_listing());
    out.push_str(
        "\n`--problems all` / `--families all` expand to the fixed catalogs above \
         (parameterized\nnames are opt-in axes). Any listed pattern is accepted wherever a \
         name is, including\nin serialized scenarios, result-store keys, and the worker protocol.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Non-default parameterizations exercised alongside the defaults in registry tests.
    fn parameterized_samples() -> Vec<WorkloadSpec> {
        ["ruling-set-b4", "lambda3-coloring"].iter().map(|name| workload(name)).collect()
    }

    #[test]
    fn every_registered_name_parses_back_to_itself() {
        let mut specs = default_workloads();
        specs.extend(parameterized_samples());
        for spec in specs {
            let reparsed =
                parse_workload(spec.name()).unwrap_or_else(|| panic!("{} must parse", spec.name()));
            assert_eq!(reparsed, spec, "{} did not round-trip", spec.name());
            assert_eq!(reparsed.name(), spec.name());
            assert_eq!(reparsed.tag(), spec.tag());
        }
    }

    #[test]
    fn default_catalog_preserves_the_historical_order_and_names() {
        let names: Vec<String> = default_workloads().iter().map(|w| w.name().to_string()).collect();
        assert_eq!(
            names,
            vec![
                "mis",
                "ps-mis",
                "arboricity-mis",
                "cor1-mis",
                "luby-mis",
                "matching",
                "log4-matching",
                "ruling-set-b2",
                "coloring",
                "edge-coloring"
            ]
        );
    }

    #[test]
    fn tags_are_distinct_across_the_registry() {
        let mut specs = default_workloads();
        specs.extend(parameterized_samples());
        let mut tags: Vec<u64> = specs.iter().map(WorkloadSpec::tag).collect();
        let count = tags.len();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), count, "workload tags must be pairwise distinct");
    }

    #[test]
    fn tags_reproduce_the_historical_problem_kind_integers() {
        // These exact integers are mixed into every pre-existing cell's execution seed;
        // changing one silently re-seeds (and re-executes) part of the old grid.
        let expected: &[(&str, u64)] = &[
            ("mis", 1),
            ("ps-mis", 2),
            ("arboricity-mis", 3),
            ("cor1-mis", 4),
            ("luby-mis", 5),
            ("matching", 6),
            ("log4-matching", 7),
            ("edge-coloring", 8),
            ("ruling-set-b2", 0x100 + 2),
            ("ruling-set-b5", 0x100 + 5),
            ("coloring", 0x1_0000 + 1),
            ("lambda4-coloring", 0x1_0000 + 4),
        ];
        for &(name, tag) in expected {
            assert_eq!(workload(name).tag(), tag, "{name}");
        }
    }

    #[test]
    fn shorthands_resolve_to_their_defaults() {
        assert_eq!(workload("ruling-set"), workload("ruling-set-b2"));
        assert_eq!(workload("ruling-set").name(), "ruling-set-b2");
        assert_eq!(workload("coloring").name(), "coloring");
        assert_eq!(workload("lambda1-coloring").name(), "coloring");
        assert!(parse_workload("nonsense").is_none());
        assert!(parse_workload("lambda-coloring").is_none());
    }

    #[test]
    fn listing_covers_every_entry_and_family_pattern() {
        let listing = render_listing();
        for entry in WORKLOAD_ENTRIES {
            assert!(listing.contains(entry.pattern), "listing is missing {}", entry.pattern);
        }
        for family in local_graphs::builtin_families() {
            assert!(listing.contains(family.name()), "listing is missing {}", family.name());
        }
        assert!(listing.contains("gnp-d<d>"));
        assert!(listing.contains("unit-disk-r<milli>"));
    }
}
