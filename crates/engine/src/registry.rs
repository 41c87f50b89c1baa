//! The workload registry: one table row per workload, holding every fact about it —
//! and, re-exported from `local_graphs`, the family registry beside it.
//!
//! CLI parsing ([`parse_workload`]), the `all` catalog ([`default_workloads`]), the
//! self-documenting `sweep --list` output ([`render_listing`]), seed tags, cost shapes and
//! execution all read [`WORKLOAD_ENTRIES`]. Adding a workload is one `run` function under
//! [`crate::workloads`] plus one [`WorkloadEntry`] row; adding a graph family is one row of
//! [`local_graphs::FAMILY_ENTRIES`].

use crate::scheduler::Instance;
use crate::workloads::{self, MeasuredRun, WorkloadSpec};
use local_runtime::Session;

/// One row of the workload registry: a workload, or a family of workloads indexed by one
/// parameter (`ruling-set-b<beta>`).
pub struct WorkloadEntry {
    /// The name or name pattern this row parses (`mis`, `ruling-set[-b<beta>]`).
    pub pattern: &'static str,
    /// One-line description for `sweep --list`.
    pub summary: &'static str,
    /// The name this row contributes to the `all` catalog.
    pub default: &'static str,
    /// The seed tag at parameter 0: a spec's tag is `tag_base + param`. Tags are mixed into
    /// every cell's execution seed, so they must never change, and the parameter bounds
    /// keep the tag ranges of different rows apart.
    pub tag_base: u64,
    /// The static power-law cost shape `(weight, exponent)` of one cell (the
    /// [`crate::cost::CostModel`] prior). Only ever affects scheduling *order*.
    pub cost_shape: (f64, f64),
    /// Parses a concrete name into its canonical name and parameter (`None` when the name
    /// is not this row's).
    pub parse: fn(&WorkloadEntry, &str) -> Option<(String, u64)>,
    /// Executes one cell: `(param, instance, execution seed, session)`.
    pub run: fn(u64, &Instance, u64, &mut Session) -> MeasuredRun,
}

/// The parser of a row without a parameter: its pattern is its one name.
fn exact(row: &WorkloadEntry, name: &str) -> Option<(String, u64)> {
    (name == row.pattern).then(|| (name.to_string(), 0))
}

/// Parses a workload parameter, accepting `1..limit`: 0 names a degenerate problem, and
/// the limit keeps `tag_base + param` inside the row's own tag range.
fn param(text: &str, limit: u64) -> Option<u64> {
    text.parse().ok().filter(|value| (1..limit).contains(value))
}

/// `ruling-set-b<beta>`, with `ruling-set` as the β = 2 shorthand. β stays below `0xFF00`,
/// so the tag `0x100 + β` stays below the colourings' `0x1_0000`.
fn parse_ruling_set(_: &WorkloadEntry, name: &str) -> Option<(String, u64)> {
    let beta = match name {
        "ruling-set" => 2,
        _ => param(name.strip_prefix("ruling-set-b")?, 0xFF00)?,
    };
    Some((format!("ruling-set-b{beta}"), beta))
}

/// `lambda<λ>-coloring`, spelled `coloring` at λ = 1. λ stays below `1 << 20`, the bound
/// every family parameter has too.
fn parse_lambda_coloring(_: &WorkloadEntry, name: &str) -> Option<(String, u64)> {
    let lambda = match name {
        "coloring" => 1,
        _ => param(name.strip_prefix("lambda")?.strip_suffix("-coloring")?, 1 << 20)?,
    };
    let name =
        if lambda == 1 { "coloring".to_string() } else { format!("lambda{lambda}-coloring") };
    Some((name, lambda))
}

/// The workload registry, in report order (`--problems all` and every pre-existing report
/// keep this order byte for byte). Tags 1–8 and the two tag ranges are the integers every
/// stored cell's execution seed was drawn with.
pub static WORKLOAD_ENTRIES: &[WorkloadEntry] = &[
    WorkloadEntry {
        pattern: "mis",
        summary: "deterministic MIS via (Δ+1)-colouring + Theorem 1 (Table 1 row 1)",
        default: "mis",
        tag_base: 1,
        cost_shape: (2.0, 1.3),
        parse: exact,
        run: workloads::mis,
    },
    WorkloadEntry {
        pattern: "ps-mis",
        summary: "deterministic MIS, synthetic 2^O(√log n) black box (row 2)",
        default: "ps-mis",
        tag_base: 2,
        // The synthetic black box charges rounds without simulating messages.
        cost_shape: (0.5, 1.15),
        parse: exact,
        run: workloads::ps_mis,
    },
    WorkloadEntry {
        pattern: "arboricity-mis",
        summary: "deterministic MIS parameterised by arboricity (rows 3–4)",
        default: "arboricity-mis",
        tag_base: 3,
        cost_shape: (2.0, 1.3),
        parse: exact,
        run: workloads::arboricity_mis,
    },
    WorkloadEntry {
        pattern: "cor1-mis",
        summary: "Corollary 1(i) fastest-of-the-breeds MIS combinator (Theorem 4)",
        default: "cor1-mis",
        tag_base: 4,
        cost_shape: (2.5, 1.3),
        parse: exact,
        run: workloads::cor1_mis,
    },
    WorkloadEntry {
        pattern: "luby-mis",
        summary: "Luby's uniform randomized MIS, the already-uniform baseline (row 10)",
        default: "luby-mis",
        tag_base: 5,
        // Already uniform: executes once, no alternation cascade.
        cost_shape: (0.4, 1.1),
        parse: exact,
        run: workloads::luby_mis,
    },
    WorkloadEntry {
        pattern: "matching",
        summary: "deterministic maximal matching from edge colouring (row 8)",
        default: "matching",
        tag_base: 6,
        cost_shape: (2.5, 1.3),
        parse: exact,
        run: workloads::matching,
    },
    WorkloadEntry {
        pattern: "log4-matching",
        summary: "maximal matching, synthetic O(log⁴ n) black box (row 8 time shape)",
        default: "log4-matching",
        tag_base: 7,
        // The synthetic black box charges rounds without simulating messages.
        cost_shape: (0.5, 1.15),
        parse: exact,
        run: workloads::log4_matching,
    },
    WorkloadEntry {
        pattern: "ruling-set[-b<beta>]",
        summary: "Las Vegas (2, β)-ruling set of Theorem 2 (row 9; default β = 2)",
        default: "ruling-set",
        tag_base: 0x100,
        cost_shape: (1.5, 1.25),
        parse: parse_ruling_set,
        run: workloads::ruling_set,
    },
    WorkloadEntry {
        pattern: "coloring | lambda<λ>-coloring",
        summary: "Theorem 5 uniform λ(Δ+1)-colouring (rows 1 and 5; default λ = 1)",
        default: "coloring",
        tag_base: 0x1_0000,
        // Theorem 5 runs a full per-layer SLC alternation.
        cost_shape: (4.0, 1.3),
        parse: parse_lambda_coloring,
        run: workloads::lambda_coloring,
    },
    WorkloadEntry {
        pattern: "edge-coloring",
        summary: "O(Δ)-edge colouring via the line graph + Theorem 5 (rows 6–7)",
        default: "edge-coloring",
        tag_base: 8,
        // The line graph squares the edge count before Theorem 5 even starts.
        cost_shape: (8.0, 1.45),
        parse: exact,
        run: workloads::edge_coloring,
    },
];

/// The spec `row` parses `name` into, if any.
fn spec_of(row: &'static WorkloadEntry, name: &str) -> Option<WorkloadSpec> {
    let (name, param) = (row.parse)(row, name)?;
    Some(WorkloadSpec::new(row, name, param))
}

/// Resolves a workload name through the registry.
pub fn parse_workload(name: &str) -> Option<WorkloadSpec> {
    WORKLOAD_ENTRIES.iter().find_map(|row| spec_of(row, name))
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
    WORKLOAD_ENTRIES
        .iter()
        .map(|row| spec_of(row, row.default).expect("a row parses its default"))
        .collect()
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
    for family in local_graphs::Family::ALL {
        out.push_str(&format!("  {:<28} {}\n", family.name(), family.summary()));
    }
    for entry in local_graphs::FAMILY_ENTRIES.iter().filter(|e| e.pattern != "<builtin>") {
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
    fn parameters_are_bounded_at_parse() {
        // β = 0 and λ = 0 name degenerate problems; β ≥ 0xFF00 would push `0x100 + β` into
        // the colourings' tags (b65281 is `coloring`'s 0x1_0001) or overflow it, and
        // λ ≥ 2^20 leaves the range the family side allows a parameter.
        for name in [
            "ruling-set-b0",
            "ruling-set-b65280",
            "ruling-set-b65281",
            "ruling-set-b18446744073709551615",
            "lambda0-coloring",
            "lambda1048576-coloring",
            "lambda18446744073709551615-coloring",
        ] {
            assert!(parse_workload(name).is_none(), "{name} must be rejected");
        }
        assert_eq!(workload("ruling-set-b1").tag(), 0x101);
        assert_eq!(workload("ruling-set-b65279").tag(), 0xFFFF);
        assert_eq!(workload("lambda1048575-coloring").tag(), 0x1_0000 + (1 << 20) - 1);
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
