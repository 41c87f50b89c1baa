//! The registry contracts, end to end: every registered name (workloads and families,
//! builtin and parameterized) parses back to itself, tags are pairwise distinct, and the
//! identities derived from them (instance keys, result-store keys) separate parameterized
//! families that the closed catalog used to collapse.

use local_engine::{
    default_workloads, parse_workload, render_listing, run_cell, workload, BinaryStore, Instance,
    ResultStore, Scenario, WorkloadSpec,
};
use local_graphs::{builtin_families, family, parse_family, FamilySpec};

fn sample_workloads() -> Vec<WorkloadSpec> {
    let mut pool = default_workloads();
    pool.extend(
        ["ruling-set-b3", "ruling-set-b7", "lambda2-coloring", "lambda8-coloring"].map(workload),
    );
    pool
}

fn sample_families() -> Vec<FamilySpec> {
    let mut pool = builtin_families();
    pool.extend(
        [
            "gnp-d2",
            "gnp-d4",
            "gnp-d16",
            "regular-4",
            "regular-8",
            "forest-2",
            "forest-5",
            "pa-2",
            "pa-4",
            "unit-disk-r50",
            "unit-disk-r200",
        ]
        .map(family),
    );
    pool
}

#[test]
fn every_registered_workload_name_parses_back_to_itself() {
    for spec in sample_workloads() {
        let back = parse_workload(spec.name())
            .unwrap_or_else(|| panic!("workload {} must parse", spec.name()));
        assert_eq!(back, spec);
        assert_eq!(back.name(), spec.name());
        assert_eq!(back.tag(), spec.tag());
        assert_eq!(back.cost_shape(), spec.cost_shape());
    }
}

#[test]
fn every_registered_family_name_parses_back_to_itself() {
    for spec in sample_families() {
        let back = parse_family(spec.name())
            .unwrap_or_else(|| panic!("family {} must parse", spec.name()));
        assert_eq!(back, spec);
        assert_eq!(back.name(), spec.name());
        assert_eq!(back.tag(), spec.tag());
    }
}

#[test]
fn workload_and_family_tags_are_pairwise_distinct() {
    let dedup_len = |mut tags: Vec<u64>| {
        let count = tags.len();
        tags.sort_unstable();
        tags.dedup();
        (tags.len(), count)
    };
    let (unique, total) = dedup_len(sample_workloads().iter().map(WorkloadSpec::tag).collect());
    assert_eq!(unique, total, "workload tags collide");
    let (unique, total) = dedup_len(sample_families().iter().map(FamilySpec::tag).collect());
    assert_eq!(unique, total, "family tags collide");
}

#[test]
fn parameterized_families_never_share_instance_streams_or_cache_keys() {
    let cell = |fam: &str| Scenario {
        problem: workload("mis"),
        family: family(fam),
        n: 128,
        replicate: 0,
    };
    let names = ["gnp-d8", "gnp-d16", "regular-4", "regular-8", "forest-2", "forest-4"];
    for (i, a) in names.iter().enumerate() {
        for b in &names[i + 1..] {
            assert_ne!(
                cell(a).instance_key(5).seed,
                cell(b).instance_key(5).seed,
                "{a} and {b} draw from one instance stream"
            );
        }
    }
    // One family's stored cell is served to that family only: every other family misses.
    let dir = std::env::temp_dir().join(format!("registry-keys-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = BinaryStore::with_code_version(&dir, "registry-test").expect("store opens");
    let instance = Instance::generate(cell(names[0]).instance_key(5));
    let stored = run_cell(&cell(names[0]), &instance, 5);
    store.store(&cell(names[0]), 5, &stored).expect("store appends");
    assert_eq!(store.load(&cell(names[0]), 5), Some(stored));
    for other in &names[1..] {
        assert!(store.load(&cell(other), 5).is_none(), "{other} shares {}'s key", names[0]);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn listing_is_nonempty_and_names_every_registry_entry() {
    let listing = render_listing();
    assert!(listing.contains("workloads"));
    assert!(listing.contains("families"));
    for spec in default_workloads() {
        // Parameterized patterns list their pattern, exact names list the name.
        let pattern_present = listing.contains(spec.name())
            || listing.contains(&spec.name().replace("-b2", "[-b<beta>]"));
        assert!(pattern_present, "listing is missing {}", spec.name());
    }
    for spec in builtin_families() {
        assert!(listing.contains(spec.name()), "listing is missing {}", spec.name());
    }
}
