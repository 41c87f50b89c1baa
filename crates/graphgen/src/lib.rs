//! # local-graphs — graph generators and parameters for LOCAL-model experiments
//!
//! Companion crate to [`local_runtime`]: produces the input graphs and computes the global
//! parameters (`n`, `Δ`, arboricity/degeneracy, `m`) that the non-uniform algorithms of the
//! paper require as *guesses* and that the benchmark harness needs as ground truth.
//!
//! ```
//! use local_graphs::{Family, GraphParams};
//!
//! let (graph, params) = Family::Grid.generate_with_params(100, 42);
//! assert_eq!(params.max_degree, 4);
//! assert_eq!(params.degeneracy, 2);
//! assert!(graph.node_count() >= 81);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod families;
pub mod params;
pub mod random;
pub mod spec;
pub mod structured;

pub use families::{Family, InstanceKey};
pub use params::{
    arboricity_lower_bound, arboricity_upper_bound, degeneracy, degeneracy_ordering,
    degeneracy_view, diameter, log_star, GraphParams, Parameter,
};
pub use random::{
    forest_union, gnp, gnp_avg_degree, gnp_avg_degree_fast, gnp_skip, preferential_attachment,
    random_regular, random_tree, scramble_ids, unit_disk,
};
pub use spec::{
    builtin_families, family, parse_families, parse_family, FamilyEntry, FamilySpec, GraphFamily,
    FAMILY_ENTRIES,
};
pub use structured::{
    barbell, binary_tree, caterpillar, complete, cycle, edgeless, grid, hypercube, path, star,
    triangulated_grid,
};
