//! The incremental sweep cache: re-running a grid executes only the cells whose inputs
//! changed.
//!
//! Every cell's [`CellResult`] is persisted as one JSON file keyed by the cell's *complete
//! identity*: the graph instance it runs on ([`local_graphs::InstanceKey`] — family, size,
//! derived generation seed), the scenario coordinates (problem, requested size, replicate),
//! the derived execution seed, and a **code-version tag**. Per-cell seeds are pure functions
//! of the cell identity (see [`crate::scenario`]), so a cached result is byte-identical to
//! what re-executing the cell would produce — re-sweeps simply skip to the report.
//!
//! Invalidation is by key, never by mutation:
//!
//! * changing the grid's `base_seed` changes every instance/cell seed → all keys change;
//! * changing a cell's axes (problem, family, size, replicate) changes its key only;
//! * bumping the code version (any change to algorithms, runtime, or report semantics —
//!   [`CODE_VERSION`] embeds the crate version plus a manually-bumped revision tag) retires
//!   the whole cache at once. Stale files are left on disk and simply never read again;
//!   delete the directory to reclaim space.
//!
//! The store is deliberately plain — one file per cell, written to a temp file and
//! renamed into place, no index — so concurrent workers can write distinct cells without
//! coordination and a writer killed mid-write can never leave a torn file behind (a torn
//! file would otherwise parse as a miss *forever*, silently re-executing its cell on every
//! sweep). At million-cell scale the one-file-per-cell layout hits filesystem-metadata
//! limits; `crate::store::BinaryStore` is the segmented replacement behind the same
//! [`crate::store::ResultStore`] trait.

use crate::report::CellResult;
use crate::scenario::Scenario;
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};

/// The cache-retiring code-version tag: the crate version plus a revision counter bumped
/// whenever an algorithm/report change makes old results non-reproducible.
///
/// The same tag travels in every [`crate::backend::CellShard`] a daemon is sent — a
/// `sweep --serve` daemon built from different code refuses the shard outright, for the
/// same reason a version bump retires this cache: results across a version boundary are
/// not comparable.
pub const CODE_VERSION: &str = concat!("local-engine-", env!("CARGO_PKG_VERSION"), "+r2");

/// A directory-backed store of [`CellResult`]s keyed by cell identity and code version.
#[derive(Debug, Clone)]
pub struct SweepCache {
    dir: PathBuf,
    code_version: String,
}

/// FNV-1a over a byte string; stable across platforms and runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl SweepCache {
    /// Opens (creating on first store) a cache rooted at `dir`, tagged with the crate's
    /// [`CODE_VERSION`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SweepCache::with_code_version(dir, CODE_VERSION)
    }

    /// Like [`SweepCache::new`] with an explicit code-version tag (tests use this to prove
    /// a version bump misses; deployments can thread a git revision through it).
    pub fn with_code_version(dir: impl Into<PathBuf>, code_version: impl Into<String>) -> Self {
        SweepCache { dir: dir.into(), code_version: code_version.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The key of one cell under one base seed: a hash of every input that determines the
    /// cell's result.
    pub fn key(&self, cell: &Scenario, base_seed: u64) -> u64 {
        let instance = cell.instance_key(base_seed);
        let identity = format!(
            "{}|{}|{}|{}|{}|{}|{}|{}",
            self.code_version,
            cell.problem.name(),
            instance.family.name(),
            instance.n,
            instance.seed,
            cell.n,
            cell.replicate,
            cell.cell_seed(base_seed),
        );
        fnv1a(identity.as_bytes())
    }

    fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("cell-{key:016x}.json"))
    }

    /// Loads the cached result of `cell`, if present and readable under the current code
    /// version. Any parse failure (truncated write, foreign file) is treated as a miss, and
    /// the stored cell label is checked against the requested cell so a 64-bit key
    /// collision can never serve another cell's result.
    pub fn load(&self, cell: &Scenario, base_seed: u64) -> Option<CellResult> {
        let text = std::fs::read_to_string(self.path(self.key(cell, base_seed))).ok()?;
        let value = serde_json::from_str(&text).ok()?;
        if value.get("code_version").and_then(Value::as_str) != Some(&self.code_version) {
            return None;
        }
        if value.get("label").and_then(Value::as_str) != Some(&cell.label()) {
            return None;
        }
        CellResult::from_value(value.get("cell")?).ok()
    }

    /// Persists `result` as the cached outcome of `cell`. Creates the cache directory on
    /// first use. Errors are returned (the scheduler downgrades them to warnings — the cache
    /// is an accelerator, not a correctness dependency).
    ///
    /// The write is atomic: the entry lands in a process-unique temp file first and is
    /// renamed onto its final name, so a writer killed mid-write leaves no torn file (which
    /// would parse as a permanent miss) and concurrent writers of the same cell can only
    /// race whole, identical entries.
    pub fn store(
        &self,
        cell: &Scenario,
        base_seed: u64,
        result: &CellResult,
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let envelope = Value::Map(vec![
            ("code_version".into(), Value::Str(self.code_version.clone())),
            ("label".into(), Value::Str(cell.label())),
            ("cell".into(), result.to_value()),
        ]);
        let text = serde_json::to_string_pretty(&envelope)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let path = self.path(self.key(cell, base_seed));
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, &path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::workload;
    use local_graphs::Family;

    fn sample_cell() -> Scenario {
        Scenario { problem: workload("mis"), family: Family::SparseGnp.into(), n: 48, replicate: 0 }
    }

    fn sample_result() -> CellResult {
        CellResult {
            problem: "mis".into(),
            family: "sparse-gnp".into(),
            requested_n: 48,
            n: 48,
            edges: 90,
            replicate: 0,
            seed: 7,
            uniform_rounds: 100,
            uniform_messages: 1000,
            nonuniform_rounds: 50,
            nonuniform_messages: 600,
            overhead_ratio: 2.0,
            subiterations: 3,
            solved: true,
            valid: true,
            wall_micros: 1234,
            attempt_micros: 1000,
            prune_micros: 100,
            instance_micros: 10,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sweep-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let cache = SweepCache::new(&dir);
        let cell = sample_cell();
        assert!(cache.load(&cell, 1).is_none(), "fresh cache must miss");
        cache.store(&cell, 1, &sample_result()).unwrap();
        let loaded = cache.load(&cell, 1).expect("stored cell must hit");
        assert_eq!(loaded, sample_result());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_cells_seeds_and_versions() {
        let cache = SweepCache::new("unused");
        let a = sample_cell();
        let b = Scenario { replicate: 1, ..a.clone() };
        let c = Scenario { problem: workload("luby-mis"), ..a.clone() };
        assert_ne!(cache.key(&a, 1), cache.key(&b, 1), "replicates must not collide");
        assert_ne!(cache.key(&a, 1), cache.key(&c, 1), "problems must not collide");
        assert_ne!(cache.key(&a, 1), cache.key(&a, 2), "base seeds must not collide");
        let bumped = SweepCache::with_code_version("unused", "vNEXT");
        assert_ne!(cache.key(&a, 1), bumped.key(&a, 1), "code versions must not collide");
    }

    #[test]
    fn code_version_bump_invalidates_stored_cells() {
        let dir = temp_dir("bump");
        let cache = SweepCache::with_code_version(&dir, "v1");
        let cell = sample_cell();
        cache.store(&cell, 3, &sample_result()).unwrap();
        assert!(cache.load(&cell, 3).is_some());
        let bumped = SweepCache::with_code_version(&dir, "v2");
        assert!(bumped.load(&cell, 3).is_none(), "version bump must miss");
        // The old version keeps hitting (side-by-side caches in one directory).
        assert!(cache.load(&cell, 3).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_collisions_cannot_serve_another_cells_result() {
        // Force a "collision" by copying one cell's file onto another cell's key: the label
        // check must turn the poisoned entry into a miss instead of serving wrong data.
        let dir = temp_dir("collision");
        let cache = SweepCache::new(&dir);
        let a = sample_cell();
        let b = Scenario { replicate: 1, ..a.clone() };
        cache.store(&a, 1, &sample_result()).unwrap();
        std::fs::copy(cache.path(cache.key(&a, 1)), cache.path(cache.key(&b, 1))).unwrap();
        assert!(cache.load(&b, 1).is_none(), "foreign label must miss");
        assert!(cache.load(&a, 1).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_degrade_to_misses() {
        let dir = temp_dir("corrupt");
        let cache = SweepCache::new(&dir);
        let cell = sample_cell();
        cache.store(&cell, 1, &sample_result()).unwrap();
        let path = cache.path(cache.key(&cell, 1));
        std::fs::write(&path, "{ not json").unwrap();
        assert!(cache.load(&cell, 1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entries_miss_and_a_restore_repairs_them() {
        // A file torn at any prefix (the failure mode the temp+rename write prevents) must
        // read as a miss, and storing again must fully repair the entry.
        let dir = temp_dir("truncated");
        let cache = SweepCache::new(&dir);
        let cell = sample_cell();
        cache.store(&cell, 1, &sample_result()).unwrap();
        let path = cache.path(cache.key(&cell, 1));
        let full = std::fs::read_to_string(&path).unwrap();
        for cut in [0, 1, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(cache.load(&cell, 1).is_none(), "cut at {cut} must miss");
            cache.store(&cell, 1, &sample_result()).unwrap();
            assert_eq!(cache.load(&cell, 1), Some(sample_result()), "re-store must repair");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stores_leave_no_temp_files_behind() {
        let dir = temp_dir("no-temps");
        let cache = SweepCache::new(&dir);
        let cell = sample_cell();
        cache.store(&cell, 1, &sample_result()).unwrap();
        cache.store(&cell, 1, &sample_result()).unwrap();
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| !name.ends_with(".json"))
            .collect();
        assert!(leftovers.is_empty(), "non-JSON leftovers: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
