//! Result persistence: the [`ResultStore`] trait sweeps read and write through, its one
//! implementation [`BinaryStore`] (the segmented binary store built on `local-store`), and
//! the columnar report path that summarizes a stored grid without materializing a single
//! [`CellResult`] row.
//!
//! A record is keyed by the cell's complete identity, the string
//! `code_version | problem | family | instance n | instance seed | cell n | replicate |
//! cell seed` built by `BinaryStore::key`. Per-cell seeds are pure functions of that
//! identity (see [`crate::scenario`]), so a stored result is byte-identical to what
//! re-executing the cell would produce. The whole string is the record key, so reads
//! compare full identities and a hash collision can never serve a foreign cell.
//! Invalidation is by key, never by mutation: a new `base_seed` changes every key, a
//! changed axis changes its cells' keys only, and a [`CODE_VERSION`] bump retires every
//! stored cell at once (old records stay on disk and are never read again).
//!
//! Values are a fixed little-endian encoding of the result (strings length-prefixed up
//! front, then fifteen `u64` columns at fixed offsets, then a flags byte), which is what
//! lets [`decode_cell_columns`] pull the summary columns straight off their offsets.

use crate::report::{CellColumns, CellResult, Report, SummaryAccumulator};
use crate::scenario::{Scenario, ScenarioGrid};
use local_obs as obs;
use local_store::{SegmentStore, StoreConfig, StoreStats};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The code-version tag in every record key: the crate version plus a revision counter
/// bumped whenever an algorithm/report change makes old results non-reproducible.
///
/// The same tag travels in every [`crate::backend::CellShard`] a daemon is sent — a
/// `sweep --serve` daemon built from different code refuses the shard outright, for the
/// same reason a version bump retires stored results: results across a version boundary
/// are not comparable.
pub const CODE_VERSION: &str = concat!("local-engine-", env!("CARGO_PKG_VERSION"), "+r2");

/// Where sweeps read and write per-cell results.
///
/// Implementations are shared across scheduler worker threads behind an
/// `Arc<dyn ResultStore>`, hence `Send + Sync`; `Debug` keeps the configs that embed one
/// derivable.
pub trait ResultStore: Send + Sync + std::fmt::Debug {
    /// Loads the stored result of `cell`, if present under the current code version.
    fn load(&self, cell: &Scenario, base_seed: u64) -> Option<CellResult>;

    /// Loads only the summary columns of `cell` — the columnar fast path. The default
    /// delegates to [`ResultStore::load`]; the binary store overrides it to decode fixed
    /// offsets without building a [`CellResult`].
    fn load_columns(&self, cell: &Scenario, base_seed: u64) -> Option<CellColumns> {
        self.load(cell, base_seed).map(|result| CellColumns::from(&result))
    }

    /// Persists `result` as the outcome of `cell`.
    fn store(&self, cell: &Scenario, base_seed: u64, result: &CellResult) -> std::io::Result<()>;

    /// A short human-readable description for summary lines (`store:DIR`).
    fn describe(&self) -> String;
}

// ------------------------------------------------------------------ binary result codec ----

/// Version byte opening every encoded [`CellResult`] value. Bump on any layout change —
/// old records then decode as `None` (a miss), exactly like a code-version bump.
const RESULT_WIRE_VERSION: u8 = 1;

/// Number of fixed `u64` columns following the two strings.
const RESULT_COLUMNS: usize = 15;

/// Encodes a [`CellResult`] into the store's value bytes: version byte, two
/// `u16`-length-prefixed strings, `RESULT_COLUMNS` little-endian `u64`s at fixed
/// offsets (floats as IEEE-754 bits), one flags byte.
pub fn encode_cell_result(result: &CellResult) -> Vec<u8> {
    let problem = result.problem.as_bytes();
    let family = result.family.as_bytes();
    assert!(problem.len() <= u16::MAX as usize && family.len() <= u16::MAX as usize);
    let mut out =
        Vec::with_capacity(1 + 2 + problem.len() + 2 + family.len() + 8 * RESULT_COLUMNS + 1);
    out.push(RESULT_WIRE_VERSION);
    out.extend_from_slice(&(problem.len() as u16).to_le_bytes());
    out.extend_from_slice(problem);
    out.extend_from_slice(&(family.len() as u16).to_le_bytes());
    out.extend_from_slice(family);
    for column in [
        result.requested_n as u64,
        result.n as u64,
        result.edges as u64,
        result.replicate,
        result.seed,
        result.uniform_rounds,
        result.uniform_messages,
        result.nonuniform_rounds,
        result.nonuniform_messages,
        result.overhead_ratio.to_bits(),
        result.subiterations,
        result.wall_micros,
        result.attempt_micros,
        result.prune_micros,
        result.instance_micros,
    ] {
        out.extend_from_slice(&column.to_le_bytes());
    }
    out.push(u8::from(result.solved) | (u8::from(result.valid) << 1));
    out
}

fn read_u16(bytes: &[u8], at: usize) -> Option<u16> {
    Some(u16::from_le_bytes([*bytes.get(at)?, *bytes.get(at + 1)?]))
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let chunk: &[u8; 8] = bytes.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(*chunk))
}

/// Byte offset of column `index` and the flags byte, given the two string lengths.
fn column_base(problem_len: usize, family_len: usize) -> usize {
    1 + 2 + problem_len + 2 + family_len
}

/// Decodes value bytes back into a full [`CellResult`]. Any structural mismatch — wrong
/// version, short buffer, trailing bytes, invalid UTF-8 — returns `None` (a miss).
pub fn decode_cell_result(bytes: &[u8]) -> Option<CellResult> {
    if *bytes.first()? != RESULT_WIRE_VERSION {
        return None;
    }
    let problem_len = read_u16(bytes, 1)? as usize;
    let problem = String::from_utf8(bytes.get(3..3 + problem_len)?.to_vec()).ok()?;
    let family_len = read_u16(bytes, 3 + problem_len)? as usize;
    let family_at = 3 + problem_len + 2;
    let family = String::from_utf8(bytes.get(family_at..family_at + family_len)?.to_vec()).ok()?;
    let base = column_base(problem_len, family_len);
    let column = |index: usize| read_u64(bytes, base + 8 * index);
    let flags = *bytes.get(base + 8 * RESULT_COLUMNS)?;
    if bytes.len() != base + 8 * RESULT_COLUMNS + 1 || flags & !0b11 != 0 {
        return None;
    }
    Some(CellResult {
        problem,
        family,
        requested_n: column(0)? as usize,
        n: column(1)? as usize,
        edges: column(2)? as usize,
        replicate: column(3)?,
        seed: column(4)?,
        uniform_rounds: column(5)?,
        uniform_messages: column(6)?,
        nonuniform_rounds: column(7)?,
        nonuniform_messages: column(8)?,
        overhead_ratio: f64::from_bits(column(9)?),
        subiterations: column(10)?,
        wall_micros: column(11)?,
        attempt_micros: column(12)?,
        prune_micros: column(13)?,
        instance_micros: column(14)?,
        solved: flags & 0b01 != 0,
        valid: flags & 0b10 != 0,
    })
}

/// Decodes only the summary columns, skipping over the strings without copying them —
/// no [`CellResult`] (and no heap allocation at all) is materialized.
pub fn decode_cell_columns(bytes: &[u8]) -> Option<CellColumns> {
    if *bytes.first()? != RESULT_WIRE_VERSION {
        return None;
    }
    let problem_len = read_u16(bytes, 1)? as usize;
    let family_len = read_u16(bytes, 3 + problem_len)? as usize;
    let base = column_base(problem_len, family_len);
    let column = |index: usize| read_u64(bytes, base + 8 * index);
    let flags = *bytes.get(base + 8 * RESULT_COLUMNS)?;
    if bytes.len() != base + 8 * RESULT_COLUMNS + 1 || flags & !0b11 != 0 {
        return None;
    }
    Some(CellColumns {
        uniform_rounds: column(5)?,
        uniform_messages: column(6)?,
        nonuniform_rounds: column(7)?,
        nonuniform_messages: column(8)?,
        overhead_ratio: f64::from_bits(column(9)?),
        wall_micros: column(11)?,
        solved: flags & 0b01 != 0,
        valid: flags & 0b10 != 0,
    })
}

// ------------------------------------------------------------------ the binary store -------

/// The segmented binary result store: [`CellResult`]s encoded into `local-store` records,
/// keyed by the full cell-identity string. One handle per directory: opening a directory
/// another handle (in any process) holds fails with [`std::io::ErrorKind::WouldBlock`].
#[derive(Debug)]
pub struct BinaryStore {
    inner: SegmentStore,
    code_version: String,
    hits: AtomicU64,
    misses: AtomicU64,
    rows_materialized: AtomicU64,
}

impl BinaryStore {
    /// Opens (creating or recovering) the store at `dir` under the crate's
    /// [`CODE_VERSION`].
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<BinaryStore> {
        BinaryStore::with_code_version(dir, CODE_VERSION)
    }

    /// Like [`BinaryStore::open`] with an explicit code-version tag.
    pub fn with_code_version(
        dir: impl Into<PathBuf>,
        code_version: impl Into<String>,
    ) -> std::io::Result<BinaryStore> {
        let inner = SegmentStore::open_with(dir.into(), StoreConfig::default())?;
        let stats = inner.stats();
        obs::gauge_max(obs::metrics::STORE_SEGMENTS, stats.segments);
        obs::counter_add(obs::metrics::STORE_INDEX_REBUILD_MICROS, stats.index_rebuild_micros);
        Ok(BinaryStore {
            inner,
            code_version: code_version.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rows_materialized: AtomicU64::new(0),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        self.inner.dir()
    }

    /// On-disk shape and append counters (see [`StoreStats`]).
    pub fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    /// Lookups served from the store by this handle.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed on this handle.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Full [`CellResult`] rows this handle has materialized — the columnar report path
    /// asserts this stays at zero.
    pub fn rows_materialized(&self) -> u64 {
        self.rows_materialized.load(Ordering::Relaxed)
    }

    /// The record key of one cell: every input that determines its result, kept whole so
    /// reads compare every field.
    fn key(&self, cell: &Scenario, base_seed: u64) -> Vec<u8> {
        let instance = cell.instance_key(base_seed);
        format!(
            "{}|{}|{}|{}|{}|{}|{}|{}",
            self.code_version,
            cell.problem.name(),
            instance.family.name(),
            instance.n,
            instance.seed,
            cell.n,
            cell.replicate,
            cell.cell_seed(base_seed),
        )
        .into_bytes()
    }

    fn count_lookup(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::counter_add(obs::metrics::STORE_HITS, 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            obs::counter_add(obs::metrics::STORE_MISSES, 1);
        }
    }
}

impl ResultStore for BinaryStore {
    fn load(&self, cell: &Scenario, base_seed: u64) -> Option<CellResult> {
        let result =
            self.inner.get(&self.key(cell, base_seed)).and_then(|value| decode_cell_result(&value));
        self.count_lookup(result.is_some());
        if result.is_some() {
            self.rows_materialized.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn load_columns(&self, cell: &Scenario, base_seed: u64) -> Option<CellColumns> {
        let columns = self
            .inner
            .get(&self.key(cell, base_seed))
            .and_then(|value| decode_cell_columns(&value));
        self.count_lookup(columns.is_some());
        columns
    }

    fn store(&self, cell: &Scenario, base_seed: u64, result: &CellResult) -> std::io::Result<()> {
        let bytes = self.inner.append(&self.key(cell, base_seed), &encode_cell_result(result))?;
        obs::counter_add(obs::metrics::STORE_RECORDS, 1);
        obs::counter_add(obs::metrics::STORE_BYTES, bytes);
        obs::gauge_max(obs::metrics::STORE_SEGMENTS, self.inner.stats().segments);
        Ok(())
    }

    fn describe(&self) -> String {
        format!("store:{}", self.inner.dir().display())
    }
}

// ------------------------------------------------------------------ columnar reports -------

/// Builds a grid's full report straight from a store, through the columnar path: per-cell
/// summary columns are folded in canonical grid order without materializing any
/// [`CellResult`] rows, so memory is `O(groups)`, not `O(cells)`. Errors if any cell of
/// the grid is missing from the store.
///
/// The environment fields no sweep ran for are zero (`threads`, `total_wall_micros`,
/// `distinct_instances` — a 100 %-hit sweep generates no instances), and `cache_hits`
/// equals the cell count, exactly like a re-sweep served entirely from the store, so the
/// report is byte-identical to that re-sweep's under [`Report::deterministic_view`].
pub fn report_from_store(grid: &ScenarioGrid, store: &dyn ResultStore) -> Result<Report, String> {
    let cells = grid.cells();
    let mut accumulator = SummaryAccumulator::new();
    for cell in &cells {
        accumulator.register(cell.problem.name(), cell.family.name());
    }
    for (position, cell) in cells.iter().enumerate() {
        let columns = store
            .load_columns(cell, grid.base_seed)
            .ok_or_else(|| format!("cell {} is not in {}", cell.label(), store.describe()))?;
        accumulator.fold_columns_at(position, cell.problem.name(), cell.family.name(), &columns);
    }
    Ok(Report {
        threads: 0,
        base_seed: grid.base_seed,
        cell_count: cells.len(),
        distinct_instances: 0,
        cache_hits: cells.len(),
        total_wall_micros: 0,
        summaries: accumulator.finish(),
        cells: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::workload;
    use local_graphs::{Family, FamilySpec};

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
            std::env::temp_dir().join(format!("binary-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn result_codec_round_trips() {
        let result = sample_result();
        let encoded = encode_cell_result(&result);
        assert_eq!(decode_cell_result(&encoded), Some(result.clone()));
        assert_eq!(decode_cell_columns(&encoded), Some(CellColumns::from(&result)));
    }

    #[test]
    fn codec_rejects_truncation_trailing_bytes_and_wrong_version() {
        let encoded = encode_cell_result(&sample_result());
        for cut in 0..encoded.len() {
            assert_eq!(decode_cell_result(&encoded[..cut]), None, "cut at {cut}");
            assert_eq!(decode_cell_columns(&encoded[..cut]), None, "cut at {cut}");
        }
        let mut padded = encoded.clone();
        padded.push(0);
        assert_eq!(decode_cell_result(&padded), None);
        assert_eq!(decode_cell_columns(&padded), None);
        let mut versioned = encoded;
        versioned[0] = RESULT_WIRE_VERSION + 1;
        assert_eq!(decode_cell_result(&versioned), None);
        assert_eq!(decode_cell_columns(&versioned), None);
    }

    #[test]
    fn binary_store_round_trips_and_separates_code_versions() {
        let dir = temp_dir("roundtrip");
        let cell = sample_cell();
        {
            let store = BinaryStore::with_code_version(&dir, "v1").unwrap();
            assert!(ResultStore::load(&store, &cell, 1).is_none());
            ResultStore::store(&store, &cell, 1, &sample_result()).unwrap();
            assert_eq!(ResultStore::load(&store, &cell, 1), Some(sample_result()));
            assert!(ResultStore::load(&store, &cell, 2).is_none(), "base seeds must separate");
        }
        {
            let bumped = BinaryStore::with_code_version(&dir, "v2").unwrap();
            assert!(ResultStore::load(&bumped, &cell, 1).is_none(), "version bump must miss");
        }
        let same = BinaryStore::with_code_version(&dir, "v1").unwrap();
        assert_eq!(ResultStore::load(&same, &cell, 1), Some(sample_result()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_cells_seeds_and_versions() {
        let (dir, bumped_dir) = (temp_dir("keys-v1"), temp_dir("keys-v2"));
        let store = BinaryStore::with_code_version(&dir, "v1").unwrap();
        let bumped = BinaryStore::with_code_version(&bumped_dir, "v2").unwrap();
        let a = sample_cell();
        let b = Scenario { replicate: 1, ..a.clone() };
        let c = Scenario { problem: workload("luby-mis"), ..a.clone() };
        assert_ne!(store.key(&a, 1), store.key(&b, 1), "replicates must not collide");
        assert_ne!(store.key(&a, 1), store.key(&c, 1), "problems must not collide");
        assert_ne!(store.key(&a, 1), store.key(&a, 2), "base seeds must not collide");
        assert_ne!(store.key(&a, 1), bumped.key(&a, 1), "code versions must not collide");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&bumped_dir);
    }

    #[test]
    fn column_loads_count_hits_but_materialize_no_rows() {
        let dir = temp_dir("columns");
        let store = BinaryStore::open(&dir).unwrap();
        let cell = sample_cell();
        ResultStore::store(&store, &cell, 1, &sample_result()).unwrap();
        let columns = store.load_columns(&cell, 1).expect("stored cell must hit");
        assert_eq!(columns, CellColumns::from(&sample_result()));
        assert!(store.load_columns(&cell, 9).is_none());
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.rows_materialized(), 0, "columnar loads must not build rows");
        assert_eq!(ResultStore::load(&store, &cell, 1), Some(sample_result()));
        assert_eq!(store.rows_materialized(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_from_store_errors_on_missing_cells() {
        let dir = temp_dir("missing");
        let store = BinaryStore::open(&dir).unwrap();
        let grid = ScenarioGrid::new()
            .problems([workload("mis")])
            .families([FamilySpec::from(Family::SparseGnp)])
            .sizes([48usize])
            .replicates(1);
        let err = report_from_store(&grid, &store).unwrap_err();
        assert!(err.contains("not in"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
