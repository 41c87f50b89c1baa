//! Timing decorators around the engine's two public extension points, used by the traced
//! run: a [`ResultStore`] wrapper that times every load and append, and an [`ExecBackend`]
//! wrapper that times `run_shard` and sums the compute time of the cells it emits.

use local_engine::backend::EmitFn;
use local_engine::{BinaryStore, CellColumns, CellResult, CellShard, CostModel, ExecBackend};
use local_engine::{ResultStore, Scenario};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

fn add_since(counter: &AtomicU64, started: Instant) {
    counter.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Seconds held in a nanosecond counter.
pub fn seconds(counter: &AtomicU64) -> f64 {
    counter.load(Ordering::Relaxed) as f64 / 1e9
}

/// A [`BinaryStore`] whose lookups and appends are timed and counted.
#[derive(Debug)]
pub struct TimedStore {
    pub inner: BinaryStore,
    pub load_ns: AtomicU64,
    pub hits: AtomicU64,
    pub append_ns: AtomicU64,
    pub appends: AtomicU64,
}

impl TimedStore {
    pub fn new(inner: BinaryStore) -> Self {
        TimedStore {
            inner,
            load_ns: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            append_ns: AtomicU64::new(0),
            appends: AtomicU64::new(0),
        }
    }

    fn timed_load<T>(&self, load: impl FnOnce() -> Option<T>) -> Option<T> {
        let started = Instant::now();
        let found = load();
        add_since(&self.load_ns, started);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }
}

impl ResultStore for TimedStore {
    fn load(&self, cell: &Scenario, base_seed: u64) -> Option<CellResult> {
        self.timed_load(|| self.inner.load(cell, base_seed))
    }

    fn load_columns(&self, cell: &Scenario, base_seed: u64) -> Option<CellColumns> {
        self.timed_load(|| self.inner.load_columns(cell, base_seed))
    }

    fn store(&self, cell: &Scenario, base_seed: u64, result: &CellResult) -> std::io::Result<()> {
        let started = Instant::now();
        let stored = self.inner.store(cell, base_seed, result);
        add_since(&self.append_ns, started);
        self.appends.fetch_add(1, Ordering::Relaxed);
        stored
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// What [`TimedBackend`] measured.
#[derive(Debug, Default)]
pub struct ShardTimes {
    pub run_shard_ns: AtomicU64,
    /// Sum of the emitted cells' own `wall_micros`: the time spent computing, wherever the
    /// cell ran.
    pub compute_us: AtomicU64,
    /// Serialized size of the stripes the backend splits each shard into — the request
    /// bytes a remote transport ships, computed with serde rather than observed on a wire.
    pub shard_bytes: AtomicU64,
}

/// An execution backend whose `run_shard` calls are timed when it carries [`ShardTimes`];
/// without them it only delegates.
pub struct TimedBackend<'a> {
    pub inner: Box<dyn ExecBackend + 'a>,
    pub times: Option<&'a ShardTimes>,
}

impl<'a> TimedBackend<'a> {
    pub fn untimed(inner: Box<dyn ExecBackend + 'a>) -> Self {
        TimedBackend { inner, times: None }
    }
}

impl ExecBackend for TimedBackend<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn parallelism(&self) -> usize {
        self.inner.parallelism()
    }

    fn run_shard(&self, shard: &CellShard, emit: &EmitFn) {
        let Some(times) = self.times else {
            return self.inner.run_shard(shard, emit);
        };
        let bytes: usize = shard
            .stripe(self.inner.parallelism())
            .iter()
            .map(|(stripe, _)| serde_json::to_string(stripe).expect("shard serializes").len())
            .sum();
        times.shard_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let started = Instant::now();
        self.inner.run_shard(shard, &|k, result| {
            times.compute_us.fetch_add(result.wall_micros, Ordering::Relaxed);
            emit(k, result)
        });
        add_since(&times.run_shard_ns, started);
    }

    fn calibration(&self) -> CostModel {
        self.inner.calibration()
    }
}
