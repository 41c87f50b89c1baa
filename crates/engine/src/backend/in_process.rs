//! The in-process backend: the engine's work-stealing thread pool, behind [`ExecBackend`].

use super::{CellShard, EmitFn, ExecBackend};
use crate::pool;
use crate::scheduler::Instance;
use local_graphs::InstanceKey;
use local_runtime::Session;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Runs shards over [`crate::pool`] inside the current process — the backend `run_grid` has
/// always effectively been.
///
/// Per shard, the backend realizes each distinct graph instance once (in parallel, shared
/// via `Arc` across every cell that runs on it) and then executes the cells in shard order
/// over the pool, one reusable execution [`Session`] per worker thread.
#[derive(Debug)]
pub struct InProcessBackend {
    threads: usize,
}

impl InProcessBackend {
    /// A backend with the given worker-thread count (`0` = available parallelism, per
    /// [`pool::resolve_worker_count`]).
    pub fn new(threads: usize) -> Self {
        InProcessBackend { threads: pool::resolve_worker_count(threads) }
    }
}

impl ExecBackend for InProcessBackend {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn parallelism(&self) -> usize {
        self.threads
    }

    fn run_shard(&self, shard: &CellShard, emit: &EmitFn) {
        // Phase 1: realize each distinct instance the shard needs, once, in parallel.
        let keys: Vec<InstanceKey> = shard
            .cells
            .iter()
            .map(|cell| cell.instance_key(shard.base_seed))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let instances = pool::run_indexed(keys.len(), self.threads, |i| {
            Arc::new(Instance::generate(keys[i].clone()))
        });
        let instance_cache: HashMap<InstanceKey, Arc<Instance>> =
            keys.iter().cloned().zip(instances).collect();

        // Phase 2: execute the cells in shard order (the scheduler already cost-ordered
        // them), one reusable session per worker, emitting as cells complete.
        pool::run_indexed_with(shard.cells.len(), self.threads, Session::new, |session, k| {
            let cell = &shard.cells[k];
            let instance = &instance_cache[&cell.instance_key(shard.base_seed)];
            emit(k, crate::scheduler::run_cell_in(cell, instance, shard.base_seed, session));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::workload;
    use crate::report::CellResult;
    use crate::scenario::Scenario;
    use local_graphs::Family;
    use std::sync::Mutex;

    fn shard() -> CellShard {
        let cells = vec![
            Scenario {
                problem: workload("mis"),
                family: Family::SparseGnp.into(),
                n: 40,
                replicate: 0,
            },
            Scenario {
                problem: workload("mis"),
                family: Family::SparseGnp.into(),
                n: 40,
                replicate: 1,
            },
            Scenario {
                problem: workload("luby-mis"),
                family: Family::Grid.into(),
                n: 36,
                replicate: 0,
            },
        ];
        CellShard::new(5, cells)
    }

    fn run_collect(backend: &InProcessBackend, shard: &CellShard) -> Vec<CellResult> {
        let slots: Vec<Mutex<Option<CellResult>>> =
            shard.cells.iter().map(|_| Mutex::new(None)).collect();
        backend.run_shard(shard, &|k, result| {
            *slots[k].lock().unwrap() = Some(result);
        });
        slots.into_iter().map(|s| s.into_inner().unwrap().expect("cell emitted")).collect()
    }

    #[test]
    fn emits_every_cell_exactly_once_at_any_parallelism() {
        let shard = shard();
        let seq = run_collect(&InProcessBackend::new(1), &shard);
        let par = run_collect(&InProcessBackend::new(8), &shard);
        assert_eq!(seq.len(), shard.cells.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.deterministic_view(), b.deterministic_view());
        }
    }
}
